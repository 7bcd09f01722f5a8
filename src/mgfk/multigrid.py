"""V-cycle multigrid engine.

A hierarchy is built once from a fine operator (Galerkin or geometric
coarsening), its numerical content is immutable afterwards, and it is
shared by every solve.  Grids are 1D (m,) or 2D (m, m), the two cases the
paper's uniform bounds cover, with m = 2**k - 1, and bottom out at a single
point, where the coarse solve is an exact scalar division.

A cycle allocates nothing but the array it returns: it runs in place on
per-level scratch buffers (``LevelWork``), which a hierarchy makes on its
first cycle for a given dtype (float64 for real time steppers and
``measure_contraction``, complex128 for complex steppers, from their first
complex value on) and reuses from then on.  Every kernel (apply,
smoother, transfers) is built with the buffers as a tuple of
``(ufunc, args)`` calls into preallocated outputs, in the operation order
of the plain array expressions, so the iterates do not depend on the
buffering.  On the first cycle from a given level and start, the hierarchy
splices those of every level into one flat tape, the whole V-cycle down to
the coarsest grid (``MgHierarchy.tape``); a cycle loads its arguments and
runs it (``stencil.run_calls``), with no recursion and no lookup per
level.  ``build_hierarchy`` makes neither buffers nor tapes.
``vcycle`` and ``solve`` return new arrays, never a buffer.  Because the
buffers are shared, two threads must not cycle on one hierarchy at the
same time.

The smoother is damped Jacobi.  One cycle performs ``pre_count`` pre-smooths
with the pre-weight, one coarse-grid correction, and post-smooths with the
post-weight.  The post-smoothing loop is indexed the way the driving scheme
counts iterates: with counts (m1, m2) the correction itself occupies iterate
m1+1, so m2 - 1 damped-Jacobi applications follow it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import transfer
from .errors import DimensionError, EligibilityError
from .stencil import (
    KroneckerSum,
    PaddedApply,
    grid_depth,
    require_coarsenable,
    require_spd_eligible,
    run_calls,
)


@dataclass(frozen=True)
class GridLevel:
    """One level of the hierarchy: operator, points per dimension, diagonal."""

    operator: KroneckerSum
    m: int
    diag: float

    @property
    def shape(self) -> tuple:
        return (self.m,) * self.operator.ndim

    @property
    def unknowns(self) -> int:
        return self.m**self.operator.ndim

    @cached_property
    def _kernels(self) -> dict:
        return {}

    def kernel(self, dtype) -> PaddedApply:
        """A ``PaddedApply`` of the level's operator for ``dtype``, made on
        first use and kept, apart from any cycle's workspace."""
        dtype = np.dtype(dtype)
        kernel = self._kernels.get(dtype)
        if kernel is None:
            kernel = self._kernels[dtype] = PaddedApply(self.operator, self.m, dtype)
        return kernel


class LevelWork:
    """Scratch of one level for one dtype, and the ufunc calls that work on it.

    ``v`` is the iterate, the grid held in the apply's run (``v_run``), ``r``
    the residual and temporary (the apply's output), and ``rhs`` the
    right-hand side a cycle on this level reads: the one the level above
    restricts into, or the one ``solve`` or a caller's ``f`` is copied into.
    Each grid is held in the apply's run layout, rows of m + 1 cells
    (``v_run``, ``r_run``, ``rhs_run``), where the smoother's arithmetic
    runs; the pad cells of ``r_run`` and ``rhs_run`` are kept at zero, so
    the updates keep those of ``v_run`` at zero, and the prolongation reads
    its edges from them.  ``residual`` is
    the calls that form ``r = rhs - A v``.  ``restrict`` (``r`` into the
    next level's ``rhs``, its pad cells refilled with zeros) and ``prolong``
    (the next level's ``v`` into ``r``, pad cells zero) are bound by
    ``MgHierarchy.workspace``.
    """

    def __init__(self, level: GridLevel, dtype):
        self.apply = PaddedApply(level.operator, level.m, dtype)
        self.v, self.v_run, self.r_run = self.apply.x, self.apply.run, self.apply.out
        self.rhs_run = np.zeros_like(self.v_run)
        self.r, self.rhs = self.apply.interior(self.r_run), self.apply.interior(self.rhs_run)
        self.diag = level.diag
        self.residual = (
            *self.apply.calls,
            (np.subtract, (self.rhs_run, self.r_run, self.r_run)),
            *((pad.fill, (0.0,)) for pad in self.apply.pads(self.r_run)),
        )
        self.restrict = self.prolong = None

    def scalar(self, value: float) -> np.ndarray:
        """``value`` as a 0-d array of the level's dtype."""
        return np.array(value, self.v.dtype)

    def update(self, weight: float) -> tuple:
        """The calls of ``v += (weight / diag) r``."""
        scale, r, x = self.scalar(weight / self.diag), self.r_run, self.v_run
        return (np.multiply, (r, scale, r)), (np.add, (x, r, x))

    def sweep(self, weight: float) -> tuple:
        """The calls of one damped-Jacobi sweep with ``weight``."""
        return self.residual + self.update(weight)


def _work_dtype(*arrays) -> np.dtype:
    """The dtype a cycle on these arrays (``None`` skipped) runs in: float
    or complex, as ``np.result_type(*arrays, float)`` but cheaper."""
    dtype = np.dtype(float)
    for a in arrays:
        if a is not None:
            dtype = np.promote_types(dtype, np.asarray(a).dtype)
    return dtype


@dataclass(frozen=True)
class MgHierarchy:
    """Multigrid hierarchy, finest level first.

    Its levels and parameters are immutable; its cycles' scratch buffers
    (``workspace``) and the tapes of calls on them (``tape``) are made on
    first use per dtype and reused, so one hierarchy serves one solve at a
    time.
    """

    levels: tuple
    omega_pre: float = 1.0
    omega_post: float = 0.5
    pre_count: int = 1
    post_count: int = 2
    strategy: str = "galerkin"

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def fine(self) -> GridLevel:
        return self.levels[0]

    @property
    def post_smooths(self) -> int:
        """Damped-Jacobi applications after the coarse correction."""
        return self.post_count - 1

    @cached_property
    def _work(self) -> dict:
        return {}

    @cached_property
    def _tapes(self) -> dict:
        return {}

    def workspace(self, dtype) -> tuple:
        """The ``LevelWork`` of every level for ``dtype``, made on first use,
        with the transfers bound between neighbouring levels."""
        dtype = np.dtype(dtype)
        work = self._work.get(dtype)
        if work is None:
            work = tuple(LevelWork(lv, dtype) for lv in self.levels)
            for lv, fine, coarse in zip(self.levels, work, work[1:]):
                fine.restrict = transfer.Restriction(fine.r_run, coarse.rhs_run, lv.shape)
                fine.prolong = transfer.Prolongation(coarse.apply.framed, fine.r_run, lv.shape)
            self._work[dtype] = work
        return work

    def tape(self, dtype, level: int, start: str) -> tuple:
        """The ufunc calls of one cycle from ``level`` down on the ``dtype``
        workspace, made on first use.  The cycle's iterate ``start``s from
        ``"zero"``, from the loaded ``v`` and its loaded residual ``r``
        (``"residual"``), or from the loaded ``v`` alone (``"iterate"``)."""
        key = (dtype, level, start)
        tape = self._tapes.get(key)
        if tape is None:
            tape = self._tapes[key] = _cycle_calls(self, self.workspace(dtype), level, start)
        return tape


def _cycle_calls(h: MgHierarchy, work: tuple, level: int, start: str) -> tuple:
    """The body of one V-cycle on ``work[level]`` and, spliced in, the zero-start
    cycle of every level below, as ``(ufunc, args)`` pairs run in order."""
    ws = work[level]
    x = ws.v_run
    if level == h.depth - 1:
        return ((np.divide, (ws.rhs_run, ws.scalar(ws.diag), x)),)
    pre, calls = h.pre_count, ()
    if start == "zero" and not pre:
        calls = ((x.fill, (0.0,)),)
    elif start == "zero":  # the first sweep from zero needs no apply: v = omega_pre * rhs / diag
        calls, pre = ((np.multiply, (ws.rhs_run, ws.scalar(h.omega_pre / ws.diag), x)),), pre - 1
    elif start == "residual" and pre:  # nor one from a given residual
        calls, pre = ws.update(h.omega_pre), pre - 1
    return (
        calls
        + ws.sweep(h.omega_pre) * pre
        + ws.residual
        + ws.restrict.calls
        + _cycle_calls(h, work, level + 1, "zero")
        + ws.prolong.calls
        + ((np.add, (x, ws.r_run, x)),)
        + ws.sweep(h.omega_post) * h.post_smooths
    )


@dataclass
class SolveReport:
    """Outcome of an iterative solve."""

    iterations: int
    residuals: list = field(default_factory=list)
    converged: bool = False
    contraction_factor: float = math.nan


def build_hierarchy(
    fine_operator: KroneckerSum,
    m: int,
    strategy: str = "galerkin",
    *,
    omega_pre: float = 1.0,
    omega_post: float = 0.5,
    pre_count: int = 1,
    post_count: int = 2,
) -> MgHierarchy:
    """Build the full hierarchy down to a one-point grid.

    Parameters
    ----------
    fine_operator : KroneckerSum
        Finest-level operator; must be SPD-eligible.
    m : int
        Points per dimension on the finest grid, of the form 2**K - 1.
    strategy : "galerkin" or "geometric"
        Each coarse level is ``galerkin()`` or ``rediscretised()`` of the one above.
    omega_pre, omega_post : float
        Damped-Jacobi weights for pre- and post-smoothing.
    pre_count, post_count : int
        Smoothing counts (m1, m2); see the module docstring for how
        post_count translates into actual smoother applications.
    """
    depth = grid_depth(m)
    for name, omega in (("omega_pre", omega_pre), ("omega_post", omega_post)):
        if not 0.0 < omega < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {omega}")
    if pre_count < 0 or post_count < 1:
        raise ValueError("smoothing counts must satisfy m1 >= 0, m2 >= 1")
    coarsen = {"galerkin": KroneckerSum.galerkin, "geometric": KroneckerSum.rediscretised}
    if strategy not in coarsen:
        raise ValueError(f"unknown coarsening strategy: {strategy!r}")

    levels = []
    op = fine_operator
    for d in range(depth):
        if d > 0:
            op = coarsen[strategy](op)
        try:
            require_spd_eligible(op)
            require_coarsenable(op.mass)
            require_coarsenable(op.stiff)
        except EligibilityError as exc:
            raise EligibilityError(f"level {d} (size {2 ** (depth - d) - 1}): {exc}") from exc
        levels.append(GridLevel(operator=op, m=2 ** (depth - d) - 1, diag=op.diagonal))

    return MgHierarchy(
        levels=tuple(levels),
        omega_pre=omega_pre,
        omega_post=omega_post,
        pre_count=pre_count,
        post_count=post_count,
        strategy=strategy,
    )


def smooth(
    level: GridLevel,
    v: np.ndarray,
    f: np.ndarray,
    weight: float,
    steps: int,
) -> np.ndarray:
    """Damped Jacobi: v <- v + weight * (f - A v) / diag, ``steps`` times.

    Runs the sweeps of a ``LevelWork`` made for the call and returns its
    ``v``; ``v`` is left as it was.
    """
    if not 0.0 < weight < math.inf:
        raise ValueError(f"smoothing weight must be positive and finite, got {weight}")
    if steps < 0:
        raise ValueError(f"need steps >= 0, got {steps}")
    work = LevelWork(level, _work_dtype(v, f))
    work.v[...] = v
    work.rhs[...] = f
    run_calls(work.sweep(weight) * steps)
    return work.v


def vcycle(
    h: MgHierarchy,
    v: np.ndarray | None,
    f: np.ndarray,
    level: int = 0,
    r: np.ndarray | None = None,
) -> np.ndarray:
    """One V-cycle sweep from iterate ``v`` on a level's grid or flat vector.

    ``v=None`` is the zero start of every coarse-grid correction; its first
    pre-smoothing sweep is exactly ``omega_pre * f / diag``, with no apply.
    ``r``, the residual ``f - A v`` a caller has already formed, likewise
    spares the first pre-smoothing sweep its apply.

    The sweep loads its arguments into the level's ``LevelWork`` (nothing
    to load for an argument that is that work's own ``v``, ``rhs`` or
    ``r``), runs the level's tape for that start (``MgHierarchy.tape``,
    the whole cycle down to the coarsest level as one flat run of ufunc
    calls), and returns a copy of the iterate, except when ``f`` is the
    work's own ``rhs``: then the result is left in its ``v``, which is
    returned.  ``solve`` runs in place that way.

    On the one-point coarsest grid the equation is solved exactly, so the
    cycle implements an approximate inverse whose error propagator
    contracts in the energy norm.
    """
    lv = h.levels[level]
    f = np.asarray(f)
    flat = f.shape != lv.shape
    if flat:
        if f.shape != (lv.unknowns,):
            raise DimensionError(f"rhs has shape {f.shape}, level needs {lv.shape} or flat")
        v, f, r = (a if a is None else np.reshape(a, lv.shape) for a in (v, f, r))
    dtype = _work_dtype(f, v, r)
    ws = h.workspace(dtype)[level]
    if v is None:
        start = "zero"
    else:
        start = "residual" if r is not None and h.pre_count else "iterate"
        if v is not ws.v:
            ws.v[...] = v
        if start == "residual" and r is not ws.r:
            ws.r[...] = r
    if f is not ws.rhs:
        ws.rhs[...] = f
    run_calls(h.tape(dtype, level, start))
    if f is ws.rhs:
        return ws.v
    return ws.v.flatten() if flat else ws.v.copy()


def solve(
    h: MgHierarchy,
    f: np.ndarray,
    v0: np.ndarray | None = None,
    tol: float = 1e-11,
    max_iter: int = 200,
) -> tuple[np.ndarray, SolveReport]:
    """Iterate V-cycles until the relative Euclidean residual drops below tol.

    The cycles run in place in the fine level's ``LevelWork``; the solution
    comes back as a new flat array.  Non-convergence within ``max_iter`` is
    reported, not raised: the report comes back with ``converged=False`` and
    the full residual history.  A non-finite residual, ``r0`` included,
    stops the iteration at once.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    lv = h.fine
    for name, arg in (("f", f), ("v0", v0)):
        if arg is not None and np.shape(arg) != (lv.unknowns,):
            raise DimensionError(f"{name} has shape {np.shape(arg)}, level needs ({lv.unknowns},)")
    ws = h.workspace(_work_dtype(f, v0))[0]
    ws.rhs[...] = np.reshape(f, lv.shape)
    if v0 is None:
        ws.v_run.fill(0.0)
    else:
        ws.v[...] = np.reshape(v0, lv.shape)
    r = np.empty(lv.shape, ws.r.dtype)  # the residual, contiguous, for its norm

    def residual_norm() -> float:
        run_calls(ws.residual)
        r[...] = ws.r
        return float(np.linalg.norm(r))

    r0 = residual_norm()
    if r0 == 0.0:
        return ws.v.flatten(), SolveReport(0, [], converged=True, contraction_factor=0.0)
    if not math.isfinite(r0):
        return ws.v.flatten(), SolveReport(iterations=0, residuals=[math.nan])

    report = SolveReport(iterations=0)
    for it in range(1, max_iter + 1):
        v = vcycle(h, ws.v, ws.rhs, r=ws.r)  # ran in place, so v is ws.v: nothing to copy
        if v is not ws.v:
            ws.v[...] = v
        rel = residual_norm() / r0
        report.residuals.append(rel)
        report.iterations = it
        if rel < tol:
            report.converged = True
            break
        if not math.isfinite(rel):
            break

    ratios = [
        report.residuals[i] / report.residuals[i - 1]
        for i in range(1, len(report.residuals))
        if report.residuals[i - 1] > 0.0
    ]
    if ratios:
        late = ratios[3:] if len(ratios) > 3 else ratios
        report.contraction_factor = max(late)
    return ws.v.flatten(), report


def energy_norm(level: GridLevel, e: np.ndarray) -> float:
    """Norm induced by the SPD level operator: sqrt((A e, e)), the product
    through the level's ``kernel``."""
    kernel = level.kernel(_work_dtype(e))
    kernel.x[...] = level.operator.grid(e)
    val = np.vdot(e, kernel.interior(kernel())).real
    return math.sqrt(max(val, 0.0))


def measure_contraction(
    h: MgHierarchy,
    trials: int = 4,
    iters: int = 12,
    discard: int = 3,
    seed: int = 0,
    monotone_slack: float | None = None,
) -> float:
    """Estimate the energy-norm contraction factor of the error propagator.

    Runs the homogeneous problem (f = 0) from random initial errors and
    returns the largest per-iteration ratio ||e_new||_A / ||e_old||_A after
    the first ``discard`` transient iterations, so ``iters`` must exceed
    ``discard >= 0``.  A cycle that drives the energy norm to inf or nan
    diverges: the estimate is then ``math.inf``.  If ``monotone_slack`` is
    given, a ratio above 1 + monotone_slack raises ``AssertionError``.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if discard < 0 or iters <= discard:
        raise ValueError(f"need iters > discard >= 0, got iters={iters}, discard={discard}")
    rng = np.random.default_rng(seed)
    lv = h.fine
    zero = np.zeros(lv.shape)
    worst = 0.0
    for _ in range(trials):
        e = rng.standard_normal(lv.unknowns).reshape(lv.shape)
        e /= np.linalg.norm(e)
        prev = energy_norm(lv, e)
        for i in range(1, iters + 1):
            e = vcycle(h, e, zero)
            cur = energy_norm(lv, e)
            if not math.isfinite(cur):
                return math.inf
            if prev <= 1e-300:
                break
            ratio = cur / prev
            if monotone_slack is not None:
                assert ratio <= 1.0 + monotone_slack, f"energy norm grew: ratio={ratio}"
            if i > discard:
                worst = max(worst, ratio)
            prev = cur
    return worst
