"""V-cycle multigrid engine.

A hierarchy is built once from a fine operator (Galerkin or geometric
coarsening), its numerical content is immutable afterwards, and it is
shared by every solve.  Grids are 1D (m,) or 2D (m, m), the two cases the
paper's uniform bounds cover, with m = 2**k - 1, and bottom out at a single
point, where the coarse solve is an exact scalar division.

The operators are real, so a V-cycle is a real linear map, and a cycle on
complex data is one cycle on its real part and one on its imaginary part.
Per dtype a hierarchy makes on first use, and reuses, a ``Tape``, which
cycles in place on float64 per-level scratch buffers (``LevelWork``) of its
own (long double data raise ``MgfkError``), in one run layout: along the
last axis each row holds, per part, its n points and one zero pad cell,
real data one part, complex data the real and then the imaginary part, a 1D
grid one row.  What reaches across a part boundary reads a zero pad cell,
as it reads the frame around the grid, so one kernel runs both parts.  A
tape's runs are views of one arena, placed so that where a run sits does
not follow earlier allocations (``_levels``, ``_carve``).  Every level
operation (residual, damped update, restriction, zero start, prolongation,
which adds the coarse correction onto the iterate, coarsest step) is an
``executor.Kernel`` on the buffers, each level's transfers bound to the
next level's when it is built.  The tape splices the kernels of every level
into one flat run, the whole V-cycle with no recursion, one executor call.
A kernel stores only what a later one reads.  The tape cycles from the
loaded fine iterate and the residual formed from it: ``solve`` and
``measure_contraction`` form that residual for their norms and cycle from
it in place, ``vcycle`` forms it to cycle once, from a zero iterate if it
is given none.  A whole ``solve`` is one call too (``Tape.solve``, an
``executor.Solve``).  On finite data the parts hold the values numpy's
complex arithmetic gives on the same kernels, up to the sign of a zero, as
every scalar is real and a complex tape's coarsest step multiplies by the
reciprocal of the diagonal, as numpy's complex division by a real divisor
does (real data divide).  ``build_hierarchy`` makes neither buffers nor
tapes.  ``vcycle`` and ``solve`` return new arrays, never a buffer.
Because its tapes are reused, two threads must not cycle on one hierarchy
at once.

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
from itertools import islice

import numpy as np

from . import transfer
from .errors import DimensionError, EligibilityError, MgfkError, require_memory
from .executor import CONVERGED, DIVIDE, RESIDUAL, SCALE, UPDATE, ZERO, Kernel, Solve, dot
from .stencil import (
    KroneckerSum,
    grid_depth,
    interior,
    pad_period,
    require_coarsenable,
    require_spd_eligible,
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


class LevelWork:
    """Scratch of one level for data of ``parts`` parts, and its kernels.

    ``v`` is the iterate, ``r`` the residual and temporary, and ``rhs`` the
    right-hand side a cycle on this level reads: the one the level above
    restricts into, or the one a driver loads on the fine level; each is
    one grid per part, on a first axis.  Each is held in the run layout,
    rows of ``parts`` (m + 1) cells (``v_run``, ``r_run``, ``rhs_run``),
    where the arithmetic runs.  The level works in ``runs``, zeroed flat
    arrays of the lengths of ``layout`` that ``_levels`` carves from its
    tape's arena: the storage of the iterate, ``r_run``, ``rhs_run`` and,
    on a level with a coarse neighbour in 2D, the row buffer both its
    transfers pass through (``transfer.row_buffer``).  The iterate's run
    sits inside that storage with zero cells one row (in 1D one cell) wide
    on either side, ``framed`` with it, and one cell more at either end, so
    that a point's neighbour past the end of a row, before the start of the
    next or off the first or last row is a zero cell.
    The pad cells of ``r_run`` and ``rhs_run`` are kept at zero, so the
    updates keep those of ``v_run`` at zero, and the prolongation reads its
    edges from ``framed``, adding zeros onto them.  ``residual`` is the kernel of
    ``r = rhs - A v``: ``centre`` times the iterate, plus per off-centre
    point of the operator (``points``) its window of that storage times
    its coefficient, subtracted from ``rhs``.  ``restrict`` (``r`` into the
    ``rhs`` of ``coarse``, the next level, its pad cells refilled with
    zeros) and ``prolong`` (its ``v`` interpolated and added onto ``v``)
    are the transfers' kernels; the coarsest level has none (``None``).
    """

    def __init__(self, level: GridLevel, parts: int, runs: tuple, coarse: "LevelWork | None" = None):
        self.shape, self.diag, self.runs = level.shape, level.diag, runs
        centre, points = level.operator.points
        stride, first, size = _frame(self.shape, parts)
        flat, self.r_run, self.rhs_run = runs[:3]
        self.v_run = flat[first : first + size]
        self.framed = flat[first - stride[0] : first + size + stride[0]]
        parted = (*self.shape[:-1], parts, self.shape[-1])  # each row a row of every part
        self.v, self.r, self.rhs = (np.moveaxis(interior(a, parted), -2, 0)
                                    for a in (self.v_run, self.r_run, self.rhs_run))
        starts = (first + sum((w.start - 1) * st for w, st in zip(window, stride)) for window, _ in points)
        taps = tuple((flat[i : i + size], float(c)) for i, (_, c) in zip(starts, points))
        self.residual = Kernel(RESIDUAL, self.r_run, self.v_run, self.rhs_run, float(centre),
                               pad_period(self.shape), taps)
        self.restrict = self.prolong = None
        if coarse is not None:
            row = runs[3] if len(runs) > 3 else None
            self.restrict = transfer.restriction(self.r_run, coarse.rhs_run, self.shape, row)
            self.prolong = transfer.prolongation(coarse.framed, self.v_run, self.shape, row)

    @staticmethod
    def layout(shape: tuple, parts: int, coarse: bool) -> tuple:
        """The ``runs`` of a level of ``shape`` for data of ``parts`` parts,
        with a coarse neighbour or without, as ``_carve`` takes them: per
        run its length and the cell of it that sits aligned, the iterate's
        origin in its storage and the first cell of every other run."""
        _, first, size = _frame(shape, parts)
        row = transfer.row_buffer(shape, parts) if coarse else 0
        return ((size + 2 * first, first), (size, 0), (size, 0)) + (((row, 0),) if row else ())

    def update(self, weight: float) -> Kernel:
        """The kernel of ``v += r (weight / diag)``."""
        return Kernel(UPDATE, self.v_run, self.r_run, s=float(weight / self.diag))

    def sweep(self, weight: float) -> tuple:
        """The kernels of one damped-Jacobi sweep with ``weight``."""
        return self.residual, self.update(weight)


def _frame(shape: tuple, parts: int) -> tuple:
    """Per axis of a grid of ``shape`` in rows of ``parts`` parts its flat
    stride, the origin of the iterate's run in its storage, the run's length."""
    rows = (*shape[:-1], parts * pad_period(shape))
    stride = [math.prod(rows[k + 1 :]) for k in range(len(rows))]
    return stride, sum(stride), math.prod(rows)


#: Where ``_carve`` puts the aligned cell of each run of an arena: in a run
#: of at least ``_PAGE`` bytes, ``_STAGGER`` bytes times the run's place in
#: the arena, modulo ``_PAGE``, past a page boundary, so that runs a kernel
#: reads together do not alias modulo a page; in a shorter one, on a cache
#: line of ``_LINE`` bytes.
_PAGE, _LINE, _STAGGER = 4096, 64, 576


def _carve(runs: list, dtype) -> list:
    """Zeroed flat ``dtype`` arrays, one per ``(length, aligned cell)`` of
    ``runs`` and in that order views of one arena that ``np.zeros``
    allocates, placed as ``_PAGE``, ``_LINE`` and ``_STAGGER`` say; an
    arena past physical memory raises ``MgfkError`` first."""
    item, starts, end = np.dtype(dtype).itemsize, [], 0
    for i, (n, cell) in enumerate(runs):
        skew, align = (i * _STAGGER % _PAGE, _PAGE) if n * item >= _PAGE else (0, _LINE)
        end += (skew - end - cell * item) % align
        starts.append(end // item)
        end += n * item
    require_memory(end + _PAGE, "a tape's arena")
    arena = np.zeros((end + _PAGE) // item, dtype)
    base = -arena.__array_interface__["data"][0] % _PAGE // item
    return [arena[base + s : base + s + n] for s, (n, _) in zip(starts, runs)]


def _levels(levels: tuple, parts: int, dtype=np.float64) -> tuple:
    """The ``LevelWork`` of every level for ``parts`` parts, finest first, each
    bound to the next, their runs carved in that order from one arena (``_carve``)."""
    layouts = [LevelWork.layout(lv.shape, parts, k + 1 < len(levels)) for k, lv in enumerate(levels)]
    runs = iter(_carve([run for layout in layouts for run in layout], dtype))
    groups = [tuple(islice(runs, len(layout))) for layout in layouts]
    work = ()
    for lv, group in zip(reversed(levels), reversed(groups)):
        work = (LevelWork(lv, parts, group, work[0] if work else None),) + work
    return work


#: The parts of the data of each dtype a cycle runs.
_PARTS = {np.dtype(np.float64): 1, np.dtype(np.complex128): 2}


def _parts(x, parts: int) -> tuple:
    """The ``parts`` parts of ``x``: ``x`` itself, or its real and imaginary parts."""
    return (x,) if parts == 1 else (x.real, x.imag)


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
    """Multigrid hierarchy, finest level first, as ``build_hierarchy`` checks and makes it.

    Its levels and parameters are immutable; the ``Tape`` of each dtype,
    which owns its cycles' scratch buffers, is made on first use and
    reused, so one hierarchy serves one solve at a time.
    """

    levels: tuple
    omega_pre: float
    omega_post: float
    pre_count: int
    post_count: int
    strategy: str

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
    def _tapes(self) -> dict:
        return {}

    def tape(self, dtype) -> "Tape":
        """The ``Tape`` of ``dtype`` data, made on first use; a dtype other
        than float64 and complex128 (long double, which ``_work_dtype``
        keeps) raises ``MgfkError`` before anything is made."""
        dtype = np.dtype(dtype)
        if dtype not in _PARTS:
            raise MgfkError(f"V-cycles run float64 and complex128 data, not {dtype}")
        if dtype not in self._tapes:
            self._tapes[dtype] = Tape(self, dtype)
        return self._tapes[dtype]


class Tape:
    """A hierarchy's V-cycle on ``dtype`` data, run on float64 runs.

    ``work`` is the ``LevelWork`` of every level (``_levels``), one arena
    shared with no other tape; ``fine`` is the fine level.  ``solve`` is
    the ``executor.Solve`` of the tape's kernels, and its runners are the
    tape's: ``residual`` forms ``r = rhs - A v``, and ``cycle`` runs one
    V-cycle from the loaded ``v`` and that residual.
    """

    def __init__(self, h: MgHierarchy, dtype: np.dtype):
        self.parts = _PARTS[dtype]
        self.work = _levels(h.levels, self.parts)
        self.fine = self.work[0]
        self.solve = Solve(_cycle_kernels(h, self.work, 0, self.parts > 1), self.fine.residual)
        self.residual, self.cycle = self.solve.residual, self.solve.cycle
        self.shape, self.dtype = h.fine.shape, dtype

    def load(self, v, f) -> None:
        """Put the iterate ``v`` (``None``: zero) and the right-hand side
        ``f``, fine grids or their flat vectors, into every part."""
        v = 0.0 if v is None else np.reshape(v, self.shape)
        for p, (x, b) in enumerate(zip(_parts(v, self.parts), _parts(np.reshape(f, self.shape), self.parts))):
            self.fine.v[p], self.fine.rhs[p] = x, b

    def result(self) -> np.ndarray:
        """The iterate of every part, as a new grid."""
        out = np.empty(self.shape, self.dtype)
        for part, v in zip(_parts(out, self.parts), self.fine.v):
            part[...] = v
        return out


def _cycle_kernels(h: MgHierarchy, work: tuple, level: int, reciprocal: bool) -> tuple:
    """One V-cycle on the ``LevelWork`` of every level, ``work``, from
    ``level`` down, as kernels run in order: on the fine level from the
    loaded iterate and its formed residual, below it from zero.  A
    pre-smoothing sweep is an update from the formed residual, then the new
    residual; from zero that residual is ``rhs``, so a coarse level's first
    update needs no apply: v = omega_pre * rhs / diag.  The coarsest step
    divides by the diagonal, or on complex data (``reciprocal``) multiplies
    by its reciprocal, as numpy's complex division does."""
    ws = work[level]
    x, rhs = ws.v_run, ws.rhs_run
    if level == h.depth - 1:
        if reciprocal:
            return (Kernel(SCALE, x, rhs, s=float(1.0 / ws.diag)),)
        return (Kernel(DIVIDE, x, rhs, s=float(ws.diag)),)
    pre, kernels = h.pre_count, ()
    if level > 0:
        first = Kernel(SCALE, x, rhs, s=float(h.omega_pre / ws.diag)) if pre else Kernel(ZERO, x)
        kernels, pre = (first, ws.residual), max(pre - 1, 0)
    return (
        kernels
        + (ws.update(h.omega_pre), ws.residual) * pre
        + (ws.restrict,)
        + _cycle_kernels(h, work, level + 1, reciprocal)
        + (ws.prolong,)
        + ws.sweep(h.omega_post) * h.post_smooths
    )


def _require_integers(**counts) -> None:
    """Raise ``ValueError`` unless every value given is an integer, not a ``bool``."""
    for name, count in counts.items():
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {count!r}")


@dataclass
class SolveReport:
    """Outcome of an iterative solve."""

    iterations: int
    residuals: list = field(default_factory=list)
    converged: bool = False


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
        Integer smoothing counts (m1, m2); see the module docstring for how
        post_count translates into actual smoother applications.
    """
    depth = grid_depth(m)
    for name, omega in (("omega_pre", omega_pre), ("omega_post", omega_post)):
        if not 0.0 < omega < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {omega}")
    _require_integers(pre_count=pre_count, post_count=post_count)
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


def vcycle(h: MgHierarchy, v: np.ndarray | None, f: np.ndarray) -> np.ndarray:
    """One V-cycle sweep from iterate ``v`` on the fine grid or its flat
    vector, the shape of ``f``; another shape raises ``DimensionError``.

    The sweep loads ``v`` (``v=None``: zero) and ``f`` into the fine
    ``LevelWork`` of the tape of their dtype, forms the residual and runs
    the tape from it (``MgHierarchy.tape``, the whole cycle down to the
    coarsest level as one flat run of kernels); it returns a copy of the
    iterate.

    On the one-point coarsest grid the equation is solved exactly, so the
    cycle implements an approximate inverse whose error propagator
    contracts in the energy norm.
    """
    lv = h.fine
    f = np.asarray(f)
    if f.shape not in (lv.shape, (lv.unknowns,)):
        raise DimensionError(f"rhs has shape {f.shape}, level needs {lv.shape} or flat")
    if v is not None and np.shape(v) != f.shape:
        raise DimensionError(f"v has shape {np.shape(v)}, the rhs {f.shape}")
    tape = h.tape(_work_dtype(f, v))
    tape.load(v, f)
    tape.residual()
    tape.cycle()
    return tape.result().reshape(f.shape)


def solve(
    h: MgHierarchy,
    f: np.ndarray,
    v0: np.ndarray | None = None,
    tol: float = 1e-11,
    max_iter: int = 200,
) -> tuple[np.ndarray, SolveReport]:
    """Iterate V-cycles until the relative Euclidean residual drops below tol.

    The solve is ``Tape.solve``, which runs every cycle, residual, norm
    and stopping test (``executor.Solve``).  The cycles run in place in the
    fine ``LevelWork`` of the tape, each from the residual just formed
    for its norm; the solution comes back as a new flat array.  Non-convergence
    within ``max_iter`` (an integer, not a ``bool``) is reported, not
    raised: the report comes back with ``converged=False`` and the full
    residual history.  A non-finite residual, ``r0`` included, stops the
    iteration at once.  ``tol`` must lie in (0, 1): the relative residual
    starts at 1, so a larger one would end the solve after one cycle.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    _require_integers(max_iter=max_iter)
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    lv = h.fine
    for name, arg in (("f", f), ("v0", v0)):
        if arg is not None and np.shape(arg) != (lv.unknowns,):
            raise DimensionError(f"{name} has shape {np.shape(arg)}, level needs ({lv.unknowns},)")
    tape = h.tape(_work_dtype(f, v0))
    tape.load(v0, f)
    end, cycles = tape.solve(float(tol), int(max_iter))
    x = tape.result().ravel()
    if cycles == 0:  # r0 zero, or not finite
        if end == CONVERGED:
            return x, SolveReport(0, [], converged=True)
        return x, SolveReport(iterations=0, residuals=[math.nan])
    return x, SolveReport(cycles, tape.solve.norms[1 : cycles + 1].tolist(), converged=end == CONVERGED)


def measure_contraction(
    h: MgHierarchy,
    trials: int = 4,
    iters: int = 12,
    seed: int = 0,
    monotone_slack: float | None = None,
) -> float:
    """Estimate the energy-norm contraction factor of the error propagator.

    Runs the homogeneous problem (f = 0) from random initial errors, in
    place on the float64 tape's fine level, and returns the largest
    per-iteration ratio ||e_new||_A / ||e_old||_A after the first 3
    transient iterations, so ``iters`` must exceed 3.  Each start has unit
    Euclidean norm, and the residual r = -A e that starts each cycle gives
    ||e||_A = sqrt(-(e, r)): both are ``executor.dot``s over the fine runs,
    whose pad cells are zero, the same at any BLAS thread count.  A
    cycle that drives the energy norm to inf or nan diverges, without
    numpy warnings: the estimate is then ``math.inf``.  If
    ``monotone_slack`` is given, a ratio above 1 + monotone_slack raises
    ``AssertionError``.  ``trials`` and ``iters`` are integers, not
    ``bool``s.  Where the tape's arena and a start grid would not fit in
    physical memory, ``MgfkError`` is raised first.
    """
    _require_integers(trials=trials, iters=iters)
    if trials < 1:
        raise ValueError("need at least one trial")
    if iters <= 3:
        raise ValueError(f"need iters > 3, got {iters}")
    rng = np.random.default_rng(seed)
    lv = h.fine
    tape = h.tape(float)
    ws = tape.fine
    require_memory(ws.runs[0].base.nbytes + 8 * lv.unknowns, "a contraction start and its tape")
    ws.rhs_run.fill(0.0)

    def energy() -> float:
        tape.residual()
        return math.sqrt(max(-dot(ws.v_run, ws.r_run), 0.0))

    worst = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(trials):
            ws.v[0] = rng.standard_normal(lv.unknowns).reshape(lv.shape)
            ws.v_run /= math.sqrt(dot(ws.v_run, ws.v_run))
            prev = energy()
            for i in range(1, iters + 1):
                tape.cycle()
                cur = energy()
                if not math.isfinite(cur):
                    return math.inf
                if prev <= 1e-300:
                    break
                ratio = cur / prev
                if monotone_slack is not None:
                    assert ratio <= 1.0 + monotone_slack, f"energy norm grew: ratio={ratio}"
                if i > 3:  # past the transient iterations
                    worst = max(worst, ratio)
                prev = cur
    return worst
