"""V-cycle multigrid engine.

A hierarchy is built once from a fine operator (Galerkin or geometric
coarsening), is immutable afterwards, and is shared by every solve.  Grids
have 2**k - 1 points per dimension and bottom out at a single point, where
the coarse solve is an exact scalar division.  Cycles run on (m,)*ndim grids.

The smoother is damped Jacobi.  One cycle performs ``pre_count`` pre-smooths
with the pre-weight, one coarse-grid correction, and post-smooths with the
post-weight.  The post-smoothing loop is indexed the way the driving scheme
counts iterates: with counts (m1, m2) the correction itself occupies iterate
m1+1, so m2 - 1 damped-Jacobi applications follow it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import transfer
from .errors import DimensionError, EligibilityError
from .stencil import KroneckerSum, grid_depth, require_coarsenable, require_spd_eligible


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


@dataclass(frozen=True)
class MgHierarchy:
    """Immutable multigrid hierarchy, finest level first."""

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
    if omega_pre <= 0.0 or omega_post <= 0.0:
        raise ValueError("smoothing weights must be positive")
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


def smooth(level: GridLevel, v: np.ndarray, f: np.ndarray, weight: float, steps: int) -> np.ndarray:
    """Damped Jacobi: v <- v + weight * (f - A v) / diag, ``steps`` times."""
    if weight <= 0.0:
        raise ValueError("smoothing weight must be positive")
    scale = weight / level.diag
    for _ in range(steps):
        v = v + scale * (f - level.operator.apply_grid(v))
    return v


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

    On the one-point coarsest grid the equation is solved exactly, so the
    recursion implements an approximate inverse whose error propagator
    contracts in the energy norm.
    """
    lv = h.levels[level]
    f = np.asarray(f)
    if f.shape != lv.shape:
        if f.shape != (lv.unknowns,):
            raise DimensionError(f"rhs has shape {f.shape}, level needs {lv.shape} or flat")
        v, f, r = (a if a is None else np.reshape(a, lv.shape) for a in (v, f, r))
        return vcycle(h, v, f, level, r).ravel()
    if level == h.depth - 1:
        return f / lv.diag

    pre = h.pre_count
    if v is None:
        v, pre = ((h.omega_pre / lv.diag) * f, pre - 1) if pre else (np.zeros_like(f), 0)
    elif r is not None and pre:
        v, pre = v + (h.omega_pre / lv.diag) * r, pre - 1
    v = smooth(lv, np.asarray(v), f, h.omega_pre, pre)
    coarse_err = vcycle(h, None, transfer.restrict(f - lv.operator.apply_grid(v)), level + 1)
    v = v + transfer.prolong(coarse_err)
    return smooth(lv, v, f, h.omega_post, h.post_smooths)


def solve(
    h: MgHierarchy,
    f: np.ndarray,
    v0: np.ndarray | None = None,
    tol: float = 1e-11,
    max_iter: int = 200,
) -> tuple[np.ndarray, SolveReport]:
    """Iterate V-cycles until the relative Euclidean residual drops below tol.

    Non-convergence within ``max_iter`` is reported, not raised: the report
    comes back with ``converged=False`` and the full residual history.  A
    non-finite residual, ``r0`` included, stops the iteration at once.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    lv = h.fine
    for name, arg in (("f", f), ("v0", v0)):
        if arg is not None and np.shape(arg) != (lv.unknowns,):
            raise DimensionError(f"{name} has shape {np.shape(arg)}, level needs ({lv.unknowns},)")
    f = np.reshape(f, lv.shape)
    x = np.zeros_like(f, np.result_type(f, float)) if v0 is None else np.array(v0).reshape(f.shape)
    r = f - lv.operator.apply_grid(x)
    r0 = float(np.linalg.norm(r))
    if r0 == 0.0:
        return x.ravel(), SolveReport(0, [], converged=True, contraction_factor=0.0)
    if not math.isfinite(r0):
        return x.ravel(), SolveReport(iterations=0, residuals=[math.nan])

    report = SolveReport(iterations=0)
    for it in range(1, max_iter + 1):
        x = vcycle(h, x, f, r=r)
        r = f - lv.operator.apply_grid(x)
        rel = float(np.linalg.norm(r)) / r0
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
    return x.ravel(), report


def energy_norm(level: GridLevel, e: np.ndarray) -> float:
    """Norm induced by the SPD level operator: sqrt((A e, e))."""
    val = np.vdot(e, level.operator.apply(e)).real
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
    the first ``discard`` transient iterations.  If ``monotone_slack`` is
    given, a ratio above 1 + monotone_slack raises ``AssertionError``.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
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
            if prev <= 1e-300:
                break
            ratio = cur / prev
            if monotone_slack is not None:
                assert ratio <= 1.0 + monotone_slack, f"energy norm grew: ratio={ratio}"
            if i > discard:
                worst = max(worst, ratio)
            prev = cur
    return worst
