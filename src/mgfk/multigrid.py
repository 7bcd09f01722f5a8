"""V-cycle multigrid engine.

A hierarchy is built once from a fine operator (Galerkin or geometric
coarsening), is immutable afterwards, and is shared by every solve.  Grids
have 2**k - 1 points per dimension and bottom out at a single point, where
the coarse solve is an exact scalar division.

The smoother is damped Jacobi.  One cycle performs ``pre_count`` pre-smooths
with the pre-weight, one coarse-grid correction, and post-smooths with the
post-weight.  The post-smoothing loop is indexed the way the driving scheme
counts iterates: with counts (m1, m2) the correction itself occupies iterate
m1+1, so m2 - 1 damped-Jacobi applications follow it.  Set
``literal_post_indexing=False`` to run m2 applications instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from . import transfer
from .coarsen import GeometricRule, galerkin_step, galerkin_step_2d
from .errors import DimensionError, EligibilityError
from .stencil import (
    TensorOperator2D,
    ToeplitzStencil,
    grid_depth,
    require_coarsenable,
    require_spd_eligible,
)

Operator = Union[ToeplitzStencil, TensorOperator2D]


@dataclass(frozen=True)
class GridLevel:
    """One level of the hierarchy: operator, per-dimension size, diagonal."""

    operator: Operator
    m: int
    diag: float

    @property
    def unknowns(self) -> int:
        return self.m if isinstance(self.operator, ToeplitzStencil) else self.m * self.m


@dataclass(frozen=True)
class MgHierarchy:
    """Immutable multigrid hierarchy, finest level first."""

    levels: tuple
    ndim: int
    omega_pre: float = 1.0
    omega_post: float = 0.5
    pre_count: int = 1
    post_count: int = 2
    literal_post_indexing: bool = True
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
        return self.post_count - 1 if self.literal_post_indexing else self.post_count


@dataclass
class SolveReport:
    """Outcome of an iterative solve."""

    iterations: int
    residuals: list = field(default_factory=list)
    converged: bool = False
    contraction_factor: float = math.nan


def _level_diag(op: Operator) -> float:
    return op.diagonal if isinstance(op, ToeplitzStencil) else op.diagonal()


def _validate_level(op: Operator) -> None:
    if isinstance(op, ToeplitzStencil):
        require_coarsenable(op)
    else:
        require_spd_eligible(op)
        require_coarsenable(op.mass)
        require_coarsenable(op.stiff)


def build_hierarchy(
    fine_operator: Operator,
    m: int,
    strategy: Union[str, GeometricRule] = "galerkin",
    *,
    omega_pre: float = 1.0,
    omega_post: float = 0.5,
    pre_count: int = 1,
    post_count: int = 2,
    literal_post_indexing: bool = True,
) -> MgHierarchy:
    """Build the full hierarchy down to a one-point grid.

    Parameters
    ----------
    fine_operator : ToeplitzStencil or TensorOperator2D
        Finest-level operator; must be SPD-eligible.
    m : int
        Points per dimension on the finest grid, of the form 2**K - 1.
    strategy : "galerkin" or GeometricRule
        Galerkin coarsening, or a rediscretisation rule queried per level.
    omega_pre, omega_post : float
        Damped-Jacobi weights for pre- and post-smoothing.
    pre_count, post_count : int
        Smoothing counts (m1, m2); see the module docstring for how
        post_count translates into actual smoother applications.
    """
    depth = grid_depth(m)
    ndim = 1 if isinstance(fine_operator, ToeplitzStencil) else 2
    if omega_pre <= 0.0 or omega_post <= 0.0:
        raise ValueError("smoothing weights must be positive")
    if pre_count < 0 or post_count < 1:
        raise ValueError("smoothing counts must satisfy m1 >= 0, m2 >= 1")

    geometric = isinstance(strategy, GeometricRule)
    if not geometric and strategy != "galerkin":
        raise ValueError(f"unknown coarsening strategy: {strategy!r}")

    levels = []
    op = fine_operator
    for d in range(depth):
        if geometric and d > 0:
            op = strategy.operator_at(d)
        elif d > 0:
            op = galerkin_step(op) if ndim == 1 else galerkin_step_2d(op)
        try:
            _validate_level(op)
        except EligibilityError as exc:
            raise EligibilityError(f"level {d} (size {2 ** (depth - d) - 1}): {exc}") from exc
        levels.append(GridLevel(operator=op, m=2 ** (depth - d) - 1, diag=_level_diag(op)))

    return MgHierarchy(
        levels=tuple(levels),
        ndim=ndim,
        omega_pre=omega_pre,
        omega_post=omega_post,
        pre_count=pre_count,
        post_count=post_count,
        literal_post_indexing=literal_post_indexing,
        strategy="geometric" if geometric else "galerkin",
    )


def smooth(level: GridLevel, v: np.ndarray, f: np.ndarray, weight: float, steps: int) -> np.ndarray:
    """Damped Jacobi: v <- v + weight * (f - A v) / diag, ``steps`` times."""
    if weight <= 0.0:
        raise ValueError("smoothing weight must be positive")
    scale = weight / level.diag
    for _ in range(steps):
        v = v + scale * (f - level.operator.apply(v))
    return v


def _restrict(h: MgHierarchy, level_idx: int, r: np.ndarray) -> np.ndarray:
    if h.ndim == 1:
        return transfer.restrict_1d(r)
    m = h.levels[level_idx].m
    return transfer.restrict_2d(r.reshape(m, m)).ravel()


def _prolong(h: MgHierarchy, level_idx: int, e: np.ndarray) -> np.ndarray:
    if h.ndim == 1:
        return transfer.prolong_1d(e)
    m = h.levels[level_idx + 1].m
    return transfer.prolong_2d(e.reshape(m, m)).ravel()


def vcycle(
    h: MgHierarchy,
    v: np.ndarray | None,
    f: np.ndarray,
    level: int = 0,
    r: np.ndarray | None = None,
) -> np.ndarray:
    """One V-cycle sweep starting from iterate ``v`` on the given level.

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
    if f.shape != (lv.unknowns,):
        raise DimensionError(f"rhs has shape {f.shape}, level needs ({lv.unknowns},)")
    if level == h.depth - 1:
        return f / lv.diag

    pre = h.pre_count
    if v is None:
        v, pre = ((h.omega_pre / lv.diag) * f, pre - 1) if pre else (np.zeros_like(f), 0)
    elif r is not None and pre:
        v, pre = v + (h.omega_pre / lv.diag) * r, pre - 1
    v = smooth(lv, np.asarray(v), f, h.omega_pre, pre)
    residual = f - lv.operator.apply(v)
    coarse_rhs = _restrict(h, level, residual)
    coarse_err = vcycle(h, None, coarse_rhs, level + 1)
    v = v + _prolong(h, level, coarse_err)
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
    f = np.asarray(f)
    for name, arg in (("f", f), ("v0", v0)):
        if arg is not None and np.shape(arg) != (lv.unknowns,):
            raise DimensionError(f"{name} has shape {np.shape(arg)}, level needs ({lv.unknowns},)")
    x = np.zeros(lv.unknowns, dtype=np.result_type(f.dtype, np.float64)) if v0 is None else np.array(v0)
    r = f - lv.operator.apply(x)
    r0 = float(np.linalg.norm(r))
    if r0 == 0.0:
        return x, SolveReport(iterations=0, residuals=[], converged=True, contraction_factor=0.0)
    if not math.isfinite(r0):
        return x, SolveReport(iterations=0, residuals=[math.nan])

    report = SolveReport(iterations=0)
    for it in range(1, max_iter + 1):
        x = vcycle(h, x, f, r=r)
        r = f - lv.operator.apply(x)
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
    return x, report


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
    zero = np.zeros(lv.unknowns)
    worst = 0.0
    for _ in range(trials):
        e = rng.standard_normal(lv.unknowns)
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
