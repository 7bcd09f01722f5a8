"""Checks of the spectral and contraction bounds against measured values.

Everything here is one-sided: a bound report is satisfied when the measured
quantity does not exceed the theoretical bound (within a small slack).  The
bounds are sufficient conditions, so no tightness is ever asserted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import multigrid as vc
from .coarsen import c_constant, closed_form_constants, closed_form_tridiag, galerkin_step
from .errors import EligibilityError
from .stencil import IDENTITY, LAPLACIAN, ToeplitzStencil, lambda_max

_SLACK = 1e-10


@dataclass
class BoundReport:
    """One measured-versus-bound comparison."""

    quantity: str
    bound: float
    measured: float
    satisfied: bool = field(init=False)
    context: dict = field(default_factory=dict)

    def __post_init__(self):
        self.satisfied = bool(self.measured <= self.bound + _SLACK)  # a plain bool for JSON

    def to_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "bound": self.bound,
            "measured": self.measured,
            "satisfied": self.satisfied,
            "context": self.context,
        }


def format_reports(reports: list[BoundReport]) -> str:
    lines = [f"{'quantity':<44} {'measured':>14} {'bound':>14}  status"]
    for r in reports:
        status = "ok" if r.satisfied else "VIOLATED"
        ctx = " ".join(f"{k}={v}" for k, v in r.context.items())
        lines.append(f"{r.quantity:<44} {r.measured:>14.6e} {r.bound:>14.6e}  {status}  {ctx}")
    return "\n".join(lines)


def reports_to_json(reports: list[BoundReport]) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2)


def _check_tridiag_args(a0: float, a1: float) -> None:
    if a0 <= 0.0 or a0 < 2.0 * abs(a1) * (1.0 - 1e-15):
        raise EligibilityError(f"(a0, a1) = ({a0}, {a1}) is not SPD-eligible")
    if a1 > 0.0 and abs(a0 - 2.0 * a1) <= 1e-12 * a0:
        raise EligibilityError(
            "a0 == 2*a1 with a1 > 0: the averaging-transfer theory degenerates here"
        )


def split_ratio(a0: float, a1: float, k: int) -> float:
    """Ratio of averaging-part to Laplacian-part weight of the level-k stencil."""
    c = float(c_constant(k))
    half = 2.0 ** (k - 1)
    num = (6.0 * c + half) * (a0 + 2.0 * a1)
    den = (2.0 * c + half) * (a0 + 2.0 * a1) - 2.0 ** (k + 1) * a1
    return num / den


def approx_constant_sweep(a0: float, a1: float, k_max: int = 64) -> float:
    """sup over levels k = 1..k_max of (1 + split_ratio)**2.

    The ratio converges monotonically (it is a quotient of cubics in 2**k),
    so 64 levels over-cover any buildable hierarchy.
    """
    _check_tridiag_args(a0, a1)
    best = max(split_ratio(a0, a1, k) for k in range(1, k_max + 1))
    return (1.0 + best) ** 2


def approx_constant_tridiag(a0: float, a1: float) -> float:
    """Approximation-property constant of tridiag(a1, a0, a1) in closed form.

    Case values:

    * 1 when a0 + 2*a1 == 0 (pure second difference),
    * 16 when a1 <= 0,
    * max(25, 4*a0**2 / (a0 - 2*a1)**2) when a1 > 0.

    The closed value bounds the level sweep from above; it is attained in
    the first two cases and whenever the level-1 ratio dominates, and is
    deliberately conservative otherwise.  A sweep value exceeding the case
    value would indicate a broken formula and raises ``ArithmeticError``.
    """
    _check_tridiag_args(a0, a1)
    if abs(a0 + 2.0 * a1) <= 1e-14 * a0:
        case = 1.0
    elif a1 <= 0.0:
        case = 16.0
    else:
        case = max(25.0, 4.0 * a0 * a0 / (a0 - 2.0 * a1) ** 2)
    swept = approx_constant_sweep(a0, a1)
    if swept > case * (1.0 + 1e-9):
        raise ArithmeticError(
            f"level sweep {swept} exceeds closed-form constant {case} for ({a0}, {a1})"
        )
    return case


def contraction_bound(approx_const: float, smoothing_steps: int, omega: float) -> float:
    """Energy-norm contraction bound m0 / (2 * l * omega + m0) < 1."""
    return approx_const / (2.0 * smoothing_steps * omega + approx_const)


# seed is unused (lambda_max is exact), kept because benchmarks/workloads.py passes it
def check_smoother_bounds(h: vc.MgHierarchy, seed: int = 0) -> list[BoundReport]:
    """Per level: Jacobi spectral radius checks lambda_max(D^-1 A) in [1, 2**ndim)
    (``lambda_max`` is the top of the sine symbol), plus the eta1/eta2
    refinement for Galerkin hierarchies of the model operator
    c1 I^{(x)d} + c2 sum_k I (x)..L..(x) I with c1 > 0: eta1 and eta2 are the
    level's largest symbol value and its diagonal from the closed-form level
    constants, independent of the Galerkin recursion."""
    fine, d = h.fine.operator, h.fine.operator.ndim
    model = fine.c_mass > 0 and (fine.mass, fine.stiff) == (IDENTITY, LAPLACIAN)
    reports = []
    for k, lv in enumerate(h.levels):
        ctx = {"level": k, "m": lv.m}
        ratio = lambda_max(lv.operator, lv.m)[0] / lv.diag
        reports.append(BoundReport(f"lambda_max(D^-1 A) < {2**d}", 2.0**d, ratio, context=ctx))
        reports.append(BoundReport("1 <= lambda_max(D^-1 A)", 0.0, 1.0 - ratio, context=ctx))
        if model and h.strategy == "galerkin":
            t = closed_form_constants(k + 1)
            top, mid = 3 * t.theta1 - 2 * t.theta2, 2 * t.theta1 - t.theta2
            eta1 = fine.c_mass * top**d + d * fine.c_stiff * top ** (d - 1) * 4 * t.theta2
            eta2 = fine.c_mass * mid**d + d * fine.c_stiff * mid ** (d - 1) * 2 * t.theta2
            ctx2 = dict(ctx, eta1=eta1, eta2=eta2)
            reports.append(
                BoundReport("lambda_max(D^-1 A) <= eta1/eta2", eta1 / eta2, ratio, context=ctx2)
            )
            reports.append(BoundReport(f"eta1/eta2 < {2**d}", 2.0**d, eta1 / eta2, context=ctx2))
    return reports


def check_contraction_bounds(
    h: vc.MgHierarchy,
    approx_const: float,
    smoothing_steps: int = 1,
    trials: int = 4,
    iters: int = 12,
    seed: int = 0,
) -> BoundReport:
    """Compare the measured energy-norm contraction with the theory bound.

    The hierarchy must use equal pre- and post-weights.  A weight outside
    the theory range (0, 2**-ndim] flags the report's context as out of
    range instead of raising.
    """
    if h.omega_pre != h.omega_post:
        raise ValueError("bound checks require omega_pre == omega_post")
    omega = h.omega_pre
    in_range = 0.0 < omega <= 0.5**h.fine.operator.ndim
    measured = vc.measure_contraction(h, trials=trials, iters=iters, seed=seed)
    bound = contraction_bound(approx_const, smoothing_steps, omega)
    return BoundReport(
        "||I - B A||_A <= m0/(2*l*omega + m0)",
        bound,
        measured,
        context={
            "omega": omega,
            "l": smoothing_steps,
            "m0": approx_const,
            "in_theory_range": in_range,
        },
    )


def coarsening_consistency(samples: int = 50, max_depth: int = 6, seed: int = 0) -> BoundReport:
    """Max relative gap between repeated Galerkin steps and the closed form
    over random SPD-eligible tridiagonal stencils."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        a0 = rng.uniform(0.5, 10.0)
        a1 = rng.uniform(-0.5, 0.5) * a0
        if a1 > 0 and a0 - 2 * a1 < 1e-3 * a0:
            a1 = -a1
        stepped = ToeplitzStencil((a0, a1))
        for k in range(2, max_depth + 1):
            stepped = galerkin_step(stepped)
            closed = closed_form_tridiag(a0, a1, k)
            scale = max(abs(closed.bands[0]), abs(closed.bands[1]), 1e-300)
            gap = max(
                abs(stepped.bands[0] - closed.bands[0]),
                abs(stepped.bands[1] - closed.bands[1]),
            )
            worst = max(worst, gap / scale)
    return BoundReport(
        "galerkin recursion vs closed form (rel err)",
        1e-12,
        worst,
        context={"samples": samples, "max_depth": max_depth},
    )
