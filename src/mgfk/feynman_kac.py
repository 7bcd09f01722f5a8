"""Time stepping for the backward fractional Feynman-Kac equation.

1D uses the fourth-order compact scheme: with H = (1/12) tridiag(1, 10, 1),
L = tridiag(-1, 2, -1) and mu = kappa * tau**alpha / h**2, every time level
solves

    (l_0 H + mu L) G^n = -sum_{k=1..n-1} e^{-rho k tau} l_k H G^{n-k}
                         + (sum_{k=0..n-1} l_k) e^{-rho n tau} H G^0
                         + tau**alpha H F^n + boundary corrections.

2D uses the second-order centred scheme with zero boundary data; the history
and forcing terms are identity-weighted and the system operator is
l_0 I(x)I + mu (I(x)L + L(x)I).

The system matrix is real SPD; solves carry complex right-hand sides
end-to-end.  The memory convolution is evaluated naively at O(n) per step as
one matrix-vector product over the stored levels; in 1D the mass H is linear
and the weights are scalars, so H is applied once to the summed level.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import lu_factor, lu_solve, solve_banded

from . import multigrid as vc
from .coarsen import (
    fk_geometric_rule_1d,
    fk_geometric_rule_2d,
    fk_operator_2d,
    fk_stencil_1d,
    mu_coefficient,
)
from .errors import ConvergenceFailure, MgfkError
from .fsd import weights
from .stencil import COMPACT_MASS


@dataclass
class Problem1D:
    """1D problem data on (0, length) x (0, t_final].

    ``m`` interior points, spacing h = length / (m + 1); ``n_steps`` time
    levels of size tau = t_final / n_steps.  ``forcing(x, t)`` must accept a
    vector of positions and a scalar time.
    """

    length: float
    kappa: float
    alpha: float
    rho: complex
    t_final: float
    m: int
    n_steps: int
    forcing: Callable[[np.ndarray, float], np.ndarray]
    initial: Callable[[np.ndarray], np.ndarray]
    bc_left: Callable[[float], complex]
    bc_right: Callable[[float], complex]
    exact: Optional[Callable[[np.ndarray, float], np.ndarray]] = None

    @property
    def h(self) -> float:
        return self.length / (self.m + 1)

    @property
    def tau(self) -> float:
        return self.t_final / self.n_steps

    @property
    def grid(self) -> np.ndarray:
        return self.h * np.arange(1, self.m + 1)


@dataclass
class Problem2D:
    """2D problem on (0, length)^2 with zero boundary data."""

    length: float
    kappa: float
    alpha: float
    rho: complex
    t_final: float
    m: int
    n_steps: int
    forcing: Callable[[np.ndarray, np.ndarray, float], np.ndarray]
    initial: Callable[[np.ndarray, np.ndarray], np.ndarray]
    exact: Optional[Callable[[np.ndarray, np.ndarray, float], np.ndarray]] = None

    @property
    def h(self) -> float:
        return self.length / (self.m + 1)

    @property
    def tau(self) -> float:
        return self.t_final / self.n_steps

    @property
    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        x = self.h * np.arange(1, self.m + 1)
        return np.meshgrid(x, x, indexing="ij")


class Evolution1D:
    """Stepper for the 1D compact scheme.

    Parameters
    ----------
    problem : Problem1D
    order : int
        Temporal accuracy order nu in 1..4.
    solver : "mgm" or "direct"
        Multigrid (requires m = 2**K - 1) or banded LU per step.
    coarsening : "galerkin" or "geometric"
    """

    def __init__(
        self,
        problem: Problem1D,
        order: int,
        solver: str = "mgm",
        coarsening: str = "galerkin",
        tol: float = 1e-11,
        max_iter: int = 200,
        omega=(1.0, 0.5),
        counts=(1, 2),
        literal_post_indexing: bool = True,
        warm_start: bool = True,
    ):
        self.problem = problem
        self.order = order
        self.solver = solver
        self.warm_start = warm_start
        self.tol = tol
        self.max_iter = max_iter

        p = problem
        self.l = weights(p.alpha, order, p.n_steps)
        self.decay = np.exp(-p.rho * p.tau * np.arange(p.n_steps + 1))
        # w_N..w_1 of w_k = e^{-rho k tau} l_k, reversed once into a contiguous
        # array: a positive-stride slice goes to BLAS, while numpy runs its own
        # unblocked loop on the negative-stride view w[1:n][::-1].
        self._w_rev = (self.decay * self.l)[:0:-1].copy()
        self.partial_sums = np.concatenate(([0.0], np.cumsum(self.l)))
        self.mu = mu_coefficient(p.kappa, p.alpha, p.tau, p.h)
        self.system = fk_stencil_1d(self.l[0], self.mu)

        if solver == "mgm":
            rule = (
                fk_geometric_rule_1d(self.l[0], self.mu)
                if coarsening == "geometric"
                else "galerkin"
            )
            self.hierarchy = vc.build_hierarchy(
                self.system,
                p.m,
                strategy=rule,
                omega_pre=omega[0],
                omega_post=omega[1],
                pre_count=counts[0],
                post_count=counts[1],
                literal_post_indexing=literal_post_indexing,
            )
        elif solver == "direct":
            ab = np.zeros((3, p.m))
            a0, a1 = self.system.bands
            ab[0, 1:] = a1
            ab[1, :] = a0
            ab[2, :-1] = a1
            self._banded = ab
        else:
            raise ValueError(f"unknown solver {solver!r}")

        x = p.grid
        self.t = p.tau * np.arange(p.n_steps + 1)
        self.g_left = np.array([complex(p.bc_left(tn)) for tn in self.t])
        self.g_right = np.array([complex(p.bc_right(tn)) for tn in self.t])
        self.history = np.zeros((p.n_steps + 1, p.m), dtype=complex)
        self.history[0] = np.asarray(p.initial(x), dtype=complex)
        self.step_index = 0
        self.iterations: list[int] = []
        self.reports: list[vc.SolveReport] = []

    def assemble_rhs(self, n: int) -> np.ndarray:
        """Right-hand side of the level-n system: history convolution,
        initial-condition sum, compact-weighted forcing, and the boundary
        completion of the truncated operators."""
        p = self.problem
        tau_alpha = p.tau**p.alpha
        w = self._w_rev[p.n_steps + 1 - n :]
        fn = np.asarray(p.forcing(p.grid, self.t[n]), dtype=complex)
        levels = self.partial_sums[n] * self.decay[n] * self.history[0] - w @ self.history[1:n]
        rhs = COMPACT_MASS.apply(levels + tau_alpha * fn)

        # Dirichlet completion of the truncated operators at both walls.
        for pos, trace, x_ghost in (
            (0, self.g_left, 0.0),
            (p.m - 1, self.g_right, p.length),
        ):
            f_ghost = complex(p.forcing(np.array([x_ghost]), self.t[n])[0])
            rhs[pos] += self.mu * trace[n] + (
                -self.l[0] * trace[n]
                - w @ trace[1:n]
                + self.partial_sums[n] * self.decay[n] * trace[0]
                + tau_alpha * f_ghost
            ) / 12.0
        return rhs

    def step(self) -> None:
        if self.step_index >= self.problem.n_steps:
            raise MgfkError("time stepping already complete")
        n = self.step_index + 1
        rhs = self.assemble_rhs(n)
        if self.solver == "mgm":
            guess = self.history[n - 1].copy() if self.warm_start else None
            g, report = vc.solve(self.hierarchy, rhs, v0=guess, tol=self.tol, max_iter=self.max_iter)
            if not report.converged:
                raise ConvergenceFailure(
                    f"multigrid stalled at step {n}: relative residual "
                    f"{report.residuals[-1]:.3e} after {report.iterations} cycles",
                    report=report,
                )
            self.reports.append(report)
            self.iterations.append(report.iterations)
        else:
            g = solve_banded((1, 1), self._banded, rhs)
        self.history[n] = g
        self.step_index = n

    def run(self) -> "Evolution1D":
        while self.step_index < self.problem.n_steps:
            self.step()
        return self

    @property
    def state(self) -> np.ndarray:
        return self.history[self.step_index]

    @property
    def avg_iterations(self) -> float:
        return float(np.mean(self.iterations)) if self.iterations else 0.0

    def max_error(self) -> float:
        """l-infinity error against the exact solution at the current time."""
        p = self.problem
        if p.exact is None:
            raise MgfkError("problem has no exact solution attached")
        ref = np.asarray(p.exact(p.grid, self.t[self.step_index]), dtype=complex)
        return float(np.max(np.abs(self.state - ref)))

    def write_snapshot_csv(self, path, step: Optional[int] = None) -> None:
        n = self.step_index if step is None else step
        if not 0 <= n <= self.step_index:
            raise MgfkError(f"step {n} not computed; levels 0..{self.step_index} are")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "re", "im"])
            for i, val in enumerate(self.history[n], start=1):
                writer.writerow([i, repr(float(val.real)), repr(float(val.imag))])


class Evolution2D:
    """Stepper for the 2D centred scheme with zero boundary conditions."""

    def __init__(
        self,
        problem: Problem2D,
        order: int,
        solver: str = "mgm",
        coarsening: str = "geometric",
        tol: float = 1e-7,
        max_iter: int = 200,
        omega=(1.0, 0.5),
        counts=(1, 2),
        literal_post_indexing: bool = True,
        warm_start: bool = True,
    ):
        self.problem = problem
        self.order = order
        self.solver = solver
        self.warm_start = warm_start
        self.tol = tol
        self.max_iter = max_iter

        p = problem
        self.l = weights(p.alpha, order, p.n_steps)
        self.decay = np.exp(-p.rho * p.tau * np.arange(p.n_steps + 1))
        # w_N..w_1, reversed and contiguous for BLAS (see Evolution1D)
        self._w_rev = (self.decay * self.l)[:0:-1].copy()
        self.partial_sums = np.concatenate(([0.0], np.cumsum(self.l)))
        self.mu = mu_coefficient(p.kappa, p.alpha, p.tau, p.h)
        self.system = fk_operator_2d(self.l[0], self.mu)

        if solver == "mgm":
            rule = (
                fk_geometric_rule_2d(self.l[0], self.mu)
                if coarsening == "geometric"
                else "galerkin"
            )
            self.hierarchy = vc.build_hierarchy(
                self.system,
                p.m,
                strategy=rule,
                omega_pre=omega[0],
                omega_post=omega[1],
                pre_count=counts[0],
                post_count=counts[1],
                literal_post_indexing=literal_post_indexing,
            )
        elif solver == "direct":
            self._lu = lu_factor(self.system.to_dense(p.m))
        else:
            raise ValueError(f"unknown solver {solver!r}")

        xg, yg = p.mesh
        self._xg, self._yg = xg, yg
        self.t = p.tau * np.arange(p.n_steps + 1)
        self.history = np.zeros((p.n_steps + 1, p.m * p.m), dtype=complex)
        self.history[0] = np.asarray(p.initial(xg, yg), dtype=complex).ravel()
        self.step_index = 0
        self.iterations: list[int] = []
        self.reports: list[vc.SolveReport] = []

    def assemble_rhs(self, n: int) -> np.ndarray:
        """History convolution, initial-condition sum, and plain forcing;
        boundary data is identically zero in this scheme."""
        p = self.problem
        w = self._w_rev[p.n_steps + 1 - n :]
        rhs = self.partial_sums[n] * self.decay[n] * self.history[0] - w @ self.history[1:n]
        fn = np.asarray(p.forcing(self._xg, self._yg, self.t[n]), dtype=complex).ravel()
        return rhs + p.tau**p.alpha * fn

    def step(self) -> None:
        if self.step_index >= self.problem.n_steps:
            raise MgfkError("time stepping already complete")
        n = self.step_index + 1
        rhs = self.assemble_rhs(n)
        if self.solver == "mgm":
            guess = self.history[n - 1].copy() if self.warm_start else None
            g, report = vc.solve(self.hierarchy, rhs, v0=guess, tol=self.tol, max_iter=self.max_iter)
            if not report.converged:
                raise ConvergenceFailure(
                    f"multigrid stalled at step {n}: relative residual "
                    f"{report.residuals[-1]:.3e} after {report.iterations} cycles",
                    report=report,
                )
            self.reports.append(report)
            self.iterations.append(report.iterations)
        else:
            g = lu_solve(self._lu, rhs)
        self.history[n] = g
        self.step_index = n

    def run(self) -> "Evolution2D":
        while self.step_index < self.problem.n_steps:
            self.step()
        return self

    @property
    def state(self) -> np.ndarray:
        return self.history[self.step_index]

    @property
    def avg_iterations(self) -> float:
        return float(np.mean(self.iterations)) if self.iterations else 0.0

    def max_error(self) -> float:
        p = self.problem
        if p.exact is None:
            raise MgfkError("problem has no exact solution attached")
        ref = np.asarray(p.exact(self._xg, self._yg, self.t[self.step_index]), dtype=complex)
        return float(np.max(np.abs(self.state - ref.ravel())))

    def write_snapshot_csv(self, path, step: Optional[int] = None) -> None:
        n = self.step_index if step is None else step
        if not 0 <= n <= self.step_index:
            raise MgfkError(f"step {n} not computed; levels 0..{self.step_index} are")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "re", "im"])
            for i, val in enumerate(self.history[n], start=1):
                writer.writerow([i, repr(float(val.real)), repr(float(val.imag))])


def convergence_rate(err_coarse: float, err_fine: float) -> float:
    """Observed order between two runs whose resolutions differ by 2x."""
    return math.log2(err_coarse / err_fine)


def example_6_1(alpha: float, intervals: int) -> Problem1D:
    """Manufactured 1D problem with exact solution
    ``exp(-rho t) (t**(4+alpha) + 1) (sin(pi x) + 1)`` on (0, 1), rho = 1+1j.

    ``intervals`` is the number of grid cells (a power of two for multigrid);
    the run uses intervals - 1 interior points and intervals time steps.
    """
    rho = 1.0 + 1.0j
    kappa = 1.0
    c4 = math.gamma(5.0 + alpha) / math.gamma(5.0)

    def forcing(x, t):
        envelope = np.exp(-rho * t)
        return envelope * (
            c4 * t**4 * (np.sin(np.pi * x) + 1.0)
            + kappa * np.pi**2 * (t ** (4.0 + alpha) + 1.0) * np.sin(np.pi * x)
        )

    def initial(x):
        return np.sin(np.pi * x) + 1.0 + 0.0j

    def trace(t):
        return np.exp(-rho * t) * (t ** (4.0 + alpha) + 1.0)

    def exact(x, t):
        return np.exp(-rho * t) * (t ** (4.0 + alpha) + 1.0) * (np.sin(np.pi * x) + 1.0)

    return Problem1D(
        length=1.0,
        kappa=kappa,
        alpha=alpha,
        rho=rho,
        t_final=1.0,
        m=intervals - 1,
        n_steps=intervals,
        forcing=forcing,
        initial=initial,
        bc_left=trace,
        bc_right=trace,
        exact=exact,
    )


def example_6_2(alpha: float, intervals: int) -> Problem2D:
    """Manufactured 2D problem with exact solution
    ``exp(-rho t) t**(4+alpha) sin(pi x) sin(pi y)`` on (0, 1)^2, rho = 1.

    The forcing follows by substituting the exact solution into the
    equation: the tempered time derivative of t**(4+alpha) contributes
    Gamma(5+alpha)/Gamma(5) * t**4 and the Laplacian -2 pi**2 times the
    solution.
    """
    rho = 1.0 + 0.0j
    kappa = 1.0
    c4 = math.gamma(5.0 + alpha) / math.gamma(5.0)

    def forcing(x, y, t):
        shape = np.sin(np.pi * x) * np.sin(np.pi * y)
        return np.exp(-rho * t) * (c4 * t**4 + 2.0 * kappa * np.pi**2 * t ** (4.0 + alpha)) * shape

    def initial(x, y):
        return np.zeros_like(x, dtype=complex)

    def exact(x, y, t):
        return np.exp(-rho * t) * t ** (4.0 + alpha) * np.sin(np.pi * x) * np.sin(np.pi * y)

    return Problem2D(
        length=1.0,
        kappa=kappa,
        alpha=alpha,
        rho=rho,
        t_final=1.0,
        m=intervals - 1,
        n_steps=intervals,
        forcing=forcing,
        initial=initial,
        exact=exact,
    )


PRESETS = {"example-6.1": example_6_1, "example-6.2": example_6_2}


def preset(name: str, alpha: float, intervals: int):
    """Look up a built-in problem by name."""
    try:
        build = PRESETS[name]
    except KeyError:
        raise MgfkError(f"unknown preset {name!r}; available: {sorted(PRESETS)}") from None
    return build(alpha, intervals)
