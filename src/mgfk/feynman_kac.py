"""Time stepping for the backward fractional Feynman-Kac equation.

One stepper serves both model problems.  1D uses the fourth-order compact
scheme: with H = (1/12) tridiag(1, 10, 1), L = tridiag(-1, 2, -1) and
mu = kappa * tau**alpha / h**2, every time level solves

    (l_0 H + mu L) G^n = -sum_{k=1..n-1} e^{-rho k tau} l_k H G^{n-k}
                         + (sum_{k=0..n-1} l_k) e^{-rho n tau} H G^0
                         + tau**alpha H F^n + boundary corrections.

2D uses the second-order centred scheme with zero boundary data; the history
and forcing terms are identity-weighted and the system operator is
l_0 I(x)I + mu (I(x)L + L(x)I).  The dimension decides only the mass factor
of the system operator, the grid coordinates, and the compact-mass
weighting with Dirichlet completion of the 1D right-hand side.

The system matrix is real SPD and is solved by V-cycle multigrid or by an
exact sine-transform solve.  Real problems (real rho, initial values and
boundary traces) step in float64 and complex ones in complex128; the first
forcing value with a nonzero imaginary part promotes a real run to
complex128, which is exact because every stored level is real.  The memory
convolution is evaluated naively at O(n) per step as one matrix-vector
product over the stored levels; in 1D the mass H is linear and the weights
are scalars, so H is applied once to the summed level.  Every level is
stored, so a run whose history would not fit in the machine's physical
memory raises ``MgfkError`` before any of it is allocated.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import multigrid as vc
from .coarsen import fk_operator, mu_coefficient
from .errors import ConvergenceFailure, MgfkError
from .fsd import weights
from .stencil import COMPACT_MASS, dst_solve


@dataclass
class Problem:
    """Problem data on (0, length)**ndim x (0, t_final].

    ``m`` interior points per dimension, spacing h = length / (m + 1);
    ``n_steps`` time levels of size tau = t_final / n_steps.  ``forcing``,
    ``initial`` and ``exact`` take one coordinate array per dimension (the
    ij-meshgrid in 2D), and ``forcing`` and ``exact`` then a scalar time.
    ``bc_left`` / ``bc_right`` are the 1D Dirichlet traces g(t); ``None``
    means zero.  The 2D scheme has zero boundary data only.
    """

    length: float
    kappa: float
    alpha: float
    rho: complex
    t_final: float
    m: int
    n_steps: int
    forcing: Callable[..., np.ndarray]
    initial: Callable[..., np.ndarray]
    bc_left: Optional[Callable[[float], complex]] = None
    bc_right: Optional[Callable[[float], complex]] = None
    exact: Optional[Callable[..., np.ndarray]] = None
    ndim: int = 1

    def __post_init__(self):
        if self.ndim not in (1, 2):
            raise MgfkError(f"ndim must be 1 or 2, got {self.ndim}")
        if self.ndim == 2 and (self.bc_left is not None or self.bc_right is not None):
            raise MgfkError("the 2D centred scheme takes zero boundary data only")

    @property
    def h(self) -> float:
        return self.length / (self.m + 1)

    @property
    def tau(self) -> float:
        return self.t_final / self.n_steps

    @property
    def coords(self) -> tuple:
        """Interior grid coordinates: ``(x,)`` in 1D, the ij-meshgrid ``(X, Y)`` in 2D."""
        x = self.h * np.arange(1, self.m + 1)
        return (x,) if self.ndim == 1 else tuple(np.meshgrid(x, x, indexing="ij"))


def _require_history_fits(p: Problem, dtype: np.dtype) -> None:
    """Raise ``MgfkError`` if the ``dtype`` history of every level of ``p``
    exceeds the machine's physical memory."""
    history_bytes = (p.n_steps + 1) * p.m**p.ndim * dtype.itemsize
    memory_bytes = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if history_bytes > memory_bytes:
        raise MgfkError(
            f"the history of {p.n_steps + 1} levels needs {history_bytes} bytes, "
            f"more than the {memory_bytes} bytes of physical memory"
        )


class Evolution:
    """Stepper for the 1D compact and the 2D centred scheme.

    Parameters
    ----------
    problem : Problem
    order : int
        Temporal accuracy order nu in 1..4.
    solver : "mgm" or "direct"
        V-cycle multigrid (requires m = 2**K - 1) or the exact DST-I solve.
    coarsening : "galerkin" or "geometric"
    """

    def __init__(
        self,
        problem: Problem,
        order: int,
        solver: str = "mgm",
        coarsening: str = "galerkin",
        tol: float = 1e-11,
        max_iter: int = 200,
        omega=(1.0, 0.5),
        counts=(1, 2),
    ):
        self.problem = problem
        self.order = order
        self.solver = solver
        self.tol = tol
        self.max_iter = max_iter

        p = problem
        # Every level is stored: refuse a history that cannot fit before allocating any of it,
        # even in float64 before the data is evaluated, then in the working dtype.
        _require_history_fits(p, np.dtype(float))
        self.coords = p.coords
        self.t = p.tau * np.arange(p.n_steps + 1)
        initial = np.asarray(p.initial(*self.coords)).ravel()
        traces = [
            np.zeros(self.t.size) if bc is None else np.array([complex(bc(tn)) for tn in self.t])
            for bc in (p.bc_left, p.bc_right)
        ]
        # The working dtype: float64 unless rho or the data is complex.
        real = complex(p.rho).imag == 0 and all(map(_is_real, (initial, *traces)))
        self.dtype = np.dtype(float if real else complex)
        _require_history_fits(p, self.dtype)
        rho = np.real(p.rho) if real else p.rho

        self.l = weights(p.alpha, order, p.n_steps)
        self.decay = np.exp(-rho * p.tau * np.arange(p.n_steps + 1)).astype(self.dtype, copy=False)
        # w_N..w_1 of w_k = e^{-rho k tau} l_k, reversed once into a contiguous
        # array: a positive-stride slice goes to BLAS, while numpy runs its own
        # unblocked loop on the negative-stride view w[1:n][::-1].
        self._w_rev = (self.decay * self.l)[:0:-1].copy()
        self.partial_sums = np.concatenate(([0.0], np.cumsum(self.l)))
        self.mu = mu_coefficient(p.kappa, p.alpha, p.tau, p.h)
        self.system = fk_operator(p.ndim, self.l[0], self.mu)

        if solver == "mgm":
            self.hierarchy = vc.build_hierarchy(
                self.system,
                p.m,
                strategy=coarsening,
                omega_pre=omega[0],
                omega_post=omega[1],
                pre_count=counts[0],
                post_count=counts[1],
            )
            self._solve = self._multigrid_solve
        elif solver == "direct":
            self._solve = lambda n, rhs: dst_solve(self.system, rhs)
        else:
            raise ValueError(f"unknown solver {solver!r}")

        self.g_left, self.g_right = (np.asarray(g.real if real else g, self.dtype) for g in traces)
        self.history = np.zeros((p.n_steps + 1, p.m**p.ndim), self.dtype)
        self.history[0] = initial.real if real else initial
        self.step_index = 0
        self.iterations: list[int] = []
        self.reports: list[vc.SolveReport] = []

    def assemble_rhs(self, n: int) -> np.ndarray:
        """Right-hand side of the level-n system: history convolution,
        initial-condition sum and forcing; in 1D compact-weighted, plus the
        boundary completion of the truncated operators."""
        p = self.problem
        tau_alpha = p.tau**p.alpha
        # The forcing is read before any sum: a complex value promotes the stepper.
        fn = self._read(p.forcing(*self.coords, self.t[n])).ravel()
        f_ghosts = [
            self._read(p.forcing(np.array([x]), self.t[n]))[0].item()
            for x in ((0.0, p.length) if p.ndim == 1 else ())
        ]
        w = self._w_rev[p.n_steps + 1 - n :]
        levels = self.partial_sums[n] * self.decay[n] * self.history[0] - w @ self.history[1:n]
        if p.ndim == 2:
            return levels + tau_alpha * fn
        rhs = COMPACT_MASS.apply(levels + tau_alpha * fn)

        # Dirichlet completion of the truncated operators at both walls.
        for pos, trace, f_ghost in zip((0, p.m - 1), (self.g_left, self.g_right), f_ghosts):
            rhs[pos] += self.mu * trace[n] + (
                -self.l[0] * trace[n]
                - w @ trace[1:n]
                + self.partial_sums[n] * self.decay[n] * trace[0]
                + tau_alpha * f_ghost
            ) / 12.0
        return rhs

    def _read(self, values) -> np.ndarray:
        """``values`` as an array of the working dtype.  A nonzero imaginary
        part in a float64 run promotes the stepper to complex128 first."""
        a = np.asarray(values)
        if self.dtype.kind == "f" and np.iscomplexobj(a):
            if _is_real(a):
                a = a.real
            else:
                self._promote()
        return a.astype(self.dtype, copy=False)

    def _promote(self) -> None:
        """Carry on in complex128: the history, weights and traces are real so
        far, so the cast is exact."""
        self.dtype = np.dtype(complex)
        for name in ("decay", "_w_rev", "g_left", "g_right", "history"):
            setattr(self, name, getattr(self, name).astype(complex))

    def _multigrid_solve(self, n: int, rhs: np.ndarray) -> np.ndarray:
        # warm start; solve copies v0 itself, but dropping this copy doubled a 2D run's minor faults
        guess = self.history[n - 1].copy()
        g, report = vc.solve(self.hierarchy, rhs, v0=guess, tol=self.tol, max_iter=self.max_iter)
        if not report.converged:
            raise ConvergenceFailure(
                f"multigrid stalled at step {n}: relative residual "
                f"{report.residuals[-1]:.3e} after {report.iterations} cycles",
                report=report,
            )
        self.reports.append(report)
        self.iterations.append(report.iterations)
        return g

    def step(self) -> None:
        if self.step_index >= self.problem.n_steps:
            raise MgfkError("time stepping already complete")
        n = self.step_index + 1
        self.history[n] = self._solve(n, self.assemble_rhs(n))
        self.step_index = n

    def run(self) -> "Evolution":
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
        ref = np.asarray(p.exact(*self.coords, self.t[self.step_index]), dtype=complex)
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


def _is_real(a: np.ndarray) -> bool:
    """Whether every imaginary part of ``a`` is exactly zero."""
    # count_nonzero: a quarter of the cold cost of any() on a 16k-point grid
    return not np.iscomplexobj(a) or np.count_nonzero(a.imag) == 0


# The benchmark harness (benchmarks/workloads.py) builds its steppers through
# these names and its tracer patches methods on them; they go once it uses
# Evolution and Problem directly.
Evolution1D = Evolution
Evolution2D = Evolution
Problem1D = Problem


def convergence_rate(err_coarse: float, err_fine: float) -> float:
    """Observed order between two runs whose resolutions differ by 2x."""
    return math.log2(err_coarse / err_fine)


def example_6_1(alpha: float, intervals: int) -> Problem:
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

    return Problem(
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


def example_6_2(alpha: float, intervals: int) -> Problem:
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

    return Problem(
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
        ndim=2,
    )


PRESETS = {"example-6.1": example_6_1, "example-6.2": example_6_2}


def preset(name: str, alpha: float, intervals: int):
    """Look up a built-in problem by name."""
    try:
        build = PRESETS[name]
    except KeyError:
        raise MgfkError(f"unknown preset {name!r}; available: {sorted(PRESETS)}") from None
    return build(alpha, intervals)
