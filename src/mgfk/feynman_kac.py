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
convolution is summed naively, O(n) levels at step n, by ``History``: each
element in ascending level order from 0, so that its bits do not depend on
how the sum is split.  A step that starts a block of up to 8 steps sums
the stored levels once for every row of the block, and each later step of
the block adds only the levels solved since; in 1D the two wall traces are
summed alongside, as a row of two values a level.  In 1D the mass H is
linear and the weights are scalars, so H is applied once to the summed
level.  Every level is stored, so a run whose history would not fit in the
machine's physical memory raises ``MgfkError`` before any of it is
allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import multigrid as vc
from .coarsen import fk_operator, mu_coefficient
from .errors import ConvergenceFailure, DimensionError, MgfkError, require_memory
from .executor import convolve
from .fsd import weights
from .stencil import COMPACT_MASS, dst_solve


@dataclass
class Problem:
    """Problem data on (0, length)**ndim x (0, t_final].

    ``m`` interior points per dimension, spacing h = length / (m + 1);
    ``n_steps`` time levels of size tau = t_final / n_steps.  ``forcing``,
    ``initial`` and ``exact`` take one coordinate array per dimension (the
    ij-meshgrid in 2D), and ``forcing`` and ``exact`` then a scalar time.
    Each gives one value, or one per point as the grid or its flat vector
    (in 1D ``forcing`` is read at the m + 2 points with both walls), else
    ``Evolution`` raises ``DimensionError``; so it does for 1D Dirichlet
    traces g(t) (``bc_left``, ``bc_right``; ``None`` is 0) of more values
    than one.  The 2D scheme has zero boundary data only.  ``length`` and
    ``t_final`` must be positive and finite, ``kappa`` finite and
    non-negative, ``alpha`` in (0, 1), both parts of ``rho`` finite, ``ndim``
    the integer 1 or 2, and ``m`` and ``n_steps`` integers at least 1, else
    ``MgfkError``; an integer is not a ``bool`` and is kept as an ``int``.
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
        for name in ("ndim", "m", "n_steps"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise MgfkError(f"{name} must be an integer >= 1, got {value!r}")
            setattr(self, name, int(value))
        if self.ndim > 2:
            raise MgfkError(f"ndim must be 1 or 2, got {self.ndim}")
        if self.ndim == 2 and (self.bc_left is not None or self.bc_right is not None):
            raise MgfkError("the 2D centred scheme takes zero boundary data only")
        for name in ("length", "t_final"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise MgfkError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not 0.0 <= self.kappa < math.inf:
            raise MgfkError(f"kappa must be finite and non-negative, got {self.kappa}")
        if not 0.0 < self.alpha < 1.0:
            raise MgfkError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not np.isfinite(self.rho):
            raise MgfkError(f"rho must be finite, got {self.rho}")

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


def _require_history_fits(p: Problem, *dtypes: np.dtype) -> None:
    """Raise ``MgfkError`` if histories of every level of ``p``, one per
    dtype of ``dtypes`` held at once, exceed the machine's physical memory."""
    levels, names = p.n_steps + 1, " and ".join(d.name for d in dtypes)
    require_memory(levels * p.m**p.ndim * sum(d.itemsize for d in dtypes), f"the {names} history of {levels} levels")


#: A block's rows fill at most ``_BLOCK_BYTES`` and number at most
#: ``_BLOCK_ROWS``: 8 rows of a 1D M = 1024 complex level, 4 of a 2D M = 128
#: real one.  Every stored grid row starts on a cache line of ``_LINE`` bytes.
_BLOCK_BYTES, _BLOCK_ROWS, _LINE = 512 * 1024, 8, 64


def _lined(count: int, width: int, dtype) -> np.ndarray:
    """A zeroed C-contiguous (count, stride) ``dtype`` array whose rows start
    on ``_LINE``-byte lines: ``width`` values, then zeros up to a whole line."""
    item = np.dtype(dtype).itemsize
    stride = -(-width * item // _LINE) * _LINE // item
    flat = np.zeros(count * stride + _LINE // item, dtype)
    base = -flat.__array_interface__["data"][0] % _LINE // item
    return flat[base : base + count * stride].reshape(count, stride)


class History:
    """The stored time levels of a run and the memory convolution over them.

    Row k of ``store`` holds level k of the grid, padded with zeros to
    whole cache lines, and in 1D row k of ``walls`` the two wall traces at
    level k, given for every level at the start.  ``levels`` shows the grid
    at levels 0..``solved``, the final ones; ``append`` stores the next.
    ``weights`` holds w_q = e^{-rho q tau} l_q.

    ``convolution(n)`` is sum_{k=1..n-1} w_{n-k} row k, of the store and of
    the walls, each element summed in ascending k from 0
    (``executor.convolve``), so its bits do not depend on how the sum is
    split.  Asked for the next level, n = solved + 1, outside the block in
    hand, it starts a block: one pass over levels 1..n-1 sums them into
    the rows of steps n, n + 1, ..., as many as fit in ``_BLOCK_BYTES``, at
    most ``_BLOCK_ROWS``.  The sum for step j is formed in store row j, until
    ``append`` stores level j over it, so a block takes no memory of its own.
    A later step of the block adds to its own row only the levels solved
    since, so asking twice adds nothing twice.  Any other n is summed from
    scratch, with the same bits, over the levels solved so far (the others
    are zero).  The rows returned are valid until the next call.
    """

    def __init__(self, initial: np.ndarray, walls: np.ndarray, weights: np.ndarray):
        self.weights, self.solved = weights, 0
        self._allocate(initial.size, walls)
        self.store[0, : initial.size] = initial

    def _allocate(self, width: int, walls: np.ndarray) -> None:
        """A store of ``width`` grid values a level and a copy of ``walls``,
        in the weights' dtype, and the walls' block rows; no block in hand."""
        dtype = self.weights.dtype
        self.width, self.store, self.walls = width, _lined(len(self.weights), width, dtype), walls.astype(dtype)
        self.rows = max(1, min(_BLOCK_ROWS, _BLOCK_BYTES // self.store[0].nbytes))
        self.wall_sums = np.zeros((self.rows, walls.shape[1]), dtype)
        self.first, self.summed = 0, []

    @property
    def levels(self) -> np.ndarray:
        return self.store[: self.solved + 1, : self.width]

    def append(self, level: np.ndarray) -> None:
        self.solved += 1
        row = self.store[self.solved]
        row[: self.width], row[self.width :] = level, 0

    def promote(self) -> None:
        """Carry on in complex128; the block in hand is dropped."""
        levels, self.weights = self.levels, self.weights.astype(complex)
        self._allocate(self.width, self.walls)
        self.levels[...] = levels

    def convolution(self, n: int) -> tuple:
        i = n - self.first
        if n != self.solved + 1:
            grid, walls = (np.zeros((1, x.shape[1]), x.dtype) for x in (self.store, self.walls))
            convolve(self.weights, self.store, 1, min(n - 1, self.solved), n, grid)
            convolve(self.weights, self.walls, 1, n - 1, n, walls)
            return grid[0, : self.width], walls[0]
        if 0 <= i < len(self.summed):
            lo, grid, walls = self.summed[i] + 1, self.store[n : n + 1], self.wall_sums[i : i + 1]
        else:
            count = min(self.rows, len(self.store) - n)
            lo, grid, walls = 1, self.store[n : n + count], self.wall_sums[:count]
            grid.fill(0)
            walls.fill(0)
            i, self.first, self.summed = 0, n, [0] * count
        convolve(self.weights, self.store, lo, n - 1, n, grid)
        convolve(self.weights, self.walls, lo, n - 1, n, walls)
        self.summed[i : i + len(grid)] = [n - 1] * len(grid)
        return grid[0, : self.width], walls[0]


class Evolution:
    """Stepper for the 1D compact and the 2D centred scheme; ``reports`` holds
    each multigrid step's ``SolveReport``, its cycles within ``multigrid.solve``'s cap.

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
        # the benchmark harness (benchmarks/workloads.py) passes these two, at their defaults
        omega=(1.0, 0.5),
        counts=(1, 2),
    ):
        self.problem = problem
        self.tol = tol

        p = problem
        # Every level is stored: refuse a history that cannot fit before allocating any of it,
        # even in float64 before the data is evaluated, then in the working dtype.
        _require_history_fits(p, np.dtype(float))
        self.coords = p.coords
        # Where the forcing is read: in 1D the grid and both walls, for the boundary completion.
        self._forced_at = self.coords
        if p.ndim == 1:
            self._forced_at = (np.concatenate(([0.0], self.coords[0], [p.length])),)
        self.t = p.tau * np.arange(p.n_steps + 1)
        initial = _on_points("initial", p.initial(*self.coords), self.coords)
        left = _trace("bc_left", p.bc_left, self.t)
        # a callable given for both walls, as example_6_1 gives one, is evaluated once
        traces = (left, left if p.bc_right is p.bc_left else _trace("bc_right", p.bc_right, self.t))
        # The working dtype: float64 unless rho or the data is complex.
        real = complex(p.rho).imag == 0 and all(map(_is_real, (initial, *traces)))
        self.dtype = np.dtype(float if real else complex)
        _require_history_fits(p, self.dtype)
        rho = np.real(p.rho) if real else p.rho

        self.l = weights(p.alpha, order, p.n_steps)
        with np.errstate(over="ignore", invalid="ignore"):
            self.decay = np.exp(-rho * p.tau * np.arange(p.n_steps + 1)).astype(self.dtype, copy=False)
        finite = np.isfinite(self.decay)
        if np.count_nonzero(finite) < finite.size:
            raise MgfkError(f"the tempering exp(-rho k tau) is not finite at k = {np.argmin(finite)}, "
                            f"rho={p.rho}, tau={p.tau}")
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

        walls = np.stack(traces, axis=1) if p.ndim == 1 else np.empty((p.n_steps + 1, 0))
        self.memory = History(initial.real if real else initial, walls.real if real else walls,
                              (self.decay * self.l).astype(self.dtype, copy=False))
        self.reports: list[vc.SolveReport] = []

    @property
    def history(self) -> np.ndarray:
        """The grid at levels 0..``step_index``, one row each (``History.levels``)."""
        return self.memory.levels

    @property
    def walls(self) -> np.ndarray:
        """The wall traces, one row (left, right) a level; rows of none in 2D."""
        return self.memory.walls

    @property
    def step_index(self) -> int:
        return self.memory.solved

    def assemble_rhs(self, n: int) -> np.ndarray:
        """Right-hand side of the level-n system: history convolution,
        initial-condition sum and forcing; in 1D compact-weighted, plus the
        boundary completion of the truncated operators.  An n outside
        1..n_steps raises ``MgfkError`` before the forcing is read."""
        p = self.problem
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or not 1 <= n <= p.n_steps:
            raise MgfkError(f"assemble_rhs takes a level n in 1..{p.n_steps}, got n={n!r}")
        tau_alpha = p.tau**p.alpha
        # The forcing is read before any sum: a complex value promotes the stepper.
        fn = self._read(_on_points("forcing", p.forcing(*self._forced_at, self.t[n]), self._forced_at))
        (past, walls), start = self.memory.convolution(n), self.partial_sums[n] * self.decay[n]
        levels = start * self.history[0] - past
        if p.ndim == 2:
            return levels + tau_alpha * fn
        rhs = COMPACT_MASS.apply(levels + tau_alpha * fn[1:-1])

        # Dirichlet completion of the truncated operators at both walls.
        ghosts = (fn[0].item(), fn[-1].item())
        for pos, trace, wall, f_ghost in zip((0, p.m - 1), self.walls.T, walls, ghosts):
            rhs[pos] += self.mu * trace[n] + (
                -self.l[0] * trace[n] - wall + start * trace[0] + tau_alpha * f_ghost
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
        far, so the cast is exact.  The cast holds the float64 history and
        its complex128 copy at once: where the two would not fit in physical
        memory, ``MgfkError`` is raised before anything is cast."""
        _require_history_fits(self.problem, np.dtype(float), np.dtype(complex))
        self.dtype = np.dtype(complex)
        self.decay = self.decay.astype(complex)
        self.memory.promote()

    def _multigrid_solve(self, n: int, rhs: np.ndarray) -> np.ndarray:
        # warm start from the last level, which solve copies into its tape
        g, report = vc.solve(self.hierarchy, rhs, v0=self.history[n - 1], tol=self.tol)
        if not report.converged:
            raise ConvergenceFailure(
                f"multigrid stalled at step {n}: relative residual "
                f"{report.residuals[-1]:.3e} after {report.iterations} cycles",
                report=report,
            )
        self.reports.append(report)
        return g

    def step(self) -> None:
        if self.step_index >= self.problem.n_steps:
            raise MgfkError("time stepping already complete")
        n = self.step_index + 1
        self.memory.append(self._solve(n, self.assemble_rhs(n)))

    def run(self) -> "Evolution":
        while self.step_index < self.problem.n_steps:
            self.step()
        return self

    @property
    def state(self) -> np.ndarray:
        return self.history[self.step_index]

    @property
    def iterations(self) -> list[int]:
        return [r.iterations for r in self.reports]

    @property
    def avg_iterations(self) -> float:
        return float(np.mean(self.iterations)) if self.reports else 0.0

    def max_error(self) -> float:
        """l-infinity error against the exact solution at the current time."""
        p = self.problem
        if p.exact is None:
            raise MgfkError("problem has no exact solution attached")
        ref = _on_points("exact", p.exact(*self.coords, self.t[self.step_index]), self.coords)
        return float(np.max(np.abs(self.state - ref.astype(complex))))


def _on_points(name: str, values, points: tuple) -> np.ndarray:
    """The ``values`` the callable ``name`` gave on the coordinate arrays
    ``points``, as a flat vector: one value broadcast, the grid or its flat
    vector as it is; any other shape raises ``DimensionError``."""
    a, shape, size = np.asarray(values), points[0].shape, points[0].size
    if a.size == 1:
        return np.broadcast_to(a.reshape(1), (size,))
    if a.shape not in (shape, (size,)):
        raise DimensionError(f"{name} gave values of shape {a.shape} on points of shape {shape}")
    return a.reshape(size)


def _trace(name: str, bc: Optional[Callable[[float], complex]], t: np.ndarray) -> np.ndarray:
    """The wall trace ``name``, ``bc``, at each time of ``t``, complex; zeros for ``None``."""
    return np.zeros(t.size) if bc is None else np.array([_one_value(name, bc(tn)) for tn in t])


def _one_value(name: str, value) -> complex:
    """``value``, one number of any shape, as a complex; its shape is checked where ``complex()`` fails."""
    try:
        return complex(value)
    except TypeError:
        if np.size(value) != 1:
            raise DimensionError(f"{name} gave a value of shape {np.shape(value)}, not one number") from None
        return complex(np.reshape(value, ()))


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
        envelope, sine = np.exp(-rho * t), np.sin(np.pi * x)
        return envelope * (c4 * t**4 * (sine + 1.0) + kappa * np.pi**2 * (t ** (4.0 + alpha) + 1.0) * sine)

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
    rho = 1.0
    kappa = 1.0
    c4 = math.gamma(5.0 + alpha) / math.gamma(5.0)

    def shape(x, y):
        # on the ij-meshgrid sin(pi x) varies down columns and sin(pi y)
        # along rows: one sine per axis point, broadcast to the grid
        return np.sin(np.pi * x[:, :1]) * np.sin(np.pi * y[:1, :])

    def forcing(x, y, t):
        return np.exp(-rho * t) * (c4 * t**4 + 2.0 * kappa * np.pi**2 * t ** (4.0 + alpha)) * shape(x, y)

    def initial(x, y):
        return np.zeros_like(x)

    def exact(x, y, t):
        return np.exp(-rho * t) * t ** (4.0 + alpha) * np.sin(np.pi * x[:, :1]) * np.sin(np.pi * y[:1, :])

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
