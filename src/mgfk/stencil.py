"""Symmetric banded Toeplitz stencils and the Kronecker sums built from them.

Every operator in the package is stored matrix-free: a stencil is a tuple
of band values (a_0, a_1, ..., a_b), a system operator in d dimensions is
``c_mass E^{(x)d} + c_stiff sum_k E (x)..S..(x) E`` over two stencils.
Both are applied by shifted-slice multiply-adds, a system operator on a
zero-padded grid by ``PaddedApply``: one scaled copy of the grid per
distinct point coefficient, then one add per nonzero point of its
(2b+1)**d, built once as ufunc calls on scratch a caller may keep.  With
tridiagonal factors the type-I sine transform diagonalises them, which
gives their spectra in closed form and an exact direct solve.  Dense
materialisation exists only so tests can compare against explicit matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, ClassVar

import numpy as np

from .errors import DimensionError, EligibilityError, EstimationError, GridSizeError, MgfkError

#: Relative slack used in eligibility comparisons.
_ELIG_RTOL = 1e-12


@dataclass(frozen=True)
class ToeplitzStencil:
    """Symmetric banded Toeplitz operator described by its band values.

    ``bands[j]`` is the value on the j-th sub/super-diagonal; the matrix it
    stands for is ``A[i, k] = bands[abs(i - k)]`` truncated to a finite size
    with zero Dirichlet ghost values outside the index range.

    Parameters
    ----------
    bands : tuple of float
        Band values ``(a_0, a_1, ..., a_b)``; ``b`` is the half-bandwidth.
    """

    bands: tuple
    ndim: ClassVar[int] = 1  # a stencil acts on 1D grids

    def __post_init__(self):
        bands = tuple(float(a) for a in self.bands)
        if len(bands) == 0:
            raise ValueError("stencil needs at least the diagonal band")
        if not all(np.isfinite(bands)):
            raise ValueError(f"non-finite band values: {bands}")
        object.__setattr__(self, "bands", bands)

    @property
    def half_bandwidth(self) -> int:
        return len(self.bands) - 1

    @property
    def diagonal(self) -> float:
        return self.bands[0]

    def __add__(self, other: "ToeplitzStencil") -> "ToeplitzStencil":
        a, b = self.bands, other.bands
        if len(a) < len(b):
            a, b = b, a
        summed = list(a)
        for j, v in enumerate(b):
            summed[j] += v
        return ToeplitzStencil(tuple(summed))

    def __rmul__(self, c: float) -> "ToeplitzStencil":
        return ToeplitzStencil(tuple(c * a for a in self.bands))

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Apply the operator along the first axis of ``v`` (matrix-free matvec).

        Out-of-range neighbours are treated as zero, which is exactly the
        product with the Dirichlet-truncated finite matrix.  Works for real
        and complex data.
        """
        v = np.asarray(v)
        if v.ndim == 0:
            raise DimensionError("expected an array, got a scalar")
        out = self.bands[0] * v
        for j, a in enumerate(self.bands[1:], start=1):
            if a == 0.0 or j >= v.shape[0]:
                continue
            out[j:] += a * v[:-j]
            out[:-j] += a * v[j:]
        return out

    def eigenvalues(self, m: int) -> np.ndarray:
        """Eigenvalues ``a_0 + 2 a_1 cos(k pi/(m+1))``, k = 1..m, of the m-by-m
        matrix of a tridiagonal stencil (its DST-I symbol)."""
        if self.half_bandwidth > 1:
            raise MgfkError(f"closed-form spectrum needs a tridiagonal stencil, got {self.bands}")
        a0, a1 = (self.bands + (0.0,))[:2]
        # cos(k pi/(m+1)) as sin((m+1-2k) pi/(2m+2)): exactly 0 mid-spectrum, exactly odd about it
        return a0 + 2.0 * a1 * np.sin(np.pi * (m + 1 - 2 * np.arange(1, m + 1)) / (2 * m + 2))

    def to_dense(self, m: int) -> np.ndarray:
        """Materialise the m-by-m symmetric banded Toeplitz matrix."""
        if m < 1:
            raise DimensionError(f"matrix size must be >= 1, got {m}")
        dense = np.zeros((m, m))
        for j, a in enumerate(self.bands):
            if j >= m:
                break
            dense += a * np.eye(m, k=j)
            if j > 0:
                dense += a * np.eye(m, k=-j)
        return dense

    def is_spd_eligible(self) -> bool:
        """Weak diagonal dominance test: a_0 > 0 and a_0 >= 2 * sum|a_j|.

        For tridiagonal stencils this is exactly ``a_0 >= 2|a_1|``.
        """
        a0 = self.bands[0]
        offsum = 2.0 * sum(abs(a) for a in self.bands[1:])
        return a0 > 0.0 and offsum <= a0 * (1.0 + _ELIG_RTOL)

    def gershgorin_bound(self) -> float:
        """Upper bound ``a_0 + 2 * sum|a_j|`` on the largest eigenvalue."""
        return self.bands[0] + 2.0 * sum(abs(a) for a in self.bands[1:])


#: The identity stencil.
IDENTITY = ToeplitzStencil((1.0,))

#: Second-difference stencil tridiag(-1, 2, -1).
LAPLACIAN = ToeplitzStencil((2.0, -1.0))

#: Fourth-order compact mass stencil (1/12) * tridiag(1, 10, 1).
COMPACT_MASS = ToeplitzStencil((10.0 / 12.0, 1.0 / 12.0))

#: Averaging stencil tridiag(1, 2, 1), the mirror image of the Laplacian.
AVERAGING = ToeplitzStencil((2.0, 1.0))


@dataclass(frozen=True)
class KroneckerSum:
    """Operator ``c_mass E^{(x)d} + c_stiff sum_k E (x)..(x) S (x)..(x) E`` on
    (m,)*d grids, with S in the k-th of the d factors.

    ``E`` and ``S`` are 1D stencils (identity-like and Laplacian-like
    factors) of half-bandwidth at most ``b``.  A bare stencil S used as a
    system is ``KroneckerSum(1, 0.0, 1.0, IDENTITY, S)``.  ``apply`` is one
    pass over the nonzero ones among the (2b+1)**d point coefficients,
    computed once: in 1D the summed bands, in 2D 5 points for identity mass
    and 9 for a tridiagonal one.  Fields are stored row-major; ``apply``
    takes the grid or its flat vector and returns the same shape.
    """

    ndim: int
    c_mass: float
    c_stiff: float
    mass: ToeplitzStencil
    stiff: ToeplitzStencil

    def _kron_sum(self, e, s, prod=np.multiply.outer):
        """The operator's form over factor values ``e`` and ``s`` (band
        points, symbols or matrices), ``prod`` being their tensor product."""
        mass, ones, stiff = self.c_mass, 1.0, 0.0
        for _ in range(self.ndim):
            mass, ones, stiff = prod(mass, e), prod(ones, e), prod(stiff, e) + prod(ones, s)
        return mass + self.c_stiff * stiff

    @cached_property
    def _points(self) -> tuple:
        """Half-width ``b``, centre coefficient, ``(window, c)`` per nonzero
        off-centre point, and the interior of a grid zero-padded by ``b`` on
        every side; ``window`` slices the point's shifted copy out of it."""
        b = self.half_bandwidth
        k = np.abs(np.arange(-b, b + 1))
        e, s = (np.pad(op.bands, (0, b - op.half_bandwidth))[k] for op in (self.mass, self.stiff))
        c = self._kron_sum(e, s)
        centre = (b,) * self.ndim
        taps = tuple(
            (tuple(slice(int(i), int(i) - 2 * b or None) for i in idx), c[idx])
            for idx in zip(*np.nonzero(c))
            if idx != centre
        )
        return b, c[centre], taps, (slice(b, -b or None),) * self.ndim

    @property
    def half_bandwidth(self) -> int:
        return max(self.mass.half_bandwidth, self.stiff.half_bandwidth)

    @property
    def diagonal(self) -> float:
        """``c_mass e0**d + d c_stiff e0**(d-1) s0``, multiplied out left to right."""
        e0, s0 = self.mass.diagonal, self.stiff.diagonal
        mass, stiff = self.c_mass, self.ndim * self.c_stiff
        for _ in range(self.ndim - 1):
            mass, stiff = mass * e0, stiff * e0
        return mass * e0 + stiff * s0

    def grid(self, v: np.ndarray) -> np.ndarray:
        """``v`` viewed as the (m,)*ndim grid; ``v`` is that grid or its flat vector."""
        v = np.asarray(v)
        m = v.shape[0] if v.ndim == self.ndim else round(v.size ** (1.0 / self.ndim))
        if m < 1 or v.shape not in ((m,) * self.ndim, (m**self.ndim,)):
            raise DimensionError(f"{v.shape} is not a square {self.ndim}D grid or its flat vector")
        return v.reshape((m,) * self.ndim)

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.apply_grid(self.grid(v)).reshape(np.shape(v))

    def apply_grid(self, x: np.ndarray) -> np.ndarray:
        """``apply`` on an (m,)*ndim grid, through a ``PaddedApply`` made for the call."""
        if x.ndim != self.ndim:
            raise DimensionError(f"expected a {self.ndim}D grid, got shape {x.shape}")
        kernel = PaddedApply(self, x.shape[0], np.result_type(x, self._points[1]))
        kernel.x[...] = x
        return kernel.interior(kernel()).copy()

    def eigenvalues(self, m: int) -> np.ndarray:
        """The (m,)*ndim grid of eigenvalues, diagonalised by the DST-I."""
        return self._kron_sum(self.mass.eigenvalues(m), self.stiff.eigenvalues(m))

    def galerkin(self) -> "KroneckerSum":
        """Galerkin coarse operator R A P: the 1-2-1 triple product of each factor."""
        from .coarsen import galerkin_step  # coarsen builds on this module

        mass, stiff = galerkin_step(self.mass), galerkin_step(self.stiff)
        return KroneckerSum(self.ndim, self.c_mass, self.c_stiff, mass, stiff)

    def rediscretised(self) -> "KroneckerSum":
        """The operator on the grid of twice the spacing: c_stiff ~ 1/h**2 falls fourfold."""
        return KroneckerSum(self.ndim, self.c_mass, self.c_stiff / 4.0, self.mass, self.stiff)

    def to_dense(self, m: int) -> np.ndarray:
        return self._kron_sum(self.mass.to_dense(m), self.stiff.to_dense(m), np.kron)

    def is_spd_eligible(self) -> bool:
        return (
            self.c_mass >= 0.0
            and self.c_stiff > 0.0
            and self.mass.is_spd_eligible()
            and self.stiff.is_spd_eligible()
        )

    def gershgorin_bound(self) -> float:
        return float(self._kron_sum(self.mass.gershgorin_bound(), self.stiff.gershgorin_bound()))


class PaddedApply:
    """``A x`` on the (m,)*ndim grid, built once for one dtype as a tuple of
    ufunc calls on buffers of its own.

    The operand lives in ``x``, the interior of a grid zero-padded by the
    half-bandwidth b; the product goes to ``out``.  The kernel works on
    ``run``, one contiguous stretch of that grid's flat storage: the m rows
    of n = m + 2b values from the interior's first point on, with the pad
    cells between interior rows (in 1D the run is ``x`` itself), and
    ``out`` is laid out the same way.  An array laid out like the run
    holds a grid in ``interior(a)`` and pad cells in ``pads(a)``; pad cells
    of ``out`` mean nothing after a call.

    ``calls`` computes ``centre * run``, then one scaled copy ``c * grid``
    in ``scaled`` per distinct off-centre coefficient value c (exact
    ``==``), over the stretch that the points with that coefficient read,
    then adds each point's shifted window of its copy in ``_points`` order.
    The windows are views built here, so every ufunc call is on contiguous
    memory, which numpy runs unbuffered, and each interior value is exactly
    that of the plain slice expressions ``out = centre * x``,
    ``out += c * window``.  Coefficients are 0-d arrays of the grid's
    dtype, the cheapest scalar operand numpy takes.
    """

    def __init__(self, op: KroneckerSum, m: int, dtype):
        b, centre, taps, inner = op._points
        d, n = op.ndim, m + 2 * b
        stride = [n ** (d - 1 - k) for k in range(d)]  # flat stride of each axis
        first, size = b * sum(stride), m * stride[0]  # the run: interior origin, length
        offsets = [sum((s.start - b) * st for s, st in zip(w, stride)) for w, _ in taps]
        flat = np.zeros(max(n**d, first + max(offsets, default=0) + size), dtype)
        self.x = flat[: n**d].reshape((n,) * d)[inner]
        self.run = flat[first : first + size]
        self.out = np.zeros(size, dtype)
        self._rows = (m,) + (n,) * (d - 1)
        groups = {}  # coefficient value -> offsets of its points
        for off, (_, c) in zip(offsets, taps):
            groups.setdefault(float(c), []).append(off)
        scaled, window = [], {}
        for c, offs in groups.items():
            lo, hi = min(offs), max(offs)
            copy = np.empty(hi - lo + size, dtype)
            src = flat[first + lo : first + hi + size]
            scaled.append((np.multiply, (src, np.array(c, dtype), copy)))
            window.update((off, copy[off - lo : off - lo + size]) for off in offs)
        self.scaled = tuple(args[2] for _, args in scaled)
        self.calls = (
            (np.multiply, (self.run, np.array(centre, dtype), self.out)),
            *scaled,
            *((np.add, (self.out, window[off], self.out)) for off in offsets),
        )

    def interior(self, a: np.ndarray) -> np.ndarray:
        """The (m,)*ndim grid an array laid out like the run holds."""
        m = self._rows[0]
        return a.reshape(self._rows)[(slice(None),) + (slice(m),) * (len(self._rows) - 1)]

    def pads(self, a: np.ndarray) -> tuple:
        """Views of the pad cells of an array laid out like the run."""
        m, rows = self._rows[0], a.reshape(self._rows)
        return tuple(
            rows[(slice(None),) + (slice(m),) * (k - 1) + (slice(m, None),)]
            for k in range(1, len(self._rows))
        )

    def __call__(self) -> np.ndarray:
        """Write ``A x`` into ``out`` and return it."""
        run_calls(self.calls)
        return self.out


def run_calls(calls) -> None:
    """Run ``(ufunc, args)`` pairs in order: every prebuilt kernel's one loop."""
    for fn, args in calls:
        fn(*args)


# benchmarks/workloads.py patches the apply span of the system operator through this name
TensorOperator2D = KroneckerSum


def dst_solve(op: KroneckerSum, b: np.ndarray) -> np.ndarray:
    """Solve ``op x = b`` exactly for tridiagonal factors, matrix-free in
    O(m**d log m).

    The type-I discrete sine transform diagonalises every symmetric
    tridiagonal Toeplitz matrix, and so every Kronecker sum of them
    (Buzbee, Golub and Nielson, SIAM J. Numer. Anal. 7, 1970).  ``b`` may
    be complex and has the shape ``apply`` takes.
    """
    from scipy.fft import dstn, idstn  # imported here so that `import mgfk` loads no scipy

    x = op.grid(b)
    return idstn(dstn(x, type=1) / op.eigenvalues(x.shape[0]), type=1).reshape(np.shape(b))


def grid_depth(m: int) -> int:
    """Return K such that m == 2**K - 1, or raise ``GridSizeError``."""
    if m < 1 or (m + 1) & m != 0:
        raise GridSizeError(f"grid size {m} is not of the form 2**k - 1")
    return (m + 1).bit_length() - 1


def largest_eigenvalue(
    matvec: Callable[[np.ndarray], np.ndarray],
    size: int,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    seed: int = 0,
) -> float:
    """Largest eigenvalue of a symmetric operator, matrix-free.

    Lanczos iteration (ARPACK) with a seeded start vector, so results are
    deterministic.  Plain power iteration stalls arbitrarily badly when the
    top of the spectrum clusters (nearly scaled-identity stencils), which
    Lanczos handles within the same iteration cap.  Raises
    ``EstimationError`` carrying the partial estimate on non-convergence.
    """
    if size < 1:
        raise DimensionError(f"operator size must be >= 1, got {size}")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if size == 1:
        return float(matvec(np.ones(1))[0])
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    op = LinearOperator((size, size), matvec=matvec, dtype=float)
    v0 = np.random.default_rng(seed).standard_normal(size)
    try:
        vals = eigsh(
            op, k=1, which="LA", tol=tol, maxiter=max_iter, v0=v0,
            return_eigenvectors=False,
        )
    except ArpackNoConvergence as exc:
        if len(exc.eigenvalues):
            partial = float(exc.eigenvalues[0])
        else:
            x = v0 / np.linalg.norm(v0)
            for _ in range(50):
                y = matvec(x)
                ny = np.linalg.norm(y)
                if ny == 0.0:
                    break
                x = y / ny
            partial = float(x @ matvec(x))
        raise EstimationError(
            f"eigenvalue iteration did not reach tol={tol} in {max_iter} steps",
            estimate=partial,
        ) from exc
    return float(vals[0])


def lambda_max(
    op,
    m: int,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Largest eigenvalue of a stencil or Kronecker sum on the (m,)*ndim grid.

    Exact from the sine symbol when every factor is tridiagonal, seeded
    Lanczos otherwise.  Returns ``(estimate, gershgorin_bound)``.
    """
    if op.half_bandwidth <= 1:
        est = float(np.max(op.eigenvalues(m)))
    else:
        est = largest_eigenvalue(op.apply, m**op.ndim, tol=tol, max_iter=max_iter, seed=seed)
    return est, op.gershgorin_bound()


def require_spd_eligible(op) -> None:
    """Raise ``EligibilityError`` unless the operator passes the SPD test."""
    if not op.is_spd_eligible():
        raise EligibilityError(f"operator is not SPD-eligible: {op}")


def require_coarsenable(stencil: ToeplitzStencil) -> None:
    """Reject stencils the 1-2-1 transfer pair provably cannot coarsen.

    A tridiagonal stencil with ``a_0 == 2*a_1`` and ``a_1 > 0`` has a symbol
    vanishing at the highest frequency; the averaging transfer leaves that
    mode invisible to every coarse grid, so such inputs are refused rather
    than silently producing a stalled hierarchy.
    """
    require_spd_eligible(stencil)
    if stencil.half_bandwidth >= 1:
        a0, a1 = stencil.bands[0], stencil.bands[1]
        if a1 > 0.0 and abs(a0 - 2.0 * a1) <= _ELIG_RTOL * a0:
            raise EligibilityError(
                "stencil with a_0 == 2*a_1 (a_1 > 0) cannot be coarsened by the "
                "1-2-1 transfer pair: its symbol vanishes at the highest frequency"
            )
