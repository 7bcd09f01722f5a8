"""Symmetric banded Toeplitz stencils and Kronecker-structured 2D operators.

Every operator in the package is stored matrix-free: a 1D operator is a
tuple of band values (a_0, a_1, ..., a_b), a 2D operator is a short sum of
Kronecker products of two 1D stencils.  Both are applied by shifted-slice
multiply-adds, a 2D operator in one pass over its (2b+1)**2 point
coefficients.  Dense materialisation exists only so tests can compare
against explicit matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DimensionError, EligibilityError, EstimationError, GridSizeError

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

    def apply(self, v: np.ndarray, axis: int = 0) -> np.ndarray:
        """Apply the operator along one axis of ``v`` (matrix-free matvec).

        Out-of-range neighbours are treated as zero, which is exactly the
        product with the Dirichlet-truncated finite matrix.  Works for real
        and complex data of any dimensionality.
        """
        v = np.asarray(v)
        if v.ndim == 0:
            raise DimensionError("expected an array, got a scalar")
        out = self.bands[0] * v
        vv, oo = (v, out) if axis == 0 else (np.moveaxis(v, axis, 0), np.moveaxis(out, axis, 0))
        for j, a in enumerate(self.bands[1:], start=1):
            if a == 0.0 or j >= vv.shape[0]:
                continue
            oo[j:] += a * vv[:-j]
            oo[:-j] += a * vv[j:]
        return out

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
class TensorOperator2D:
    """2D operator ``c_mass * E (x) E + c_stiff * (E (x) S + S (x) E)``.

    ``E`` and ``S`` are 1D stencils (identity-like and Laplacian-like
    factors) of half-bandwidth at most ``b``.  ``apply`` is one pass over the
    nonzero ones among the (2b+1)**2 coefficients ``c_ij = c_mass*e_i*e_j +
    c_stiff*(e_i*s_j + s_i*e_j)``, computed once: 5 for identity mass, 9 for
    a tridiagonal one.  Fields live on square grids stored row-major;
    ``apply`` takes the (m, m) grid or its flat length-m**2 vector and
    returns the same shape.
    """

    c_mass: float
    c_stiff: float
    mass: ToeplitzStencil
    stiff: ToeplitzStencil

    @cached_property
    def _points(self) -> tuple:
        """Half-width ``b``, center ``c_00`` and the nonzero off-center ``(i, j, c_ij)``."""
        b = max(self.mass.half_bandwidth, self.stiff.half_bandwidth)
        k = np.abs(np.arange(-b, b + 1))
        e, s = (np.pad(op.bands, (0, b - op.half_bandwidth))[k] for op in (self.mass, self.stiff))
        c = self.c_mass * e[:, None] * e + self.c_stiff * (e[:, None] * s + s[:, None] * e)
        taps = tuple((i - b, j - b, c[i, j]) for i, j in zip(*np.nonzero(c)) if (i, j) != (b, b))
        return b, c[b, b], taps

    def grid_of(self, v: np.ndarray) -> tuple[np.ndarray, bool]:
        v = np.asarray(v)
        if v.ndim == 2 and v.shape[0] == v.shape[1]:
            return v, False
        if v.ndim == 1:
            m = int(round(np.sqrt(v.size)))
            if m * m != v.size:
                raise DimensionError(f"flat 2D field length {v.size} is not a square")
            return v.reshape(m, m), True
        raise DimensionError(f"expected square grid or flat vector, got shape {v.shape}")

    def apply(self, v: np.ndarray) -> np.ndarray:
        x, flat = self.grid_of(v)
        m = x.shape[0]
        b, center, taps = self._points
        out = center * x
        xp = np.zeros((m + 2 * b, m + 2 * b), out.dtype)
        xp[b : b + m, b : b + m] = x
        for i, j, c in taps:
            if abs(i) < m and abs(j) < m:
                out += c * xp[b + i : b + i + m, b + j : b + j + m]
        return out.ravel() if flat else out

    def diagonal(self) -> float:
        e0, s0 = self.mass.diagonal, self.stiff.diagonal
        return self.c_mass * e0 * e0 + 2.0 * self.c_stiff * e0 * s0

    def to_dense(self, m: int) -> np.ndarray:
        e = self.mass.to_dense(m)
        s = self.stiff.to_dense(m)
        return (
            self.c_mass * np.kron(e, e)
            + self.c_stiff * (np.kron(e, s) + np.kron(s, e))
        )

    def is_spd_eligible(self) -> bool:
        return (
            self.c_mass >= 0.0
            and self.c_stiff > 0.0
            and self.mass.is_spd_eligible()
            and self.stiff.is_spd_eligible()
        )

    def gershgorin_bound(self) -> float:
        ge, gs = self.mass.gershgorin_bound(), self.stiff.gershgorin_bound()
        return self.c_mass * ge * ge + 2.0 * self.c_stiff * ge * gs


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
    stencil: ToeplitzStencil,
    m: int,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Estimate the largest eigenvalue of the m-by-m stencil matrix.

    Returns ``(estimate, gershgorin_bound)``.
    """
    est = largest_eigenvalue(lambda v: stencil.apply(v), m, tol=tol, max_iter=max_iter, seed=seed)
    return est, stencil.gershgorin_bound()


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
