"""Symmetric tridiagonal Toeplitz stencils and the Kronecker sums built from them.

Every operator in the package is stored matrix-free: a stencil is the band
pair (a_0, a_1) of tridiag(a_1, a_0, a_1), a system operator is
``c_mass E + c_stiff S`` on a 1D grid or
``c_mass E (x) E + c_stiff (E (x) S + S (x) E)`` on a 2D one, over two
stencils.  Both are applied by shifted-slice multiply-adds, a system
operator by ``PaddedApply`` on the grid held in its run layout
(``run_shape``: in 2D rows of m + 1 cells, one zero pad cell after each
row's points): one scaled copy of the grid per distinct point coefficient,
then one add per nonzero point of its 3 in 1D or 9 in 2D, built once as
ufunc calls on scratch a caller may keep.  The type-I sine transform
diagonalises the system operators, which gives their spectra in closed
form and an exact direct solve.  Dense matrices live in the test oracles
only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, EligibilityError, GridSizeError

#: Relative slack used in eligibility comparisons.
_ELIG_RTOL = 1e-12


@dataclass(frozen=True)
class ToeplitzStencil:
    """Symmetric tridiagonal Toeplitz operator tridiag(a_1, a_0, a_1).

    The matrix it stands for is truncated to a finite size with zero
    Dirichlet ghost values outside the index range.  The paper's theory
    covers tridiagonal stencils only, so that is all a stencil can hold.

    Parameters
    ----------
    bands : tuple of float
        ``(a_0, a_1)``; a lone diagonal ``(a_0,)`` stands for ``(a_0, 0.0)``,
        and a third band raises ``EligibilityError``.
    """

    bands: tuple

    def __post_init__(self):
        bands = tuple(float(a) for a in self.bands)
        if len(bands) == 0:
            raise ValueError("stencil needs at least the diagonal band")
        if len(bands) > 2:
            raise EligibilityError(f"stencils must be tridiagonal, got bands {bands}")
        if not all(np.isfinite(bands)):
            raise ValueError(f"non-finite band values: {bands}")
        object.__setattr__(self, "bands", (bands + (0.0,))[:2])

    @property
    def diagonal(self) -> float:
        return self.bands[0]

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
        a0, a1 = self.bands
        out = a0 * v
        out[1:] += a1 * v[:-1]
        out[:-1] += a1 * v[1:]
        return out

    def eigenvalues(self, m: int) -> np.ndarray:
        """Eigenvalues ``a_0 + 2 a_1 cos(k pi/(m+1))``, k = 1..m, of the m-by-m
        matrix (its DST-I symbol)."""
        a0, a1 = self.bands
        # cos(k pi/(m+1)) as sin((m+1-2k) pi/(2m+2)): exactly 0 mid-spectrum, exactly odd about it
        return a0 + 2.0 * a1 * np.sin(np.pi * (m + 1 - 2 * np.arange(1, m + 1)) / (2 * m + 2))

    def is_spd_eligible(self) -> bool:
        """Weak diagonal dominance test: a_0 > 0 and a_0 >= 2|a_1|."""
        a0, a1 = self.bands
        return a0 > 0.0 and 2.0 * abs(a1) <= a0 * (1.0 + _ELIG_RTOL)

    def gershgorin_bound(self) -> float:
        """Upper bound ``a_0 + 2|a_1|`` on the largest eigenvalue."""
        a0, a1 = self.bands
        return a0 + 2.0 * abs(a1)


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
    """Operator ``c_mass E + c_stiff S`` on (m,) grids (``ndim`` 1) or
    ``c_mass E (x) E + c_stiff (E (x) S + S (x) E)`` on (m, m) grids
    (``ndim`` 2); any other ``ndim`` raises ``DimensionError``, as the
    paper's theory covers those two only.

    ``E`` and ``S`` are tridiagonal 1D stencils (identity-like and
    Laplacian-like factors).  A bare stencil S used as a system is
    ``KroneckerSum(1, 0.0, 1.0, IDENTITY, S)``.  ``apply`` is one pass over
    the nonzero point coefficients, computed once: in 1D the 3 summed
    bands, in 2D 5 points for identity mass and 9 for one with a nonzero
    a_1.  Fields are stored row-major; ``apply`` takes the grid or its flat
    vector and returns the same shape.
    """

    ndim: int
    c_mass: float
    c_stiff: float
    mass: ToeplitzStencil
    stiff: ToeplitzStencil

    def __post_init__(self):
        if self.ndim not in (1, 2):
            raise DimensionError(f"Kronecker sums are 1D or 2D, got ndim {self.ndim}")

    def _kron_sum(self, e, s):
        """The operator's form over factor values ``e`` and ``s`` (band
        points or symbols), tensored by outer products."""
        outer = np.multiply.outer
        mass, ones, stiff = self.c_mass, 1.0, 0.0
        for _ in range(self.ndim):
            mass, ones, stiff = outer(mass, e), outer(ones, e), outer(stiff, e) + outer(ones, s)
        return mass + self.c_stiff * stiff

    @cached_property
    def _points(self) -> tuple:
        """Centre coefficient, and ``(window, c)`` per nonzero off-centre
        point; ``window`` slices the point's shifted copy out of a grid
        zero-padded by one on every side."""
        e, s = (np.array(f.bands)[[1, 0, 1]] for f in (self.mass, self.stiff))
        c = self._kron_sum(e, s)
        centre = (1,) * self.ndim
        taps = tuple(
            (tuple(slice(int(i), int(i) - 2 or None) for i in idx), c[idx])
            for idx in zip(*np.nonzero(c))
            if idx != centre
        )
        return c[centre], taps

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
        kernel = PaddedApply(self, x.shape[0], np.result_type(x, self._points[0]))
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

    def is_spd_eligible(self) -> bool:
        return (
            self.c_mass >= 0.0
            and self.c_stiff > 0.0
            and self.mass.is_spd_eligible()
            and self.stiff.is_spd_eligible()
        )

    def gershgorin_bound(self) -> float:
        return float(self._kron_sum(self.mass.gershgorin_bound(), self.stiff.gershgorin_bound()))


def run_shape(shape: tuple) -> tuple:
    """Shape of the run layout of a grid of ``shape``: a 1D grid as it is, the
    rows of n points of a 2D one in rows of n + 1 cells, the points first
    and a zero pad cell after them."""
    return (shape[0], *(m + 1 for m in shape[1:]))


def interior(a: np.ndarray, shape: tuple) -> np.ndarray:
    """The grid of ``shape`` a flat array in its run layout holds."""
    return a.reshape(run_shape(shape))[(slice(None), *(slice(m) for m in shape[1:]))]


def pads(a: np.ndarray, shape: tuple) -> tuple:
    """Views covering every pad cell of a flat array in the run layout of
    ``shape``: in 2D, rows of n points, the one 1D view ``a[n::n + 1]``; in
    1D, where the run has no pad cells, none."""
    return tuple(a[n :: n + 1] for n in shape[1:])


class PaddedApply:
    """``A x`` on the (m,)*ndim grid, built once for one dtype as a tuple of
    ufunc calls on buffers of its own.

    The operand lives in ``x``, held in ``run``: the grid in the run layout
    (``run_shape``) with rows of m + 1 cells, inside a flat zero-padded
    storage.  The neighbour past the end of a row and the one before the
    start of the next are the one pad cell between them, and those off the
    first or last row are the zero storage on either side of the run, one
    row (in 1D one cell) wide; ``framed`` is the run with that zero row on
    either side.  In 1D the run is ``x`` itself.  The product goes to
    ``out``, laid out like the run; ``interior(a)`` and ``pads(a)`` are the
    grid and the pad cells of an array so laid out.  Pad cells of ``out``
    mean nothing after a call.

    ``calls`` computes ``centre * run``, then one scaled copy ``a * grid``
    in ``scaled`` per distinct off-centre coefficient value a (exact
    ``==``), over the stretch that the points with that coefficient read,
    then adds each point's shifted window of its copy in ``_points`` order.
    The windows are views built here, so every ufunc call is on contiguous
    memory, which numpy runs unbuffered, and each interior value is exactly
    that of the plain slice expressions ``out = centre * x``,
    ``out += a * window``.  Coefficients are 0-d arrays of the grid's
    dtype, the cheapest scalar operand numpy takes.
    """

    def __init__(self, op: KroneckerSum, m: int, dtype):
        centre, taps = op._points
        d, self.shape = op.ndim, (m,) * op.ndim
        rows = run_shape(self.shape)
        stride = [math.prod(rows[k + 1 :]) for k in range(d)]  # flat stride of each axis
        first, size = sum(stride), m * stride[0]  # the run: interior origin, length
        offsets = [sum((s.start - 1) * st for s, st in zip(w, stride)) for w, _ in taps]
        flat = np.zeros(size + 2 * first, dtype)
        self.run = flat[first : first + size]
        self.framed = flat[first - stride[0] : first + size + stride[0]]
        self.x = self.interior(self.run)
        self.out = np.zeros(size, dtype)
        groups = {}  # coefficient value -> offsets of its points
        for off, (_, coef) in zip(offsets, taps):
            groups.setdefault(float(coef), []).append(off)
        scaled, window = [], {}
        for coef, offs in groups.items():
            lo, hi = min(offs), max(offs)
            copy = np.empty(hi - lo + size, dtype)
            src = flat[first + lo : first + hi + size]
            scaled.append((np.multiply, (src, np.array(coef, dtype), copy)))
            window.update((off, copy[off - lo : off - lo + size]) for off in offs)
        self.scaled = tuple(args[2] for _, args in scaled)
        self.calls = (
            (np.multiply, (self.run, np.array(centre, dtype), self.out)),
            *scaled,
            *((np.add, (self.out, window[off], self.out)) for off in offsets),
        )

    def interior(self, a: np.ndarray) -> np.ndarray:
        """The (m,)*ndim grid an array laid out like the run holds."""
        return interior(a, self.shape)

    def pads(self, a: np.ndarray) -> tuple:
        """Views of the pad cells of an array laid out like the run."""
        return pads(a, self.shape)

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
    """Solve ``op x = b`` exactly, matrix-free in O(m**d log m).

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


def lambda_max(op, m: int) -> tuple[float, float]:
    """Largest eigenvalue of a stencil or Kronecker sum on the (m,)*ndim grid,
    the top of its sine symbol, and its Gershgorin bound."""
    return float(np.max(op.eigenvalues(m))), op.gershgorin_bound()


def require_spd_eligible(op) -> None:
    """Raise ``EligibilityError`` unless the operator passes the SPD test."""
    if not op.is_spd_eligible():
        raise EligibilityError(f"operator is not SPD-eligible: {op}")


def require_coarsenable(stencil: ToeplitzStencil) -> None:
    """Reject stencils the 1-2-1 transfer pair provably cannot coarsen.

    Beyond the SPD test: a stencil with ``a_0 == 2*a_1`` and ``a_1 > 0`` has
    a symbol vanishing at the highest frequency; the averaging transfer
    leaves that mode invisible to every coarse grid, so such inputs are
    refused rather than silently producing a stalled hierarchy.
    """
    require_spd_eligible(stencil)
    a0, a1 = stencil.bands
    if a1 > 0.0 and abs(a0 - 2.0 * a1) <= _ELIG_RTOL * a0:
        raise EligibilityError(
            "stencil with a_0 == 2*a_1 (a_1 > 0) cannot be coarsened by the "
            "1-2-1 transfer pair: its symbol vanishes at the highest frequency"
        )
