"""Symmetric tridiagonal Toeplitz stencils and the Kronecker sums built from them.

Every operator in the package is stored matrix-free: a stencil is the band
pair (a_0, a_1) of tridiag(a_1, a_0, a_1), a system operator is
``c_mass E + c_stiff S`` on a 1D grid or
``c_mass E (x) E + c_stiff (E (x) S + S (x) E)`` on a 2D one, over two
stencils.  Both are applied by shifted-slice multiply-adds over their
nonzero points: a system operator's 3 in 1D or 5 or 9 in 2D (``_points``).
Each level operation of the V-cycle (residual, damped update, transfer,
zero start, coarsest step) is described once, as a
``Kernel``: the operands of one record of the compiled executor
``_tape.c``, on buffers a caller keeps.  ``run_numpy`` runs kernels with
numpy, one kind's per-element operations in the executor's order, on
any dtype, and ``tape_runner`` runs a tuple of float64 ones as one call
into the executor, which knows no other type (built
on first use by ``_library`` into the user's cache, with
``-ffp-contract=off`` so that every element gets exactly the IEEE
operations of ``run_numpy``; a residual record sums each element in a
register, in a loop made for its tap count, and on x86-64 an AVX2 clone of
each loop runs where the CPU has it), or by ``run_numpy`` where it cannot
be built (``compiled_tapes``).  A kernel's scalars are floats, which its
record holds as values.  ``_CompiledSolve`` runs a whole multigrid solve
(``multigrid.Tape.solve``), its cycles, residuals, their norms and the
stopping test, as one call into the executor, each norm summed over the
planes' residual runs by numpy's BLAS ddot (``compiled_solves``); its five
fields are the cycle's records, the fine residual's, one per plane, which
say where each plane's residual run is, and the ddot.
The executor's third entry point, ``mgfk_weights``, runs the quadrature
weights' recurrence of ``fsd.weights`` through that ddot, the same
bits as its numpy loop, which runs where ``compiled_solves`` is false.
Grids are held in the run layout of ``run_shape``: in 2D rows of m + 1
cells, one zero pad cell after each row's points.  The type-I sine
transform diagonalises the system operators, which gives their spectra
in closed form and an exact direct solve.  Dense matrices live in the
test oracles only.
"""

from __future__ import annotations

import math
import os
import stat
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import NamedTuple

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


#: The identity stencil.
IDENTITY = ToeplitzStencil((1.0,))

#: Second-difference stencil tridiag(-1, 2, -1).
LAPLACIAN = ToeplitzStencil((2.0, -1.0))

#: Fourth-order compact mass stencil (1/12) * tridiag(1, 10, 1).
COMPACT_MASS = ToeplitzStencil((10.0 / 12.0, 1.0 / 12.0))


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
        """``A v``: ``x * centre``, then ``+ window * c`` per off-centre
        point in ``_points`` order, the operations of a residual kernel."""
        x = self.grid(v)
        centre, taps = self._points
        out, padded = x * centre, np.pad(x, 1)
        for window, c in taps:
            out += padded[window] * c
        return out.reshape(np.shape(v))

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


def run_shape(shape: tuple) -> tuple:
    """Shape of the run layout of a grid of ``shape``: a 1D grid as it is, the
    rows of n points of a 2D one in rows of n + 1 cells, the points first
    and a zero pad cell after them."""
    return (shape[0], *(m + 1 for m in shape[1:]))


def interior(a: np.ndarray, shape: tuple) -> np.ndarray:
    """The grid of ``shape`` a flat array in its run layout holds."""
    return a.reshape(run_shape(shape))[(slice(None), *(slice(m) for m in shape[1:]))]


def pad_period(shape: tuple) -> int:
    """The period of the pad cells of the run layout of ``shape``: in 2D,
    rows of n points, n + 1, cell n of each row being one; 0 in 1D, which has none."""
    return sum(m + 1 for m in shape[1:])


#: The executor's build flags.  -ffp-contract=off keeps ``a * b + c`` two
#: roundings, as numpy's separate calls are, and -ffast-math, which would
#: reassociate, is left out; -fno-math-errno makes ``sqrt`` one instruction
#: that sets no ``errno``, of the same value.  -march=native is left out, as
#: a build is cached per platform, not per CPU: on x86-64 glibc ``_tape.c``
#: clones its kernels for AVX2 itself, and the loader picks the clone per
#: CPU at load time.
_CFLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-std=c99", "-fPIC", "-shared")

#: Kernel kinds of ``_tape.c``, which says what each does.  5 was a kind of
#: its own; the numbers after it stay as they were.
RESIDUAL, UPDATE, SCALE, DIVIDE, ZERO, RESTRICT, PROLONG = 0, 1, 2, 3, 4, 6, 7

#: The most off-centre points a residual record holds: a 9-point stencil's.
_TAPS = 8

#: ``_tape.c``'s ``record``, field for field: addresses as int64, the
#: scalar and the taps' coefficients as float64.
_RECORD = np.dtype([*((name, np.int64) for name in ("kind", "n", "len", "pad", "out", "a", "b", "taps")),
                    ("off", np.int64, _TAPS), ("s", np.float64), ("c", np.float64, _TAPS)])


class Kernel(NamedTuple):
    """One level operation of ``kind`` (``_tape.c`` says what each does):
    into ``out``, whose first axis is its rows (an update and a
    prolongation add onto it), from the arrays ``a`` and ``b`` (all
    C-contiguous; ``b`` is a residual's right-hand side, or the row buffer
    of a 2D transfer, which the executor writes) and the float ``s``, then
    zeroing every ``pad``-th element of ``out`` from the ``pad - 1``-st on
    (``pad`` 0: none, see ``pad_period``); a residual also sums ``taps``,
    per off-centre point its window (``a`` shifted by the point's offset in
    the storage ``a`` is a run of) and its float coefficient.  The
    transfers' weights are fixed.  ``run_numpy`` runs it with numpy,
    ``tape_runner`` as one record of the executor."""

    kind: int
    out: np.ndarray
    a: np.ndarray = None
    b: np.ndarray = None
    s: float = 0.0
    pad: int = 0
    taps: tuple = ()


def _restrict(o: np.ndarray, a: np.ndarray) -> None:
    """Full weighting along the first axis: ``o[q]`` from ``a[2q]``,
    ``a[2q + 1]`` and ``a[2q + 2]``."""
    np.multiply(a[1::2], 2.0, o)
    np.add(a[0:-1:2], o, o)
    o += a[2::2]
    o *= 0.25


def _prolong(o: np.ndarray, a: np.ndarray, add: bool) -> None:
    """Linear interpolation along the first axis, into ``o`` or (``add``)
    onto it: ``o[2q]`` from ``a[q]`` and ``a[q + 1]``, ``o[2q + 1]`` from
    ``a[q + 1]``."""
    even, odd = o[0::2], o[1::2]
    if add:
        even += (a[: len(even)] + a[1 : len(even) + 1]) * 0.5
        odd += a[1 : len(odd) + 1]
    else:
        np.copyto(odd, a[1 : len(odd) + 1])
        np.add(a[: len(even)], a[1 : len(even) + 1], even)
        even *= 0.5


def run_numpy(kernels) -> None:
    """Run ``kernels`` in order with numpy: per element the IEEE operations
    of each record in the executor's order, each tap's product formed as a
    temporary, the transfers' weights 2, 1/4 and 1/2 as in the executor.
    A 2D transfer (an ``out`` of rows) forms its pass across rows for the
    whole grid at once, into a temporary laid out as the executor's row
    buffers follow each other (one zero cell past the restriction's, one
    before the prolongation's), and leaves ``b`` alone.
    Kernels of any dtype run, the complex and long double ones of the
    test oracles included.  numpy warns of overflows and invalid values."""
    for kind, o, a, b, s, pad, taps in kernels:
        if kind == RESIDUAL:
            np.multiply(a, s, o)
            for window, c in taps:
                o += window * c
            np.subtract(b, o, o)
        elif kind == UPDATE:
            o += a * s
        elif kind == SCALE:
            np.multiply(a, s, o)
        elif kind == DIVIDE:
            np.divide(a, s, o)
        elif kind == ZERO:
            o.fill(0)
        elif kind == RESTRICT:
            if o.ndim == 2:
                rows = np.zeros(2 * o.size + 1, o.dtype)
                _restrict(rows[:-1].reshape(len(o), -1), a)
                a = rows
            _restrict(o.reshape(-1), a)
        else:  # PROLONG
            if o.ndim == 2:
                rows = np.zeros(1 + o.size // 2, o.dtype)
                _prolong(rows[1:].reshape(len(o), -1), a, add=False)
                a = rows
            _prolong(o.reshape(-1), a, add=True)
        if pad:
            o.reshape(-1)[pad - 1 :: pad] = 0


def _at(x) -> int:
    """The address of the data of array ``x``; 0 for ``None``."""
    return 0 if x is None else x.__array_interface__["data"][0]


def _record(k: Kernel) -> np.ndarray:
    """``k`` as one ``_tape.c`` record, a 0-d ``_RECORD`` array: a tap is
    its window's offset from ``a``, in elements, and its coefficient."""
    r = np.zeros((), _RECORD)
    r["kind"], r["n"], r["len"], r["pad"] = k.kind, k.out.shape[0], math.prod(k.out.shape[1:]), k.pad
    r["out"], r["a"], r["b"], r["taps"], r["s"] = _at(k.out), _at(k.a), _at(k.b), len(k.taps), k.s
    for p, (window, c) in enumerate(k.taps):
        r["off"][p], r["c"][p] = (_at(window) - _at(k.a)) // k.out.itemsize, c
    return r


def _build(source: str, path: str) -> bool:
    """Compile ``source`` into the shared library ``path`` with ``$CC`` or
    ``cc``, under a temporary name, then renamed, so that processes that
    build at once each load a whole file; whether that worked."""
    import shlex
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(path))
    os.close(fd)
    try:
        cc = shlex.split(os.environ.get("CC") or "cc")
        subprocess.run([*cc, *_CFLAGS, "-o", tmp, source], check=True, capture_output=True, timeout=120)
        os.replace(tmp, path)
        return True
    except (OSError, ValueError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@lru_cache(maxsize=None)
def _library():
    """The executor, ``_tape.c`` with its entry points ``mgfk_run_tape``,
    ``mgfk_solve`` and ``mgfk_weights``, built on first use (``_build``)
    into ``$XDG_CACHE_HOME/mgfk`` (default ``~/.cache/mgfk``) under a name
    hashed from the source, the flags and the platform; ``None`` without a
    compiler, after a failed build, or when that directory is not the
    user's own or is writable by group or others."""
    import platform
    import zlib

    source = os.path.join(os.path.dirname(__file__), "_tape.c")
    try:
        with open(source, "rb") as f:
            key = f.read() + repr((_CFLAGS, platform.system(), platform.machine())).encode()
        cache = os.path.join(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"), "mgfk")
        os.makedirs(cache, mode=0o700, exist_ok=True)
        st = os.stat(cache)
        mine = hasattr(os, "getuid") and st.st_uid == os.getuid()
        if not (stat.S_ISDIR(st.st_mode) and mine and not st.st_mode & 0o022):
            return None
        path = os.path.join(cache, f"tape-{zlib.crc32(key):08x}{zlib.adler32(key):08x}.so")
        if not (os.path.exists(path) or _build(source, path)):
            return None
        return _load(path)
    except OSError:
        return None


def _load(path: str):
    """The executor built at ``path``, its entry points typed."""
    import ctypes  # here, so that `import mgfk` loads nothing

    lib = ctypes.CDLL(path)
    lib.mgfk_run_tape.argtypes, lib.mgfk_run_tape.restype = (ctypes.c_void_p, ctypes.c_int64), None
    lib.mgfk_solve.argtypes = (ctypes.c_void_p, ctypes.c_double, ctypes.c_void_p, ctypes.c_int64,
                               ctypes.POINTER(ctypes.c_int64))
    lib.mgfk_solve.restype = ctypes.c_int64
    lib.mgfk_weights.argtypes = (ctypes.c_double, ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
                                 ctypes.c_void_p, ctypes.c_void_p)
    lib.mgfk_weights.restype = None
    return lib


@lru_cache(maxsize=None)
def _ddot() -> int:
    """The address of ``scipy_cblas_ddot64_``, the BLAS ddot of 64-bit
    integers ``np.dot`` calls, found through numpy's extension module, which
    links the OpenBLAS numpy loads ``RTLD_LOCAL``; 0 where numpy has no such
    module or symbol, as with a numpy built on another BLAS."""
    import ctypes

    try:
        umath = np._core._multiarray_umath.__file__
        return ctypes.cast(ctypes.CDLL(umath).scipy_cblas_ddot64_, ctypes.c_void_p).value
    except (OSError, AttributeError):
        return 0


def compiled_tapes() -> bool:
    """Whether ``tape_runner`` runs tapes in the compiled executor (else
    through ``run_numpy``); the first call may build it.  With numpy's
    BLAS ddot found too, ``multigrid.Tape`` runs a solve as one call into
    it: ``compiled_solves`` says so."""
    return _library() is not None


def compiled_solves() -> bool:
    """Whether ``multigrid.Tape`` runs a whole solve as one call into the
    compiled executor (``_CompiledSolve``), its norms taken through the
    BLAS ddot ``np.dot`` calls (``_ddot``), the same bits: where
    ``compiled_tapes()`` is true and that ddot is found.  Else the solve's
    loop runs in Python over the tapes, its norms ``np.dot``'s."""
    return compiled_tapes() and _ddot() != 0


class _CompiledTape:
    """The records of ``kernels``, run by one call into the executor ``lib``."""

    def __init__(self, kernels: tuple, lib):
        self.kernels = kernels  # keeps every buffer a record points at alive
        self.records = np.array([_record(k) for k in kernels], _RECORD)
        self._args = (_at(self.records), len(self.records))
        self.lib, self._run = lib, lib.mgfk_run_tape

    def __call__(self) -> None:
        self._run(*self._args)


#: How a solve ends (``multigrid.Tape.solve``), as ``_tape.c`` names them: with
#: the cycles it was asked for run and no decision; converged, r0 zero or
#: a relative residual below ``tol``; or at a norm that is not finite.
RAN_OUT, CONVERGED, NOT_FINITE = range(3)


class _CompiledSolve:
    """``multigrid.Tape._loop`` as one call into the executor's
    ``mgfk_solve``, its norm through numpy's BLAS ddot: ``cycle`` and
    ``residual`` the ``_CompiledTape``s of a V-cycle and the fine residual,
    one record per plane, over whose runs the executor takes the norm.  The
    five fields of ``_tape.c``'s ``solve`` are packed here once."""

    def __init__(self, cycle: _CompiledTape, residual: _CompiledTape):
        import ctypes

        self.operands = (cycle, residual)  # keep every array a field points at alive
        self.fields = np.array([_at(cycle.records), len(cycle.records), _at(residual.records),
                                len(residual.records), _ddot()], np.int64)
        self._address, self._run = _at(self.fields), cycle.lib.mgfk_solve
        self._cycles = ctypes.c_int64()  # the cycles run, in and out
        self._pointer = ctypes.pointer(self._cycles)

    def __call__(self, tol: float, norms: np.ndarray, stop: int, done: int) -> tuple:
        self._cycles.value = done
        end = self._run(self._address, tol, _at(norms), stop, self._pointer)
        return end, self._cycles.value


def tape_runner(kernels: tuple):
    """A callable with no arguments that runs ``kernels`` in order: as
    records in one call into the compiled executor of ``_tape.c``, or by
    ``run_numpy`` where ``compiled_tapes()`` is false.  Every array of a
    kernel must be float64 and every scalar a float, else ``ValueError``,
    before anything is packed: complex data run as two float64 planes
    (``multigrid.Tape``), and a record would cut a complex scalar to its
    real part.  Results are bit for bit ``run_numpy``'s, up to the sign and
    payload of a NaN.  The executor raises no floating-point warnings: an
    overflow or invalid value shows as a non-finite value, which a solve's
    stopping test and ``measure_contraction`` check for."""
    arrays = (x for k in kernels for x in (k.out, k.a, k.b, *(w for w, _ in k.taps)) if x is not None)
    if any(x.dtype != np.float64 for x in arrays):
        raise ValueError("tapes run float64 data only")
    if not all(isinstance(x, float) for k in kernels for x in (k.s, *(c for _, c in k.taps))):
        raise ValueError("tapes take real float scalars only")
    lib = _library()
    return _CompiledTape(kernels, lib) if lib is not None else partial(run_numpy, kernels)


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


def lambda_max(op, m: int) -> float:
    """Largest eigenvalue of a stencil or Kronecker sum on the (m,)*ndim grid,
    the top of its sine symbol."""
    return float(np.max(op.eigenvalues(m)))


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
