"""The compiled executor ``_tape.c`` and its numpy twins: the one module
that knows there are two backends.

A level operation of the V-cycle is described once, as a ``Kernel``: the
operands of one ``_tape.c`` record, on buffers a caller keeps.  Each entry
point of ``_tape.c`` has one callable here, which runs it, or its numpy
twin where it cannot run, to the same bits: ``tape_runner``
(``mgfk_run_tape``, whose twin is ``run_numpy``), ``Solve``
(``mgfk_solve``), ``dot`` (``mgfk_dot``, the solve's norm's sum) and
``fill_weights`` (``mgfk_weights``); the last three sum in orders of their
own, so that no result depends on the CPU, the BLAS or its threads.
``_library`` builds the executor on first use into the user's cache, with
``-ffp-contract=off``, so that every element gets exactly the IEEE
operations of ``run_numpy``; ``compiled_tapes`` says which backend runs.
``ctypes`` and ``subprocess`` are imported on first use, so that ``import
mgfk`` loads neither.
"""

from __future__ import annotations

import math
import os
import stat
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

#: The executor's build flags.  -ffp-contract=off keeps ``a * b + c`` two
#: roundings, as numpy's separate calls are, and -ffast-math, which would
#: reassociate, is left out; -fno-math-errno makes ``sqrt`` one instruction
#: that sets no ``errno``, of the same value.  -march=native is left out, as
#: a build is cached per platform, not per CPU: on x86-64 glibc ``_tape.c``
#: clones its kernels for AVX2 itself, and the loader picks the clone per
#: CPU at load time.  -lm, after the source, links ``mgfk_weights``' ``fma``.
_CFLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-std=c99", "-fPIC", "-shared", "-lm")

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
    (``pad`` 0: none, see ``stencil.pad_period``); a residual also sums
    ``taps``, per off-centre point its window (``a`` shifted by the point's
    offset in the storage ``a`` is a run of) and its float coefficient.
    The transfers' weights are fixed.  ``run_numpy`` runs it with numpy,
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
    buffers follow each other (one zero cell before the prolongation's),
    and leaves ``b`` alone; the restriction skips ``out``'s last cell, a pad.
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
                rows = np.empty(2 * o.size, o.dtype)
                _restrict(rows.reshape(len(o), -1), a)
                a = rows
            _restrict(o.reshape(-1)[:-1], a[: 2 * o.size - 1])
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
        subprocess.run([*cc, source, *_CFLAGS, "-o", tmp], check=True, capture_output=True, timeout=120)
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
    import ctypes

    lib = ctypes.CDLL(path)
    lib.mgfk_run_tape.argtypes, lib.mgfk_run_tape.restype = (ctypes.c_void_p, ctypes.c_int64), None
    lib.mgfk_solve.argtypes = (ctypes.c_void_p, ctypes.c_double, ctypes.c_void_p, ctypes.c_int64,
                               ctypes.POINTER(ctypes.c_int64))
    lib.mgfk_solve.restype = ctypes.c_int64
    lib.mgfk_weights.argtypes = (ctypes.c_double, ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p)
    lib.mgfk_weights.restype = None
    lib.mgfk_dot.argtypes, lib.mgfk_dot.restype = (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64), ctypes.c_double
    return lib


def compiled_tapes() -> bool:
    """Whether ``tape_runner``, ``Solve`` and ``fill_weights`` run in the
    compiled executor, else as numpy twins; the first call may build it."""
    return _library() is not None


class _CompiledTape:
    """The records of ``kernels``, run by one call into the executor ``lib``."""

    def __init__(self, kernels: tuple, lib):
        self.kernels = kernels  # keeps every buffer a record points at alive
        self.records = np.array([_record(k) for k in kernels], _RECORD)
        self._args = (_at(self.records), len(self.records))
        self.lib, self._run = lib, lib.mgfk_run_tape

    def __call__(self) -> None:
        self._run(*self._args)


def tape_runner(kernels: tuple):
    """A callable with no arguments that runs ``kernels`` in order: as
    records in one call into the compiled executor of ``_tape.c``, or by
    ``run_numpy`` where ``compiled_tapes()`` is false.  Every array of a
    kernel must be float64 and every scalar a float, else ``ValueError``,
    before anything is packed: a record would cut a complex scalar to its
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


#: How a solve ends, as ``_tape.c`` names them: with the cycles it was
#: asked for run and no decision; converged, r0 zero or a relative residual
#: below ``tol``; or at a norm that is not finite.
RAN_OUT, CONVERGED, NOT_FINITE = range(3)


def dot(x: np.ndarray, y: np.ndarray) -> float:
    """The sum of the products of the flat float64 runs ``x`` and ``y``, as
    ``_tape.c``'s ``mgfk_dot`` sums them, whatever the BLAS and its threads:
    one call where ``compiled_tapes()`` is true, else the same bits with
    numpy, its 8 lanes the columns of the (rows, 8) view of the products,
    reduced row by row, the tail then added onto the first of them."""
    if not (x.dtype == y.dtype == np.float64 and x.shape == y.shape == (x.size,) and x.flags.c_contiguous
            and y.flags.c_contiguous):
        raise ValueError("dot takes two contiguous flat float64 arrays of one length")
    lib = _library()
    if lib is not None:
        return lib.mgfk_dot(_at(x), _at(y), x.size)
    p, rows = x * y, x.size // 8
    lanes = np.add.reduce(p[: 8 * rows].reshape(rows, 8), axis=0)
    lanes[: p.size - 8 * rows] += p[8 * rows :]
    l0, l1, l2, l3, l4, l5, l6, l7 = lanes.tolist()
    return ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))


class Solve:
    """A multigrid solve over the float64 kernels of a V-cycle, ``cycle``,
    and the kernel of the fine residual, ``residual``, which ``self.cycle``
    and ``self.residual`` run (``tape_runner``).

    A call cycles from the loaded iterate until the relative residual is
    below ``tol`` or not finite, at most ``max_iter`` times, and returns how
    the solve ended (``CONVERGED``, ``NOT_FINITE`` or ``RAN_OUT``, the cap
    reached) and the cycles run.  ``norms`` then holds r0 and the relative
    residual after each cycle, each norm the square root of the sum of
    squares (``dot``) over ``run``, the run the residual kernel
    writes.  A solve that fills ``norms`` doubles it and resumes where it
    stopped.  Each stretch is one ``mgfk_solve`` call, which finds the run
    through its record, where the tapes are compiled, else ``_loop``.
    """

    def __init__(self, cycle: tuple, residual: Kernel):
        self.cycle, self.residual = tape_runner(cycle), tape_runner((residual,))
        self.run = residual.out
        self.norms = np.empty(64)  # r0 and 63 cycles; a solve that runs past doubles it
        self._step = self._loop
        if isinstance(self.cycle, _CompiledTape):
            import ctypes

            # the three fields of _tape.c's solve, packed once
            records = self.cycle.records
            self._fields = np.array([_at(records), len(records), _at(self.residual.records)], np.int64)
            self._address, self._solve = _at(self._fields), self.cycle.lib.mgfk_solve
            self._cycles = ctypes.c_int64()  # the cycles run, in and out
            self._pointer = ctypes.pointer(self._cycles)
            self._step = self._compiled

    def __call__(self, tol: float, max_iter: int) -> tuple[int, int]:
        end, cycles = RAN_OUT, 0
        while end == RAN_OUT and cycles < max_iter:
            if cycles == len(self.norms) - 1:
                self.norms = np.concatenate((self.norms, np.empty_like(self.norms)))
            end, cycles = self._step(tol, self.norms, min(max_iter, len(self.norms) - 1), cycles)
        return end, cycles

    def _compiled(self, tol: float, norms: np.ndarray, stop: int, done: int) -> tuple:
        """The cycles from ``done`` up to ``stop`` as one ``mgfk_solve`` call;
        how the solve ended and the cycles run."""
        self._cycles.value = done
        end = self._solve(self._address, tol, _at(norms), stop, self._pointer)
        return end, self._cycles.value

    def _loop(self, tol: float, norms: np.ndarray, stop: int, done: int) -> tuple:
        """``mgfk_solve`` with numpy, the same bits: the cycles from ``done``
        up to ``stop``, r0 and the relative residuals going into ``norms``;
        how the solve ended and the cycles run."""

        def norm() -> float:
            self.residual()
            return math.sqrt(dot(self.run, self.run))

        it, end = done, RAN_OUT
        if it == 0:
            norms[0] = norm()
            end = CONVERGED if norms[0] == 0.0 else RAN_OUT if math.isfinite(norms[0]) else NOT_FINITE
        r0 = float(norms[0])
        while end == RAN_OUT and it < stop:
            self.cycle()
            it += 1
            norms[it] = rel = norm() / r0
            end = CONVERGED if rel < tol else RAN_OUT if math.isfinite(rel) else NOT_FINITE
        return end, it


def fill_weights(alpha: float, w: np.ndarray, l: np.ndarray) -> None:
    """Fill ``l[1:]`` from ``l[0]`` by the Miller recurrence of the
    quadrature weights of order alpha over the nu + 1 coefficients ``w``
    of the generating polynomial: l_n = acc / (n w_0), acc = fma(x_j,
    l_{n-j}, acc) from 0 for j = 1..min(n, nu), x_j = ((alpha + 1) j - n)
    w_j.  One ``mgfk_weights`` call where ``compiled_tapes()`` is true, else
    a Python loop, the same bits: each fma exact in fractions, rounded once
    as C99's is.  A lone l_0 loads no executor."""
    nu, count = len(w) - 1, len(l) - 1
    if count and compiled_tapes():
        _library().mgfk_weights(alpha, _at(w), nu, count, _at(l))
    elif count:
        from fractions import Fraction  # on this path only: it imports decimal

        for n in range(1, count + 1):
            acc = 0.0
            for j in range(1, min(n, nu) + 1):
                acc = float(Fraction(((alpha + 1.0) * j - n) * w[j]) * Fraction(l[n - j]) + Fraction(acc))
            l[n] = acc / (n * w[0])
