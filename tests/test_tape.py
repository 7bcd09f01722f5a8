"""The compiled V-cycle tape: its translator from ufunc calls, its executor
against numpy, and the build cache its loader keeps."""

import gc
import os
import subprocess
import sys

import numpy as np
import pytest

import mgfk
from mgfk import stencil
from mgfk.multigrid import build_hierarchy
from mgfk.stencil import IDENTITY, LAPLACIAN, KroneckerSum, run_calls, tape_runner

SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e308, 3.0])


def data(rng, n, dtype):
    """Random values with a quarter of them special (signed zeros,
    infinities, NaN, a subnormal)."""
    parts = []
    for _ in range(2 if dtype == complex else 1):
        x = rng.standard_normal(n)
        x[rng.integers(0, n, n // 4)] = rng.choice(SPECIAL, n // 4)
        parts.append(x)
    if dtype == float:
        return parts[0]
    z = np.empty(n, complex)
    z.real, z.imag = parts
    return z


def assert_same_bits(x, y):
    """Equal bit for bit, except that any NaN matches any NaN."""
    a, b = x.reshape(-1).view(np.float64), y.reshape(-1).view(np.float64)
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert a[~nan].tobytes() == b[~nan].tobytes()


def both(calls_on, shape, dtype):
    """Outputs of ``calls_on(out)`` run by ``run_calls`` and by a tape."""
    outs = np.zeros(shape, dtype), np.zeros(shape, dtype)
    run_calls(calls_on(outs[0]))
    tape_runner(calls_on(outs[1]))()
    return outs


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("fn", [np.add, np.subtract, np.multiply, np.divide])
@pytest.mark.parametrize("scalar", [3.0, 0.1234567, 7.77e5, 1.0 / 3.0, -2.5])
def test_tape_matches_numpy_on_every_layout(fn, dtype, scalar):
    # contiguous, stride 2, by a 0-d scalar (first or last), in place and on
    # the row blocks of a 2D transfer, on 200k values: a complex array meets
    # complex operands only as a multiply or divide by a real 0-d scalar
    rng = np.random.default_rng(11)
    a, b = data(rng, 200_001, dtype), data(rng, 200_001, dtype)
    s = np.array(scalar, dtype)
    with np.errstate(all="ignore"):
        assert_same_bits(*both(lambda out: ((fn, (a[::2], s, out)),), 100_001, dtype))
        if fn is np.multiply:
            assert_same_bits(*both(lambda out: ((fn, (s, a[1::2], out)),), 100_000, dtype))
        if dtype == complex and fn in (np.multiply, np.divide):
            return
        assert_same_bits(*both(lambda out: ((fn, (a[1::2], b[:100_000], out)),), 100_000, dtype))
        assert_same_bits(*both(lambda out: ((fn, (a, b, out)),), a.size, dtype))
        rows = a[:64 * 33].reshape(64, 33)

        def in_place(out):
            out[...] = b[:64 * 33].reshape(64, 33)
            return ((fn, (out[::2, :32], rows[1::2, 1:], out[::2, :32])),)

        assert_same_bits(*both(in_place, (64, 33), dtype))


@pytest.mark.parametrize("dtype", [float, complex])
def test_tape_copies_and_fills_like_numpy(dtype):
    rng = np.random.default_rng(12)
    a = data(rng, 64 * 33, dtype).reshape(64, 33)

    def calls(out):
        return ((np.copyto, (out, a)), (np.copyto, (out[1::2, 1:], a[::2, :32])),
                (out[:, 32].fill, (0.0,)), (out.reshape(-1)[5::67].fill, (0.0,)))

    assert_same_bits(*both(calls, (64, 33), dtype))


def test_translator_refuses_what_numpy_would_run_differently():
    x, c = np.zeros(8), np.zeros(8, complex)
    with pytest.raises(ValueError, match="partially overlaps"):
        tape_runner(((np.add, (x[1:], x[1:], x[:-1])),))
    with pytest.raises(ValueError, match="real 0-d"):
        tape_runner(((np.multiply, (c, np.array(1 + 1j), c)),))
    with pytest.raises(ValueError, match="real 0-d"):
        tape_runner(((np.divide, (c, np.array(0j), c)),))
    with pytest.raises(ValueError, match="not one of the executor's calls"):
        tape_runner(((np.maximum, (x, x, x)),))
    with pytest.raises(ValueError, match="float64 or all complex128"):
        tape_runner(((np.add, (x, c, c)),))
    big = x.astype(">f8")
    with pytest.raises(ValueError, match="float64 or all complex128"):
        tape_runner(((np.add, (big, big, big)),))
    with pytest.raises(ValueError, match="fills with"):
        tape_runner(((x.fill, (1.0,)),))


def test_a_runner_keeps_every_buffer_alive(monkeypatch):
    # the runner holds the call tuple: with its hierarchy dropped and the
    # freed memory reused, it still cycles as run_calls does
    op = KroneckerSum(2, 1.0, 1.0, IDENTITY, LAPLACIAN)
    rng = np.random.default_rng(13)
    v0, f = (rng.standard_normal((15, 15)) + 1j * rng.standard_normal((15, 15)) for _ in range(2))

    def cycled(h):
        ws = h.workspace(complex)[0]
        ws.v[...], ws.rhs[...] = v0, f
        return h.residual(complex), h.tape(complex, zero=False), ws.v

    residual, tape, v = cycled(build_hierarchy(op, 15))
    gc.collect()
    clutter = [np.full(4096, np.nan) for _ in range(64)]  # noqa: F841 (takes the freed blocks)
    residual(), tape()
    monkeypatch.setattr(stencil, "_library", lambda: None)
    ref_residual, ref_tape, ref_v = cycled(build_hierarchy(op, 15))
    ref_residual(), ref_tape()
    assert v.tobytes() == ref_v.tobytes()


def python(code: str, **env) -> str:
    """Standard output of ``code`` in a fresh interpreter, ``env`` added."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mgfk.__file__)), **env)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout.strip()


SOLVE = (
    "import numpy as np; from mgfk import multigrid, stencil; "
    "op = stencil.KroneckerSum(1, 0.0, 1.0, stencil.IDENTITY, stencil.LAPLACIAN); "
    "x, report = multigrid.solve(multigrid.build_hierarchy(op, 31), np.ones(31)); "
    "print(stencil.compiled_tapes(), report.converged)"
)


def test_a_cached_library_loads_without_a_compiler(tmp_path):
    assert python(SOLVE, XDG_CACHE_HOME=str(tmp_path)) == "True True"
    assert python(SOLVE, XDG_CACHE_HOME=str(tmp_path), CC="false") == "True True"
    assert python(SOLVE, XDG_CACHE_HOME=str(tmp_path / "empty"), CC="false") == "False True"


@pytest.mark.parametrize("mode", [0o770, 0o707])
def test_a_cache_others_can_write_is_not_loaded(tmp_path, mode):
    assert python(SOLVE, XDG_CACHE_HOME=str(tmp_path)) == "True True"
    os.chmod(tmp_path / "mgfk", mode)
    assert python(SOLVE, XDG_CACHE_HOME=str(tmp_path)) == "False True"


def test_import_starts_no_build(tmp_path):
    # numpy itself imports ctypes, so what counts is what `import mgfk` adds
    marker, cc = tmp_path / "cc-ran", tmp_path / "cc"
    cc.write_text(f"#!/bin/sh\ntouch '{marker}'\nexit 1\n")
    cc.chmod(0o700)
    env = {"CC": str(cc), "XDG_CACHE_HOME": str(tmp_path / "cache")}
    code = ("import sys, numpy; before = set(sys.modules); import mgfk; "
            "print(sorted({'ctypes', 'subprocess'} & (set(sys.modules) - before)))")
    assert python(code, **env) == "[]"
    assert not marker.exists() and not (tmp_path / "cache").exists()
    # the first tape does start the compiler, and its failed build falls back
    assert python(SOLVE, **env) == "False True"
    assert marker.exists()
