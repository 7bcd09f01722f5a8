"""The compiled V-cycle tape: its kernel records against ``run_numpy`` of
the same kernels, its one-call solve against the numpy backend's loop, and
the build cache its loader keeps."""

import dataclasses
import gc
import hashlib
import math
import os
import platform
import re
import shlex
import shutil
import subprocess
import sys

import numpy as np
import pytest

import mgfk
from mgfk import executor, transfer
from mgfk.coarsen import fk_operator, mu_coefficient
from mgfk.errors import MgfkError
from mgfk.feynman_kac import Evolution, preset
from mgfk.fsd import weights
from mgfk.multigrid import (
    GridLevel,
    MgHierarchy,
    _cycle_kernels,
    _levels,
    build_hierarchy,
    solve,
    vcycle,
)
from mgfk.executor import (
    DIVIDE,
    PROLONG,
    RESIDUAL,
    RESTRICT,
    SCALE,
    UPDATE,
    ZERO,
    Kernel,
    run_numpy,
    tape_runner,
)
from mgfk.stencil import (
    COMPACT_MASS,
    IDENTITY,
    LAPLACIAN,
    KroneckerSum,
    ToeplitzStencil,
    dst_solve,
)

from helpers import history_sum, lane_squares, lane_sum, reference_prolong, restrict

SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e308, 3.0])
#: The special values complex data get: in complex arithmetic an infinity or
#: NaN in one part spreads to the other, where float64 kernels on each part
#: keep them apart.
FINITE = np.array([0.0, -0.0, 5e-324, 3.0])


def data(rng, n, dtype):
    """Random values with a quarter of them special (signed zeros and a
    subnormal; for float data also infinities, NaN and a huge value)."""
    parts = []
    for _ in range(2 if dtype == complex else 1):
        x = rng.standard_normal(n)
        x[rng.integers(0, n, n // 4)] = rng.choice(SPECIAL if dtype == float else FINITE, n // 4)
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


def on_parts(k, parts):
    """``k`` as the float64 kernel of each part of its data, as a complex
    tape runs them: every array the same elements of its base's part
    (``parts`` maps the id of a base to float64 copies of its parts), every
    float scalar as it is, and for complex data a division a product by the
    reciprocal."""

    def view(x, p):
        base = x if x.base is None else x.base
        start = (x.__array_interface__["data"][0] - base.__array_interface__["data"][0]) // base.itemsize
        strides = tuple(st // base.itemsize * 8 for st in x.strides)
        return np.lib.stride_tricks.as_strided(parts[id(base)][p][start:], x.shape, strides)

    parts_of_k = 2 if k.out.dtype == complex else 1
    kind, s = k.kind, k.s
    if kind == DIVIDE and parts_of_k == 2:
        kind, s = SCALE, 1.0 / s
    return tuple(
        Kernel(kind, view(k.out, p), k.a if k.a is None else view(k.a, p), k.b if k.b is None else view(k.b, p),
               s, k.pad, tuple((view(w, p), c) for w, c in k.taps))
        for p in range(parts_of_k))


def assert_record_matches_numpy(k, buffers):
    """Run ``k`` by its records on the parts of copies of ``buffers``, every
    base array it touches, and by ``run_numpy`` on ``buffers``: the parts
    hold what numpy leaves, float data bit for bit and complex data in value
    (numpy's complex arithmetic picks other signs for some zeros)."""
    parts = {id(b): (b.real.copy(), b.imag.copy()) if b.dtype == complex else (b.copy(),) for b in buffers}
    kernels = on_parts(k, parts)
    tape_runner(kernels)()
    with np.errstate(all="ignore"):
        run_numpy((k,))
    if k.kind in (RESTRICT, PROLONG) and k.b is not None:  # a row buffer: scratch, what it holds after is not kept
        for x in (k.b, *(kp.b for kp in kernels)):
            x[...] = 0
    for b in buffers:
        if b.dtype == complex:
            assert np.array_equal(b.real, parts[id(b)][0]) and np.array_equal(b.imag, parts[id(b)][1])
        else:
            assert_same_bits(b, parts[id(b)][0])
    return kernels


#: Each level kernel's operator: a 3-point 1D, 5-point 2D and 9-point 2D stencil.
STENCILS = [(1, COMPACT_MASS), (2, IDENTITY), (2, COMPACT_MASS)]


def cycle(ndim, mass, dtype, parts, scalar, pre):
    """The kernels of a cycle on ``dtype`` data of ``parts`` parts over three
    levels of one operator with stiffness ``scalar`` and weights ``scalar``
    (so every scalar a record reads depends on it), run as numpy runs them,
    and every buffer they touch, pad cells and zero frames included.  The
    fine grid is 1D m = 511 or 2D m = 31."""
    op = KroneckerSum(ndim, 1.0, scalar, mass, LAPLACIAN)
    sizes = (511, 255, 127) if ndim == 1 else (31, 15, 7)
    h = MgHierarchy(tuple(GridLevel(op, m, op.diagonal) for m in sizes), omega_pre=scalar,
                    omega_post=scalar, pre_count=pre, post_count=2, strategy="galerkin")
    kernels = _cycle_kernels(h, _levels(h.levels, parts, dtype), 0, False)
    buffers = {}
    for k in kernels:
        for a in (k.out, k.a, k.b, *(window for window, _ in k.taps)):
            if a is not None:
                base = a if a.base is None else a.base
                buffers[id(base)] = base
    return kernels, list(buffers.values())


def assert_records_match_numpy(kinds, dtype, scalar, seed):
    """Each distinct kernel of one of ``kinds`` in every cycle, run by its
    records and by ``run_numpy`` from the same random and special values in
    every buffer, leaves the same values in every buffer.  Float data run
    on rows of one part and of two, a complex tape's layout; complex data
    in numpy's complex arithmetic, on one part."""
    rng = np.random.default_rng(seed)
    checked = set()
    for ndim, mass in STENCILS:
        for pre, parts in ((0, 1), (1, 1), (0, 2), (1, 2)):
            if parts == 2 and dtype == complex:
                continue
            kernels, buffers = cycle(ndim, mass, dtype, parts, scalar, pre)
            done = set()
            for k in kernels:
                if id(k) in done or k.kind not in kinds:
                    continue
                done.add(id(k))
                for a in buffers:
                    a[...] = data(rng, a.size, dtype).reshape(a.shape)
                assert_record_matches_numpy(k, buffers)
                checked.add(k.kind)
    assert checked == set(kinds)


#: The kinds whose records do each IEEE operation.
OPERATIONS = {
    "add": (RESIDUAL, UPDATE, RESTRICT, PROLONG),
    "subtract": (RESIDUAL,),
    "multiply": (RESIDUAL, UPDATE, SCALE, RESTRICT, PROLONG),
    "divide": (DIVIDE,),
}


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("operation", list(OPERATIONS))
@pytest.mark.parametrize("scalar", [3.0, 0.1234567, 7.77e5, 1.0 / 3.0, -2.5])
def test_tape_matches_numpy_on_every_layout(operation, dtype, scalar):
    # every kind that does the operation (residual, update, scale, divide,
    # both transfers), on the 1D and 2D run layouts of one part and of two,
    # with scalars made from `scalar`; complex data as float64 kernels on
    # each part, against numpy's complex arithmetic, its division included
    assert_records_match_numpy(OPERATIONS[operation], dtype, scalar, 11)


@pytest.mark.parametrize("dtype", [float, complex])
def test_tape_copies_and_fills_like_numpy(dtype):
    # the kinds that copy or fill: the zero start, the copies of the 2D
    # prolongation's pass across rows, and the pad cells the residual and
    # the restriction zero
    assert_records_match_numpy((ZERO, PROLONG, RESIDUAL, RESTRICT), dtype, 3.0, 12)


def kernels_of(runner) -> tuple:
    """The kernels a tape runner runs, compiled or numpy."""
    return runner.kernels if hasattr(runner, "kernels") else runner.args[0]


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("coarsening", ["galerkin", "geometric"])
def test_tapes_hold_only_float64(coarsening, ndim):
    # the executor knows one type: every buffer of every tape a hierarchy
    # builds, for real and for complex data, is float64, and every scalar a
    # float, which its record holds as it is
    h = build_hierarchy(fk_operator(ndim, 1.3, 17.0 * 32), 31, coarsening)
    f = np.ones(h.fine.shape)
    for z in (f, f * (1.0 + 2.0j)):
        vcycle(h, None, z)
        solve(h, z.ravel())
    runners = [runner for tape in h._tapes.values() for runner in (tape.residual, tape.cycle)]
    kernels = [k for runner in runners for k in kernels_of(runner)]
    arrays = [x for k in kernels for x in (k.out, k.a, k.b, *(window for window, _ in k.taps))]
    scalars = [x for k in kernels for x in (k.s, *(c for _, c in k.taps))]
    assert len(h._tapes) == 2 and len(kernels) > 4 * h.depth
    assert all(x.dtype == np.float64 for x in arrays if x is not None)
    assert all(type(x) is float for x in scalars)


def level_arrays(work):
    """Every array of every ``LevelWork`` of ``work``."""
    return [a for ws in work for a in vars(ws).values() if isinstance(a, np.ndarray)]


@pytest.mark.parametrize("ndim", [1, 2])
def test_the_float_and_complex_tapes_share_no_buffer(ndim):
    # after real and complex cycles on one hierarchy: two tapes, each one
    # set of levels on one arena of its own, sharing no memory
    h = build_hierarchy(fk_operator(ndim, 1.3, 17.0 * 32), 15)
    f = np.ones(h.fine.shape)
    for z in (f, f * (1.0 + 2.0j)):
        vcycle(h, None, z)
    real, cplx = (level_arrays(h.tape(dtype).work) for dtype in (float, complex))
    assert not any(np.shares_memory(a, b) for a in real for b in cplx)


@pytest.mark.parametrize("ndim, m, records", [(1, 1023, 55), (2, 127, 37)])
@pytest.mark.parametrize("coarsening", ["galerkin", "geometric"])
def test_a_complex_cycle_takes_the_float_cycles_records(coarsening, ndim, m, records):
    # both parts of complex data share every record: the complex tape's
    # cycle is as many kernels as the float tape's, over runs twice as long,
    # at the sizes of the fk workloads, of the same kinds but the coarsest
    # step, which multiplies by the diagonal's reciprocal where real data divide
    h = build_hierarchy(fk_operator(ndim, 1.3, 17.0 * (m + 1)), m, coarsening)
    real, cplx = (kernels_of(h.tape(dtype).cycle) for dtype in (float, complex))
    assert len(real) == len(cplx) == records
    assert [SCALE if k.kind == DIVIDE else k.kind for k in real] == [k.kind for k in cplx]
    assert all(c.out.size == 2 * r.out.size for r, c in zip(real, cplx))


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("backend", ["compiled", "numpy"])
def test_the_parts_of_a_complex_cycle_keep_apart(backend, ndim, monkeypatch):
    # a complex cycle is a float cycle on each part, bit for bit: a part
    # that is zero stays exactly 0.0, the other is the float tape's iterate,
    # and a part a hundred decades above the other leaks nothing into it
    if backend == "numpy":
        monkeypatch.setattr(executor, "_library", lambda: None)
    h = build_hierarchy(KroneckerSum(ndim, 1.0, 1.0, COMPACT_MASS, LAPLACIAN), 31)
    x, y, u, w = np.random.default_rng(27).standard_normal((4, *h.fine.shape))

    def joined(re, im):
        z = np.empty(re.shape, complex)
        z.real, z.imag = re, im
        return z

    for scale in (0.0, 1e300):
        for re, im, v_re, v_im in ((x, scale * y, u, scale * w), (scale * x, y, scale * u, w)):
            for v, vr, vi in ((None, None, None), (joined(v_re, v_im), v_re, v_im)):
                z = vcycle(h, v, joined(re, im))
                assert z.real.tobytes() == vcycle(h, vr, re).tobytes()
                assert z.imag.tobytes() == vcycle(h, vi, im).tobytes()
    for z in (vcycle(h, None, joined(x, 0.0 * x)).imag, vcycle(h, None, joined(0.0 * x, x)).real):
        assert not np.any(z) and not np.signbit(z).any()


@pytest.mark.parametrize("ndim", [1, 2])
def test_a_level_binds_its_transfers_when_it_is_built(ndim):
    # a level built with its coarse neighbour carries both transfers between
    # them, one kernel each; the coarsest level carries none.  On either
    # backend the restriction takes the fine residual into the coarse
    # right-hand side, and the prolongation adds the coarse iterate's
    # interpolant onto the fine iterate, bit for bit
    h = build_hierarchy(KroneckerSum(ndim, 1.0, 3.0, COMPACT_MASS, LAPLACIAN), 3)
    rng = np.random.default_rng(15)
    for parts in (1, 2):
        fine, coarse = _levels(h.levels, parts)
        assert coarse.restrict is coarse.prolong is None
        assert (fine.restrict.kind, fine.prolong.kind) == (RESTRICT, PROLONG)
        for run in (lambda k: run_numpy((k,)), lambda k: tape_runner((k,))()):
            fine.r[...] = rng.standard_normal(fine.r.shape)
            run(fine.restrict)
            assert np.array_equal(coarse.rhs, [restrict(r) for r in fine.r])
            coarse.v[...] = rng.standard_normal(coarse.v.shape)
            fine.v[...] = before = rng.standard_normal(fine.v.shape)
            run(fine.prolong)
            assert fine.v.tobytes() == (before + [reference_prolong(v) for v in coarse.v]).tobytes()


def test_a_hierarchy_holds_no_buffers():
    # the tapes own every buffer: the hierarchy keeps its levels, its
    # parameters and its tapes, and nothing to hand buffers out from
    h = build_hierarchy(KroneckerSum(1, 1.0, 1.0, IDENTITY, LAPLACIAN), 7)
    vcycle(h, None, np.ones(7) * (1.0 + 2.0j))
    assert set(vars(h)) - {f.name for f in dataclasses.fields(h)} == {"_tapes"}
    assert list(h._tapes) == [np.dtype(complex)]


def test_tapes_refuse_dtypes_the_executor_lacks():
    # a record of other data would be read as float64: cycles refuse such
    # data before they make a tape, and a tape of such kernels is
    # refused, complex ones included; they still run through numpy
    h = build_hierarchy(KroneckerSum(1, 1.0, 1.0, IDENTITY, LAPLACIAN), 7)
    f = np.ones(7, np.longdouble)
    for cycled in (lambda: vcycle(h, None, f), lambda: vcycle(h, f, f), lambda: solve(h, f)):
        with pytest.raises(MgfkError, match=str(f.dtype)):
            cycled()
    assert not h._tapes
    for dtype in (np.longdouble, np.complex128, np.float32):
        with pytest.raises(ValueError, match="float64 data only"):
            tape_runner((_levels((h.fine,), 1, dtype)[0].residual,))
    (work,) = _levels((h.fine,), 1, np.longdouble)
    work.v[...] = work.rhs[...] = f
    run_numpy(work.sweep(0.5) * 2)
    assert work.v.dtype == np.longdouble and np.isfinite(work.v).all()


@pytest.mark.parametrize("scalar", [1j, np.complex128(2.0), np.longdouble(0.5)])
def test_tapes_refuse_scalars_that_are_not_real_floats(scalar, monkeypatch):
    # a record holds each scalar as a float64, so a complex one would lose
    # its imaginary part and a long double its extra bits: a kernel's
    # scalar or a tap's coefficient that is not a float is refused before
    # any record is packed, a complex one with a zero imaginary part too
    monkeypatch.setattr(executor, "_record", lambda k: pytest.fail("a record was packed"))
    (ws,) = _levels((build_hierarchy(KroneckerSum(2, 1.0, 1.0, COMPACT_MASS, LAPLACIAN), 7).fine,), 1)
    (window, c), *taps = ws.residual.taps
    for k in (ws.update(0.5)._replace(s=scalar), ws.residual._replace(taps=((window, scalar * c), *taps))):
        with pytest.raises(ValueError, match="real float scalars only"):
            tape_runner((ws.residual, k))


#: The off-centre points of a 9-point stencil on rows of W cells.
W = 7
NINE = (-W - 1, -W, -W + 1, -1, 1, W - 1, W, W + 1)


def residual_kernel(taps, n, dtype, seed):
    """A residual kernel over a run of ``n`` cells with rows of ``W`` cells
    and the points ``taps`` of ``NINE``, in that order, each a window of the
    run's storage with its own real coefficient, on buffers filled with
    random and special values from ``seed``, and those buffers."""
    rng = np.random.default_rng(seed)
    frame = data(rng, n + 2 * W + 2, dtype)
    run, out, rhs = frame[W + 1 : W + 1 + n], data(rng, n, dtype), data(rng, n, dtype)
    centre, *coefs = rng.standard_normal(1 + len(taps)).tolist()
    windows = (frame[W + 1 + off : W + 1 + off + n] for off in taps)
    k = Kernel(RESIDUAL, out, run, rhs, centre, pad=W, taps=tuple(zip(windows, coefs)))
    return k, [frame, out, rhs]


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("count", range(9))
def test_residual_matches_numpy_for_every_tap_count(count, dtype):
    # each tap count has a loop of its own; runs of lengths that are not a
    # whole number of vector widths, and points picked and ordered at random
    rng = np.random.default_rng(count)
    for seed, n in enumerate((1, 2, 3, 5, 6, 7, 9, 13, 31, 67, 130)):
        taps = tuple(rng.permutation(NINE)[:count].tolist())
        record = executor._record(assert_record_matches_numpy(*residual_kernel(taps, n, dtype, seed))[0])
        assert record["taps"] == count
        assert tuple(record["off"][:count]) == taps


def transfer_kernel(kind, n, period, dtype, seed):
    """A ``kind`` transfer kernel with ``n`` single-element rows, its pad cells every
    ``period``-th (none for 0), on buffers filled with random and special
    values from ``seed``, and the storage of its output, two cells longer
    than the output.  The input is as long as the record reads: 2n cells
    for a restriction, which skips the last output cell, a pad cell of a
    run, n / 2 + 1 for a prolongation; and the buffers, that storage and the
    input."""
    rng = np.random.default_rng(seed)
    store = data(rng, n + 2, dtype)
    out, a = store[:n], data(rng, 2 * n if kind == RESTRICT else n // 2 + 1, dtype)
    return Kernel(kind, out, a, pad=period), [store, a]


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("kind", [RESTRICT, PROLONG])
def test_single_element_row_transfers_match_numpy(kind, dtype):
    # every 1D pass and the last-axis pass of a 2D transfer: runs of even
    # length, as every run and row in the run layout is (parts times a power
    # of two), across the prolongation's chunks of 64, a restriction's read
    # of a[2n - 2], with and without pad cells, and nothing written past the end
    for n in range(2, 142, 2):
        for period in (0, 2, 8):
            k = assert_record_matches_numpy(*transfer_kernel(kind, n, period, dtype, n))[0]
            record = executor._record(k)
            assert (record["n"], record["len"], record["pad"]) == (n, 1, period)


def row_transfer_kernel(kind, shape, parts, dtype, seed):
    """The ``kind`` transfer kernel of a 2D fine grid of ``shape`` in rows of
    ``parts`` parts, bound to buffers filled with random and special values
    from ``seed``, its row buffer among them, and those buffers: the input
    and the output each the run of its grid, the coarse one with a row more
    on either side, a prolongation's frame."""
    rng = np.random.default_rng(seed)
    (m, n), (mc, nc) = shape, ((k - 1) // 2 for k in shape)
    fine, coarse = (data(rng, rows * parts * (cols + 1), dtype) for rows, cols in ((m, n), (mc + 2, nc)))
    row = data(rng, transfer.row_buffer(shape, parts), dtype)
    if kind == RESTRICT:
        k = transfer.restriction(fine, coarse[: mc * parts * (nc + 1)], shape, row)
    else:
        k = transfer.prolongation(coarse, fine, shape, row)
    return k, [fine, coarse, row]


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("kind", [RESTRICT, PROLONG])
def test_row_transfers_match_numpy(kind, dtype):
    # the 2D transfers, row by row through their row buffer: grids down to
    # 3 points on an axis, whose coarse rows are 2 cells long, square and
    # not, rows of one part and of two, from any values left in the row buffer
    shapes = ((3, 3), (7, 3), (3, 7), (7, 7), (15, 31), (31, 15), (63, 63))
    for seed, (shape, parts) in enumerate((shape, parts) for shape in shapes for parts in (1, 2)):
        k = assert_record_matches_numpy(*row_transfer_kernel(kind, shape, parts, dtype, seed))[0]
        record = executor._record(k)
        assert record["len"] == parts * (shape[1] + 1 if kind == PROLONG else (shape[1] + 1) // 2)
        assert record["n"] == (shape[0] if kind == PROLONG else (shape[0] - 1) // 2)


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("coarsening", ["galerkin", "geometric"])
def test_transfers_pack_as_one_record_each(coarsening, ndim):
    # in 1D a transfer is a record of single-element rows, the executor's
    # flat loop, with no row buffer; in 2D a record of the output's rows,
    # which passes through the level's row buffer, a fine row of every part
    # but its last cell
    h = build_hierarchy(fk_operator(ndim, 1.3, 17.0 * 32), 63, coarsening)
    for dtype, parts in ((float, 1), (complex, 2)):
        for ws in h.tape(dtype).work[:-1]:
            for k in (ws.restrict, ws.prolong):
                record = executor._record(k)
                if ndim == 1:
                    assert record["len"] == 1 and record["b"] == 0
                else:
                    assert record["len"] > 1 and k.b is ws.runs[3]
                    assert ws.runs[3].size == parts * (ws.shape[1] + 1) - 1


def test_a_hierarchy_without_taps_cycles_as_numpy(monkeypatch):
    # diagonal stiffness and identity mass leave every level's residual
    # the centre point alone
    op = KroneckerSum(1, 1.0, 1.0, IDENTITY, ToeplitzStencil((2.0,)))
    f = np.random.default_rng(14).standard_normal(31)

    def cycled():
        h = build_hierarchy(op, 31, "geometric")
        v = vcycle(h, 0.5 * f, f)
        assert all(ws.residual.taps == () for ws in h.tape(float).work)
        return v

    compiled = cycled()
    assert executor.compiled_tapes()
    monkeypatch.setattr(executor, "_library", lambda: None)
    assert compiled.tobytes() == cycled().tobytes()


def test_a_runner_keeps_every_buffer_alive(monkeypatch):
    # the runner holds its kernels: with its hierarchy dropped and the
    # freed memory reused, it still cycles as run_numpy does
    op = KroneckerSum(2, 1.0, 1.0, IDENTITY, LAPLACIAN)
    rng = np.random.default_rng(13)
    v0, f = (rng.standard_normal((15, 15)) + 1j * rng.standard_normal((15, 15)) for _ in range(2))

    def cycled(h):
        tape = h.tape(complex)
        tape.load(v0, f)
        return tape.residual, tape.cycle, tape.fine

    residual, cycle, fine = cycled(build_hierarchy(op, 15))
    gc.collect()
    clutter = [np.full(4096, np.nan) for _ in range(64)]  # noqa: F841 (takes the freed blocks)
    residual(), cycle()
    monkeypatch.setattr(executor, "_library", lambda: None)
    ref_residual, ref_cycle, ref_fine = cycled(build_hierarchy(op, 15))
    ref_residual(), ref_cycle()
    assert fine.v.tobytes() == ref_fine.v.tobytes()


class Counted:
    """The executor ``lib``, with the name of each call into it appended to
    ``calls``."""

    def __init__(self, lib):
        self.lib, self.calls = lib, []

    def __getattr__(self, name):
        entry = getattr(self.lib, name)

        def counted(*args):
            self.calls.append(name)
            return entry(*args)

        return counted


def single_clone(tmp_path, target=None):
    """The executor built from a copy of ``_tape.c`` whose kernels are not
    cloned, into ``tmp_path``: built for the CPU ``target`` alone, or with no
    target, the kernels a CPU without AVX2 runs."""
    attribute = f' __attribute__((target("{target}")))' if target else ""
    with open(os.path.join(os.path.dirname(executor.__file__), "_tape.c")) as f:
        source, found = re.subn(r"^#define (\w*CLONES) __attribute__\(\(target_clones\(.*\)\)\)$",
                                rf"#define \1{attribute}", f.read(), flags=re.M)
    assert found == 2
    name = target or "default"
    (tmp_path / f"{name}.c").write_text(source)
    assert executor._build(str(tmp_path / f"{name}.c"), str(tmp_path / f"{name}.so"))
    return executor._load(str(tmp_path / f"{name}.so"))


def fk_system(name, alpha, nu, intervals):
    """The system operator of a time step of preset ``name``."""
    p = preset(name, alpha, intervals)
    return fk_operator(p.ndim, weights(alpha, nu, 0)[0], mu_coefficient(p.kappa, p.alpha, p.tau, p.h))


COMPILER = shutil.which((shlex.split(os.environ.get("CC") or "cc") or ["cc"])[0]) is not None
CLONED = pytest.mark.skipif(
    not (platform.machine() == "x86_64" and platform.libc_ver()[0] == "glibc" and COMPILER),
    reason="the executor is cloned for AVX2 and AVX-512 on x86-64 glibc only, and needs a compiler")


@CLONED
def test_the_default_clone_cycles_as_numpy(tmp_path, monkeypatch):
    # a CPU with AVX2 only ever runs that clone: the default one, built
    # alone, cycles the fk1d-history hierarchy (complex data), the
    # fk2d-vcycle one (real data) and a 9-point Galerkin one as numpy does
    lib = Counted(single_clone(tmp_path))
    hierarchies = (
        (fk_system("example-6.1", 0.3, 4, 1024), 1023, "galerkin", complex),  # fk1d-history
        (fk_system("example-6.2", 0.3, 2, 128), 127, "geometric", float),  # fk2d-vcycle
        (KroneckerSum(2, 1.0, 1.0, COMPACT_MASS, LAPLACIAN), 31, "galerkin", complex),  # 9-point
    )

    def cycles():
        rng = np.random.default_rng(16)
        for op, m, coarsening, dtype in hierarchies:
            h = build_hierarchy(op, m, coarsening)
            x, y = rng.standard_normal((2, h.fine.unknowns))
            f = x + 1j * y if dtype is complex else x
            yield vcycle(h, f, f).tobytes()
            yield vcycle(h, None, f).tobytes()
            x, report = solve(h, f)
            yield x.tobytes(), report.residuals

    monkeypatch.setattr(executor, "_library", lambda: lib)
    clone = list(cycles())
    assert lib.calls.count("mgfk_run_tape") == 12 and lib.calls.count("mgfk_solve") == 3
    monkeypatch.setattr(executor, "_library", lambda: None)
    assert clone == list(cycles())


#: Hierarchies, as their fine operator, size and coarsening: of the
#: Feynman-Kac system of a preset (3-point in 1D, 5-point in 2D), 1D and 2D
#: with both coarsenings, those of the fk1d-history and fk2d-vcycle
#: workloads, and a 9-point Galerkin one.
SOLVED = {
    "1d-galerkin": (fk_system("example-6.1", 0.8, 2, 256), 255, "galerkin"),
    "1d-geometric": (fk_system("example-6.1", 0.8, 2, 256), 255, "geometric"),
    "2d-galerkin": (fk_system("example-6.2", 0.8, 2, 32), 31, "galerkin"),
    "2d-geometric": (fk_system("example-6.2", 0.8, 2, 32), 31, "geometric"),
    "fk1d-history": (fk_system("example-6.1", 0.3, 4, 1024), 1023, "galerkin"),
    "fk2d-vcycle": (fk_system("example-6.2", 0.3, 2, 128), 127, "geometric"),
    "2d-9-point": (KroneckerSum(2, 1.0, 1.0, COMPACT_MASS, LAPLACIAN), 31, "galerkin"),
}


def outcome(x, report) -> tuple:
    """A solve's iterate (a digest of its bytes), its cycles, whether it
    converged and its relative residuals."""
    digest = hashlib.sha256(x.tobytes()).hexdigest()
    return digest, report.iterations, report.converged, report.residuals


def solves(case, dtype):
    """Solves of ``dtype`` data on a fresh hierarchy of ``SOLVED[case]``:
    from zero, and from a warm start near the solution, where the residuals
    sit at the rounding floor; each as its ``outcome``."""
    h = build_hierarchy(*SOLVED[case])
    rng = np.random.default_rng(21)
    f, noise = (x + 1j * y if dtype is complex else x for x, y in rng.standard_normal((2, 2, h.fine.unknowns)))
    warm = dst_solve(h.fine.operator, f) * (1.0 + 1e-4 * noise)
    out = []
    for v0, tol in ((None, 1e-11), (None, 1e-7), (warm, 1e-11)):
        out.append(outcome(*solve(h, f, v0, tol)))
    return out


COMPILED = pytest.mark.skipif(not COMPILER, reason="the executor needs a compiler")


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("case", list(SOLVED))
def test_a_compiled_solve_equals_the_numpy_solve(case, dtype, monkeypatch):
    # one call into the executor, its norm summed in 8 lanes, against the
    # numpy backend's loop and its twin of that sum: the same iterates,
    # cycles, stopping decisions and residuals, compared by repr, which
    # names every bit of a float
    compiled = solves(case, dtype)
    monkeypatch.setattr(executor, "_library", lambda: None)
    assert not executor.compiled_tapes()
    assert repr(compiled) == repr(solves(case, dtype))
    assert all(iterations > 2 for _, iterations, converged, *_ in compiled[:2] if converged)


def ends(dtype):
    """Solves of ``dtype`` data that end each way: r0 zero (from a zero
    start and from an exact solution), r0 not finite (a NaN and an
    infinite right-hand side value), the iterate overflowing in the first
    cycle (weights of 1e200), and ``max_iter`` cycles run without
    converging; each as its ``outcome``."""
    op = fk_system("example-6.1", 0.3, 4, 64)
    h, wild = build_hierarchy(op, 63), build_hierarchy(op, 63, omega_pre=1e200, omega_post=1e200)
    rng = np.random.default_rng(22)
    v = rng.standard_normal(63) * (1.0 + 2.0j if dtype is complex else 1.0)
    nan, inf = v.copy(), v.copy()
    nan[7], inf[40] = np.nan, -np.inf
    out = []
    for g, f, v0, kw in ((h, 0.0 * v, None, {}), (h, op.apply(v), v, {}), (h, nan, None, {}), (h, inf, v, {}),
                         (wild, v, None, {}), (h, v, None, {"tol": 1e-300, "max_iter": 3})):
        out.append(outcome(*solve(g, f, v0, **kw)))
    return out


@pytest.mark.parametrize("dtype", [float, complex])
def test_a_compiled_solve_ends_as_the_numpy_solve(dtype, monkeypatch):
    # the compiled solve raises no floating-point warning; numpy's warns
    # of the overflow
    compiled = ends(dtype)
    stops = [(iterations, converged, len(residuals)) for _, iterations, converged, residuals in compiled]
    assert stops == [(0, True, 0), (0, True, 0), (0, False, 1), (0, False, 1), (1, False, 1), (3, False, 3)]
    assert [repr(c[3]) for c in compiled[:4]] == ["[]"] * 2 + ["[nan]"] * 2
    assert math.isnan(compiled[4][3][0]) and compiled[5][3][-1] < 1.0
    monkeypatch.setattr(executor, "_library", lambda: None)
    with np.errstate(over="ignore", invalid="ignore"):
        assert repr(compiled) == repr(ends(dtype))


@COMPILED
def test_a_compiled_solve_is_one_executor_call(monkeypatch):
    # after the load, the whole solve is one call, and the tape's norms
    # array, made with the tape, is reused by every solve that fits in it
    lib = Counted(executor._library())
    monkeypatch.setattr(executor, "_library", lambda: lib)
    h = build_hierarchy(fk_system("example-6.1", 0.3, 4, 1024), 1023)
    f = np.random.default_rng(23).standard_normal(1023) * (1.0 + 2.0j)
    tape = h.tape(complex)
    norms = tape.solve.norms
    for max_iter in (200, 2, 50, 10**12):
        lib.calls.clear()
        x, report = solve(h, f, max_iter=max_iter)
        assert lib.calls == ["mgfk_solve"]
        assert report.iterations == min(max_iter, 13) and tape.solve.norms is norms


@pytest.mark.parametrize("backend", ["compiled", "numpy"])
def test_a_solve_that_fills_its_norms_resumes_where_it_stopped(backend, monkeypatch):
    # a solve with room for 2 cycles grows its norms four times, each a
    # call that resumes from the cycles run; it ends as a solve that never
    # grows them, which a cap of 10**12 does not make larger either
    if backend == "numpy":
        monkeypatch.setattr(executor, "_library", lambda: None)
    f = np.random.default_rng(24).standard_normal(127 * 127) * (1.0 - 3.0j)

    def run(room, **kw):
        h = build_hierarchy(*SOLVED["fk2d-vcycle"])
        h.tape(complex).solve.norms = np.empty(room)
        return outcome(*solve(h, f, **kw)), len(h.tape(complex).solve.norms)

    grown, room = run(3)
    assert (grown, room) == (run(1000)[0], 48) and grown[1] > 23
    assert run(64, max_iter=10**12) == run(64, max_iter=200) == (grown, 64)
    capped, room = run(3, tol=1e-300, max_iter=20)
    assert room == 24 and capped[1:3] == (20, False) and len(capped[3]) == 20
    assert capped == run(1000, tol=1e-300, max_iter=20)[0]


def wide(rng, n):
    """``n`` values whose squares span 32 decades, so that the order of
    their sum shows in its last bits."""
    return rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0, n)


def history_data(kind, levels, width, rng):
    """Weights w_0..w_{levels-1} and ``levels`` rows of ``width`` wide
    values for ``executor.convolve``: ``real``, ``complex``, or
    ``promoted``, complex128 as a run promoted from float64 holds them:
    weights of zero imaginary part, and rows of zero imaginary part up to
    the middle one."""
    w, h = wide(rng, levels), wide(rng, levels * width).reshape(levels, width)
    if kind == "real":
        return w, h
    h = h + 1j * wide(rng, h.size).reshape(h.shape)
    if kind == "promoted":
        h[: levels // 2].imag = 0.0
        return w.astype(complex), h
    return w + 1j * wide(rng, levels), h


def blocked_sums(w, levels, rows):
    """sum_{k=1..n-1} w_{n-k} levels[k] for every step n, from
    ``executor.convolve`` called as ``feynman_kac.History`` calls it: each
    block of up to ``rows`` steps in one call over the levels before it,
    then each step's row topped up with the levels of the block."""
    steps, out, first, summed = len(levels) - 1, [], 0, []
    for n in range(1, steps + 1):
        if n >= first + len(summed):
            first, acc = n, np.zeros((min(rows, steps + 1 - n), levels.shape[1]), levels.dtype)
            executor.convolve(w, levels, 1, n - 1, n, acc)
            summed = [n - 1] * len(acc)
        i = n - first
        executor.convolve(w, levels, summed[i] + 1, n - 1, n, acc[i : i + 1])
        summed[i] = n - 1
        out.append(acc[i].tobytes())
    return out


@pytest.mark.parametrize("backend", ["compiled", "numpy"])
@pytest.mark.parametrize("kind", ["real", "complex", "promoted"])
@pytest.mark.parametrize("steps", [1, 2, 7, 16, 37])
def test_the_convolution_sums_as_the_oracle(steps, kind, backend, monkeypatch):
    # every step's sum, in blocks of 3 rows, of 8, and from scratch, is the
    # plain-Python oracle's, bit for bit: a one-step run, a block's tail
    # and a run of several blocks
    if backend == "numpy":
        monkeypatch.setattr(executor, "_library", lambda: None)
    w, levels = history_data(kind, steps + 1, 6, np.random.default_rng(28 + steps))
    want = [history_sum(w, levels, n - 1, n).tobytes() for n in range(1, steps + 1)]
    assert blocked_sums(w, levels, 3) == blocked_sums(w, levels, 8) == want
    for n in range(1, steps + 1):
        acc = np.zeros((1, levels.shape[1]), levels.dtype)
        executor.convolve(w, levels, 1, n - 1, n, acc)
        assert acc.tobytes() == want[n - 1]
    if kind == "real" and steps == 37:
        # the data tell ascending k from descending k
        down = [sum(w[steps - k] * levels[k][e] for k in range(steps - 1, 0, -1)) for e in range(6)]
        assert np.array(down).tobytes() != want[-1]


def test_the_convolution_refuses_what_it_cannot_read():
    # convolve hands the executor pointers and counts: a mixed dtype, a
    # strided array, rows of two lengths, or a level or weight out of range
    # is refused before the call
    w, h, acc = np.ones(9), np.ones((9, 4)), np.zeros((2, 4))
    for args in ((w.astype(complex), h, 1, 3, 4, acc), (w, h[:, ::2], 1, 3, 4, acc[:, :2]), (w, h, 1, 3, 4, acc[:, :3]),
                 (w, h.astype(np.float32), 1, 3, 4, acc), (w[::2], h, 1, 3, 4, acc)):
        with pytest.raises(ValueError, match="contiguous float64 or complex128"):
            executor.convolve(*args)
    for lo, hi, first in ((-1, 3, 4), (1, 9, 9), (1, 5, 4), (0, 3, 8)):
        with pytest.raises(ValueError, match="reach past"):
            executor.convolve(w, h, lo, hi, first, acc)
    executor.convolve(w, h, 5, 4, 8, acc)  # no level: nothing to read
    assert not acc.any()


@CLONED
def test_every_clone_convolves_as_numpy(tmp_path, monkeypatch):
    # the convolution built with no clone, built for AVX2 alone and as the
    # loader picks it (for AVX-512 where the CPU has it) sums the stores of
    # the fk1d-history (complex) and fk2d-vcycle (real) runs, of wide
    # values, as numpy does: blocks early and late in the run, and a top-up
    rng, cases = np.random.default_rng(29), []
    for name, nu, intervals in (("example-6.1", 4, 1024), ("example-6.2", 2, 128)):
        memory = Evolution(preset(name, 0.3, intervals), order=nu, solver="direct").memory
        kind = "complex" if memory.store.dtype == complex else "real"
        levels = history_data(kind, *memory.store.shape, rng)[1]
        cases.append((memory.weights, levels, memory.rows))

    def sums():
        for w, levels, rows in cases:
            steps = len(levels) - 1
            for lo, hi, first, count in ((1, 8, 9, rows), (1, steps - rows, steps - rows + 1, rows),
                                         (steps - 5, steps - 1, steps, 1)):
                acc = np.zeros((count, levels.shape[1]), levels.dtype)
                executor.convolve(w, levels, lo, hi, first, acc)
                yield acc.tobytes()

    libraries = [executor._library(), single_clone(tmp_path)]
    with open("/proc/cpuinfo") as f:
        if " avx2" in f.read():
            libraries.append(single_clone(tmp_path, "avx2"))
    monkeypatch.setattr(executor, "_library", lambda: None)
    want = list(sums())
    for lib in libraries:
        monkeypatch.setattr(executor, "_library", lambda: lib)
        assert list(sums()) == want


@pytest.mark.parametrize("backend", ["compiled", "numpy"])
def test_a_solve_norm_sums_in_eight_lanes(backend, monkeypatch):
    # r0 of a solve whose residual record writes its right-hand side (a zero
    # operator), over runs of 0 to 40 values and a 2D run of the fk2d-vcycle
    # fine grid, its pad cells zero, of one part and of two: the square root
    # of the run's lane_squares; numpy's twins of the lane sum give the
    # oracle's bits before the square root too
    if backend == "numpy":
        monkeypatch.setattr(executor, "_library", lambda: None)
    rng = np.random.default_rng(25)

    def r0(b):
        solve = executor.Solve((), Kernel(RESIDUAL, np.empty_like(b), np.zeros_like(b), b))
        solve(0.5, 1)
        return solve.norms[0]

    grid = wide(rng, 127 * 256).reshape(127, 2, 128)
    grid[..., -1] = 0.0
    runs = [wide(rng, n) for n in range(41)] + [grid[:, 0].ravel(), grid.ravel()]
    for x in runs:
        assert executor.dot(x, x) == lane_squares(x)
        assert executor.dot(x, x[::-1].copy()) == lane_sum(x * x[::-1])
        assert r0(x) == math.sqrt(lane_squares(x))
    # the data tell the lane order from others: its sum is not the correctly rounded one
    assert sum(lane_squares(x) != math.fsum(v * v for v in x.tolist()) for x in runs) > len(runs) // 3


def test_dot_takes_contiguous_flat_float64_runs_of_one_length():
    # dot hands the executor two pointers and one length: anything else is
    # refused before the call
    x = np.ones(16)
    for a, b in ((x, x[:8]), (x[::2], x[:8]), (x, x.astype(np.float32)), (x.reshape(4, 4), x.reshape(4, 4))):
        with pytest.raises(ValueError, match="contiguous flat float64"):
            executor.dot(a, b)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a second BLAS thread needs a second CPU")
@pytest.mark.parametrize("backend", ["compiled", "numpy"])
def test_a_solve_is_the_same_at_any_blas_thread_count(backend, tmp_path):
    # the fk2d-vcycle fine run is long enough for OpenBLAS to thread a
    # ddot, which then sums in another order; the solve's own sums do not
    code = ("import hashlib, numpy as np; from mgfk import executor, multigrid, stencil; "
            "from mgfk.coarsen import fk_operator, mu_coefficient; from mgfk.feynman_kac import preset; "
            "from mgfk.fsd import weights; p = preset('example-6.2', 0.3, 128); "
            "op = fk_operator(2, weights(0.3, 2, 0)[0], mu_coefficient(p.kappa, p.alpha, p.tau, p.h)); "
            "h = multigrid.build_hierarchy(op, 127, 'geometric'); "
            "x, report = multigrid.solve(h, np.random.default_rng(26).standard_normal(127 * 127), tol=1e-7); "
            "print(executor.compiled_tapes(), hashlib.sha256(x.tobytes()).hexdigest(), repr(report.residuals))")
    env = {} if backend == "compiled" else {"CC": "false", "XDG_CACHE_HOME": str(tmp_path)}
    one, two = (python(code, OPENBLAS_NUM_THREADS=threads, **env) for threads in ("1", "2"))
    assert one.startswith(str(backend == "compiled")) and one.count(",") > 10
    assert one == two


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a second BLAS thread needs a second CPU")
@pytest.mark.parametrize("backend", ["compiled", "numpy"])
def test_the_contraction_is_the_same_at_any_blas_thread_count(backend, tmp_path):
    # at 2D M = 256 the fine runs are long enough for OpenBLAS to thread a
    # ddot or a norm, which then sum in another order; the contraction
    # estimate's inner products are lane sums, so mgfk theory writes the
    # same JSON under one thread and two
    code = ("import sys; from mgfk import executor; from mgfk.cli import main; "
            "main(['theory', '--preset', 'example-6.2', '--alpha', '0.8', '--M', '256', "
            "'--json', sys.argv[1]]); print(executor.compiled_tapes())")
    env = {} if backend == "compiled" else {"CC": "false", "XDG_CACHE_HOME": str(tmp_path)}
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"theory-{threads}.json"
        assert python(code, str(out), OPENBLAS_NUM_THREADS=threads, **env).endswith(str(backend == "compiled"))
        reports.append(out.read_bytes())
    assert b"||I - B A||_A" in reports[0] and reports[0] == reports[1]


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a second BLAS thread needs a second CPU")
@pytest.mark.parametrize("backend", ["compiled", "numpy"])
def test_a_run_is_the_same_at_any_blas_thread_count(backend, tmp_path):
    # the fk2d-vcycle run: its history convolution was an OpenBLAS dgemv,
    # which sums in another order on two threads (max error
    # 1.9100359437140835e-05 under one, 1.91003594349759e-05 under two);
    # the executor's convolution sums in its own
    code = ("import hashlib; from mgfk import executor; from mgfk.feynman_kac import Evolution, example_6_2; "
            "ev = Evolution(example_6_2(0.3, 128), order=2, coarsening='geometric', tol=1e-7).run(); "
            "print(executor.compiled_tapes(), hashlib.sha256(ev.history.tobytes()).hexdigest(), "
            "repr(ev.max_error()), ev.iterations)")
    env = {} if backend == "compiled" else {"CC": "false", "XDG_CACHE_HOME": str(tmp_path)}
    one, two = (python(code, OPENBLAS_NUM_THREADS=threads, **env) for threads in ("1", "2"))
    assert one.startswith(str(backend == "compiled")) and one.count(",") == 127
    assert one == two


def python(code: str, *args: str, **env) -> str:
    """Standard output of ``code`` in a fresh interpreter, given ``args``
    and with ``env`` added."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mgfk.__file__)), **env)
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True).stdout.strip()


SOLVE = (
    "import numpy as np; from mgfk import executor, multigrid, stencil; "
    "op = stencil.KroneckerSum(1, 0.0, 1.0, stencil.IDENTITY, stencil.LAPLACIAN); "
    "x, report = multigrid.solve(multigrid.build_hierarchy(op, 31), np.ones(31)); "
    "print(executor.compiled_tapes(), report.converged)"
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
