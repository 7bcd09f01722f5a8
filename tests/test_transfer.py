import numpy as np
import pytest

from mgfk.errors import DimensionError, GridSizeError
from mgfk.multigrid import build_hierarchy
from mgfk.stencil import COMPACT_MASS, LAPLACIAN, KroneckerSum
from mgfk.transfer import prolong, restrict

from helpers import (
    cut,
    cutting_matrix,
    prolongation_matrix,
    reference_prolong,
    reference_restrict,
    restriction_matrix,
)


def test_restrict_preserves_constants():
    assert np.array_equal(restrict(np.ones(3)), [1.0])
    assert np.array_equal(restrict(np.ones(15)), np.ones(7))


def test_restrict_linear_ramp():
    assert np.array_equal(restrict(np.arange(1.0, 8.0)), [2.0, 4.0, 6.0])


def test_restrict_single_hat():
    assert np.array_equal(restrict(np.array([0.0, 1.0, 0.0])), [0.5])


def test_prolong_single_point():
    assert np.array_equal(prolong(np.array([1.0])), [0.5, 1.0, 0.5])


def test_prolong_constants():
    assert np.array_equal(
        prolong(np.ones(3)), [0.5, 1, 1, 1, 1, 1, 0.5]
    )


def test_prolong_zero():
    assert np.array_equal(prolong(np.zeros(7)), np.zeros(15))


@pytest.mark.parametrize("m_fine", [3, 7, 15, 31, 127])
def test_transfers_match_dense_matrices(m_fine):
    rng = np.random.default_rng(m_fine)
    v = rng.standard_normal(m_fine)
    assert np.allclose(restrict(v), restriction_matrix(m_fine) @ v, rtol=1e-14)
    c = rng.standard_normal((m_fine - 1) // 2)
    assert np.allclose(prolong(c), prolongation_matrix(m_fine) @ c, rtol=1e-14)


@pytest.mark.parametrize("m_fine", [3, 7, 31, 127])
def test_duality_factor_two(m_fine):
    rng = np.random.default_rng(2 * m_fine)
    u = rng.standard_normal((m_fine - 1) // 2)
    v = rng.standard_normal(m_fine)
    assert np.dot(prolong(u), v) == pytest.approx(2.0 * np.dot(u, restrict(v)), rel=1e-13)


@pytest.mark.parametrize("m_fine", [3, 7, 15])
def test_duality_factor_four_2d(m_fine):
    rng = np.random.default_rng(3 * m_fine)
    mc = (m_fine - 1) // 2
    u = rng.standard_normal((mc, mc))
    v = rng.standard_normal((m_fine, m_fine))
    lhs = np.sum(prolong(u) * v)
    rhs = 4.0 * np.sum(u * restrict(v))
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_cut_selects_every_second_entry():
    assert np.array_equal(cut(np.arange(1.0, 8.0)), [2.0, 4.0, 6.0])
    assert np.array_equal(cut(np.zeros(7)), np.zeros(3))


def test_cut_matches_dense_matrix():
    rng = np.random.default_rng(9)
    v = rng.standard_normal(15)
    assert np.array_equal(cut(v), cutting_matrix(15) @ v)


def test_prolong_of_cut_leaves_coarse_points_exact():
    rng = np.random.default_rng(10)
    v = rng.standard_normal(15)
    residual = v - prolong(cut(v))
    assert np.allclose(residual[1::2], 0.0, atol=1e-15)
    # odd fine points hold the second-difference pattern of the remainder
    interior = v[2:-2:2]
    assert np.allclose(
        residual[2:-2:2], interior - 0.5 * (v[1:-3:2] + v[3:-1:2]), atol=1e-15
    )


def test_restrict_2d_constant():
    assert np.allclose(restrict(np.ones((7, 7))), np.ones((3, 3)), rtol=1e-15)


def test_prolong_2d_single_point_outer_product():
    out = prolong(np.array([[1.0]]))
    hat = np.array([0.5, 1.0, 0.5])
    assert np.allclose(out, np.outer(hat, hat), rtol=1e-15)


@pytest.mark.parametrize("m_fine", [3, 7, 15])
def test_2d_transfers_match_kronecker_products(m_fine):
    # kron(R, R) / kron(P, P) on the flat vector, and bit for bit the 1D
    # transfer along the first axis, then along the second
    rng = np.random.default_rng(4 * m_fine)
    mc = (m_fine - 1) // 2
    r, p = restriction_matrix(m_fine), prolongation_matrix(m_fine)
    v = rng.standard_normal((m_fine, m_fine)) + 1j * rng.standard_normal((m_fine, m_fine))
    c = rng.standard_normal((mc, mc)) + 1j * rng.standard_normal((mc, mc))
    assert np.allclose(restrict(v).ravel(), np.kron(r, r) @ v.ravel(), rtol=0.0, atol=1e-14)
    assert np.allclose(prolong(c).ravel(), np.kron(p, p) @ c.ravel(), rtol=0.0, atol=1e-14)
    rows = np.array([restrict(row) for row in v.T]).T
    assert np.array_equal(restrict(v), np.array([restrict(col) for col in rows]))
    rows = np.array([prolong(row) for row in c.T]).T
    assert np.array_equal(prolong(c), np.array([prolong(col) for col in rows]))
    # and bit for bit the allocating oracle's operation order
    assert np.array_equal(restrict(v), reference_restrict(v))
    assert np.array_equal(prolong(c), reference_prolong(c))


def test_2d_round_trip_matches_kronecker_oracle():
    m_fine = 7
    rng = np.random.default_rng(12)
    r = restriction_matrix(m_fine)
    p = prolongation_matrix(m_fine)
    rp = r @ p
    coarse = rng.standard_normal((3, 3))
    expected = (np.kron(rp, rp) @ coarse.ravel()).reshape(3, 3)
    assert np.allclose(restrict(prolong(coarse)), expected, rtol=1e-13)


def test_bad_sizes_raise_grid_error():
    for v in (np.ones(4), np.ones(6), np.ones(2)):
        with pytest.raises(GridSizeError):
            restrict(v)
    with pytest.raises(GridSizeError):
        prolong(np.ones(4))
    with pytest.raises(GridSizeError):
        cut(np.ones(9))
    with pytest.raises(GridSizeError):
        restrict(np.ones((4, 4)))
    with pytest.raises(GridSizeError):
        restrict(np.ones((3, 5)))
    with pytest.raises(GridSizeError):
        restrict(np.ones(1))
    with pytest.raises(GridSizeError):
        prolong(np.ones((3, 2)))
    with pytest.raises(GridSizeError):
        restrict(np.ones((7, 1)))


def test_transfers_refuse_grids_of_more_than_two_axes():
    # the paper's bounds cover 1D and 2D grids only
    with pytest.raises(DimensionError):
        restrict(np.ones((7, 7, 7)))
    with pytest.raises(DimensionError):
        prolong(np.ones((3, 3, 3)))
    with pytest.raises(DimensionError):
        restrict(np.float64(1.0))


@pytest.mark.parametrize("shape", [(7, 15), (15, 7), (3, 15), (15, 3), (1, 3)])
def test_rectangular_grids_match_the_oracle(shape):
    # every axis of 2**k - 1 points on its own: restrict the grid, prolong its coarse shape
    rng = np.random.default_rng(sum(shape))
    coarse = tuple((m - 1) // 2 for m in shape)
    for imag in (0.0, 1.0):
        x = rng.standard_normal(shape) + imag * 1j * rng.standard_normal(shape)
        if min(shape) > 1:
            assert np.array_equal(restrict(x), reference_restrict(x))
        y = rng.standard_normal(shape) + imag * 1j * rng.standard_normal(shape)
        assert np.array_equal(prolong(y), reference_prolong(y))
        assert prolong(y).shape == tuple(2 * m + 1 for m in shape)
        if min(coarse) > 0:
            assert restrict(x).shape == coarse


HIERARCHIES = [pytest.param(ndim, m, id=f"{ndim}d-b1") for ndim, m in ((1, 63), (2, 31))]


def _pad_cells(ws, run):
    return np.concatenate([p.ravel() for p in ws.apply.pads(run)] + [np.zeros(0)])


@pytest.mark.parametrize("ndim, m", HIERARCHIES)
def test_bound_transfers_match_the_oracle_and_leave_zero_pads(ndim, m):
    # at every level: the bound pair equals the allocating oracle bit for bit,
    # whatever the fine pad cells held, and leaves every pad cell of the coarse
    # rhs and of the fine residual exactly zero, which the zero-start cycle
    # below relies on
    h = build_hierarchy(KroneckerSum(ndim, 1.0, 3.0, COMPACT_MASS, LAPLACIAN), m)
    rng = np.random.default_rng(ndim + 1)
    for dtype in (float, complex):
        work = h.workspace(dtype)
        for fine, coarse in zip(work, work[1:]):
            fine.r_run[...] = rng.standard_normal(fine.r_run.shape)  # pads included
            coarse.rhs_run[...] = rng.standard_normal(coarse.rhs_run.shape)
            if dtype is complex:
                fine.r_run.imag = rng.standard_normal(fine.r_run.shape)
            grid = fine.r.copy()
            fine.restrict()
            assert np.array_equal(coarse.rhs, reference_restrict(grid))
            assert not np.any(_pad_cells(coarse, coarse.rhs_run))
            coarse.v[...] = rng.standard_normal(coarse.v.shape)
            if dtype is complex:
                coarse.v.imag = rng.standard_normal(coarse.v.shape)
            fine.r_run[...] = rng.standard_normal(fine.r_run.shape)
            fine.prolong()
            assert np.array_equal(fine.r, reference_prolong(coarse.v))
            assert not np.any(_pad_cells(fine, fine.r_run))
            assert fine.r.dtype == coarse.rhs.dtype == np.dtype(dtype)


@pytest.mark.parametrize("ndim, calls", [(1, (4, 3)), (2, (9, 6))])
def test_last_axis_passes_are_1d_calls(ndim, calls):
    # the last axis runs as one stride-2 call per operation on whole runs,
    # the pad fill as one strided view; in 2D the row pass before it reads
    # and writes contiguous rows
    h = build_hierarchy(KroneckerSum(ndim, 1.0, 3.0, COMPACT_MASS, LAPLACIAN), 127)
    for dtype in (float, complex):
        for ws in h.workspace(dtype)[:-1]:
            restriction, prolongation = ws.restrict.calls, ws.prolong.calls
            assert (len(restriction), len(prolongation)) == calls
            last = restriction[-5 if ndim > 1 else -4 :] + prolongation[-3:]
            for fn, args in last:
                arrays = [a for a in (*args, getattr(fn, "__self__", None))
                          if isinstance(a, np.ndarray) and a.ndim > 0]
                assert arrays and all(a.ndim == 1 for a in arrays)
            for _, args in restriction[: -5 if ndim > 1 else -4] + prolongation[:-3]:
                for a in args:
                    assert a.ndim == 0 or a.strides[-1] == a.itemsize
