import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator, eigsh

import mgfk
from mgfk.coarsen import fk_operator, galerkin_step, mu_coefficient
from mgfk.errors import DimensionError, EligibilityError, GridSizeError
from mgfk.fsd import weights
from mgfk.stencil import (
    COMPACT_MASS,
    IDENTITY,
    LAPLACIAN,
    KroneckerSum,
    ToeplitzStencil,
    dst_solve,
    grid_depth,
    interior,
    lambda_max,
    pads,
    require_coarsenable,
)

from helpers import kron_sum_dense, prolongation_matrix, restriction_matrix, toeplitz_dense


def test_apply_laplacian_of_constant():
    out = LAPLACIAN.apply(np.ones(3))
    assert np.array_equal(out, [1.0, 0.0, 1.0])


def test_apply_identity():
    v = np.array([3.0, -1.0, 2.5, 0.0])
    assert np.array_equal(IDENTITY.apply(v), v)


def test_apply_matches_dense_tridiagonal():
    rng = np.random.default_rng(1)
    v = rng.standard_normal(7)
    dense = toeplitz_dense(LAPLACIAN.bands, 7)
    assert np.allclose(LAPLACIAN.apply(v), dense @ v, rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("seed", range(7))
def test_apply_matches_dense_every_size(seed):
    # seed 0 draws a lone diagonal, every other seed a random tridiagonal stencil
    rng = np.random.default_rng(seed)
    bands = tuple(rng.standard_normal(2 if seed else 1))
    s = ToeplitzStencil(bands)
    for m in range(1, 128):
        v = rng.standard_normal(m)
        want = toeplitz_dense(bands, m) @ v
        scale = max(1.0, np.abs(want).max())
        assert np.allclose(s.apply(v), want, atol=1e-13 * scale)


def test_apply_complex_vectors():
    rng = np.random.default_rng(2)
    v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    dense = toeplitz_dense(COMPACT_MASS.bands, 9)
    assert np.allclose(COMPACT_MASS.apply(v), dense @ v, rtol=1e-14)


def test_to_dense_examples():
    # the dense oracle every matrix comparison of the suite rests on
    assert np.array_equal(
        toeplitz_dense(LAPLACIAN.bands, 3), [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    )
    assert np.array_equal(toeplitz_dense(IDENTITY.bands, 2), np.eye(2))
    h3 = toeplitz_dense(COMPACT_MASS.bands, 3)
    assert np.allclose(h3 * 12.0, [[10, 1, 0], [1, 10, 1], [0, 1, 10]], rtol=1e-15)
    op = KroneckerSum(2, 2.0, 3.0, IDENTITY, LAPLACIAN)
    assert np.array_equal(kron_sum_dense(op, 2), [[14, -3, -3, 0], [-3, 14, 0, -3],
                                                  [-3, 0, 14, -3], [0, -3, -3, 14]])


def test_stencil_arithmetic():
    assert (2.0 * COMPACT_MASS).bands == pytest.approx((2 * 10 / 12, 2 / 12))
    assert (3.0 * IDENTITY).bands == (3.0, 0.0)


def test_stencil_holds_exactly_two_bands():
    # the theory covers tridiagonal stencils only: a lone diagonal is
    # tridiag(0, a_0, 0), and a third band is refused at construction
    assert ToeplitzStencil((4.0,)) == ToeplitzStencil((4.0, 0.0))
    assert IDENTITY.bands == (1.0, 0.0)
    with pytest.raises(EligibilityError, match="tridiagonal"):
        ToeplitzStencil((1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        ToeplitzStencil(())


def test_lambda_max_closed_form_tridiagonal():
    # eigenvalues of tridiag(-1, 2, -1) at m=7 are 2 - 2 cos(i pi / 8)
    est, gersh = lambda_max(LAPLACIAN, 7)
    assert est == pytest.approx(2.0 - 2.0 * np.cos(7 * np.pi / 8), rel=1e-9)
    assert gersh == 4.0


def test_lambda_max_identity():
    est, gersh = lambda_max(IDENTITY, 13)
    assert est == pytest.approx(1.0, abs=1e-12)
    assert gersh == 1.0


@pytest.mark.parametrize("bands", [(2.0, -1.0), (1.0,), (5.0, 2.0), (10 / 12, 1 / 12)])
def test_lambda_max_below_gershgorin(bands):
    s = ToeplitzStencil(bands)
    est, gersh = lambda_max(s, 31)
    assert est <= gersh + 1e-9


def test_jacobi_ratio_in_unit_band_for_eligible_tridiagonals():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a0 = rng.uniform(0.5, 5.0)
        a1 = rng.uniform(-0.5, 0.5) * a0
        s = ToeplitzStencil((a0, a1))
        est, _ = lambda_max(s, 63)
        ratio = est / a0
        assert 1.0 - 1e-8 <= ratio < 2.0


def test_spd_eligibility_predicate():
    assert LAPLACIAN.is_spd_eligible()
    assert COMPACT_MASS.is_spd_eligible()
    assert ToeplitzStencil((2.0, 1.0)).is_spd_eligible()
    assert not ToeplitzStencil((2.0, -1.5)).is_spd_eligible()
    assert not ToeplitzStencil((-1.0,)).is_spd_eligible()


def test_degenerate_averaging_boundary_rejected():
    require_coarsenable(LAPLACIAN)  # a1 < 0 boundary is fine
    with pytest.raises(EligibilityError):
        require_coarsenable(ToeplitzStencil((2.0, 1.0)))


def test_grid_depth():
    assert grid_depth(1) == 1
    assert grid_depth(7) == 3
    assert grid_depth(127) == 7
    for bad in (0, 2, 6, 100):
        with pytest.raises(GridSizeError):
            grid_depth(bad)


WIDE_MASS = (0.9, 0.15, -0.05)
WIDE_STIFF = (2.5, -1.0, -0.25)


@pytest.mark.parametrize("stiff", [LAPLACIAN], ids=["laplacian"])
@pytest.mark.parametrize(
    "mass",
    [IDENTITY, COMPACT_MASS, galerkin_step(COMPACT_MASS)],
    ids=["identity", "compact", "galerkin"],
)
def test_tensor_operator_matches_dense_kron(mass, stiff):
    # every (mass, stiff) pair in 1D and 2D: the kernel has no per-dimension path
    rng = np.random.default_rng(11)
    for ndim in (1, 2):
        op = KroneckerSum(ndim, c_mass=1.3, c_stiff=0.7, mass=mass, stiff=stiff)
        for m in (1, 3, 7, 15):
            e, s = toeplitz_dense(mass.bands, m), toeplitz_dense(stiff.bands, m)
            if ndim == 1:
                dense = 1.3 * e + 0.7 * s
            else:
                dense = 1.3 * np.kron(e, e) + 0.7 * (np.kron(e, s) + np.kron(s, e))
            real = rng.standard_normal(m**ndim)
            for v in (real, real + 1j * rng.standard_normal(m**ndim)):
                want = dense @ v
                atol = 1e-13 * max(1.0, np.abs(want).max())
                flat = op.apply(v)
                assert flat.shape == v.shape
                assert np.allclose(flat, want, rtol=0.0, atol=atol)
                grid = op.apply(v.reshape((m,) * ndim))
                assert grid.shape == (m,) * ndim
                assert np.allclose(grid.ravel(), want, rtol=0.0, atol=atol)


def test_fine_1d_apply_equals_summed_band_stencil():
    # in 1D the operator's points are the summed bands, bit for bit
    rng = np.random.default_rng(13)
    op = fk_operator(1, 1.7, 250.0)
    summed = ToeplitzStencil(
        tuple(e + s for e, s in zip((1.7 * COMPACT_MASS).bands, (250.0 * LAPLACIAN).bands))
    )
    for m in (1, 2, 31, 1023):
        v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        assert np.array_equal(op.apply(v), summed.apply(v))
    assert op.diagonal == summed.diagonal


def test_tensor_operator_diagonal():
    op = KroneckerSum(2, c_mass=2.0, c_stiff=3.0, mass=IDENTITY, stiff=LAPLACIAN)
    assert op.diagonal == 2.0 * 1.0 + 2.0 * 3.0 * 1.0 * 2.0
    assert kron_sum_dense(op, 5)[0, 0] == pytest.approx(op.diagonal)
    op1 = KroneckerSum(1, c_mass=2.0, c_stiff=3.0, mass=COMPACT_MASS, stiff=LAPLACIAN)
    assert kron_sum_dense(op1, 5)[0, 0] == pytest.approx(op1.diagonal, rel=1e-15)


def test_tensor_operator_rejects_non_square_flat_vector():
    op = KroneckerSum(2, c_mass=1.0, c_stiff=1.0, mass=IDENTITY, stiff=LAPLACIAN)
    with pytest.raises(DimensionError):
        op.apply(np.ones(10))
    for bad in (np.ones((3, 5)), np.ones((9, 1)), np.ones((3, 3, 3)), np.float64(1.0)):
        with pytest.raises(DimensionError):
            op.apply(bad)
    with pytest.raises(DimensionError):  # a flat vector must not be padded as a 225 x 225 grid
        op.apply_grid(np.ones(225))


GALERKIN_MASS = galerkin_step(galerkin_step(COMPACT_MASS))


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize(
    "mass", [IDENTITY, COMPACT_MASS, GALERKIN_MASS], ids=["identity", "compact", "galerkin"]
)
def test_eigenvalues_match_dense_spectrum(ndim, mass):
    op = KroneckerSum(ndim, c_mass=1.3, c_stiff=0.7, mass=mass, stiff=galerkin_step(LAPLACIAN))
    for m in (1, 3, 7, 15, 31):
        want = np.linalg.eigvalsh(kron_sum_dense(op, m))
        got = op.eigenvalues(m)
        assert got.shape == (m,) * ndim
        assert np.allclose(np.sort(got.ravel()), want, rtol=0.0, atol=1e-13 * want.max())
        assert lambda_max(op, m)[0] == pytest.approx(want.max(), rel=1e-14)


def test_eigenvalues_match_lanczos_on_galerkin_level_one():
    # the sine symbol against seeded Lanczos (ARPACK) on level 1 (m = 63) of
    # the 2D M = 128 theory run (example-6.2, alpha = 0.8, nu = 2), whose
    # clustered spectrum makes Lanczos slowest
    l0, mu = weights(0.8, 2, 0)[0], mu_coefficient(1.0, 0.8, 1 / 128, 1 / 128)
    op = fk_operator(2, l0, mu).galerkin()
    matvec = LinearOperator((63 * 63,) * 2, matvec=op.apply, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(63 * 63)
    want = eigsh(matvec, k=1, which="LA", tol=1e-10, v0=v0, return_eigenvectors=False)[0]
    assert lambda_max(op, 63)[0] == pytest.approx(want, rel=1e-10)


def test_eigenvalues_need_tridiagonal_factors():
    # every stencil has its closed-form spectrum: a lone diagonal is
    # tridiag(0, a_0, 0), and a wider stencil is refused before it has one
    assert np.array_equal(ToeplitzStencil((3.0,)).eigenvalues(7), np.full(7, 3.0))
    assert lambda_max(ToeplitzStencil((3.0,)), 7) == (3.0, 3.0)
    for wide in (WIDE_MASS, WIDE_STIFF):
        with pytest.raises(EligibilityError):
            ToeplitzStencil(wide).eigenvalues(7)


@pytest.mark.parametrize("ndim", [1, 2])
def test_kronecker_sum_refuses_wide_factors(ndim):
    # a mass or stiffness of half-bandwidth 2 never reaches the operator
    for mass, stiff in ((WIDE_MASS, LAPLACIAN.bands), (IDENTITY.bands, WIDE_STIFF)):
        with pytest.raises(EligibilityError, match="tridiagonal"):
            KroneckerSum(ndim, 1.0, 1.0, ToeplitzStencil(mass), ToeplitzStencil(stiff))


def test_pads_are_the_cell_after_each_row():
    # a 2D run holds rows of n points and one pad cell; a 1D run has no pads
    a = np.arange(3 * 8.0)
    (pad,) = pads(a, (3, 7))
    assert np.array_equal(pad, [7.0, 15.0, 23.0]) and np.shares_memory(pad, a)
    assert np.array_equal(interior(a, (3, 7)).ravel(), np.delete(a, [7, 15, 23]))
    assert pads(np.arange(7.0), (7,)) == ()


@pytest.mark.parametrize("ndim", [0, 3])
def test_kronecker_sum_refuses_grids_other_than_1d_and_2d(ndim):
    with pytest.raises(DimensionError, match="1D or 2D"):
        KroneckerSum(ndim, 1.0, 1.0, IDENTITY, LAPLACIAN)


@pytest.mark.parametrize("ndim", [1, 2])
def test_galerkin_matches_dense_triple_product(ndim):
    r, p = restriction_matrix(15), prolongation_matrix(15)
    if ndim == 2:
        r, p = np.kron(r, r), np.kron(p, p)
    op = fk_operator(ndim, 1.3, 40.0)
    for _ in range(3):  # three levels down, each against the triple product of the one above
        want = r @ kron_sum_dense(op, 15) @ p
        op = op.galerkin()
        assert np.allclose(kron_sum_dense(op, 7), want, rtol=0.0, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("ndim", [1, 2])
def test_rediscretised_divides_the_stiffness_by_four(ndim):
    l0, mu = 1.3, 977.0
    op = fk_operator(ndim, l0, mu)
    for d in range(1, 6):
        op = op.rediscretised()
        assert op == fk_operator(ndim, l0, mu / 4**d)


@pytest.mark.parametrize(
    "op",
    [
        KroneckerSum(1, c_mass=0.9, c_stiff=3.0, mass=IDENTITY, stiff=LAPLACIAN),
        KroneckerSum(1, c_mass=0.9, c_stiff=3.0, mass=COMPACT_MASS, stiff=LAPLACIAN),
        KroneckerSum(2, c_mass=0.9, c_stiff=3.0, mass=IDENTITY, stiff=LAPLACIAN),
        KroneckerSum(2, c_mass=1.3, c_stiff=0.7, mass=COMPACT_MASS, stiff=LAPLACIAN),
    ],
    ids=["1d-identity", "1d-compact", "2d-identity", "2d-compact"],
)
def test_dst_solve_matches_dense_solve(op):
    rng = np.random.default_rng(12)
    for m in (1, 3, 7, 15):
        dense = kron_sum_dense(op, m)
        real = rng.standard_normal(dense.shape[0])
        for b in (real, real + 1j * rng.standard_normal(real.size)):
            want = np.linalg.solve(dense, b)
            got = dst_solve(op, b)
            assert got.shape == b.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            assert np.array_equal(dst_solve(op, b.reshape((m,) * op.ndim)).ravel(), got)


def test_dst_solve_rejects_misshapen_data():
    with pytest.raises(DimensionError):
        dst_solve(KroneckerSum(1, 0.0, 1.0, IDENTITY, LAPLACIAN), np.ones((3, 3)))


def test_import_loads_no_scipy_fft_or_linalg():
    # the multigrid path needs neither module, and importing them raises the
    # peak RSS of every run (the direct solve imports scipy.fft when called)
    code = (
        "import sys, mgfk; "
        "print(' '.join(m for m in sys.modules if m.startswith(('scipy.fft', 'scipy.linalg'))))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mgfk.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == ""
