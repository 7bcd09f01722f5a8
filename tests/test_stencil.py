import numpy as np
import pytest

from mgfk.coarsen import galerkin_step
from mgfk.errors import DimensionError, EligibilityError, EstimationError, GridSizeError
from mgfk.stencil import (
    COMPACT_MASS,
    IDENTITY,
    LAPLACIAN,
    TensorOperator2D,
    ToeplitzStencil,
    grid_depth,
    lambda_max,
    largest_eigenvalue,
    require_coarsenable,
)

from helpers import toeplitz_dense


def test_apply_laplacian_of_constant():
    out = LAPLACIAN.apply(np.ones(3))
    assert np.array_equal(out, [1.0, 0.0, 1.0])


def test_apply_identity():
    v = np.array([3.0, -1.0, 2.5, 0.0])
    assert np.array_equal(IDENTITY.apply(v), v)


def test_apply_matches_dense_tridiagonal():
    rng = np.random.default_rng(1)
    v = rng.standard_normal(7)
    dense = LAPLACIAN.to_dense(7)
    assert np.allclose(LAPLACIAN.apply(v), dense @ v, rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("bandwidth", [0, 1, 2, 3, 4, 5, 6])
def test_apply_matches_dense_every_size(bandwidth):
    rng = np.random.default_rng(bandwidth)
    bands = tuple(rng.standard_normal(bandwidth + 1))
    s = ToeplitzStencil(bands)
    for m in range(1, 128):
        v = rng.standard_normal(m)
        want = toeplitz_dense(bands, m) @ v
        scale = max(1.0, np.abs(want).max())
        assert np.allclose(s.apply(v), want, atol=1e-13 * scale)


def test_apply_complex_vectors():
    rng = np.random.default_rng(2)
    v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    dense = COMPACT_MASS.to_dense(9)
    assert np.allclose(COMPACT_MASS.apply(v), dense @ v, rtol=1e-14)


def test_apply_along_second_axis():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 5))
    expected = (LAPLACIAN.to_dense(5) @ x.T).T
    assert np.allclose(LAPLACIAN.apply(x, axis=1), expected, rtol=1e-14)


def test_to_dense_examples():
    assert np.array_equal(
        LAPLACIAN.to_dense(3), [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    )
    assert np.array_equal(IDENTITY.to_dense(2), np.eye(2))
    h3 = COMPACT_MASS.to_dense(3)
    assert np.allclose(h3 * 12.0, [[10, 1, 0], [1, 10, 1], [0, 1, 10]], rtol=1e-15)


def test_stencil_arithmetic():
    s = 2.0 * COMPACT_MASS + 3.0 * LAPLACIAN
    assert s.bands == pytest.approx((2 * 10 / 12 + 6, 2 / 12 - 3))


def test_lambda_max_closed_form_tridiagonal():
    # eigenvalues of tridiag(-1, 2, -1) at m=7 are 2 - 2 cos(i pi / 8)
    est, gersh = lambda_max(LAPLACIAN, 7, tol=1e-12)
    assert est == pytest.approx(2.0 - 2.0 * np.cos(7 * np.pi / 8), rel=1e-9)
    assert gersh == 4.0


def test_lambda_max_identity():
    est, gersh = lambda_max(IDENTITY, 13)
    assert est == pytest.approx(1.0, abs=1e-12)
    assert gersh == 1.0


@pytest.mark.parametrize("bands", [(2.0, -1.0), (1.0,), (5.0, 1.0, 0.5), (10 / 12, 1 / 12)])
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


def test_largest_eigenvalue_nonconvergence_carries_estimate():
    with pytest.raises(EstimationError) as info:
        largest_eigenvalue(lambda v: LAPLACIAN.apply(v), 4095, tol=1e-14, max_iter=1)
    assert info.value.estimate is not None
    # the partial value is still a usable lower-side estimate
    assert 0.0 < info.value.estimate <= 4.0 + 1e-9


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


WIDE_MASS = ToeplitzStencil((0.9, 0.15, -0.05))
WIDE_STIFF = ToeplitzStencil((2.5, -1.0, -0.25))


@pytest.mark.parametrize("stiff", [LAPLACIAN, WIDE_STIFF], ids=["laplacian", "wide"])
@pytest.mark.parametrize(
    "mass",
    [IDENTITY, COMPACT_MASS, galerkin_step(COMPACT_MASS), WIDE_MASS],
    ids=["identity", "compact", "galerkin", "wide"],
)
def test_tensor_operator_matches_dense_kron(mass, stiff):
    rng = np.random.default_rng(11)
    op = TensorOperator2D(c_mass=1.3, c_stiff=0.7, mass=mass, stiff=stiff)
    for m in (1, 3, 7, 15):
        dense = op.to_dense(m)
        real = rng.standard_normal(m * m)
        for v in (real, real + 1j * rng.standard_normal(m * m)):
            want = dense @ v
            atol = 1e-13 * max(1.0, np.abs(want).max())
            flat = op.apply(v)
            assert flat.shape == v.shape
            assert np.allclose(flat, want, rtol=0.0, atol=atol)
            grid = op.apply(v.reshape(m, m))
            assert grid.shape == (m, m)
            assert np.allclose(grid.ravel(), want, rtol=0.0, atol=atol)


def test_tensor_operator_diagonal():
    op = TensorOperator2D(c_mass=2.0, c_stiff=3.0, mass=IDENTITY, stiff=LAPLACIAN)
    assert op.diagonal() == 2.0 * 1.0 + 2.0 * 3.0 * 1.0 * 2.0
    assert op.to_dense(5)[0, 0] == pytest.approx(op.diagonal())


def test_tensor_operator_rejects_non_square_flat_vector():
    op = TensorOperator2D(c_mass=1.0, c_stiff=1.0, mass=IDENTITY, stiff=LAPLACIAN)
    with pytest.raises(DimensionError):
        op.apply(np.ones(10))
