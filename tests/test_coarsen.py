import numpy as np
import pytest

from mgfk.coarsen import (
    c_constant,
    closed_form_constants,
    closed_form_tridiag,
    fk_operator,
    galerkin_step,
    mu_coefficient,
)
from mgfk.stencil import COMPACT_MASS, IDENTITY, LAPLACIAN, KroneckerSum, ToeplitzStencil

from helpers import (
    coefficient,
    coefficient_table,
    dense_galerkin,
    kron_sum_dense,
    random_eligible_tridiag,
    toeplitz_dense,
    unscaled_recursion,
)


#: Averaging stencil tridiag(1, 2, 1), the mirror image of the Laplacian.
AVERAGING = ToeplitzStencil((2.0, 1.0))


def test_galerkin_laplacian():
    assert galerkin_step(LAPLACIAN).bands == pytest.approx((0.5, -0.25), rel=1e-15)


def test_galerkin_identity():
    # image of the identity is (1/8) tridiag(1, 6, 1)
    assert galerkin_step(IDENTITY).bands == pytest.approx((0.75, 0.125), rel=1e-15)


def test_galerkin_averaging_stencil_matches_dense_triple_product():
    coarse = galerkin_step(AVERAGING)
    assert coarse.bands == pytest.approx((2.5, 0.75), rel=1e-15)
    dense = dense_galerkin(toeplitz_dense(AVERAGING.bands, 7))
    assert np.allclose(dense, toeplitz_dense(coarse.bands, 3), atol=1e-13)


@pytest.mark.parametrize("bandwidth", [0, 1])
def test_galerkin_band_recurrence_equals_dense_rap(bandwidth):
    rng = np.random.default_rng(bandwidth)
    bands = tuple(rng.standard_normal(bandwidth + 1))
    s = ToeplitzStencil(bands)
    coarse = galerkin_step(s)
    dense = dense_galerkin(toeplitz_dense(bands, 31))
    assert np.allclose(dense, toeplitz_dense(coarse.bands, 15), atol=1e-12)


def test_coarse_bandwidth_bounded():
    # the dense triple product of a tridiagonal matrix stays tridiagonal at every level
    dense = toeplitz_dense((6.0, 1.0), 255)
    for _ in range(6):
        dense = dense_galerkin(dense)
        assert np.count_nonzero(np.triu(dense, 2)) == 0


def test_closed_form_level_one_is_identity_map():
    s = closed_form_tridiag(3.7, -1.1, 1)
    assert s.bands == pytest.approx((3.7, -1.1), rel=1e-15)


def test_closed_form_laplacian_level_three():
    # pure second difference stays a scaled second difference
    s = closed_form_tridiag(2.0, -1.0, 3)
    assert s.bands == pytest.approx((2.0 / 16.0, -1.0 / 16.0), rel=1e-15)
    t = closed_form_constants(3)
    assert t.theta2 == pytest.approx(4.0 / 64.0, rel=1e-15)


def test_closed_form_matches_single_step():
    assert closed_form_tridiag(2.0, 1.0, 2).bands == pytest.approx((2.5, 0.75), rel=1e-15)


def test_constants_growth_and_signs():
    assert [c_constant(k) for k in range(1, 7)] == [0, 1, 10, 84, 680, 5456]
    for k in range(1, 12):
        t = closed_form_constants(k)
        assert t.theta1 > 0 and t.theta2 > 0 and t.theta3 >= 0


def test_oracle_equivalence_recursion_closed_form_dense():
    rng = np.random.default_rng(42)
    for _ in range(25):
        a0, a1 = random_eligible_tridiag(rng)
        stepped = ToeplitzStencil((a0, a1))
        dense = toeplitz_dense((a0, a1), 127)
        for k in range(2, 7):
            stepped = galerkin_step(stepped)
            dense = dense_galerkin(dense)
            closed = closed_form_tridiag(a0, a1, k)
            scale = max(abs(v) for v in closed.bands)
            assert stepped.bands == pytest.approx(closed.bands, abs=1e-12 * scale)
            m = dense.shape[0]
            assert np.allclose(dense, toeplitz_dense(closed.bands, m), atol=1e-12 * scale)


def test_coefficient_table_examples():
    # weight of the fine diagonal in the coarse diagonal at one step: 4*C_2 + 2
    assert coefficient(0, 0, 2) == 6
    assert coefficient(0, 1, 2) == 8
    assert coefficient(1, 0, 2) == c_constant(2)
    # one unscaled step of tridiag(1, 2, 1) assembled from the table
    assert 2 * coefficient(0, 0, 2) + coefficient(0, 1, 2) == 20
    assert (8.0 * galerkin_step(AVERAGING)).bands[0] == 20  # 8 = 2**3: exact
    # the integer tables, scaled, are the package's closed form, bit for bit
    for k in range(2, 12):
        scale = 8 ** (k - 1)
        for a0 in range(1, 10):
            for a1 in range(-4, 5):
                want = (
                    (coefficient(0, 0, k) * a0 + coefficient(0, 1, k) * a1) / scale,
                    (coefficient(1, 0, k) * a0 + coefficient(1, 1, k) * a1) / scale,
                )
                assert closed_form_tridiag(a0, a1, k).bands == want, (a0, a1, k)


def test_coefficient_branch_endpoints_agree():
    # piecewise formulas overlap at segment ends; both branches must agree
    for k in (2, 3, 4, 5):
        half = 2 ** (k - 1)
        c = c_constant(k)
        m = half
        lower = 8 * c - (m * m - 1) * (2**k - m)
        n = 2**k - m
        upper = (n - 1) * n * (n + 1) // 3
        assert lower == upper == coefficient(0, m, k)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_coefficient_tables_reproduce_recursion_exactly(k):
    rng = np.random.default_rng(k)
    width = (2**k + 2) * 2 ** (k - 1) + 4
    for trial in range(3):
        fine = [int(x) for x in rng.integers(-9, 10, size=width)]
        expected = unscaled_recursion(fine, k - 1)
        for j in range(0, 2**k + 1):
            lo, coeffs = coefficient_table(j, k)
            acc = sum(
                c * fine[m] for m, c in zip(range(lo, lo + len(coeffs)), coeffs) if m < width
            )
            want = expected[j] if j < len(expected) else 0
            assert acc == want, (k, j, trial)


def test_unscaled_step_matches_oracle_recursion():
    for bands in ((5, 1), (7, -3), (2,)):
        ours = (8.0 * galerkin_step(ToeplitzStencil(bands))).bands
        assert ours == tuple(unscaled_recursion(bands, 1))


def test_spd_preserved_strictly_under_coarsening():
    rng = np.random.default_rng(5)
    for _ in range(40):
        a0, a1 = random_eligible_tridiag(rng, strict=True)
        s = ToeplitzStencil((a0, a1))
        assert a0 > 2 * abs(a1)
        for _ in range(8):
            s = galerkin_step(s)
            assert s.bands[0] > 2 * abs(s.bands[1])


def test_galerkin_2d_factor_images():
    op = KroneckerSum(2, c_mass=1.0, c_stiff=1.0, mass=IDENTITY, stiff=LAPLACIAN)
    coarse = op.galerkin()
    assert coarse.mass.bands == pytest.approx((0.75, 0.125), rel=1e-15)
    assert coarse.stiff.bands == pytest.approx((0.5, -0.25), rel=1e-15)
    assert coarse.c_mass == 1.0 and coarse.c_stiff == 1.0 and coarse.ndim == 2


def test_galerkin_2d_matches_dense_kronecker_rap():
    rng = np.random.default_rng(21)
    from helpers import prolongation_matrix, restriction_matrix

    for _ in range(5):
        c1, c2 = rng.uniform(0.0, 3.0), rng.uniform(0.1, 3.0)
        op = KroneckerSum(2, c_mass=c1, c_stiff=c2, mass=IDENTITY, stiff=LAPLACIAN)
        m = 7
        r1 = restriction_matrix(m)
        p1 = prolongation_matrix(m)
        r2 = np.kron(r1, r1)
        p2 = np.kron(p1, p1)
        dense_coarse = r2 @ kron_sum_dense(op, m) @ p2
        ours = kron_sum_dense(op.galerkin(), 3)
        scale = np.abs(dense_coarse).max()
        assert np.allclose(ours, dense_coarse, atol=1e-12 * scale)


def test_geometric_rule_1d_scales_only_the_laplacian_part():
    l0, mu = 1.2, 80.0
    coarse = fk_operator(1, l0, mu).rediscretised()
    assert coarse.mass == COMPACT_MASS and coarse.stiff == LAPLACIAN
    assert (coarse.c_mass, coarse.c_stiff) == (l0, mu / 4.0)


def test_geometric_rule_2d():
    op2 = fk_operator(2, 1.5, 16.0).rediscretised().rediscretised()
    assert op2.c_mass == 1.5
    assert op2.c_stiff == pytest.approx(1.0)
    assert op2.mass.bands == IDENTITY.bands
    assert op2.stiff.bands == LAPLACIAN.bands


def test_zero_diffusion_is_level_independent():
    op = fk_operator(1, 1.2, mu_coefficient(0.0, 0.5, 0.1, 0.1))
    coarse = op
    for _ in range(5):
        coarse = coarse.rediscretised()
    assert coarse == op


def test_mu_coefficient():
    assert mu_coefficient(1.0, 0.3, 1 / 32, 1 / 32) == pytest.approx((1 / 32) ** 0.3 * 32**2)


def test_coefficient_validation():
    with pytest.raises(ValueError):
        coefficient(0, 0, 1)
    with pytest.raises(ValueError):
        coefficient(-1, 0, 2)
