import numpy as np
import pytest

from mgfk.coarsen import (
    fk_geometric_rule_1d,
    fk_geometric_rule_2d,
    fk_operator_2d,
    fk_stencil_1d,
    mu_coefficient,
)
from mgfk import multigrid
from mgfk.errors import DimensionError, EligibilityError, GridSizeError
from mgfk.fsd import weights
from mgfk.multigrid import (
    build_hierarchy,
    energy_norm,
    measure_contraction,
    smooth,
    solve,
    vcycle,
)
from mgfk.stencil import LAPLACIAN, ToeplitzStencil, dst_solve

from helpers import (
    dense_approximate_inverse,
    dense_contraction_norm,
    dense_operator,
    prolongation_matrix,
    reference_vcycle,
    restriction_matrix,
)


def fk_hierarchy_1d(alpha=0.3, nu=4, intervals=32, **kwargs):
    l0 = weights(alpha, nu, 0)[0]
    mu = mu_coefficient(1.0, alpha, 1.0 / intervals, 1.0 / intervals)
    return build_hierarchy(fk_stencil_1d(l0, mu), intervals - 1, **kwargs)


def fk_hierarchy_2d(alpha=0.3, nu=2, intervals=16, **kwargs):
    l0 = weights(alpha, nu, 0)[0]
    mu = mu_coefficient(1.0, alpha, 1.0 / intervals, 1.0 / intervals)
    return build_hierarchy(fk_operator_2d(l0, mu), intervals - 1, **kwargs)


def test_hierarchy_levels_for_laplacian():
    h = build_hierarchy(LAPLACIAN, 7)
    assert [lv.m for lv in h.levels] == [7, 3, 1]
    assert h.levels[0].operator.bands == pytest.approx((2.0, -1.0))
    assert h.levels[1].operator.bands == pytest.approx((0.5, -0.25))
    assert h.levels[2].operator.bands == pytest.approx((0.125, -0.0625))


def test_hierarchy_rejects_bad_grid():
    with pytest.raises(GridSizeError):
        build_hierarchy(LAPLACIAN, 6)


def test_hierarchy_rejects_degenerate_stencil():
    with pytest.raises(EligibilityError):
        build_hierarchy(ToeplitzStencil((2.0, 1.0)), 7)


def test_geometric_hierarchy_levels_follow_rule():
    l0, mu = 1.3, 100.0
    rule = fk_geometric_rule_1d(l0, mu)
    h = build_hierarchy(fk_stencil_1d(l0, mu), 31, strategy=rule)
    assert h.strategy == "geometric"
    for d, lv in enumerate(h.levels):
        assert lv.operator.bands == pytest.approx(fk_stencil_1d(l0, mu / 4.0**d).bands)


def test_smooth_zero_steps_is_identity():
    h = build_hierarchy(LAPLACIAN, 7)
    v = np.arange(7.0)
    out = smooth(h.levels[0], v, np.zeros(7), 0.5, 0)
    assert np.array_equal(out, v)


def test_smooth_single_weighted_jacobi_step():
    h = build_hierarchy(LAPLACIAN, 7)
    f = LAPLACIAN.apply(np.ones(7))
    out = smooth(h.levels[0], np.zeros(7), f, 0.5, 1)
    assert np.allclose(out, f / 4.0, rtol=1e-15)


def test_smooth_fixed_point():
    h = build_hierarchy(LAPLACIAN, 7)
    x = np.sin(np.arange(1.0, 8.0))
    f = LAPLACIAN.apply(x)
    out = smooth(h.levels[0], x.copy(), f, 0.5, 3)
    assert np.allclose(out, x, rtol=1e-14)


def test_vcycle_zero_fixed_point():
    h = build_hierarchy(LAPLACIAN, 7)
    out = vcycle(h, np.zeros(7), np.zeros(7))
    assert np.array_equal(out, np.zeros(7))


def test_solve_laplacian_consistency():
    h = build_hierarchy(LAPLACIAN, 7)
    f = LAPLACIAN.apply(np.ones(7))
    x, report = solve(h, f, tol=1e-11)
    assert report.converged
    assert report.residuals[-1] < 1e-11
    assert np.allclose(x, np.ones(7), atol=1e-10)
    assert np.all(np.diff(report.residuals) <= 1e-12)


def test_solve_already_converged_initial_guess():
    h = build_hierarchy(LAPLACIAN, 7)
    x0 = np.arange(1.0, 8.0)
    f = LAPLACIAN.apply(x0)
    x, report = solve(h, f, v0=x0)
    assert report.iterations == 0
    assert report.converged
    assert np.array_equal(x, x0)


@pytest.mark.parametrize("arg", ["v0", "f"])
@pytest.mark.parametrize(
    "ndim, shape",
    [(1, (32,)), (1, (31, 1)), (1, (1, 31)), (2, (15, 15))],
)
def test_solve_rejects_misshapen_initial_guess(ndim, shape, arg):
    # a wrong v0 or rhs must fail at entry, not broadcast into a V-cycle or fail a level down
    h = fk_hierarchy_1d() if ndim == 1 else fk_hierarchy_2d()
    args = {"f": np.ones(h.fine.unknowns), "v0": np.zeros(h.fine.unknowns), arg: np.zeros(shape)}
    with pytest.raises(DimensionError):
        solve(h, **args)


@pytest.mark.parametrize("ndim", [1, 2])
def test_solve_matches_dst_solve_at_scale(ndim):
    # sizes no dense oracle reaches: 1D m = 1023, 2D m = 255 (65025 unknowns)
    h = fk_hierarchy_1d(intervals=1024) if ndim == 1 else fk_hierarchy_2d(intervals=256)
    n = h.fine.unknowns
    rng = np.random.default_rng(9)
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x, report = solve(h, f, tol=1e-11)
    assert report.converged
    want = dst_solve(h.fine.operator, f)
    assert np.max(np.abs(x - want)) <= 1e-10 * np.max(np.abs(want))


def test_solve_reports_nonconvergence_without_raising():
    h = fk_hierarchy_1d()
    rng = np.random.default_rng(0)
    f = rng.standard_normal(31)
    x, report = solve(h, f, tol=1e-11, max_iter=2)
    assert not report.converged
    assert report.iterations == 2
    assert len(report.residuals) == 2


def test_fk_1d_iteration_count_matches_reference():
    # roughly ten cycles per solve at the reference tolerance
    h = fk_hierarchy_1d(alpha=0.3, nu=4, intervals=32)
    rng = np.random.default_rng(1)
    iters = []
    for _ in range(5):
        f = rng.standard_normal(31) + 1j * rng.standard_normal(31)
        _, report = solve(h, f, tol=1e-11)
        iters.append(report.iterations)
    assert abs(np.mean(iters) - 10) <= 3


def test_vcycle_is_affine_and_homogeneous():
    h = fk_hierarchy_1d()
    rng = np.random.default_rng(3)
    v, f = rng.standard_normal(31), rng.standard_normal(31)
    zero = np.zeros(31)
    base = vcycle(h, zero, zero)
    assert np.allclose(base, 0.0, atol=1e-15)
    lhs = vcycle(h, v, f)
    rhs = vcycle(h, v, zero) + vcycle(h, zero, f)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)
    assert np.allclose(vcycle(h, zero, 3.5 * f), 3.5 * vcycle(h, zero, f), rtol=1e-12)


def test_complex_rhs_splits_into_real_solves():
    h = fk_hierarchy_1d()
    rng = np.random.default_rng(4)
    fr, fi = rng.standard_normal(31), rng.standard_normal(31)
    xc, _ = solve(h, fr + 1j * fi, tol=1e-13)
    xr, _ = solve(h, fr, tol=1e-13)
    xi, _ = solve(h, fi, tol=1e-13)
    assert np.allclose(xc, xr + 1j * xi, atol=1e-12)


def test_energy_norm_monotone_under_cycling():
    h = fk_hierarchy_1d(omega_pre=0.5, omega_post=0.5)
    measure_contraction(h, trials=3, iters=10, monotone_slack=1e-12)
    h2 = fk_hierarchy_2d(omega_pre=0.25, omega_post=0.25)
    measure_contraction(h2, trials=2, iters=8, monotone_slack=1e-12)


def test_measured_contraction_in_unit_interval():
    for h in (fk_hierarchy_1d(), build_hierarchy(LAPLACIAN, 31)):
        c = measure_contraction(h, trials=3, iters=10)
        assert 0.0 < c < 1.0


def test_contraction_estimator_matches_dense_norm():
    h = fk_hierarchy_1d(omega_pre=0.5, omega_post=0.5)
    est = measure_contraction(h, trials=6, iters=25)
    exact = dense_contraction_norm(h)
    assert est <= exact + 1e-10
    assert est == pytest.approx(exact, rel=0.05)


def test_galerkin_coarse_grid_correction_is_projector():
    for m in (7, 15, 31):
        h = fk_hierarchy_1d(intervals=m + 1)
        a = dense_operator(h)
        r = restriction_matrix(m)
        p = prolongation_matrix(m)
        ac = r @ a @ p
        t = np.eye(m) - p @ np.linalg.solve(ac, r @ a)
        assert np.allclose(t @ t, t, atol=1e-10)


def test_dense_approximate_inverse_matches_vcycle():
    h = fk_hierarchy_1d(intervals=8)
    b = dense_approximate_inverse(h)
    rng = np.random.default_rng(6)
    f = rng.standard_normal(7)
    assert np.allclose(b @ f, vcycle(h, np.zeros(7), f), rtol=1e-13)


def test_solve_2d_fk_iteration_count():
    h = fk_hierarchy_2d(alpha=0.3, intervals=16)
    rng = np.random.default_rng(7)
    f = rng.standard_normal(225)
    _, report = solve(h, f, tol=1e-7)
    assert report.converged
    assert abs(report.iterations - 17) <= 3


def test_hierarchy_post_smooth_indexing():
    lit = fk_hierarchy_1d(literal_post_indexing=True)
    alt = fk_hierarchy_1d(literal_post_indexing=False)
    assert lit.post_smooths == 1
    assert alt.post_smooths == 2
    rng = np.random.default_rng(8)
    f = rng.standard_normal(31)
    # the extra post-smooth changes the sweep result
    a = vcycle(lit, np.zeros(31), f)
    b = vcycle(alt, np.zeros(31), f)
    assert not np.allclose(a, b)


def test_vcycle_can_start_at_a_sublevel():
    h = build_hierarchy(LAPLACIAN, 15)
    rng = np.random.default_rng(15)
    f = rng.standard_normal(7)
    out = vcycle(h, np.zeros(7), f, level=1)
    sub = build_hierarchy(h.levels[1].operator, 7)
    assert np.allclose(out, vcycle(sub, np.zeros(7), f), rtol=1e-14)


def test_smooth_supports_complex_data_over_real_operator():
    h = build_hierarchy(LAPLACIAN, 7)
    rng = np.random.default_rng(16)
    v = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    f = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    out = smooth(h.levels[0], v, f, 0.5, 2)
    re = smooth(h.levels[0], v.real, f.real, 0.5, 2)
    im = smooth(h.levels[0], v.imag, f.imag, 0.5, 2)
    assert np.allclose(out, re + 1j * im, rtol=1e-14)


def test_hierarchy_level_invariants():
    h = fk_hierarchy_2d(intervals=16)
    sizes = [lv.m for lv in h.levels]
    assert sizes == [15, 7, 3, 1]
    for lv in h.levels:
        assert lv.operator.is_spd_eligible()
        assert lv.diag > 0.0


def test_2d_galerkin_factors_follow_closed_forms():
    # the Kronecker sum structure survives coarsening with factor bands given
    # by the closed-form level constants
    from mgfk.coarsen import closed_form_constants, fk_operator_2d

    h = build_hierarchy(fk_operator_2d(2.0, 3.0), 31)
    for d, lv in enumerate(h.levels):
        t = closed_form_constants(d + 1)
        op = lv.operator
        assert op.c_mass == 2.0 and op.c_stiff == 3.0
        mass = op.mass.bands + (0.0,) * (2 - len(op.mass.bands))
        assert mass == pytest.approx((2 * t.theta1 - t.theta2, t.theta3), rel=1e-13)
        assert op.stiff.bands == pytest.approx((2 * t.theta2, -t.theta2), rel=1e-13)


def test_random_eligible_systems_converge_with_monotone_residuals():
    rng = np.random.default_rng(14)
    from helpers import random_eligible_tridiag

    for _ in range(10):
        a0, a1 = random_eligible_tridiag(rng)
        h = build_hierarchy(ToeplitzStencil((a0, a1)), 127, omega_pre=0.5, omega_post=0.5)
        f = rng.standard_normal(127)
        _, report = solve(h, f, tol=1e-11, max_iter=400)
        assert report.converged, (a0, a1)
        assert np.all(np.diff(report.residuals) <= 1e-12)


def test_energy_norm_value():
    h = build_hierarchy(LAPLACIAN, 7)
    e = np.ones(7)
    expected = np.sqrt(np.ones(7) @ LAPLACIAN.to_dense(7) @ np.ones(7))
    assert energy_norm(h.levels[0], e) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("ndim", [1, 2])
def test_solve_stops_at_non_finite_residual(ndim):
    h = fk_hierarchy_1d(intervals=128) if ndim == 1 else fk_hierarchy_2d(intervals=32)
    n = h.fine.unknowns
    for bad in (np.nan, np.inf):
        f = np.ones(n)
        f[n // 2] = bad
        _, report = solve(h, f, tol=1e-11)
        assert not report.converged
        assert report.iterations <= 1


def test_solve_stops_when_an_iterate_turns_non_finite(monkeypatch):
    # finite r0, then a V-cycle that blows up: the loop must stop after it
    h = fk_hierarchy_1d(intervals=32)
    monkeypatch.setattr(multigrid, "vcycle", lambda h, v, f, level=0, r=None: np.full_like(v, np.nan))
    _, report = solve(h, np.ones(h.fine.unknowns), tol=1e-11)
    assert not report.converged
    assert report.iterations == 1
    assert np.isnan(report.residuals[-1])


@pytest.mark.parametrize("pre_count", [0, 1, 2])
@pytest.mark.parametrize("coarsening", ["galerkin", "geometric"])
@pytest.mark.parametrize("ndim", [1, 2])
def test_vcycle_zero_guess_matches_reference(ndim, coarsening, pre_count):
    # coarse levels skip the operator apply on their zero start, and a residual
    # passed in spares the fine level one; the iterates must not move by a bit
    alpha, intervals = 0.3, 32 if ndim == 1 else 16
    l0 = weights(alpha, 2, 0)[0]
    mu = mu_coefficient(1.0, alpha, 1.0 / intervals, 1.0 / intervals)
    if ndim == 1:
        fine, rule = fk_stencil_1d(l0, mu), fk_geometric_rule_1d(l0, mu)
    else:
        fine, rule = fk_operator_2d(l0, mu), fk_geometric_rule_2d(l0, mu)
    h = build_hierarchy(
        fine, intervals - 1, strategy=rule if coarsening == "geometric" else "galerkin",
        pre_count=pre_count,
    )
    n = h.fine.unknowns
    rng = np.random.default_rng(17)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for start in (v, np.zeros(n, dtype=complex)):
        x, ref = start, start
        for _ in range(3):
            given = vcycle(h, x, f, r=f - h.fine.operator.apply(x))
            x, ref = vcycle(h, x, f), reference_vcycle(h, ref, f)
            assert np.array_equal(x, ref)
            assert np.array_equal(given, ref)
