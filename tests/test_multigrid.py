import math

import numpy as np
import pytest

from mgfk.coarsen import fk_operator, mu_coefficient
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
from mgfk.stencil import (
    IDENTITY,
    LAPLACIAN,
    KroneckerSum,
    ToeplitzStencil,
    dst_solve,
)

from helpers import (
    dense_approximate_inverse,
    dense_contraction_norm,
    dense_operator,
    prolongation_matrix,
    reference_solve,
    reference_vcycle,
    restriction_matrix,
    toeplitz_dense,
)


def fk_hierarchy_1d(alpha=0.3, nu=4, intervals=32, **kwargs):
    l0 = weights(alpha, nu, 0)[0]
    mu = mu_coefficient(1.0, alpha, 1.0 / intervals, 1.0 / intervals)
    return build_hierarchy(fk_operator(1, l0, mu), intervals - 1, **kwargs)


def fk_hierarchy_2d(alpha=0.3, nu=2, intervals=16, **kwargs):
    l0 = weights(alpha, nu, 0)[0]
    mu = mu_coefficient(1.0, alpha, 1.0 / intervals, 1.0 / intervals)
    return build_hierarchy(fk_operator(2, l0, mu), intervals - 1, **kwargs)


def system(stencil):
    """A bare stencil S as a 1D system operator."""
    return KroneckerSum(1, c_mass=0.0, c_stiff=1.0, mass=IDENTITY, stiff=stencil)


LAPLACIAN_1D = system(LAPLACIAN)


def test_hierarchy_levels_for_laplacian():
    h = build_hierarchy(LAPLACIAN_1D, 7)
    assert [lv.m for lv in h.levels] == [7, 3, 1]
    assert h.levels[0].operator.stiff.bands == pytest.approx((2.0, -1.0))
    assert h.levels[1].operator.stiff.bands == pytest.approx((0.5, -0.25))
    assert h.levels[2].operator.stiff.bands == pytest.approx((0.125, -0.0625))
    assert [lv.diag for lv in h.levels] == pytest.approx([2.0, 0.5, 0.125])


def test_hierarchy_rejects_bad_grid():
    with pytest.raises(GridSizeError):
        build_hierarchy(LAPLACIAN_1D, 6)


def test_hierarchy_rejects_degenerate_stencil():
    with pytest.raises(EligibilityError):
        build_hierarchy(system(ToeplitzStencil((2.0, 1.0))), 7)


def test_geometric_hierarchy_levels_follow_rule():
    l0, mu = 1.3, 100.0
    for ndim in (1, 2):
        h = build_hierarchy(fk_operator(ndim, l0, mu), 31, strategy="geometric")
        assert h.strategy == "geometric"
        for d, lv in enumerate(h.levels):
            assert lv.operator == fk_operator(ndim, l0, mu / 4.0**d)


def test_smooth_zero_steps_is_identity():
    h = build_hierarchy(LAPLACIAN_1D, 7)
    v = np.arange(7.0)
    out = smooth(h.levels[0], v, np.zeros(7), 0.5, 0)
    assert np.array_equal(out, v)


@pytest.mark.parametrize("steps", [-1, -3])
def test_smooth_rejects_negative_steps(steps):
    # a negative count must not read as zero sweeps
    h = build_hierarchy(LAPLACIAN_1D, 7)
    with pytest.raises(ValueError):
        smooth(h.levels[0], np.arange(7.0), np.zeros(7), 0.5, steps)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_smoothing_weights_must_be_positive_and_finite(bad):
    # NaN compares False with everything, so it must not pass as a positive weight
    for kw in ("omega_pre", "omega_post"):
        with pytest.raises(ValueError, match=kw):
            build_hierarchy(LAPLACIAN_1D, 7, **{kw: bad})
    h = build_hierarchy(LAPLACIAN_1D, 7)
    with pytest.raises(ValueError, match="weight"):
        smooth(h.levels[0], np.arange(7.0), np.zeros(7), bad, 1)


@pytest.mark.parametrize("name, value", [("tol", np.nan), ("tol", 0.0), ("tol", -1e-8),
                                         ("max_iter", 0), ("max_iter", -2)])
def test_solve_rejects_bad_tolerance_and_cycle_cap(name, value):
    h = build_hierarchy(LAPLACIAN_1D, 7)
    with pytest.raises(ValueError, match=name):
        solve(h, np.ones(7), **{name: value})


def test_smooth_single_weighted_jacobi_step():
    h = build_hierarchy(LAPLACIAN_1D, 7)
    f = LAPLACIAN.apply(np.ones(7))
    out = smooth(h.levels[0], np.zeros(7), f, 0.5, 1)
    assert np.allclose(out, f / 4.0, rtol=1e-15)


def test_smooth_fixed_point():
    h = build_hierarchy(LAPLACIAN_1D, 7)
    x = np.sin(np.arange(1.0, 8.0))
    f = LAPLACIAN.apply(x)
    out = smooth(h.levels[0], x.copy(), f, 0.5, 3)
    assert np.allclose(out, x, rtol=1e-14)


def test_vcycle_zero_fixed_point():
    h = build_hierarchy(LAPLACIAN_1D, 7)
    out = vcycle(h, np.zeros(7), np.zeros(7))
    assert np.array_equal(out, np.zeros(7))


def test_solve_laplacian_consistency():
    h = build_hierarchy(LAPLACIAN_1D, 7)
    f = LAPLACIAN.apply(np.ones(7))
    x, report = solve(h, f, tol=1e-11)
    assert report.converged
    assert report.residuals[-1] < 1e-11
    assert np.allclose(x, np.ones(7), atol=1e-10)
    assert np.all(np.diff(report.residuals) <= 1e-12)


def test_solve_already_converged_initial_guess():
    h = build_hierarchy(LAPLACIAN_1D, 7)
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
    for h in (fk_hierarchy_1d(), build_hierarchy(LAPLACIAN_1D, 31)):
        c = measure_contraction(h, trials=3, iters=10)
        assert 0.0 < c < 1.0


@pytest.mark.parametrize("iters, discard", [(3, 3), (2, 3), (0, 0), (5, -1)])
def test_measure_contraction_rejects_an_empty_window(iters, discard):
    # no ratio after the discarded iterations would read as a perfect 0.0
    h = build_hierarchy(LAPLACIAN_1D, 7)
    with pytest.raises(ValueError):
        measure_contraction(h, iters=iters, discard=discard)


def test_diverging_cycle_measures_infinite_contraction():
    # a weight of 1e200 overflows the first iterate: the energy norm is no
    # longer finite, and the estimate must not read as a perfect 0.0
    h = build_hierarchy(LAPLACIAN_1D, 31, omega_pre=1e200, omega_post=1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        assert measure_contraction(h) == math.inf


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
    for post_count in (1, 2, 3):
        assert fk_hierarchy_1d(post_count=post_count).post_smooths == post_count - 1


def test_vcycle_can_start_at_a_sublevel():
    h = build_hierarchy(LAPLACIAN_1D, 15)
    rng = np.random.default_rng(15)
    f = rng.standard_normal(7)
    out = vcycle(h, np.zeros(7), f, level=1)
    sub = build_hierarchy(h.levels[1].operator, 7)
    assert np.allclose(out, vcycle(sub, np.zeros(7), f), rtol=1e-14)


def test_smooth_supports_complex_data_over_real_operator():
    h = build_hierarchy(LAPLACIAN_1D, 7)
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
    from mgfk.coarsen import closed_form_constants

    h = build_hierarchy(fk_operator(2, 2.0, 3.0), 31)
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
        h = build_hierarchy(system(ToeplitzStencil((a0, a1))), 127, omega_pre=0.5, omega_post=0.5)
        f = rng.standard_normal(127)
        _, report = solve(h, f, tol=1e-11, max_iter=400)
        assert report.converged, (a0, a1)
        assert np.all(np.diff(report.residuals) <= 1e-12)


def test_energy_norm_value():
    h = build_hierarchy(LAPLACIAN_1D, 7)
    e = np.ones(7)
    expected = np.sqrt(np.ones(7) @ toeplitz_dense(LAPLACIAN.bands, 7) @ np.ones(7))
    assert energy_norm(h.levels[0], e) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("ndim", [1, 2])
def test_energy_norm_applies_one_kept_kernel_per_dtype(ndim):
    # the same value as a one-shot apply, through a kernel made once per
    # level and dtype, whose pad cells stay zero between calls
    h = fk_hierarchy_1d() if ndim == 1 else fk_hierarchy_2d()
    lv = h.levels[1]
    rng = np.random.default_rng(21)
    for dtype, imag in ((float, 0.0), (complex, 1.0), (float, 0.0)):
        e = rng.standard_normal(lv.unknowns) + imag * 1j * rng.standard_normal(lv.unknowns)
        want = np.sqrt(max(np.vdot(e, lv.operator.apply(e)).real, 0.0))
        kernel = lv.kernel(dtype)
        assert energy_norm(lv, e) == want
        assert energy_norm(lv, e.reshape(lv.shape)) == want
        assert lv.kernel(dtype) is kernel
        assert not any(np.any(p) for p in kernel.pads(kernel.run))


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


def oracle_operator(ndim, intervals):
    """The nu = 2, alpha = 0.3 Feynman-Kac operator."""
    l0 = weights(0.3, 2, 0)[0]
    mu = mu_coefficient(1.0, 0.3, 1.0 / intervals, 1.0 / intervals)
    return fk_operator(ndim, l0, mu)


ORACLE_SIZES = {1: (32, 1024), 2: (16, 128)}
GRIDS = [(ndim, coarsening) for ndim in (1, 2) for coarsening in ("galerkin", "geometric")]
ORACLE_CASES = [
    *(pytest.param(ndim, coarsening, pre, 2, id=f"{ndim}-{coarsening}-{pre}")
      for ndim, coarsening in GRIDS for pre in (0, 1, 2)),
    *(pytest.param(ndim, coarsening, 1, post, id=f"{ndim}-{coarsening}-1-post{post}")
      for ndim, coarsening in GRIDS for post in (1, 3)),
]


@pytest.mark.parametrize("ndim, coarsening, pre_count, post_count", ORACLE_CASES)
def test_vcycle_zero_guess_matches_reference(ndim, coarsening, pre_count, post_count):
    # coarse levels skip the operator apply on their zero start, a residual
    # passed in spares the fine level one, and every level runs its part of
    # one prebuilt tape in place in its workspace, the apply through one
    # scaled copy per coefficient; the iterates must not move by a bit, real
    # or complex, up to 1D m = 1023 and 2D m = 127, for every smoothing count
    rng = np.random.default_rng(17)
    for intervals in ORACLE_SIZES[ndim]:
        h = build_hierarchy(oracle_operator(ndim, intervals), intervals - 1, coarsening,
                            pre_count=pre_count, post_count=post_count)
        n = h.fine.unknowns
        for imag in (0.0, 1.0):
            v = rng.standard_normal(n) + imag * 1j * rng.standard_normal(n)
            f = rng.standard_normal(n) + imag * 1j * rng.standard_normal(n)
            for start in (v, np.zeros_like(v)):
                x, ref = start, start
                for _ in range(3):
                    given = vcycle(h, x, f, r=f - h.fine.operator.apply(x))
                    x, ref = vcycle(h, x, f), reference_vcycle(h, ref, f)
                    assert x.dtype == ref.dtype
                    assert np.array_equal(x, ref)
                    assert np.array_equal(given, ref)


@pytest.mark.parametrize("ndim, coarsening", [(1, "galerkin"), (2, "geometric")])
def test_solve_matches_reference_cycles_bit_for_bit(ndim, coarsening):
    # the benchmark's sizes, 1D m = 1023 Galerkin and 2D m = 127 geometric,
    # complex data and a warm start near the solution, where the iterates sit
    # at the rounding floor: the solution and every relative residual equal
    # the oracle's
    intervals = 1024 if ndim == 1 else 128
    h = build_hierarchy(oracle_operator(ndim, intervals), intervals - 1, coarsening)
    n = h.fine.unknowns
    rng = np.random.default_rng(20)
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v0 = dst_solve(h.fine.operator, f) * (1.0 + 1e-4 * noise)
    x, report = solve(h, f, v0=v0, tol=1e-11)
    want, residuals = reference_solve(h, f, v0, tol=1e-11)
    assert report.converged
    assert report.residuals == residuals
    assert np.array_equal(x, want)


def _buffers(h, dtypes):
    """Every scratch array the hierarchy holds for these dtypes."""
    for dtype in dtypes:
        for ws in h.workspace(dtype):
            yield from (ws.apply.x, *ws.apply.scaled, ws.r_run, ws.rhs_run)


@pytest.mark.parametrize("ndim", [1, 2])
def test_workspaces_keep_no_state_between_calls_and_dtypes(ndim):
    # real -> complex -> real on one hierarchy: each call equals the same
    # call on a fresh hierarchy and the oracle, later calls leave its result
    # alone, and no result aliases a workspace buffer
    def build():
        build_ndim = fk_hierarchy_1d if ndim == 1 else fk_hierarchy_2d
        return build_ndim(intervals=64, strategy="geometric")

    h = build()
    shape = h.fine.shape
    rng = np.random.default_rng(18)
    real = rng.standard_normal(shape)
    cplx = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    kept = []
    for f in (real, cplx, real):
        v = reference_vcycle(h, np.zeros_like(f), f)
        calls = (
            lambda g: vcycle(g, None, f),
            lambda g: vcycle(g, v, f),
            lambda g: vcycle(g, v, f, r=f - g.fine.operator.apply(v)),
            lambda g: solve(g, f.ravel(), tol=1e-8)[0],
            lambda g: solve(g, f.ravel(), v0=v.ravel(), tol=1e-8)[0],
        )
        for call in calls:
            out = call(h)
            assert np.array_equal(out, call(build()))
            kept.append((out, out.copy()))
        assert np.array_equal(kept[-5][0], v)
        assert np.array_equal(kept[-4][0], reference_vcycle(h, v, f))
        residual = f.ravel() - h.fine.operator.apply(kept[-2][0])
        assert np.linalg.norm(residual) < 1e-8 * np.linalg.norm(f)
    for out, snapshot in kept:
        assert np.array_equal(out, snapshot)
        assert not any(np.shares_memory(out, buf) for buf in _buffers(h, (float, complex)))


def test_fine_vcycle_allocates_less_than_two_grids():
    # after the first cycle has made the workspace, one cycle on the 2D
    # m = 127 example-6.2 hierarchy allocates its result and little else
    import tracemalloc

    h = fk_hierarchy_2d(intervals=128, strategy="geometric")
    rng = np.random.default_rng(19)
    v, f = (rng.standard_normal(h.fine.shape) + 1j * rng.standard_normal(h.fine.shape)
            for _ in range(2))
    vcycle(h, v, f)
    tracemalloc.start()
    try:
        vcycle(h, v, f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * f.nbytes
