import math
import os

import numpy as np
import pytest

from mgfk import executor, multigrid
from mgfk.coarsen import fk_operator, mu_coefficient
from mgfk.errors import DimensionError, EligibilityError, GridSizeError, MgfkError
from mgfk.feynman_kac import preset
from mgfk.fsd import weights
from mgfk.multigrid import (
    LevelWork,
    build_hierarchy,
    measure_contraction,
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
    on_the_oracle,
    prolongation_matrix,
    reference_contraction,
    reference_solve,
    reference_vcycle,
    restriction_matrix,
    run_numpy,
)


def fk_hierarchy_1d(alpha=0.3, nu=4, intervals=32, **kwargs):
    l0 = weights(alpha, nu, 0)[0]
    mu = mu_coefficient(1.0, alpha, 1.0 / intervals, 1.0 / intervals)
    return build_hierarchy(fk_operator(1, l0, mu), intervals - 1, **kwargs)


def fk_hierarchy_2d(alpha=0.3, nu=2, intervals=16, **kwargs):
    l0 = weights(alpha, nu, 0)[0]
    mu = mu_coefficient(1.0, alpha, 1.0 / intervals, 1.0 / intervals)
    return build_hierarchy(fk_operator(2, l0, mu), intervals - 1, **kwargs)


def sweeps(level, v, f, weight, steps):
    """``steps`` damped-Jacobi sweeps with ``weight`` on ``level`` from
    ``v``: the kernels of a one-level, one-part tape of their dtype, run by
    the numpy reference."""
    (work,) = multigrid._levels((level,), 1, np.result_type(v, f))
    work.v[0], work.rhs[0] = v, f
    run_numpy(work.sweep(weight) * steps)
    return work.v[0]


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


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_smoothing_weights_must_be_positive_and_finite(bad):
    # NaN compares False with everything, so it must not pass as a positive weight
    for kw in ("omega_pre", "omega_post"):
        with pytest.raises(ValueError, match=kw):
            build_hierarchy(LAPLACIAN_1D, 7, **{kw: bad})


@pytest.mark.parametrize("counts, message", [({"pre_count": 1.5}, "pre_count must be an integer"),
                                             ({"post_count": 2.5}, "post_count must be an integer"),
                                             ({"pre_count": True}, "pre_count must be an integer"),
                                             ({"post_count": True}, "post_count must be an integer"),
                                             ({"pre_count": -1}, "m1 >= 0"), ({"post_count": 0}, "m2 >= 1")])
def test_hierarchy_rejects_bad_smoothing_counts(counts, message, monkeypatch):
    # refused before any level is built: a float count used to build and
    # then fail the first cycle with a bare TypeError, and True ran as 1
    monkeypatch.setattr(multigrid, "require_spd_eligible", None)
    with pytest.raises(ValueError, match=message):
        build_hierarchy(LAPLACIAN_1D, 7, **counts)


def test_hierarchy_takes_numpy_integer_smoothing_counts():
    f = np.ones(7)
    h = build_hierarchy(LAPLACIAN_1D, 7, pre_count=np.int64(1), post_count=np.int64(2))
    assert np.array_equal(vcycle(h, np.zeros(7), f), vcycle(build_hierarchy(LAPLACIAN_1D, 7), np.zeros(7), f))


@pytest.mark.parametrize("name, value", [("tol", np.nan), ("tol", 0.0), ("tol", -1e-8), ("tol", np.inf),
                                         ("tol", 1.0), ("tol", 1e300),
                                         ("max_iter", 0), ("max_iter", -2),
                                         ("max_iter", True), ("max_iter", 2.5)])
def test_solve_rejects_bad_tolerance_and_cycle_cap(name, value):
    # refused before anything is made or loaded: the cap crosses into the
    # executor as an int64, where True had run one cycle
    h = build_hierarchy(LAPLACIAN_1D, 7)
    with pytest.raises(ValueError, match=name):
        solve(h, np.ones(7), **{name: value})
    assert not h._tapes


def test_solve_takes_a_numpy_integer_cycle_cap():
    h = fk_hierarchy_1d()
    f = np.random.default_rng(0).standard_normal(31)
    _, report = solve(h, f, tol=1e-11, max_iter=np.int64(3))
    assert (report.iterations, report.converged, len(report.residuals)) == (3, False, 3)


def test_smooth_single_weighted_jacobi_step():
    h = build_hierarchy(LAPLACIAN_1D, 7)
    f = LAPLACIAN.apply(np.ones(7))
    out = sweeps(h.levels[0], np.zeros(7), f, 0.5, 1)
    assert np.allclose(out, f / 4.0, rtol=1e-15)


def test_smooth_fixed_point():
    h = build_hierarchy(LAPLACIAN_1D, 7)
    x = np.sin(np.arange(1.0, 8.0))
    f = LAPLACIAN.apply(x)
    out = sweeps(h.levels[0], x, f, 0.5, 3)
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


@pytest.mark.parametrize("f_shape, v_shape", [
    ((7, 7), (49,)), ((7, 7), (7, 8)), ((7, 7), (48,)), ((49,), (7, 7)), ((49,), (48,)),
])
def test_vcycle_rejects_misshapen_iterate(f_shape, v_shape):
    # v must have the shape of f, grid or flat, and fail at entry, not in numpy
    h = build_hierarchy(KroneckerSum(2, 1.0, 1.0, IDENTITY, LAPLACIAN), 7)
    with pytest.raises(DimensionError):
        vcycle(h, np.zeros(v_shape), np.ones(f_shape))


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


@pytest.mark.parametrize("iters", [3, 2, 0])
def test_measure_contraction_rejects_an_empty_window(iters):
    # no ratio after the 3 discarded iterations would read as a perfect 0.0
    h = build_hierarchy(LAPLACIAN_1D, 7)
    with pytest.raises(ValueError):
        measure_contraction(h, iters=iters)


@pytest.mark.parametrize("count", ["trials", "iters"])
def test_measure_contraction_takes_integer_counts_only(count):
    # a float, a bool or a string count is refused, as solve refuses a
    # max_iter that is not an integer; numpy integers are taken
    h = build_hierarchy(LAPLACIAN_1D, 7)
    for value in (2.5, True, 8.0, "8"):
        with pytest.raises(ValueError, match=f"{count} must be an integer"):
            measure_contraction(h, **{count: value})
    assert measure_contraction(h, **{count: np.int64(5)}) == measure_contraction(h, **{count: 5})


def test_a_tape_past_physical_memory_is_refused_before_its_arena(monkeypatch):
    # the arena of the 2D m = 15 float tape is 12,688 bytes: on a machine
    # of three 4 KiB pages the tape is refused and none is kept
    h = build_hierarchy(fk_operator(2, 1.3, 40.0), 15)
    sysconf = os.sysconf
    memory = {"SC_PHYS_PAGES": 3, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sysconf", lambda name: memory.get(name) or sysconf(name))
    with pytest.raises(MgfkError, match="a tape's arena needs 12688 bytes, more than the 12288 bytes"):
        solve(h, np.ones(h.fine.unknowns))
    assert h._tapes == {}


def test_diverging_cycle_measures_infinite_contraction():
    # a weight of 1e200 overflows the first iterate: the energy norm is no
    # longer finite, and the estimate must not read as a perfect 0.0; the
    # executor raises no floating-point warning, which pytest would make an
    # error
    h = build_hierarchy(LAPLACIAN_1D, 31, omega_pre=1e200, omega_post=1e200)
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


def test_smooth_supports_complex_data_over_real_operator():
    h = build_hierarchy(LAPLACIAN_1D, 7)
    rng = np.random.default_rng(16)
    v = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    f = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    out = sweeps(h.levels[0], v, f, 0.5, 2)
    re = sweeps(h.levels[0], v.real, f.real, 0.5, 2)
    im = sweeps(h.levels[0], v.imag, f.imag, 0.5, 2)
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


def test_solve_stops_when_an_iterate_turns_non_finite():
    # finite r0, then a V-cycle whose weight of 1e200 overflows the iterate
    # to inf and its residual to nan: the loop must stop after it, with no
    # floating-point warning
    h = fk_hierarchy_1d(intervals=32, omega_pre=1e200, omega_post=1e200)
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


def on_both_runners(cases):
    """Each case with the tapes run by the executor (under its own id) and
    by the test oracle ``run_numpy`` (id + "-numpy", ``on_the_oracle``),
    which the executor's records match and these tests hold to the
    references too."""
    cases = list(cases)
    return [
        pytest.param(*case.values, runner, id=case.id + suffix)
        for runner, suffix in (("compiled", ""), ("numpy", "-numpy"))
        for case in cases
    ]


def hierarchy(runner, *args, **kwargs):
    """``build_hierarchy(*args, **kwargs)``, its tapes run by ``runner``."""
    h = build_hierarchy(*args, **kwargs)
    if runner == "numpy":
        on_the_oracle(h)
    return h


@pytest.mark.parametrize("ndim, coarsening, pre_count, post_count, runner", on_both_runners(ORACLE_CASES))
def test_vcycle_zero_guess_matches_reference(ndim, coarsening, pre_count, post_count, runner):
    # coarse levels skip the operator apply on their zero start, the fine
    # level cycles from the residual it has formed, and every level runs its
    # part of one prebuilt tape in place in its buffers, the residual as
    # one kernel over the operator's points; the iterates must not move by a bit,
    # real or complex, up to 1D m = 1023 and 2D m = 127, for every smoothing
    # count, run by the executor or by the oracle
    rng = np.random.default_rng(17)
    for intervals in ORACLE_SIZES[ndim]:
        h = hierarchy(runner, oracle_operator(ndim, intervals), intervals - 1, coarsening,
                      pre_count=pre_count, post_count=post_count)
        n = h.fine.unknowns
        for imag in (0.0, 1.0):
            v = rng.standard_normal(n) + imag * 1j * rng.standard_normal(n)
            f = rng.standard_normal(n) + imag * 1j * rng.standard_normal(n)
            for start in (v, np.zeros_like(v)):
                x, ref = start, start
                for _ in range(3):
                    x, ref = vcycle(h, x, f), reference_vcycle(h, ref, f)
                    assert x.dtype == ref.dtype
                    assert np.array_equal(x, ref)


@pytest.mark.parametrize("ndim, coarsening, pre_count, runner", on_both_runners(
    pytest.param(ndim, coarsening, pre, id=f"{pre}-{ndim}-{coarsening}")
    for pre in (0, 1) for ndim, coarsening in GRIDS))
def test_contraction_estimate_matches_reference(ndim, coarsening, pre_count, runner):
    # the energy norm read from the residual r = -A e that starts each cycle
    # equals sqrt((A e, e)) of a fresh apply, and the in-place cycles equal
    # the oracle's: the estimate must not move by a bit, the cycles run by
    # the executor or by the oracle
    for intervals in {1: (32, 128), 2: (16, 32)}[ndim]:
        h = hierarchy(runner, oracle_operator(ndim, intervals), intervals - 1, coarsening,
                      pre_count=pre_count)
        assert measure_contraction(h) == reference_contraction(h)


@pytest.mark.parametrize("ndim, coarsening, runner", on_both_runners(
    pytest.param(ndim, coarsening, id=f"{ndim}-{coarsening}")
    for ndim, coarsening in [(1, "galerkin"), (2, "geometric")]))
def test_solve_matches_reference_cycles_bit_for_bit(ndim, coarsening, runner):
    # the benchmark's sizes, 1D m = 1023 Galerkin and 2D m = 127 geometric,
    # complex data and a warm start near the solution, where the iterates sit
    # at the rounding floor: the solution and every relative residual equal
    # the reference's, solved by the executor or by the oracle
    intervals = 1024 if ndim == 1 else 128
    h = hierarchy(runner, oracle_operator(ndim, intervals), intervals - 1, coarsening)
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
    """Every scratch array the hierarchy holds for these dtypes: the level
    runs of each tape."""
    for dtype in dtypes:
        for ws in h.tape(dtype).work:
            yield from ws.runs


@pytest.mark.parametrize("ndim", [1, 2])
def test_workspaces_keep_no_state_between_calls_and_dtypes(ndim):
    # real -> complex -> real on one hierarchy: each call equals the same
    # call on a fresh hierarchy and the oracle, leaves its f and v (or v0)
    # as they were, later calls leave its result alone, and no result
    # aliases a tape buffer
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
        given = (f.copy(), v.copy())
        calls = (
            lambda g: vcycle(g, None, f),
            lambda g: vcycle(g, v, f),
            lambda g: solve(g, f.ravel(), tol=1e-8)[0],
            lambda g: solve(g, f.ravel(), v0=v.ravel(), tol=1e-8)[0],
        )
        for call in calls:
            out = call(h)
            assert np.array_equal(f, given[0]) and np.array_equal(v, given[1])
            assert np.array_equal(out, call(build()))
            kept.append((out, out.copy()))
        assert np.array_equal(kept[-4][0], v)
        assert np.array_equal(kept[-3][0], reference_vcycle(h, v, f))
        residual = f.ravel() - h.fine.operator.apply(kept[-2][0])
        assert np.linalg.norm(residual) < 1e-8 * np.linalg.norm(f)
    for out, snapshot in kept:
        assert np.array_equal(out, snapshot)
        assert not any(np.shares_memory(out, buf) for buf in _buffers(h, (float, complex)))


def test_fine_vcycle_allocates_less_than_two_grids():
    # after the first cycle has made the tape, one cycle on the 2D
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


def fk_system(name, alpha, nu, intervals):
    """The system operator of a time step of preset ``name``."""
    p = preset(name, alpha, intervals)
    return fk_operator(p.ndim, weights(alpha, nu, 0)[0], mu_coefficient(p.kappa, p.alpha, p.tau, p.h))


#: The hierarchies of the benchmark's fk workloads at their --smoke sizes,
#: as fine operator, size and coarsening: fk1d-history at M = 32 and
#: fk2d-vcycle at M = 16.
SMOKE = {
    "fk1d-history": (fk_system("example-6.1", 0.3, 4, 32), 31, "galerkin"),
    "fk2d-vcycle": (fk_system("example-6.2", 0.3, 2, 16), 15, "geometric"),
}


def arena_runs(h, dtype) -> list:
    """Every run of every level of the ``dtype`` tape of ``h``, finest first."""
    return [run for ws in h.tape(dtype).work for run in ws.runs]


@pytest.mark.parametrize("ndim", [1, 2])
def test_every_run_of_a_tape_is_a_view_of_its_one_arena(ndim):
    # one allocation per tape, float64 or complex128: every run of every
    # level, the 2D transfers' row buffers among them (one per level with a
    # coarse neighbour), and every array the tape's kernels touch is a view
    # of the tape's arena; no two runs overlap, and the two tapes of one
    # hierarchy share nothing
    h = build_hierarchy(fk_operator(ndim, 1.3, 17.0 * 32), 31)
    arenas = []
    for dtype in (float, complex):
        runs = arena_runs(h, dtype)
        assert len(runs) == 3 * h.depth + (h.depth - 1 if ndim == 2 else 0)
        arena = runs[0].base
        assert arena.base is None and arena.dtype == np.float64
        assert all(run.base is arena and run.ndim == 1 for run in runs)
        assert all(not np.shares_memory(a, b) for i, a in enumerate(runs) for b in runs[i + 1 :])
        work = h.tape(dtype).work
        kernels = [k for ws in work for k in (*ws.sweep(1.0), ws.restrict, ws.prolong) if k is not None]
        arrays = (x for k in kernels for x in (k.out, k.a, k.b, *(w for w, _ in k.taps)))
        assert all(x.base is arena for x in arrays if x is not None)
        arenas.append(arena)
    assert not np.shares_memory(*arenas)


#: What ``test_a_cycle_writes_only_inside_its_runs`` leaves in the arena
#: cells outside the runs: the bits of a NaN no kernel makes.
SENTINEL = np.int64(0x7FF0DEADBEEF0001)


@pytest.mark.parametrize("ndim, m, runner", on_both_runners(
    pytest.param(ndim, m, id=f"{ndim}d") for ndim, m in ((1, 63), (2, 31))))
def test_a_cycle_writes_only_inside_its_runs(ndim, m, runner):
    # every cell of a tape's arena outside its runs (the alignment slack
    # before, between and after them) holds a sentinel; cycles from warm and
    # zero starts and a solve, on real and complex data, each tape one
    # arena, through every level down to 2D m = 3, whose row buffer is
    # three cells for real data and seven for complex, leave each one as it was:
    # an overrun that stays inside the arena, which no address sanitizer
    # sees, would change one; run by the executor or by the oracle
    h = hierarchy(runner, fk_operator(ndim, 1.3, 17.0 * 32), m)
    rng = np.random.default_rng(25)
    for dtype in (float, complex):
        runs = arena_runs(h, dtype)
        arena = runs[0].base
        outside = np.ones(arena.size, bool)
        for run in runs:
            start = (executor._at(run) - executor._at(arena)) // arena.itemsize
            outside[start : start + run.size] = False
        cells = arena.view(np.int64)
        cells[outside] = SENTINEL
        assert outside.sum() > len(h.levels)
        f = rng.standard_normal(h.fine.unknowns) * (1.0 + 2.0j if dtype is complex else 1.0)
        vcycle(h, f, f)
        vcycle(h, None, f)
        assert solve(h, f, tol=1e-10)[1].converged
        assert np.all(cells[outside] == SENTINEL)


@pytest.mark.parametrize("ndim", [1, 2])
def test_runs_are_zero_when_built_and_sit_at_the_chosen_alignment(ndim):
    # every cell of every run, pad and frame cells included, is zero before
    # a first cycle; the aligned cell of a run of at least a page (the
    # iterate's origin, else the first cell) sits _STAGGER bytes times the
    # runs before it past a page boundary, that of a shorter run on a cache
    # line
    h = build_hierarchy(fk_operator(ndim, 1.3, 17.0 * 32), 1023 if ndim == 1 else 127)
    pages = 0
    for dtype, parts in ((float, 1), (complex, 2)):
        work = h.tape(dtype).work
        runs = [(run, cell) for ws in work
                for run, (_, cell) in zip(ws.runs, LevelWork.layout(ws.shape, parts, ws is not work[-1]))]
        for i, (run, cell) in enumerate(runs):
            assert not np.any(run)
            at = run[cell:].__array_interface__["data"][0]
            if run.nbytes >= multigrid._PAGE:
                pages += 1
                assert at % multigrid._PAGE == i * multigrid._STAGGER % multigrid._PAGE
            else:
                assert at % multigrid._LINE == 0
    assert pages >= 6


@pytest.mark.parametrize("workload", list(SMOKE))
def test_smoke_hierarchies_cycle_to_the_same_bits_after_any_heap_layout(workload):
    # the arena fixes where every run sits, whatever was allocated before
    # it: built after dummy allocations of several sizes, the hierarchy
    # cycles and solves to the same bits from warm and zero starts, on real
    # and complex data, its cycles those of the oracle
    def outcome(dummy):
        junk = np.ones(dummy // 8)
        h = build_hierarchy(*SMOKE[workload])
        rng = np.random.default_rng(21)
        n = h.fine.unknowns
        out = []
        for f in (rng.standard_normal(n), rng.standard_normal(n) + 1j * rng.standard_normal(n)):
            x, report = solve(h, f)
            out += [vcycle(h, f, f).tobytes(), vcycle(h, None, f).tobytes(), x.tobytes(), report.residuals]
        del junk
        return out

    dummies = (0, 8, 24, 1000, 3600, 70000)
    compiled = [outcome(dummy) for dummy in dummies]
    assert all(got == compiled[0] for got in compiled)
    h = build_hierarchy(*SMOKE[workload])
    rng, n, oracle = np.random.default_rng(21), h.fine.unknowns, []
    for f in (rng.standard_normal(n), rng.standard_normal(n) + 1j * rng.standard_normal(n)):
        x, residuals = reference_solve(h, f, None, 1e-11)
        oracle += [reference_vcycle(h, f, f).tobytes(), reference_vcycle(h, np.zeros_like(f), f).tobytes(),
                   x.tobytes(), residuals]
    assert compiled[0] == oracle
