import re

import numpy as np
import pytest

from mgfk.analysis import (
    BoundReport,
    approx_constant_tridiag,
    check_contraction_bounds,
    check_smoother_bounds,
    coarsening_consistency,
    contraction_bound,
    format_reports,
    reports_to_json,
)
from mgfk.coarsen import closed_form_tridiag, fk_operator, mu_coefficient
from mgfk.errors import EligibilityError
from mgfk.fsd import weights
from mgfk.multigrid import build_hierarchy
from mgfk.stencil import IDENTITY, LAPLACIAN, KroneckerSum, lambda_max

from helpers import approx_constant_sweep, mu_decomposition, random_eligible_tridiag, split_ratio

LAPLACIAN_1D = KroneckerSum(1, c_mass=0.0, c_stiff=1.0, mass=IDENTITY, stiff=LAPLACIAN)


def test_m0_case_values():
    assert approx_constant_tridiag(2.0, -1.0) == 1.0
    assert approx_constant_tridiag(2.0, -0.5) == 16.0
    # a1 > 0 with a small level-one ratio falls back to the conservative 25
    assert approx_constant_tridiag(10 / 12, 1 / 12) == 25.0
    # a1 > 0 with the level-one ratio dominating
    assert approx_constant_tridiag(2.1, 1.0) == pytest.approx(4 * 2.1**2 / 0.1**2)


def test_m0_rejects_degenerate_boundary():
    with pytest.raises(EligibilityError):
        approx_constant_tridiag(2.0, 1.0)
    with pytest.raises(EligibilityError):
        approx_constant_tridiag(2.0, -1.5)


def test_sweep_agrees_where_case_is_attained():
    assert approx_constant_sweep(2.0, -1.0) == pytest.approx(1.0, abs=1e-12)
    assert approx_constant_sweep(3.0, -0.7) == pytest.approx(16.0, rel=1e-10)
    a0, a1 = 2.1, 1.0
    assert approx_constant_sweep(a0, a1) == pytest.approx(4 * a0**2 / (a0 - 2 * a1) ** 2, rel=1e-12)


def test_sweep_never_exceeds_case_value():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a0, a1 = random_eligible_tridiag(rng)
        case = approx_constant_tridiag(a0, a1)
        swept = approx_constant_sweep(a0, a1)
        assert swept <= case * (1 + 1e-9)


def test_split_ratio_monotone_convergence_in_depth():
    # the sweep horizon of 64 levels over-covers: by then the ratio has
    # settled to its limit for every eligible stencil
    rng = np.random.default_rng(1)
    for _ in range(50):
        a0, a1 = random_eligible_tridiag(rng)
        r63, r64 = split_ratio(a0, a1, 63), split_ratio(a0, a1, 64)
        assert r64 == pytest.approx(r63, rel=1e-9)


def test_mu_decomposition_examples():
    mu1, mu2 = mu_decomposition(2.0, -1.0, 5)
    assert mu2 == 0.0
    assert mu1 > 0.0
    assert mu_decomposition(2.0, 1.0, 2) == pytest.approx((0.25, 1.0))
    a0, a1 = 3.0, 0.7
    assert mu_decomposition(a0, a1, 1) == pytest.approx(((a0 - 2 * a1) / 4, (a0 + 2 * a1) / 4))


def test_mu_decomposition_reconstructs_coarse_bands():
    rng = np.random.default_rng(2)
    for _ in range(40):
        a0, a1 = random_eligible_tridiag(rng)
        for k in range(1, 7):
            mu1, mu2 = mu_decomposition(a0, a1, k)
            assert mu1 > 0.0 and mu2 >= -1e-15
            bands = closed_form_tridiag(a0, a1, k).bands
            scale = max(abs(bands[0]), abs(bands[1]), 1e-300)
            assert 2 * mu1 + 2 * mu2 == pytest.approx(bands[0], abs=1e-14 * max(scale, 1))
            assert mu2 - mu1 == pytest.approx(bands[1], abs=1e-14 * max(scale, 1))


def test_contraction_bound_formula():
    assert contraction_bound(16.0, 1, 0.5) == pytest.approx(16.0 / 17.0)
    assert contraction_bound(1536.0, 1, 0.25) == pytest.approx(1536.0 / 1536.5)
    assert contraction_bound(1.0, 1, 0.5) == pytest.approx(0.5)


def test_smoother_bounds_1d_laplacian_hierarchy():
    reports = check_smoother_bounds(build_hierarchy(LAPLACIAN_1D, 63))
    assert reports and all(r.satisfied for r in reports)
    uppers = [r for r in reports if r.quantity.endswith("< 2")]
    assert {r.context["level"] for r in uppers} == set(range(6))
    for r in uppers:
        assert 1.0 <= r.measured < 2.0


def test_identity_operator_unit_ratio():
    est = lambda_max(IDENTITY, 17)
    assert est / IDENTITY.diagonal == pytest.approx(1.0, abs=1e-12)


def test_smoother_bounds_1d_model_hierarchy():
    # the eta refinement holds in every dimension, with bound 2**ndim
    op = KroneckerSum(1, c_mass=1.0, c_stiff=1.0, mass=IDENTITY, stiff=LAPLACIAN)
    reports = check_smoother_bounds(build_hierarchy(op, 15))
    assert all(r.satisfied for r in reports)
    etas = [r for r in reports if r.quantity == "eta1/eta2 < 2"]
    assert len(etas) == 4 and all(r.measured < 2.0 for r in etas)


def test_smoother_bounds_2d_model_hierarchy():
    op = fk_operator(2, 1.0, 1.0)
    reports = check_smoother_bounds(build_hierarchy(op, 15))
    assert all(r.satisfied for r in reports)
    etas = [r for r in reports if "eta" in r.quantity]
    assert etas, "expected eta refinements for the 2D model operator"
    for r in etas:
        if r.quantity.startswith("eta"):
            assert r.measured < 4.0


def test_smoother_bounds_use_the_exact_spectrum():
    # lambda_max per level is the top of the sine symbol, not an estimate
    h = build_hierarchy(fk_operator(2, 1.3, 50.0), 31)
    uppers = [r for r in check_smoother_bounds(h) if r.quantity == "lambda_max(D^-1 A) < 4"]
    for r, lv in zip(uppers, h.levels):
        assert r.measured == lv.operator.eigenvalues(lv.m).max() / lv.diag


def test_contraction_bound_fk_1d():
    l0 = weights(0.3, 4, 0)[0]
    mu = mu_coefficient(1.0, 0.3, 1 / 32, 1 / 32)
    h = build_hierarchy(fk_operator(1, l0, mu), 31, omega_pre=0.5, omega_post=0.5)
    report = check_contraction_bounds(h, 16.0)
    assert report.bound == pytest.approx(16.0 / 17.0)
    assert report.satisfied
    assert report.context["in_theory_range"]


def test_contraction_bound_fk_2d():
    l0 = weights(0.3, 2, 0)[0]
    mu = mu_coefficient(1.0, 0.3, 1 / 16, 1 / 16)
    h = build_hierarchy(fk_operator(2, l0, mu), 15, omega_pre=0.25, omega_post=0.25)
    report = check_contraction_bounds(h, 1536.0)
    assert report.bound == pytest.approx(1536.0 / 1536.5)
    assert report.satisfied


def test_contraction_bound_laplacian():
    h = build_hierarchy(LAPLACIAN_1D, 31, omega_pre=0.5, omega_post=0.5)
    report = check_contraction_bounds(h, approx_constant_tridiag(2.0, -1.0))
    assert report.bound == pytest.approx(0.5)
    assert report.satisfied


def test_out_of_range_weight_is_flagged_not_raised():
    h = build_hierarchy(LAPLACIAN_1D, 31, omega_pre=0.9, omega_post=0.9)
    report = check_contraction_bounds(h, 1.0)
    assert report.context["in_theory_range"] is False


def test_mismatched_weights_rejected():
    h = build_hierarchy(LAPLACIAN_1D, 31, omega_pre=1.0, omega_post=0.5)
    with pytest.raises(ValueError):
        check_contraction_bounds(h, 1.0)


@pytest.mark.parametrize("counts", [(0, 1), (1, 1), (2, 2), (1, 3)])
def test_smoothing_the_bound_does_not_cover_is_rejected(counts):
    # l = 1 stands for one pre- and one post-smoothing sweep, (m1, m2) = (1, 2)
    h = build_hierarchy(LAPLACIAN_1D, 31, omega_pre=0.5, omega_post=0.5,
                        pre_count=counts[0], post_count=counts[1])
    with pytest.raises(ValueError, match=re.escape(f"(m1, m2) = (1, 2), got {counts}")):
        check_contraction_bounds(h, 1.0)


def test_bound_report_semantics_and_serialisation():
    good = BoundReport("q", 1.0, 0.5)
    bad = BoundReport("q", 1.0, 1.5, context={"level": 0})
    assert good.satisfied and not bad.satisfied
    text = format_reports([good, bad])
    assert "VIOLATED" in text and "ok" in text
    payload = reports_to_json([good, bad])
    import json

    rows = json.loads(payload)
    assert rows[1]["satisfied"] is False


def test_coarsening_consistency_report():
    report = coarsening_consistency(samples=30, seed=3)
    assert report.satisfied
    assert report.measured <= 1e-12
