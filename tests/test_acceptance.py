"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Reference values are the benchmark convergence tables; tolerances are fixed
here and nowhere else.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np

from mgfk.analysis import check_smoother_bounds, contraction_bound
from mgfk.coarsen import (
    closed_form_tridiag,
    coefficient_table,
    fk_operator_2d,
    fk_stencil_1d,
    galerkin_step,
    mu_coefficient,
)
from mgfk.feynman_kac import Evolution, preset
from mgfk.fsd import generating_poly, weights
from mgfk.multigrid import build_hierarchy, measure_contraction, solve
from mgfk.stencil import ToeplitzStencil
from mgfk.transfer import prolong_1d, prolong_2d, restrict_1d, restrict_2d

from helpers import (
    binomial_weights,
    dense_contraction_norm,
    dense_galerkin,
    naive_series_power,
    random_eligible_tridiag,
    toeplitz_dense,
    unscaled_recursion,
)

TABLE_1 = {  # Galerkin coarsening: error by (alpha, intervals), mean cycles
    0.3: {32: 4.2225e-07, 64: 2.6394e-08, 128: 1.6494e-09, 256: 1.0381e-10},
    0.8: {32: 1.3008e-06, 64: 8.1345e-08, 128: 5.0850e-09, 256: 3.1723e-10},
}
TABLE_2 = {  # geometric coarsening
    0.3: {32: 4.2225e-07, 64: 2.6394e-08, 128: 1.6498e-09, 256: 1.0396e-10},
    0.8: {32: 1.3008e-06, 64: 8.1345e-08, 128: 5.0851e-09, 256: 3.1730e-10},
}
# Known mismatch: these 2D reference errors sit a clean c * tau**3 above what
# the discretisation produces (fitted c ~ 1.0 at alpha=0.3, ~1.25 at 0.8, all
# rows), i.e. the reference run contained an extra third-order temporal
# component.  A faithful run therefore lands 9-17% below the first two rows
# (slightly better accuracy, plain second-order rates) and within 5% at
# M=2**6; iteration counts agree throughout.
TABLE_3 = {
    0.3: {"errors": {16: 1.4647e-03, 32: 3.3496e-04, 64: 8.0048e-05},
          "rates": {32: 2.1285, 64: 2.0650},
          "iters": {16: 17, 32: 17, 64: 18}},
    0.8: {"errors": {16: 2.0068e-03, 32: 4.6874e-04, 64: 1.1340e-04},
          "rates": {32: 2.0980, 64: 2.0470},
          "iters": {16: 16, 32: 16, 64: 15}},
}

_cache = {}


def run_1d(alpha, intervals, strategy):
    key = ("1d", alpha, intervals, strategy)
    if key not in _cache:
        ev = Evolution(
            preset("example-6.1", alpha, intervals), order=4,
            solver="mgm", coarsening=strategy, tol=1e-11,
        ).run()
        _cache[key] = (ev.max_error(), ev.avg_iterations)
    return _cache[key]


def run_2d(alpha, intervals):
    key = ("2d", alpha, intervals)
    if key not in _cache:
        ev = Evolution(
            preset("example-6.2", alpha, intervals), order=2,
            solver="mgm", coarsening="geometric", tol=1e-7,
        ).run()
        _cache[key] = (ev.max_error(), ev.avg_iterations)
    return _cache[key]


def report(n, failures, detail=""):
    status = "PASS" if not failures else "FAIL"
    print(f"\n[acceptance] criterion {n}: {status} {detail}")
    assert not failures, f"criterion {n}:\n" + "\n".join(failures)


def _check_1d_table(strategy, table, failures):
    for alpha, cells in table.items():
        prev = None
        for intervals, expected in cells.items():
            err, iters = run_1d(alpha, intervals, strategy)
            if abs(err - expected) > 0.05 * expected:
                failures.append(
                    f"{strategy} alpha={alpha} M={intervals}: error {err:.4e} "
                    f"vs {expected:.4e} (>5%)"
                )
            if prev is not None:
                rate = np.log2(prev / err)
                if abs(rate - 4.0) > 0.1:
                    failures.append(
                        f"{strategy} alpha={alpha} M={intervals}: rate {rate:.4f} not 4+-0.1"
                    )
            if abs(iters - 10) > 3:
                failures.append(
                    f"{strategy} alpha={alpha} M={intervals}: iters {iters:.1f} not 10+-3"
                )
            prev = err


def test_criterion_1_table_1_galerkin():
    t0 = time.perf_counter()
    failures = []
    _check_1d_table("galerkin", TABLE_1, failures)
    elapsed = time.perf_counter() - t0
    if elapsed > 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    report(1, failures, f"(Galerkin sweep, {elapsed:.1f}s)")


def test_criterion_2_table_2_geometric():
    t0 = time.perf_counter()
    failures = []
    _check_1d_table("geometric", TABLE_2, failures)
    for alpha in TABLE_2:
        for intervals in TABLE_2[alpha]:
            gal, _ = run_1d(alpha, intervals, "galerkin")
            geo, _ = run_1d(alpha, intervals, "geometric")
            if abs(gal - geo) > 0.005 * gal:
                failures.append(
                    f"alpha={alpha} M={intervals}: galerkin {gal:.4e} vs geometric "
                    f"{geo:.4e} differ by more than 0.5%"
                )
    report(2, failures, f"(geometric sweep, {time.perf_counter() - t0:.1f}s)")


def test_criterion_3_table_3_2d():
    t0 = time.perf_counter()
    failures = []
    for alpha, ref in TABLE_3.items():
        prev = None
        for intervals, expected in ref["errors"].items():
            err, iters = run_2d(alpha, intervals)
            if abs(err - expected) > 0.05 * expected:
                failures.append(
                    f"alpha={alpha} M={intervals}: error {err:.4e} vs {expected:.4e} (>5%)"
                )
            if prev is not None:
                rate = np.log2(prev / err)
                printed = ref["rates"][intervals]
                if abs(rate - printed) > 0.1:
                    failures.append(
                        f"alpha={alpha} M={intervals}: rate {rate:.4f} vs printed {printed}"
                    )
            if abs(iters - ref["iters"][intervals]) > 3:
                failures.append(
                    f"alpha={alpha} M={intervals}: iters {iters:.1f} vs {ref['iters'][intervals]}+-3"
                )
            prev = err
    report(3, failures, f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_4_coarsening_oracle_equivalence():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        a0, a1 = random_eligible_tridiag(rng)
        stepped = ToeplitzStencil((a0, a1))
        dense = toeplitz_dense((a0, a1), 127)
        for k in range(2, 7):
            stepped = galerkin_step(stepped)
            dense = dense_galerkin(dense)
            closed = closed_form_tridiag(a0, a1, k)
            scale = max(abs(v) for v in closed.bands)
            gap = max(
                abs(stepped.bands[0] - closed.bands[0]),
                abs(stepped.bands[1] - closed.bands[1]),
            ) / scale
            m = dense.shape[0]
            gap = max(gap, np.abs(dense - toeplitz_dense(closed.bands, m)).max() / scale)
            worst = max(worst, gap)
    if worst > 1e-12:
        failures.append(f"recursion/closed-form/dense mismatch: rel err {worst:.2e}")

    rng2 = np.random.default_rng(7)
    for k in range(2, 7):
        width = (2**k + 2) * 2 ** (k - 1) + 4
        fine = [int(x) for x in rng2.integers(-9, 10, size=width)]
        expected = unscaled_recursion(fine, k - 1)
        for j in range(2**k + 1):
            lo, coeffs = coefficient_table(j, k)
            acc = sum(c * fine[m] for m, c in zip(range(lo, lo + len(coeffs)), coeffs))
            want = expected[j] if j < len(expected) else 0
            if acc != want:
                failures.append(f"coefficient table mismatch at k={k}, j={j}")
                break
    elapsed = time.perf_counter() - t0
    if elapsed > 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    report(4, failures, f"(worst rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_5_spectral_bounds():
    failures = []
    rng = np.random.default_rng(11)
    for trial in range(12):
        a0, a1 = random_eligible_tridiag(rng)
        h = build_hierarchy(ToeplitzStencil((a0, a1)), 255)
        for r in check_smoother_bounds(h):
            if not r.satisfied:
                failures.append(f"1D ({a0:.3f},{a1:.3f}): {r.quantity} measured {r.measured}")
    for c1, c2 in ((0.0, 1.0), (1.0, 1.0), (3.0, 0.2), (0.5, 120.0)):
        h = build_hierarchy(fk_operator_2d(c1, c2), 15)
        for r in check_smoother_bounds(h):
            if not r.satisfied:
                failures.append(f"2D (c1={c1}, c2={c2}): {r.quantity} measured {r.measured}")
    report(5, failures)


def test_criterion_6_contraction_bounds():
    failures = []
    l0 = weights(0.3, 4, 0)[0]
    mu = mu_coefficient(1.0, 0.3, 1 / 32, 1 / 32)
    h1 = build_hierarchy(fk_stencil_1d(l0, mu), 31, omega_pre=0.5, omega_post=0.5)
    measured_1d = measure_contraction(h1, trials=6, iters=25, monotone_slack=1e-12)
    bound_1d = contraction_bound(16.0, 1, 0.5)
    if measured_1d > bound_1d:
        failures.append(f"1D contraction {measured_1d:.4f} above 16/17 = {bound_1d:.4f}")
    dense_1d = dense_contraction_norm(h1)
    if abs(measured_1d - dense_1d) > 0.05 * dense_1d:
        failures.append(
            f"1D estimator {measured_1d:.5f} vs dense norm {dense_1d:.5f} (>5%)"
        )

    l0_2 = weights(0.3, 2, 0)[0]
    mu_2 = mu_coefficient(1.0, 0.3, 1 / 16, 1 / 16)
    h2 = build_hierarchy(fk_operator_2d(l0_2, mu_2), 15, omega_pre=0.25, omega_post=0.25)
    measured_2d = measure_contraction(h2, trials=6, iters=25, monotone_slack=1e-12)
    bound_2d = contraction_bound(1536.0, 1, 0.25)
    if measured_2d > bound_2d:
        failures.append(f"2D contraction {measured_2d:.4f} above {bound_2d:.6f}")
    dense_2d = dense_contraction_norm(h2)
    if abs(measured_2d - dense_2d) > 0.05 * dense_2d:
        failures.append(
            f"2D estimator {measured_2d:.5f} vs dense norm {dense_2d:.5f} (>5%)"
        )
    report(
        6,
        failures,
        f"(1D {measured_1d:.4f}<=16/17, dense {dense_1d:.4f}; "
        f"2D {measured_2d:.4f}<={bound_2d:.5f}, dense {dense_2d:.4f})",
    )


def test_criterion_7_property_suite():
    failures = []
    rng = np.random.default_rng(3)

    # transfer duality, factor 2 in 1D and 4 in 2D
    for m in (7, 31, 127):
        u = rng.standard_normal((m - 1) // 2)
        v = rng.standard_normal(m)
        lhs, rhs = np.dot(prolong_1d(u), v), 2.0 * np.dot(u, restrict_1d(v))
        if abs(lhs - rhs) > 1e-13 * max(1.0, abs(lhs)):
            failures.append(f"1D duality broken at m={m}")
    for m in (7, 15):
        mc = (m - 1) // 2
        u = rng.standard_normal((mc, mc))
        v = rng.standard_normal((m, m))
        lhs = np.sum(prolong_2d(u) * v)
        rhs = 4.0 * np.sum(u * restrict_2d(v))
        if abs(lhs - rhs) > 1e-13 * max(1.0, abs(lhs)):
            failures.append(f"2D duality broken at m={m}")

    # complex solves split into real and imaginary parts
    l0 = weights(0.3, 4, 0)[0]
    h = build_hierarchy(fk_stencil_1d(l0, mu_coefficient(1.0, 0.3, 1 / 32, 1 / 32)), 31)
    fr, fi = rng.standard_normal(31), rng.standard_normal(31)
    xc, _ = solve(h, fr + 1j * fi, tol=1e-13)
    xr, _ = solve(h, fr, tol=1e-13)
    xi, _ = solve(h, fi, tol=1e-13)
    if np.max(np.abs(xc - (xr + 1j * xi))) > 1e-12:
        failures.append("complex-split solver equivalence broken")

    # first-order weights equal the binomial recurrence
    for alpha in (0.1, 0.3, 0.5, 0.8, 0.95):
        diff = np.max(np.abs(weights(alpha, 1, 128) - binomial_weights(alpha, 128)))
        if diff > 1e-14:
            failures.append(f"order-1 binomial mismatch at alpha={alpha}: {diff:.2e}")

    # power recurrence against the naive convolution oracle up to k = 64
    for nu in (2, 3, 4):
        for alpha in (0.3, 0.8):
            l = weights(alpha, nu, 64)
            oracle = naive_series_power(generating_poly(nu), alpha, 64)
            rel = np.max(np.abs(l - oracle) / np.maximum(np.abs(oracle), 1e-30))
            if rel > 1e-12:
                failures.append(f"series power mismatch nu={nu} alpha={alpha}: {rel:.2e}")
    report(7, failures)
