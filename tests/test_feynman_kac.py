import dataclasses
import os
import tracemalloc

import numpy as np
import pytest

from mgfk.coarsen import fk_operator, mu_coefficient
from mgfk.errors import ConvergenceFailure, MgfkError
from mgfk.feynman_kac import (
    Evolution,
    Problem,
    convergence_rate,
    example_6_1,
    example_6_2,
    preset,
)
from mgfk.fsd import weights

from helpers import kron_sum_dense, naive_level_rhs


def zero_problem_1d(m=7, n_steps=4):
    return Problem(
        length=1.0,
        kappa=1.0,
        alpha=0.5,
        rho=1.0 + 1.0j,
        t_final=1.0,
        m=m,
        n_steps=n_steps,
        forcing=lambda x, t: np.zeros_like(x, dtype=complex),
        initial=lambda x: np.zeros_like(x, dtype=complex),
    )


def test_preset_lookup():
    p1 = preset("example-6.1", 0.3, 32)
    assert isinstance(p1, Problem) and p1.ndim == 1
    assert p1.m == 31 and p1.n_steps == 32
    p2 = preset("example-6.2", 0.8, 16)
    assert isinstance(p2, Problem) and p2.ndim == 2
    with pytest.raises(MgfkError):
        preset("example-9.9", 0.3, 32)


def test_zero_data_gives_zero_rhs_and_zero_evolution():
    ev = Evolution(zero_problem_1d(), order=2, solver="direct")
    assert np.allclose(ev.assemble_rhs(1), 0.0, atol=1e-300)
    ev.run()
    assert np.allclose(ev.history, 0.0, atol=1e-300)


def test_zero_data_2d():
    p = Problem(
        length=1.0, kappa=1.0, alpha=0.4, rho=1.0, t_final=1.0, m=7, n_steps=3,
        forcing=lambda x, y, t: np.zeros_like(x, dtype=complex),
        initial=lambda x, y: np.zeros_like(x, dtype=complex),
        ndim=2,
    )
    ev = Evolution(p, order=2, solver="direct").run()
    assert np.allclose(ev.history, 0.0, atol=1e-300)


def test_2d_problem_rejects_boundary_traces():
    p = example_6_2(0.3, 8)
    for side in ("bc_left", "bc_right"):
        with pytest.raises(MgfkError):
            dataclasses.replace(p, **{side: lambda t: 1.0})


def test_direct_2d_solver_steps_where_dense_lu_cannot():
    # m = 255: a dense LU of the m**2 x m**2 system would need about 34 GB
    p = dataclasses.replace(example_6_2(0.3, 256), n_steps=2)
    ev = Evolution(p, order=2, solver="direct")
    ev.step()
    rhs = ev.assemble_rhs(2)
    ev.step()
    assert ev.step_index == 2 and ev.state.shape == (255 * 255,)
    residual = np.linalg.norm(ev.system.apply(ev.state) - rhs)
    assert residual <= 1e-14 * ev.system.gershgorin_bound() * np.linalg.norm(ev.state)


def test_direct_and_multigrid_steppers_agree():
    p = example_6_1(0.3, 8)
    a = Evolution(p, order=4, solver="direct").run()
    b = Evolution(p, order=4, solver="mgm", coarsening="galerkin", tol=1e-13).run()
    assert np.max(np.abs(a.state - b.state)) < 1e-10


def test_misspelled_coarsening_is_rejected():
    with pytest.raises(ValueError, match="unknown coarsening strategy"):
        Evolution(preset("example-6.1", 0.3, 16), order=4, coarsening="geometrik")


def test_coarsening_strategies_agree_to_three_digits():
    p = example_6_1(0.3, 32)
    gal = Evolution(p, order=4, coarsening="galerkin").run().max_error()
    geo = Evolution(p, order=4, coarsening="geometric").run().max_error()
    assert gal == pytest.approx(geo, rel=5e-3)


def test_2d_multigrid_matches_dense_direct():
    p = example_6_2(0.3, 8)
    a = Evolution(p, order=2, solver="direct").run()
    b = Evolution(p, order=2, solver="mgm", coarsening="geometric", tol=1e-10).run()
    assert np.max(np.abs(a.state - b.state)) < 1e-6


def test_conjugating_problem_conjugates_trajectory():
    p = example_6_1(0.4, 8)
    conj = Problem(
        length=p.length, kappa=p.kappa, alpha=p.alpha, rho=np.conj(p.rho),
        t_final=p.t_final, m=p.m, n_steps=p.n_steps,
        forcing=lambda x, t: np.conj(p.forcing(x, t)),
        initial=lambda x: np.conj(p.initial(x)),
        bc_left=lambda t: np.conj(p.bc_left(t)),
        bc_right=lambda t: np.conj(p.bc_right(t)),
    )
    a = Evolution(p, order=4, solver="direct").run()
    b = Evolution(conj, order=4, solver="direct").run()
    assert np.allclose(b.history, np.conj(a.history), atol=1e-12)


def test_exact_solution_fed_back_reports_zero_error():
    p = example_6_1(0.3, 8)
    ev = Evolution(p, order=4, solver="direct").run()
    ev.history[p.n_steps] = p.exact(*p.coords, 1.0)
    assert ev.max_error() == 0.0


def test_convergence_rate_helper():
    assert convergence_rate(16.0, 1.0) == pytest.approx(4.0)


def test_system_stencil_always_spd_eligible():
    for alpha in (0.05, 0.3, 0.8, 0.95):
        for nu in (1, 2, 3, 4):
            for scale in (1e-4, 1.0, 1e4):
                l0 = weights(alpha, nu, 0)[0]
                s = fk_operator(1, l0, mu_coefficient(1.0, alpha, 0.01, 0.01) * scale)
                assert s.is_spd_eligible()
                (a0, a1), _ = kron_sum_dense(s, 2)
                assert a0 - 2 * abs(a1) > 0.0


@pytest.mark.parametrize("nu", [1, 2, 3])
def test_observed_temporal_order(nu):
    # with tau = h the temporal error dominates the fourth-order spatial part
    errs = []
    for intervals in (16, 32, 64):
        ev = Evolution(example_6_1(0.5, intervals), order=nu, solver="direct").run()
        errs.append(ev.max_error())
    rate = convergence_rate(errs[-2], errs[-1])
    assert rate == pytest.approx(nu, abs=0.3)


def test_snapshot_csv_round_trip(tmp_path):
    import csv

    p = example_6_1(0.3, 8)
    ev = Evolution(p, order=4, solver="direct").run()
    path = tmp_path / "snap.csv"
    ev.write_snapshot_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "re", "im"]
    values = np.array([complex(float(r[1]), float(r[2])) for r in rows[1:]])
    assert np.array_equal(values, ev.state)


def test_snapshot_csv_2d(tmp_path):
    import csv

    p = example_6_2(0.3, 8)
    ev = Evolution(p, order=2, solver="direct").run()
    assert ev.history.dtype == np.float64
    path = tmp_path / "snap2d.csv"
    ev.write_snapshot_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 49
    assert all(r[2] == "0.0" for r in rows[1:])  # a float history writes im as 0.0
    values = np.array([complex(float(r[1]), float(r[2])) for r in rows[1:]])
    assert np.array_equal(values, ev.state)


def test_transfers_preserve_complex_dtype():
    from mgfk.transfer import prolong, restrict

    v = np.arange(7.0) * (1 + 2j)
    assert restrict(v).dtype == np.complex128
    assert prolong(v[:3]).dtype == np.complex128


def test_step_past_end_raises():
    ev = Evolution(zero_problem_1d(n_steps=1), order=1, solver="direct")
    ev.run()
    with pytest.raises(MgfkError):
        ev.step()


def test_zero_cycle_cap_is_rejected_before_stepping():
    ev = Evolution(preset("example-6.1", 0.3, 8), 4, max_iter=0)
    with pytest.raises(ValueError, match="max_iter"):
        ev.run()


def test_average_iterations_tracked():
    ev = Evolution(example_6_1(0.3, 16), order=4, solver="mgm", tol=1e-11).run()
    assert len(ev.iterations) == 16
    assert 5 <= ev.avg_iterations <= 15


def test_history_past_physical_memory_is_refused_before_allocation():
    # 2**20 + 1 levels of 2**20 - 1 float64 values: about 8 TiB of history
    p = dataclasses.replace(zero_problem_1d(m=2**20 - 1, n_steps=2**20), rho=1.0)
    tracemalloc.start()
    try:
        with pytest.raises(MgfkError, match=rf"needs {(2**20 + 1) * (2**20 - 1) * 8} bytes, "
                                            r"more than the \d+ bytes of physical memory"):
            Evolution(p, order=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**27  # grid coordinates, times and traces: none of the history


def test_complex_history_past_physical_memory_is_refused_in_its_own_dtype():
    # the history fits in float64 but not in complex128, which the complex
    # rho decides once the data is evaluated: still refused before allocation
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    m = 2**15 - 1
    n_steps = memory // (12 * m)  # two thirds of the memory in float64
    with pytest.raises(MgfkError, match=rf"needs {(n_steps + 1) * m * 16} bytes"):
        Evolution(zero_problem_1d(m=m, n_steps=n_steps), order=2)


def test_history_past_physical_memory_is_refused_before_any_trace_is_evaluated():
    # even in float64 the history does not fit, so no boundary value is computed
    p = example_6_1(0.3, 2**20)
    calls = []

    def bc_left(t):
        calls.append(t)
        return p.bc_left(t)

    with pytest.raises(MgfkError, match="physical memory"):
        Evolution(dataclasses.replace(p, bc_left=bc_left), order=4)
    assert calls == []


def test_max_error_requires_exact():
    ev = Evolution(zero_problem_1d(), order=1, solver="direct").run()
    with pytest.raises(MgfkError):
        ev.max_error()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("ndim", [1, 2])
def test_non_finite_data_raises_convergence_failure(ndim, bad):
    # one bad forcing value must end the solve at once and surface as
    # ConvergenceFailure, not cycle to max_iter or crash formatting the report
    def spoil(g):
        g = np.array(g, dtype=complex)
        g.flat[g.size // 2] = bad
        return g

    if ndim == 1:
        p = example_6_1(0.3, 32)
        p.forcing = lambda x, t, f=p.forcing: spoil(f(x, t))
        ev = Evolution(p, order=2, solver="mgm")
    else:
        p = example_6_2(0.3, 16)
        p.forcing = lambda x, y, t, f=p.forcing: spoil(f(x, y, t))
        ev = Evolution(p, order=2, solver="mgm")
    with pytest.raises(ConvergenceFailure) as info, np.errstate(invalid="ignore", over="ignore"):
        ev.step()
    assert info.value.report.iterations <= 1
    assert not info.value.report.converged


@pytest.mark.parametrize("ndim", [1, 2])
def test_assemble_rhs_matches_naive_memory_loop(ndim):
    n_steps = 16
    if ndim == 1:
        ev = Evolution(example_6_1(0.3, n_steps), order=4, solver="direct")
    else:
        ev = Evolution(example_6_2(0.3, n_steps), order=4, solver="direct")
    for n in range(1, n_steps + 1):
        if n in (1, 2, 3, n_steps):
            got, want = ev.assemble_rhs(n), naive_level_rhs(ev, n)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        ev.step()


@pytest.mark.parametrize("ndim", [1, 2])
def test_snapshot_of_uncomputed_step_raises(ndim, tmp_path):
    if ndim == 1:
        ev = Evolution(example_6_1(0.3, 8), order=2, solver="direct")
    else:
        ev = Evolution(example_6_2(0.3, 8), order=2, solver="direct")
    ev.step()
    for bad in (2, 5, -1):
        with pytest.raises(MgfkError):
            ev.write_snapshot_csv(tmp_path / "snap.csv", step=bad)
    ev.write_snapshot_csv(tmp_path / "snap.csv", step=0)
    ev.write_snapshot_csv(tmp_path / "snap.csv", step=1)


STEPPERS = [
    {"solver": "mgm", "coarsening": "galerkin"},
    {"solver": "mgm", "coarsening": "geometric"},
    {"solver": "direct"},
]
STEPPER_IDS = ["galerkin", "geometric", "direct"]


def scaled(p, c):
    """``p`` with its initial values and forcing multiplied by ``c``."""
    return dataclasses.replace(
        p,
        initial=lambda *x, f=p.initial: c * f(*x),
        forcing=lambda *x, f=p.forcing: c * f(*x),
    )


@pytest.mark.parametrize("kw", STEPPERS, ids=STEPPER_IDS)
@pytest.mark.parametrize("intervals", [16, 32])
def test_real_problem_steps_in_float64(intervals, kw):
    # example 6.2 has rho = 1 + 0j, zero initial values and a forcing whose
    # imaginary parts are exactly zero: nothing complex to carry
    real = Evolution(example_6_2(0.3, intervals), order=2, **kw).run()
    assert real.history.dtype == np.float64
    assert real.decay.dtype == real._w_rev.dtype == np.float64

    cplx = Evolution(scaled(example_6_2(0.3, intervals), 1 + 1j), order=2, **kw).run()
    assert cplx.history.dtype == np.complex128
    want = (1 + 1j) * real.history
    assert np.max(np.abs(cplx.history - want)) <= 1e-12 * np.max(np.abs(want))
    assert cplx.iterations == real.iterations


@pytest.mark.parametrize("kw", STEPPERS, ids=STEPPER_IDS)
def test_forcing_turning_complex_promotes_the_stepper(kw):
    p = example_6_2(0.3, 16)  # tau = 1/16: steps 1..7 are real, step 8 on complex
    p.forcing = lambda x, y, t, f=p.forcing: (1.0 if t < 0.5 else 1 + 1j) * f(x, y, t)
    ev = Evolution(p, order=2, **kw)
    for _ in range(7):
        ev.step()
    assert ev.history.dtype == np.float64
    ev.step()
    assert ev.history.dtype == ev.decay.dtype == ev._w_rev.dtype == np.complex128
    assert np.any(ev.state.imag)
    ev.run()

    # the all-complex run: the same stepper promoted before its first step
    ref = Evolution(p, order=2, **kw)
    ref._promote()
    ref.run()
    assert np.max(np.abs(ev.history - ref.history)) <= 1e-12 * np.max(np.abs(ref.history))
    assert ev.iterations == ref.iterations


def test_complex_rate_steps_in_complex128_from_the_start():
    ev = Evolution(example_6_1(0.3, 16), order=4)
    for a in (ev.history, ev.decay, ev._w_rev, ev.g_left, ev.g_right):
        assert a.dtype == np.complex128
    ev.run()
    assert ev.history.dtype == np.complex128


def real_problem_1d(**kw):
    """A 1D problem with a real rate, real data and real Dirichlet traces."""
    return dataclasses.replace(
        Problem(
            length=1.0, kappa=0.8, alpha=0.6, rho=0.7, t_final=1.0, m=15, n_steps=12,
            forcing=lambda x, t: np.exp(-0.7 * t) * (1.0 + x * x) * (1.0 + t),
            initial=lambda x: np.sin(np.pi * x) + x,
            bc_left=lambda t: 1.0 - 0.5 * t,
            bc_right=lambda t: np.cos(t),
        ),
        **kw,
    )


@pytest.mark.parametrize("solver", ["mgm", "direct"])
def test_real_1d_problem_matches_naive_rhs_in_float64(solver):
    ev = Evolution(real_problem_1d(), order=3, solver=solver)
    for a in (ev.history, ev.decay, ev._w_rev, ev.g_left, ev.g_right):
        assert a.dtype == np.float64
    for n in range(1, ev.problem.n_steps + 1):
        got, want = ev.assemble_rhs(n), naive_level_rhs(ev, n)
        assert got.dtype == np.float64
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        ev.step()
    assert ev.history.dtype == np.float64


def test_complex_trace_keeps_a_1d_run_complex():
    p = real_problem_1d(bc_right=lambda t: np.cos(t) + 0.25j * t)
    ev = Evolution(p, order=3, solver="direct")
    assert ev.history.dtype == ev.g_right.dtype == np.complex128
    for n in (1, 2):
        got, want = ev.assemble_rhs(n), naive_level_rhs(ev, n)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        ev.step()

