import dataclasses
import math
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from mgfk import executor, feynman_kac
from mgfk.coarsen import fk_operator, mu_coefficient
from mgfk.errors import ConvergenceFailure, DimensionError, MgfkError
from mgfk.feynman_kac import (
    Evolution,
    Problem,
    convergence_rate,
    example_6_1,
    example_6_2,
    preset,
)
from mgfk.fsd import weights

from helpers import gershgorin_bound, history_sum, kron_sum_dense, naive_level_rhs


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


@pytest.mark.parametrize("intervals", [8, 16, 128, 256])
def test_example_6_2_sines_per_axis_match_the_meshgrid(intervals):
    # forcing and exact solution take one sine per axis point and broadcast
    # them: bit for bit the expressions over the whole ij-meshgrid
    alpha, rho, kappa = 0.8, 1.0, 1.0
    p = example_6_2(alpha, intervals)
    x, y = p.coords
    c4 = math.gamma(5.0 + alpha) / math.gamma(5.0)
    for t in (0.0, 0.37, 1.0):
        shape = np.sin(np.pi * x) * np.sin(np.pi * y)
        forcing = np.exp(-rho * t) * (c4 * t**4 + 2.0 * kappa * np.pi**2 * t ** (4.0 + alpha)) * shape
        exact = np.exp(-rho * t) * t ** (4.0 + alpha) * np.sin(np.pi * x) * np.sin(np.pi * y)
        assert p.forcing(x, y, t).tobytes() == forcing.tobytes()
        assert p.exact(x, y, t).tobytes() == exact.tobytes()


@pytest.mark.parametrize("intervals", [16, 1024])
def test_example_6_1_forcing_takes_one_sine(intervals):
    # the forcing binds sin(pi x) once for both of its terms: bit for bit
    # the expression that evaluates it twice, on the grid and both walls
    alpha, rho, kappa = 0.3, 1.0 + 1.0j, 1.0
    p = example_6_1(alpha, intervals)
    x = np.concatenate(([0.0], p.coords[0], [p.length]))
    c4 = math.gamma(5.0 + alpha) / math.gamma(5.0)
    for t in (0.0, 1.0 / intervals, 0.37, 0.5, 1.0):
        forcing = np.exp(-rho * t) * (
            c4 * t**4 * (np.sin(np.pi * x) + 1.0)
            + kappa * np.pi**2 * (t ** (4.0 + alpha) + 1.0) * np.sin(np.pi * x)
        )
        assert p.forcing(x, t).tobytes() == forcing.tobytes()


def test_a_trace_shared_by_both_walls_is_evaluated_once():
    # example 6.1 gives both walls one callable; the run equals, bit for bit,
    # the run given two distinct callables of the same values
    p = example_6_1(0.3, 16)
    calls = []

    def trace(t):
        calls.append(t)
        return p.bc_left(t)

    shared = Evolution(dataclasses.replace(p, bc_left=trace, bc_right=trace), order=4)
    assert len(calls) == p.n_steps + 1
    apart = Evolution(dataclasses.replace(p, bc_right=lambda t: p.bc_left(t)), order=4)
    assert shared.walls.dtype == apart.walls.dtype and shared.walls.tobytes() == apart.walls.tobytes()
    shared.run()
    apart.run()
    assert shared.history.tobytes() == apart.history.tobytes()
    assert shared.iterations == apart.iterations


def test_direct_2d_solver_steps_where_dense_lu_cannot():
    # m = 255: a dense LU of the m**2 x m**2 system would need about 34 GB
    p = dataclasses.replace(example_6_2(0.3, 256), n_steps=2)
    ev = Evolution(p, order=2, solver="direct")
    ev.step()
    rhs = ev.assemble_rhs(2)
    ev.step()
    assert ev.step_index == 2 and ev.state.shape == (255 * 255,)
    residual = np.linalg.norm(ev.system.apply(ev.state) - rhs)
    assert residual <= 1e-14 * gershgorin_bound(ev.system) * np.linalg.norm(ev.state)


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


def test_transfers_preserve_complex_dtype():
    from helpers import prolong, restrict

    v = np.arange(7.0) * (1 + 2j)
    assert restrict(v).dtype == np.complex128
    assert prolong(v[:3]).dtype == np.complex128


@pytest.mark.parametrize("name, value", [
    ("n_steps", 0), ("length", 0.0), ("length", math.inf), ("t_final", -1.0), ("t_final", math.nan),
    ("kappa", -1.0), ("kappa", math.inf), ("ndim", True), ("ndim", 2.0), ("ndim", 0), ("ndim", 3),
    ("n_steps", 2.5), ("n_steps", True),
    ("rho", math.nan), ("rho", math.inf), ("rho", complex(1.0, -math.inf)),
    ("alpha", 1.5), ("alpha", 0.0), ("alpha", 1.0),
])
def test_problem_refuses_scalars_that_crash_or_corrupt_a_run(name, value):
    # a zero step count or length divides by zero, a negative final time
    # steps to NaN, a negative kappa was solved by one solver only, ndim =
    # True ran as 1D, and ndim = 2.0 and a step count of 2.5 or True
    # reached a bare TypeError or ValueError; rho = nan ran the direct
    # solver to a NaN state and stalled multigrid, rho = inf warned of an
    # invalid value, and alpha = 1.5 reached the weights' ValueError; on
    # either solver
    for solver in ("direct", "mgm"):
        with pytest.raises(MgfkError, match=name):
            Evolution(dataclasses.replace(example_6_2(0.3, 8), **{name: value}), order=2, solver=solver).run()


@pytest.mark.parametrize("solver", ["direct", "mgm"])
@pytest.mark.parametrize("m", [0, -3, 2.5, True])
def test_problem_refuses_a_grid_size_that_is_not_a_positive_integer(m, solver):
    # m = 0 had crashed the direct solver with IndexError, m = -3 with
    # numpy's "negative dimensions", m = 2.5 either solver with a bare
    # TypeError, and m = True ran as one point
    with pytest.raises(MgfkError, match="m must be an integer"):
        Evolution(dataclasses.replace(example_6_1(0.3, 8), m=m), order=4, solver=solver).run()
    p = dataclasses.replace(example_6_1(0.3, 8), m=np.int64(7), ndim=np.int64(1), n_steps=np.int64(8))
    assert type(p.m) is type(p.ndim) is type(p.n_steps) is int
    ev = Evolution(p, order=4, solver=solver).run()
    assert ev.history.shape == (9, 7)


def test_step_past_end_raises():
    ev = Evolution(zero_problem_1d(n_steps=1), order=1, solver="direct")
    ev.run()
    with pytest.raises(MgfkError):
        ev.step()


def test_average_iterations_tracked():
    ev = Evolution(example_6_1(0.3, 16), order=4, solver="mgm", tol=1e-11).run()
    assert len(ev.iterations) == 16
    assert ev.iterations == [r.iterations for r in ev.reports]
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


def test_a_tempering_that_overflows_is_refused_before_the_history_is_allocated():
    # exp(-rho k tau) overflows from k = 1 on: refused without a numpy
    # warning, before the 537 MB complex history is made
    p = dataclasses.replace(zero_problem_1d(m=2**13 - 1, n_steps=2**12), rho=-1e7 + 1.0j)
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MgfkError, match="not finite at k = 1,"):
                Evolution(p, order=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**27


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
    assert real.decay.dtype == real.memory.weights.dtype == np.float64

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
    assert ev.history.dtype == ev.decay.dtype == ev.memory.weights.dtype == np.complex128
    assert np.any(ev.state.imag)
    ev.run()

    # the all-complex run: the same stepper promoted before its first step
    ref = Evolution(p, order=2, **kw)
    ref._promote()
    ref.run()
    assert np.max(np.abs(ev.history - ref.history)) <= 1e-12 * np.max(np.abs(ref.history))
    assert ev.iterations == ref.iterations


def refused_promotion(kw, halves, monkeypatch):
    """Step ``example-6.2`` at M = 16, its forcing turning complex at step 8,
    on a machine of ``halves`` halves of the float64 history's bytes: the
    cast to complex128 holds the float64 history and its copy at once, 3x
    those bytes, so where they do not fit the step is refused and the
    history is left float64."""
    p = example_6_2(0.3, 16)  # tau = 1/16: steps 1..7 are real, step 8 on complex
    p.forcing = lambda x, y, t, f=p.forcing: (1.0 if t < 0.5 else 1 + 1j) * f(x, y, t)
    real_bytes = (16 + 1) * 15**2 * 8
    memory = halves * real_bytes // 2
    sysconf = os.sysconf
    pages = {"SC_PHYS_PAGES": memory, "SC_PAGE_SIZE": 1}
    monkeypatch.setattr(os, "sysconf", lambda name: pages.get(name) or sysconf(name))
    ev = Evolution(p, order=2, **kw)
    for _ in range(7):
        ev.step()
    with pytest.raises(MgfkError, match=rf"history of 17 levels needs {3 * real_bytes} bytes, more than the {memory} bytes"):
        ev.step()
    assert ev.history.dtype == ev.decay.dtype == ev.memory.weights.dtype == ev.dtype == np.float64
    assert ev.step_index == 7


@pytest.mark.parametrize("kw", STEPPERS, ids=STEPPER_IDS)
def test_promoting_past_physical_memory_is_refused_before_the_cast(kw, monkeypatch):
    # 1.5x the float64 history: the complex128 history alone does not fit
    refused_promotion(kw, 3, monkeypatch)


@pytest.mark.parametrize("kw", STEPPERS, ids=STEPPER_IDS)
def test_promotion_counts_both_histories_the_cast_holds(kw, monkeypatch):
    # 2.5x the float64 history: the complex128 history alone would fit, but
    # not with the float64 one it is cast from
    refused_promotion(kw, 5, monkeypatch)


def test_complex_rate_steps_in_complex128_from_the_start():
    ev = Evolution(example_6_1(0.3, 16), order=4)
    for a in (ev.history, ev.decay, ev.memory.weights, ev.walls):
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
    for a in (ev.history, ev.decay, ev.memory.weights, ev.walls):
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
    assert ev.history.dtype == ev.walls.dtype == np.complex128
    for n in (1, 2):
        got, want = ev.assemble_rhs(n), naive_level_rhs(ev, n)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        ev.step()



def constant_problem(ndim, forcing, initial=lambda *x: 0.0):
    """A 7-point problem of ``ndim`` with zero traces, ``forcing`` and ``initial``."""
    return Problem(length=1.0, kappa=1.0, alpha=0.5, rho=0.5, t_final=1.0, m=7, n_steps=4,
                   forcing=forcing, initial=initial, ndim=ndim)


@pytest.mark.parametrize("ndim", [1, 2])
def test_one_forcing_value_is_broadcast_to_every_point(ndim):
    # a scalar forcing runs in 1D too (it failed with a broadcast error),
    # walls included, and steps as the same value given at every point
    # (in 1D the grid with both walls, m + 2 points), as a grid or flat
    runs = []
    for forcing in (lambda *a: 2.5, lambda *a: np.array([2.5]),
                    lambda *a: np.full(a[0].shape, 2.5), lambda *a: np.full(a[0].size, 2.5)):
        runs.append(Evolution(constant_problem(ndim, forcing), order=2, solver="mgm").run().history.tobytes())
    assert runs[1:] == runs[:-1]


@pytest.mark.parametrize("ndim", [1, 2])
def test_a_forcing_of_the_wrong_size_is_refused(ndim):
    # a 3-value 1D forcing on a 7-point grid used to run, its middle value
    # broadcast over the interior and its end values taken as the walls
    points = "(9,)" if ndim == 1 else "(7, 7)"
    for values, shape in ((np.ones(3), "(3,)"), (np.ones(7 if ndim == 1 else 8), None), (np.ones((7, 1)), "(7, 1)")):
        ev = Evolution(constant_problem(ndim, lambda *a, v=values: v), order=2, solver="direct")
        shape = shape or str(values.shape)
        with pytest.raises(DimensionError, match=rf"forcing .*{re.escape(shape)}.*{re.escape(points)}"):
            ev.step()


@pytest.mark.parametrize("ndim", [1, 2])
def test_initial_and_exact_values_of_the_wrong_size_are_refused(ndim):
    points = "(7,)" if ndim == 1 else "(7, 7)"
    with pytest.raises(DimensionError, match=rf"initial .*\(9,\).*{re.escape(points)}"):
        Evolution(constant_problem(ndim, lambda *a: 0.0, initial=lambda *x: np.ones(9)), order=2, solver="direct")
    p = dataclasses.replace(constant_problem(ndim, lambda *a: 0.0), exact=lambda *a: np.ones(5))
    with pytest.raises(DimensionError, match=rf"exact .*\(5,\).*{re.escape(points)}"):
        Evolution(p, order=2, solver="direct").max_error()
    p = dataclasses.replace(p, exact=lambda *a: 0.0)
    assert Evolution(p, order=2, solver="direct").max_error() == 0.0


def test_one_trace_value_of_any_shape_is_taken():
    # a wall trace that returns its one value as an array of one element,
    # of any shape, steps as the scalar does (a 1-element array failed
    # with numpy's TypeError); the preset's traces keep their bytes
    runs = []
    for value in (1.5, np.float64(1.5), np.array(1.5), np.array([1.5]), np.array([[1.5]])):
        p = dataclasses.replace(constant_problem(1, lambda *a: 0.0), bc_left=lambda t, v=value: v,
                                bc_right=lambda t, v=value: v)
        runs.append(Evolution(p, order=2, solver="direct").run().history.tobytes())
    assert runs[1:] == runs[:-1]
    p = example_6_1(0.3, 16)
    ev = Evolution(p, order=2, solver="direct")
    want = np.array([complex(p.bc_left(t)) for t in ev.t])
    assert ev.walls[:, 0].tobytes() == np.asarray(want if ev.dtype.kind == "c" else want.real, ev.dtype).tobytes()


def test_a_trace_of_more_than_one_value_is_refused():
    # it failed with numpy's TypeError, naming neither the trace nor the shape
    p = constant_problem(1, lambda *a: 0.0)
    for left, right, match in ((lambda t: np.array([1.0, 2.0]), None, r"bc_left .*\(2,\)"),
                               (None, lambda t: np.zeros((2, 2)), r"bc_right .*\(2, 2\)"),
                               (lambda t: 0.0, lambda t: np.ones(0), r"bc_right .*\(0,\)")):
        with pytest.raises(DimensionError, match=match):
            Evolution(dataclasses.replace(p, bc_left=left, bc_right=right), order=2, solver="direct")


def test_assemble_rhs_refuses_a_level_outside_the_run():
    # n = 0 returned an all-zero right-hand side, n = 9 raised numpy's
    # IndexError and n = -1 a matmul ValueError; none reads the forcing
    p, reads = example_6_2(0.3, 8), []
    p.forcing = lambda *a, f=p.forcing: reads.append(a[-1]) or f(*a)
    ev = Evolution(p, order=2)
    for n in (0, 9, -1, 2.5, True):
        with pytest.raises(MgfkError, match=rf"level n in 1\.\.8, got n={re.escape(repr(n))}"):
            ev.assemble_rhs(n)
    assert reads == []
    ev.assemble_rhs(np.int64(8))
    assert reads == [1.0]


def convolution_cases():
    """Problems whose histories are real, complex, and real until a forcing
    that turns complex at step 8 promotes the run."""
    turning = example_6_2(0.3, 16)
    turning.forcing = lambda x, y, t, f=turning.forcing: (1.0 if t < 0.5 else 1 + 1j) * f(x, y, t)
    return {"1d-real": real_problem_1d(), "1d-complex": example_6_1(0.3, 16), "2d-real": example_6_2(0.3, 16),
            "2d-promoted": turning}


@pytest.mark.parametrize("backend", ["compiled", "numpy"])
@pytest.mark.parametrize("case", ["1d-real", "1d-complex", "2d-promoted"])
def test_each_step_sums_its_history_as_the_oracle(case, backend, monkeypatch):
    # the convolution of every step, of the grid and of the walls, is the
    # plain-Python oracle's, bit for bit, and the run's history is the same
    # with blocks of 3 rows as with blocks of 8
    if backend == "numpy":
        monkeypatch.setattr(executor, "_library", lambda: None)
    p = convolution_cases()[case]

    def run():
        ev = Evolution(p, order=3, solver="direct")
        for n in range(1, p.n_steps + 1):
            grid, walls = (x.tobytes() for x in ev.memory.convolution(n))
            m = ev.memory
            assert grid == history_sum(m.weights, m.levels, n - 1, n).tobytes()
            assert walls == history_sum(m.weights, m.walls, n - 1, n).tobytes()
            ev.step()
        assert ev.memory.rows == feynman_kac._BLOCK_ROWS
        return ev.history.tobytes()

    eight = run()
    monkeypatch.setattr(feynman_kac, "_BLOCK_ROWS", 3)
    assert run() == eight


@pytest.mark.parametrize("backend", ["compiled", "numpy"])
@pytest.mark.parametrize("case", ["1d-real", "1d-complex", "2d-real"])
def test_assemble_rhs_asked_again_gives_the_stepped_bytes(case, backend, monkeypatch):
    # asked twice before its step, a level adds nothing twice; asked ahead
    # of the run, it leaves the run as it was; asked again after the run,
    # out of step order, it is summed from scratch to the stepped bytes
    if backend == "numpy":
        monkeypatch.setattr(executor, "_library", lambda: None)
    p = convolution_cases()[case]
    ev, plain = Evolution(p, order=3, solver="direct"), Evolution(p, order=3, solver="direct")
    stepped = []
    for n in range(1, p.n_steps + 1):
        stepped.append(ev.assemble_rhs(n).tobytes())
        assert ev.assemble_rhs(n).tobytes() == stepped[-1]
        ev.assemble_rhs(min(n + 3, p.n_steps))
        ev.step()
        plain.step()
    assert ev.history.tobytes() == plain.history.tobytes()
    for n in reversed(range(1, p.n_steps + 1)):
        assert ev.assemble_rhs(n).tobytes() == stepped[n - 1]

