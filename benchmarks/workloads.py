"""Benchmark workloads, and the child process that runs one of them.

Every measured run is a fresh interpreter, started by ``run.py`` as

    python3 benchmarks/workloads.py '{"workload": ..., "mode": ..., ...}'

with ``src`` on ``PYTHONPATH`` and BLAS pinned to one thread.  A ``mgfk
table`` user pays the import and the ``fsd.weights`` cache fill on every
run, and peak RSS needs its own process, so neither is amortised here.  The
child prints one JSON object on its last line of standard output.

Modes: ``setup`` builds the stepper or hierarchy and stops; ``solve`` also
runs the workload.  Both report their times in reference seconds, with a
``SpeedProbe`` gauging the CPU's speed alongside.  ``trace`` runs the
workload with every layer wrapped in spans, and reports wall times.

Importing this module imports nothing from mgfk or numpy, so ``run.py`` can
read the workload table without paying for either.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import signal
import sys
import time

# Why each workload exists, and what it drives.  The fk entries mirror the
# calls ``mgfk.cli.run_table`` makes, the theory entry the calls
# ``mgfk.cli.run_theory`` makes.  ``smoke_M`` is the tiny size of --smoke.
WORKLOADS = {
    "fk1d-history": {
        "why": "1D example-6.1 M=1024: O(N^2 m) history convolution ~32% and 1D apply ~40% "
               "of the time over 10 levels; the case for a fast history convolution",
        "kind": "fk", "preset": "example-6.1", "alpha": 0.3, "nu": 4,
        "coarsen": "galerkin", "tol": 1e-11, "M": 1024, "smoke_M": 32,
    },
    "fk2d-vcycle": {
        "why": "2D example-6.2 M=128 geometric: operator apply with identity mass is ~70% "
               "of the time, history ~8%; the case for a flat operator apply",
        "kind": "fk", "preset": "example-6.2", "alpha": 0.3, "nu": 2,
        "coarsen": "geometric", "tol": 1e-7, "M": 128, "smoke_M": 16,
    },
    "theory2d-galerkin": {
        "why": "2D theory checks M=128 Galerkin: real data, no history, non-identity coarse "
               "mass; seeded Lanczos eigenvalue calls take ~98% of the time",
        "kind": "theory", "preset": "example-6.2", "alpha": 0.8, "nu": 2,
        "omega": 0.25, "m0": 1536.0, "trials": 4, "M": 128, "smoke_M": 16,
    },
}

APPLY_SPANS = ("stencil.toeplitz_apply", "stencil.tensor2d_apply")
VCYCLE_LEVELS = 10  # fk1d-history at M=1024 has the deepest hierarchy


class NonFiniteState(ArithmeticError):
    """A time step produced a NaN or infinite value."""


# Times are reported in reference seconds: CPU seconds scaled to the speed at
# which one SpeedProbe.kernel() call takes this long (it takes 0.8-1.2 ms of
# CPU time on the 2-vCPU machine the benchmark was built on).
REF_KERNEL_S = 1e-3


class SpeedProbe:
    """Times a fixed kernel in a burst (``burst``), and every ``interval_s``
    of wall time while a solve runs, from a SIGALRM handler, so the samples
    land between the solve's own bytecodes.  (A CPU-time timer would fit
    better, but while one is armed Linux stops the process CPU clock short
    inside the handler.)

    On a shared virtual machine the same solve takes up to 40% more or less
    time from one minute to the next.  Part of it is the host taking the
    virtual CPU away (steal), which process CPU time leaves out.  The rest
    is the CPU running slower while neighbours load it, which CPU time keeps
    in.  The kernel slows down with the second because it has the solver's
    shape: three V-cycles of a 1D Poisson problem on 1023 complex points,
    recursing over 9 levels with small numpy calls.  It is the benchmark's
    own code, so a change to mgfk does not change it; CPU time over the
    kernel's mean CPU time cancels most of both kinds of swing.
    """

    def __init__(self, interval_s: float = 0.02):
        import numpy as np

        self.rhs = np.random.default_rng(0).random(1023) + 0j
        self.interval_s = interval_s
        self.cpu_s = self.wall_s = 0.0
        self.count = 0
        for _ in range(3):  # warm up before anything is timed
            self.kernel()

    def burst(self, calls: int = 10) -> float:
        """Mean CPU seconds of a kernel over ``calls`` back-to-back calls."""
        c0 = time.process_time()
        for _ in range(calls):
            self.kernel()
        return (time.process_time() - c0) / calls

    def kernel(self) -> None:
        for _ in range(3):
            self._vcycle(self.rhs)

    def _vcycle(self, f):
        import numpy as np

        u = np.zeros_like(f)
        if f.size <= 3:
            return u
        r = self._smooth(u, f)
        coarse = self._vcycle(0.25 * r[:-2:2] + 0.5 * r[1:-1:2] + 0.25 * r[2::2])
        u[1::2] += coarse
        u[2:-1:2] += 0.5 * (coarse[:-1] + coarse[1:])
        u[0] += 0.5 * coarse[0]
        u[-1] += 0.5 * coarse[-1]
        self._smooth(u, f)
        self._smooth(u, f)
        return u

    @staticmethod
    def _smooth(u, f):
        """One damped Jacobi sweep for -u'' = f (h = 1); returns the residual."""
        r = f - 2.0 * u
        r[1:] += u[:-1]
        r[:-1] += u[1:]
        u += 0.25 * r
        return r

    def sample(self, *_signal) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        self.kernel()
        self.cpu_s += time.process_time() - c0
        self.wall_s += time.perf_counter() - w0
        self.count += 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def build(workload: dict, intervals: int):
    """Set-up: the stepper (fk) or the multigrid hierarchy (theory)."""
    from mgfk import coarsen, feynman_kac, fsd, multigrid

    problem = feynman_kac.preset(workload["preset"], workload["alpha"], intervals)
    if workload["kind"] == "fk":
        stepper = (
            feynman_kac.Evolution1D
            if isinstance(problem, feynman_kac.Problem1D)
            else feynman_kac.Evolution2D
        )
        return stepper(
            problem, order=workload["nu"], solver="mgm", coarsening=workload["coarsen"],
            tol=workload["tol"], omega=(1.0, 0.5), counts=(1, 2),
        )
    l0 = fsd.weights(workload["alpha"], workload["nu"], 0)[0]
    mu = coarsen.mu_coefficient(problem.kappa, problem.alpha, problem.tau, problem.h)
    omega = workload["omega"]
    return multigrid.build_hierarchy(
        coarsen.fk_operator_2d(l0, mu), intervals - 1, strategy="galerkin",
        omega_pre=omega, omega_post=omega, pre_count=1, post_count=2,
    )


def run_fk(stepper) -> dict:
    """Step to the final time; a step counts as failed if it raises, yields a
    non-finite state, or is never reached because an earlier one failed."""
    import numpy as np
    from mgfk.errors import MgfkError

    n_steps = stepper.problem.n_steps
    done, error = 0, None
    try:
        while stepper.step_index < n_steps:
            stepper.step()
            if not np.isfinite(stepper.state).all():
                raise NonFiniteState(f"non-finite state at step {stepper.step_index}")
            done += 1
    except (MgfkError, NonFiniteState) as exc:
        error = f"{type(exc).__name__}: {exc}"
    out = {"attempted": n_steps, "failed": n_steps - done, "error": error}
    if error is None:
        out["max_error"] = stepper.max_error()
        out["cycles_per_step"] = stepper.avg_iterations
    return out


def run_theory(hierarchy, workload: dict, seed: int) -> dict:
    """The bound suite of ``mgfk theory``; the seed drives the Lanczos start
    vectors, the contraction trials and the consistency samples."""
    from mgfk import analysis
    from mgfk.errors import MgfkError

    reports, error = [], None
    try:
        reports += analysis.check_smoother_bounds(hierarchy, seed=seed)
        reports.append(analysis.check_contraction_bounds(
            hierarchy, workload["m0"], trials=workload["trials"], seed=seed))
        reports.append(analysis.coarsening_consistency(seed=seed))
    except MgfkError as exc:
        error = f"{type(exc).__name__}: {exc}"
    violations = sum(
        1 for r in reports if not r.satisfied and r.context.get("in_theory_range", True)
    )
    contraction = [r.measured for r in reports if r.quantity.startswith("||I - B A||_A")]
    return {
        "attempted": len(reports), "failed": violations, "error": error,
        "violations": violations,
        "contraction": contraction[0] if contraction else None,
    }


def install_spans(tracer) -> None:
    """Wrap the public functions of every layer.  Module attributes are
    patched where the caller looks them up, so every recursive ``vcycle``
    level is caught; class attributes catch the operators' ``apply``."""
    import numpy as np
    from mgfk import analysis, coarsen, feynman_kac, fsd, multigrid, stencil, transfer

    def apply_bytes(op, v, *args, **kwargs):
        return 2.0 * np.asarray(v).nbytes  # one read of the input, one write of the output

    def history_macs(stepper, n):
        return max(n - 1, 0) * stepper.state.size  # memory-convolution multiply-adds

    def count_matvecs(eig):
        def counted(matvec, *args, **kwargs):
            idx = len(tracer.work) - 1  # the span the wrapper has just opened
            def mv(v):
                tracer.work[idx] += 1
                return matvec(v)
            return eig(mv, *args, **kwargs)
        return counted

    tracer.patch(stencil.ToeplitzStencil, "apply", "stencil.toeplitz_apply", work=apply_bytes)
    tracer.patch(stencil.TensorOperator2D, "apply", "stencil.tensor2d_apply", work=apply_bytes)
    for owner in (stencil, analysis):
        tracer.patch(owner, "largest_eigenvalue", "stencil.largest_eigenvalue",
                     adapt=count_matvecs)
    for fn in ("restrict", "prolong"):
        for dim in ("1d", "2d"):
            tracer.patch(transfer, f"{fn}_{dim}", f"transfer.{fn}")
    for owner in (coarsen, multigrid):
        tracer.patch(owner, "galerkin_step", "coarsen.galerkin_step")
    tracer.patch(multigrid, "galerkin_step_2d", "coarsen.galerkin_step")
    for fn in ("smooth", "vcycle", "solve", "build_hierarchy"):
        tracer.patch(multigrid, fn, f"multigrid.{fn}")
    for owner in (fsd, feynman_kac):
        tracer.patch(owner, "weights", "fsd.weights")
    for cls in (feynman_kac.Evolution1D, feynman_kac.Evolution2D):
        tracer.patch(cls, "assemble_rhs", "feynman_kac.assemble_rhs", work=history_macs)
        tracer.patch(cls, "step", "feynman_kac.step")
    for fn in ("check_smoother_bounds", "check_contraction_bounds", "coarsening_consistency"):
        tracer.patch(analysis, fn, f"analysis.{fn}")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(payload: dict) -> dict:
    workload = WORKLOADS[payload["workload"]]
    intervals = workload["smoke_M" if payload["smoke"] else "M"]
    mode = payload["mode"]
    t0 = time.perf_counter()
    import mgfk  # noqa: F401  (the import is part of what a user pays)

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        install_spans(tracer)
    t1, c1 = time.perf_counter(), time.process_time()
    state = build(workload, intervals)
    setup_cpu_s = time.process_time() - c1
    out = {"import_s": t1 - t0, "setup_wall_s": time.perf_counter() - t1}
    if tracer is None:
        # Set-up is too short to sample; a burst of kernels right after it
        # gauges the CPU's speed at the time.
        probe = SpeedProbe()
        burst_s = probe.burst()
        out["setup_cal_ms"] = 1e3 * burst_s
        out["setup_s"] = setup_cpu_s * REF_KERNEL_S / burst_s
    if mode == "setup":
        out["env"] = environment()
        return out
    t3, c3 = time.perf_counter(), time.process_time()
    with probe if tracer is None else contextlib.nullcontext():
        if workload["kind"] == "fk":
            out.update(run_fk(state))
        else:
            out.update(run_theory(state, workload, payload["seed"]))
    out["solve_wall_s"] = time.perf_counter() - t3
    if tracer is None:
        # The kernel's own time is taken out of the solve; a solve that ends
        # before the first tick times the kernel once afterwards.
        solve_cpu_s = time.process_time() - c3 - probe.cpu_s
        out["solve_wall_s"] -= probe.wall_s
        if probe.count == 0:
            probe.sample()
        out["cal_ms"] = 1e3 * probe.cpu_s / probe.count
        out["cal_n"] = probe.count
        out["run_s"] = solve_cpu_s * REF_KERNEL_S / (probe.cpu_s / probe.count)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        out["env"] = environment()
        out["layers"] = layer_metrics(tracer, out["setup_wall_s"] + out["solve_wall_s"])
        if payload.get("spans"):
            os.makedirs(os.path.dirname(payload["spans"]), exist_ok=True)
            tracer.save(payload["spans"])
    return out


def layer_metrics(tracer, traced_s: float) -> dict:
    """Per-layer metrics of one traced run, keyed as in BENCHMARK.json."""
    import numpy as np
    from tracer import SpanTable, span_cost

    t = SpanTable(tracer.names, tracer.arrays())
    m = {}
    for name in (*APPLY_SPANS, "stencil.largest_eigenvalue", "transfer.restrict",
                 "transfer.prolong", "multigrid.smooth", "multigrid.vcycle",
                 "multigrid.solve", "feynman_kac.assemble_rhs"):
        m[f"{name}.count"] = int(t.of(name).sum())
        m[f"{name}.self_s"] = float(t.self_time[t.of(name)].sum())
    eig = t.of("stencil.largest_eigenvalue")
    m["stencil.largest_eigenvalue.matvecs"] = float(t.work[eig].sum())
    m["stencil.largest_eigenvalue.max_call_matvecs"] = float(t.work[eig].max(initial=0.0))
    levels = t.nesting_self_time("multigrid.vcycle")
    for k in range(VCYCLE_LEVELS):
        m[f"multigrid.vcycle.level{k}.self_s"] = float(levels[k]) if k < len(levels) else 0.0
    steps_ms = 1e3 * t.duration[t.of("feynman_kac.step")]
    for q in (50, 90):
        m[f"feynman_kac.step.p{q}_ms"] = float(np.percentile(steps_ms, q)) if steps_ms.size else 0.0

    def total(mask):
        return float(t.duration[mask].sum())

    m["multigrid.build_hierarchy.s"] = total(t.of("multigrid.build_hierarchy"))
    m["coarsen.galerkin_step.s"] = total(  # inside set-up, not the analysis checks
        t.of("coarsen.galerkin_step") & t.called_from("multigrid.build_hierarchy"))
    m["fsd.weights.s"] = total(t.of("fsd.weights"))
    for name in ("check_smoother_bounds", "check_contraction_bounds", "coarsening_consistency"):
        m[f"analysis.{name}.s"] = total(t.of(f"analysis.{name}"))
    # Computed, not measured: applies called from outside the stencil layer
    # (a 2D apply's 1D factors are internal), and history multiply-adds.
    m["stencil.apply.bytes_computed"] = float(
        t.work[t.of(*APPLY_SPANS) & ~t.called_from(*APPLY_SPANS)].sum())
    m["feynman_kac.assemble_rhs.macs_computed"] = float(
        t.work[t.of("feynman_kac.assemble_rhs")].sum())
    m["stencil.apply.share"] = float(t.self_time[t.of(*APPLY_SPANS)].sum()) / traced_s
    m["feynman_kac.assemble_rhs.share"] = m["feynman_kac.assemble_rhs.self_s"] / traced_s
    m["stencil.largest_eigenvalue.share"] = total(eig) / traced_s
    m["trace.run_s"] = traced_s
    # Measured in the same process right after the run, so it does not
    # depend on how fast the machine ran the untraced comparison solve.
    spans_cost = len(t.nid) * span_cost()
    m["trace.span_cost_ratio"] = spans_cost / (traced_s - spans_cost)
    return m


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    print(json.dumps(main(json.loads(sys.argv[1]))))
