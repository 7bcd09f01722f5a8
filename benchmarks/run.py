"""mgfk benchmark: time to solution on three workloads, with correctness gates
and a traced per-layer breakdown.

    python3 benchmarks/run.py --workload fk1d-history --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --smoke          # every workload, tiny sizes
    python3 benchmarks/run.py --write-spec                    # regenerate BENCHMARK.json

Load model: a closed loop, one caller in one process with one solve in
flight.  Every sample is a fresh interpreter (see ``workloads.py``) with BLAS
pinned to one thread.  With ``--trace 0`` the run times set-up alone in
``SETUP_RUNS`` processes, then whole solves until ``--seconds`` is used up
(at least ``MIN_SOLVES``), and reports medians of the end-to-end metrics.
Set-up and solve are timed in reference seconds: CPU seconds scaled by a
calibration kernel timed alongside them (``workloads.SpeedProbe``), which
cancels most of a shared machine's speed swings.
With ``--trace 1`` it makes one untraced and one traced solve and reports
the per-layer metrics of the traced one.  Every solve is checked against
``reference.json``; a miss counts as failed operations.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A record with provenance and every sample goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import APPLY_SPANS, VCYCLE_LEVELS, WORKLOADS  # noqa: E402

RUN_SECONDS = 30
SETUP_RUNS = 9
MIN_SOLVES = 2
DEADLINE_S = 170.0  # the whole run, children included, ends before this
OUT_DIR = os.path.join(ROOT, ".bench_out")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
with open(os.path.join(HERE, "reference.json")) as _fh:
    REFERENCE = json.load(_fh)

# Bounds.  On a shared 2-vCPU virtual machine the same solve takes 8 s in one
# minute and 14 s in another, and only two solves fit in a run.  Wall time
# is therefore not the end-to-end metric: run_s and setup_s are in reference
# seconds (see workloads.REF_KERNEL_S and SpeedProbe).  They keep the widest
# bound allowed, since the kernel tracks most but not all of the swings.
# Peak RSS repeats to within 1%.
END_TO_END = [
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]


def _per_layer() -> list[dict]:
    metrics = []
    for layer in (*APPLY_SPANS, "stencil.largest_eigenvalue", "transfer.restrict",
                  "transfer.prolong", "multigrid.smooth", "multigrid.vcycle",
                  "multigrid.solve", "feynman_kac.assemble_rhs"):
        metrics += [(f"{layer}.count", "count"), (f"{layer}.self_s", "s")]
    metrics += [("stencil.largest_eigenvalue.matvecs", "count"),
                ("stencil.largest_eigenvalue.max_call_matvecs", "count")]
    metrics += [(f"multigrid.vcycle.level{k}.self_s", "s") for k in range(VCYCLE_LEVELS)]
    metrics += [("feynman_kac.step.p50_ms", "ms"), ("feynman_kac.step.p90_ms", "ms")]
    metrics += [(f"{name}.s", "s") for name in (
        "multigrid.build_hierarchy", "coarsen.galerkin_step", "fsd.weights",
        "analysis.check_smoother_bounds", "analysis.check_contraction_bounds",
        "analysis.coarsening_consistency")]
    metrics += [("stencil.apply.bytes_computed", "B"),
                ("feynman_kac.assemble_rhs.macs_computed", "count"),
                ("stencil.apply.share", "ratio"),
                ("feynman_kac.assemble_rhs.share", "ratio"),
                ("stencil.largest_eigenvalue.share", "ratio"),
                ("run.wall_s", "s"),
                ("run.cal_ms", "ms"),
                ("trace.run_s", "s"),
                ("trace.overhead_ratio", "ratio"),
                ("trace.span_cost_ratio", "ratio")]
    return [{"name": n, "unit": u, "better": "lower"} for n, u in metrics]


PER_LAYER = _per_layer()


def spec() -> dict:
    return {
        "command": ["python3", "benchmarks/run.py"],
        "paths": ["benchmarks"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w["why"]} for n, w in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


CPUS = sorted(os.sched_getaffinity(0))


def pin_to_fastest_cpu() -> int | None:
    """Pin this process, and so the child it starts next, to the usable CPU
    that runs a short pure-Python loop fastest right now.

    The host gives the virtual CPUs different speeds, and swaps them every
    few tens of seconds: pinned in turn to each of the two, the same numpy
    kernel took 6.5 and 8.4 ms, a little later 8.5 and 6.8 ms.  A child left
    to the scheduler lands on either, which made set-up times bimodal.
    """
    def loop_s():
        t0 = time.perf_counter()
        for _ in range(20_000):
            pass
        return time.perf_counter() - t0

    if len(CPUS) < 2:
        return None
    best = {}
    try:
        for _ in range(5):
            for c in CPUS:
                os.sched_setaffinity(0, {c})
                best[c] = min(best.get(c, float("inf")), loop_s())
        fastest = min(best, key=best.get)
        os.sched_setaffinity(0, {fastest})
    except OSError:  # affinity not ours to set: leave it to the scheduler
        os.sched_setaffinity(0, CPUS)
        return None
    return fastest


def child(name: str, mode: str, seed: int, smoke: bool, deadline: float, spans=None):
    """Run one sample in a fresh interpreter; returns (wall seconds, CPU
    seconds, result or None, diagnostic).  The child is killed and reaped if
    it outlives the run's deadline."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.update({k: "1" for k in THREAD_ENV})
    payload = {"workload": name, "mode": mode, "seed": seed, "smoke": smoke, "spans": spans}
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), json.dumps(payload)]

    def cpu():
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        return ru.ru_utime + ru.ru_stime

    c0, t0 = cpu(), time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, cpu() - c0, None, "timed out"
    wall, cpu_s = time.perf_counter() - t0, cpu() - c0
    if proc.returncode != 0:
        diag = (proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"])[-1]
        return wall, cpu_s, None, diag
    return wall, cpu_s, json.loads(proc.stdout.strip().splitlines()[-1]), None


def gate(name: str, result, smoke: bool) -> tuple[int, int, list[str]]:
    """Operations (time steps, or bound reports) attempted and failed by one
    solve, counting a miss against the seed-commit reference as failure of
    every operation that produced the missed value."""
    ref = REFERENCE[name]["smoke" if smoke else "full"]
    if result is None:
        return ref["operations"], ref["operations"], ["sample crashed"]
    attempted = max(result["attempted"], ref["operations"])
    failed = result["failed"] + attempted - result["attempted"]
    misses = [result["error"]] if result["error"] else []
    if WORKLOADS[name]["kind"] == "fk":
        if result["error"] is None:
            if abs(result["max_error"] / ref["max_error"] - 1.0) > ref["max_error_rel"]:
                misses.append(f"max_error {result['max_error']:.6e} != {ref['max_error']:.6e}")
            if abs(result["cycles_per_step"] - ref["cycles_per_step"]) > ref["cycles_per_step_abs"]:
                misses.append(f"cycles_per_step {result['cycles_per_step']} "
                              f"!= {ref['cycles_per_step']}")
            if misses:
                failed = attempted
    else:
        if result["violations"]:
            misses.append(f"{result['violations']} theory bounds violated")
        c = result["contraction"]
        if c is None or abs(c / ref["contraction"] - 1.0) > ref["contraction_rel"]:
            misses.append(f"contraction {c} != {ref['contraction']}")
            failed += 1
    return attempted, min(failed, attempted), misses


def provenance(name: str, seed: int, smoke: bool, env_info: dict, repeats: dict) -> dict:
    git = {"sha": "unknown", "dirty": None}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        def run_git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        git = {"sha": run_git("rev-parse", "HEAD"),
               "dirty": bool(run_git("status", "--porcelain", "--untracked-files=no"))}
    return {
        "workload": name, "seed": seed, "smoke": smoke, "repeats": repeats,
        "deterministic": WORKLOADS[name]["kind"] == "fk",
        "git": git, "python": platform.python_version(), **env_info,
        "blas_threads": {k: "1" for k in THREAD_ENV},
        "nproc": os.cpu_count(), "cpus_usable": len(CPUS),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Measure one workload; returns the result object and prints the samples."""
    t_start = time.monotonic()
    deadline = t_start + DEADLINE_S
    samples = []

    def sample(mode, spans=None):
        pinned = pin_to_fastest_cpu()
        wall, cpu_s, result, diag = child(name, mode, seed, smoke, deadline, spans)
        samples.append({"mode": mode, "cpu": pinned, "wall_s": wall, "cpu_s": cpu_s,
                        "result": result, "diag": diag})
        shown = "" if result is None else " ".join(
            f"{k}={result[k]:.6g}" for k in ("setup_wall_s", "setup_s", "solve_wall_s",
                                             "cal_ms", "run_s",
                                             "max_error", "cycles_per_step", "contraction")
            if isinstance(result.get(k), float))
        print(f"  {name} {mode:<5} wall={wall:.4f}s cpu={cpu_s:.4f}s {shown} {diag or ''}",
              flush=True)
        return wall, result

    if trace:
        _, plain = sample("solve")
        spans = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.npz")
        _, traced = sample("trace", spans)
    else:
        for _ in range(SETUP_RUNS):
            sample("setup")
        walls = []
        while len(walls) < MIN_SOLVES or (
            time.monotonic() - t_start + statistics.median(walls) <= seconds
        ):
            if time.monotonic() > deadline:
                break
            walls.append(sample("solve")[0])

    attempted = failed = 0
    misses = []
    for s in samples:
        if s["mode"] == "setup" and s["result"] is not None:
            continue
        a, f, m = gate(name, s["result"], smoke)
        attempted, failed, misses = attempted + a, failed + f, misses + m
    for m in misses:
        print(f"  {name} gate miss: {m}", flush=True)

    def ok(mode):
        return [s["result"] for s in samples if s["mode"] == mode and s["result"] is not None]

    if trace:
        metrics = dict(traced["layers"]) if traced else {}
        if plain:
            metrics["run.wall_s"] = plain["solve_wall_s"]
            metrics["run.cal_ms"] = plain["cal_ms"]
        if traced and plain:
            plain_s = plain["setup_wall_s"] + plain["solve_wall_s"]
            metrics["trace.overhead_ratio"] = metrics["trace.run_s"] / plain_s - 1.0
        units = {m["name"]: m["unit"] for m in PER_LAYER}
    else:
        solves = [s for s in samples if s["mode"] == "solve" and s["result"] is not None]
        metrics = {}
        if solves:
            metrics["run_s"] = statistics.median(s["result"]["run_s"] for s in solves)
            metrics["peak_rss_mb"] = statistics.median(s["result"]["peak_rss_mb"] for s in solves)
        setups = [r["setup_s"] for r in ok("setup") + ok("solve")]
        if setups:
            metrics["setup_s"] = statistics.median(setups)
        units = {m["name"]: m["unit"] for m in END_TO_END}
    env_info = next((r["env"] for r in ok("setup") + ok("trace") if "env" in r), {})
    repeats = {mode: sum(s["mode"] == mode for s in samples) for mode in ("setup", "solve", "trace")}

    complete = set(metrics) == set(units)
    result = {
        "correct": complete and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    for k, v in result["metrics"].items():
        print(f"  {name} {k:<44} {v['value']:>16.6g} {v['unit']}")
    prov = provenance(name, seed, smoke, env_info, repeats)
    print(f"  {name} provenance {json.dumps(prov)}")
    record = {"provenance": prov,
              "samples": [{k: v for k, v in s.items() if k != "result"}
                          | {"result": {k: v for k, v in (s["result"] or {}).items()
                                        if k != "layers"}} for s in samples],
              "result": result}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, finishes in seconds")
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(spec(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "mgfk", "__init__.py")):
        print("error: src/mgfk not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        if len(names) > 1:
            print(json.dumps(results[name]))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
