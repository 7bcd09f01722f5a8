"""The benchmark's own tests, on the tiny --smoke sizes.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import SpanTable, Tracer  # noqa: E402


def _results(capsys, trace: int) -> dict:
    assert run.main(["--workload", "all", "--smoke", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()
             if line.startswith("{")]
    assert len(lines) == len(workloads.WORKLOADS) + 1
    return dict(zip(workloads.WORKLOADS, lines))


def test_spec_matches_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == run.spec()


def test_every_metric_has_name_unit_and_direction():
    spec = run.spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] and m["better"] in ("lower", "higher")
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in spec["end_to_end"])} in spec["end_to_end"]


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric_and_passes_the_gate(capsys, trace):
    spec = run.spec()
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    for name, result in _results(capsys, trace).items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, name
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        if not trace:
            assert all(v["value"] > 0 for v in result["metrics"].values()), name


def test_gate_counts_a_changed_answer_as_failure():
    fk = {"attempted": 32, "failed": 0, "error": None,
          "max_error": 4.2225191854725563e-07, "cycles_per_step": 10.0}
    assert run.gate("fk1d-history", fk, smoke=True) == (32, 0, [])
    assert run.gate("fk1d-history", dict(fk, max_error=5e-7), smoke=True)[:2] == (32, 32)
    assert run.gate("fk1d-history", dict(fk, cycles_per_step=11.0), smoke=True)[:2] == (32, 32)
    assert run.gate("fk1d-history", None, smoke=True)[:2] == (32, 32)
    stalled = dict(fk, failed=5, error="ConvergenceFailure: stalled")
    assert run.gate("fk1d-history", stalled, smoke=True)[:2] == (32, 5)
    theory = {"attempted": 18, "failed": 0, "error": None, "violations": 0,
              "contraction": 0.7284657305647964}
    assert run.gate("theory2d-galerkin", theory, smoke=True) == (18, 0, [])
    assert run.gate("theory2d-galerkin", dict(theory, contraction=0.9), smoke=True)[:2] == (18, 1)
    cut_short = dict(theory, attempted=4, contraction=None, error="EstimationError")
    assert run.gate("theory2d-galerkin", cut_short, smoke=True)[:2] == (18, 15)


def test_workloads_drive_the_package_as_the_cli_does():
    from mgfk import cli

    for name in ("fk1d-history", "fk2d-vcycle"):
        w = workloads.WORKLOADS[name]
        mine = workloads.run_fk(workloads.build(w, w["smoke_M"]))
        cfg = cli.ExperimentConfig(preset=w["preset"], alpha=w["alpha"], nu=w["nu"],
                                   m_values=[w["smoke_M"]], coarsen=w["coarsen"], tol=w["tol"])
        (row,) = cli.run_table(cfg)
        assert (mine["max_error"], mine["cycles_per_step"]) == (row["error"], row["iter"])

    w = workloads.WORKLOADS["theory2d-galerkin"]
    mine = workloads.run_theory(workloads.build(w, w["smoke_M"]), w, seed=3)
    cfg = cli.ExperimentConfig(preset=w["preset"], alpha=w["alpha"], nu=w["nu"],
                               m_values=[w["smoke_M"]], omega=w["omega"],
                               trials=w["trials"], seed=3)
    reports, violated = cli.run_theory(cfg)
    contraction = [r.measured for r in reports if r.quantity.startswith("||I - B A||_A")]
    assert (mine["attempted"], bool(mine["violations"])) == (len(reports), violated)
    assert mine["contraction"] == contraction[0]


def test_self_time_excludes_children_and_vcycle_levels_nest():
    spans = {  # vcycle(level 0) > [apply, vcycle(level 1) > apply]
        "name_id": np.array([0, 1, 0, 1], dtype=np.int32),
        "parent": np.array([-1, 0, 0, 2], dtype=np.int32),
        "start": np.array([0.0, 1.0, 3.0, 4.0]),
        "end": np.array([10.0, 2.0, 7.0, 6.0]),
        "work": np.array([0.0, 8.0, 0.0, 4.0]),
    }
    t = SpanTable(["multigrid.vcycle", "stencil.toeplitz_apply"], spans)
    assert t.self_time[t.of("multigrid.vcycle")].sum() == pytest.approx(7.0)
    assert t.self_time[t.of("stencil.toeplitz_apply")].sum() == pytest.approx(3.0)
    assert list(t.nesting_self_time("multigrid.vcycle")) == pytest.approx([5.0, 2.0])
    assert list(t.called_from("multigrid.vcycle")) == [False, True, True, True]


def test_tracer_restores_what_it_patches():
    from mgfk import multigrid, stencil

    originals = (stencil.ToeplitzStencil.__dict__["apply"], multigrid.vcycle)
    tracer = Tracer()
    workloads.install_spans(tracer)
    assert multigrid.vcycle is not originals[1]
    stencil.LAPLACIAN.apply(np.ones(3))
    tracer.uninstall()
    assert (stencil.ToeplitzStencil.__dict__["apply"], multigrid.vcycle) == originals
    assert tracer.names[tracer.name_id[0]] == "stencil.toeplitz_apply"
    tracer.patch(stencil, "no_such_function", "stencil.missing")
    assert not hasattr(stencil, "no_such_function")
