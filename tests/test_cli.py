import csv
import json

import numpy as np
import pytest

from mgfk.cli import CSV_COLUMNS, ExperimentConfig, main, run_table, run_theory
from mgfk.errors import MgfkError


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_coeffs_subcommand_values(tmp_path, capsys):
    out = tmp_path / "c.csv"
    code = main([
        "coeffs", "--alpha", "0.5", "--nu", "1", "--count", "2",
        "--rho-re", "0", "--rho-im", "0", "--tau", "0.1", "--out", str(out),
    ])
    assert code == 0
    rows = read_rows(out)
    assert rows[0] == ["k", "l_k", "Re d_k", "Im d_k"]
    assert [float(r[1]) for r in rows[1:]] == [1.0, -0.5, -0.125]
    # zero rate: imaginary parts identically zero
    assert all(float(r[3]) == 0.0 for r in rows[1:])


def test_coeffs_round_trip_bit_exact(tmp_path):
    out = tmp_path / "c.csv"
    main(["coeffs", "--alpha", "0.37", "--nu", "3", "--count", "20",
          "--rho-re", "1.0", "--rho-im", "2.0", "--tau", "0.05", "--out", str(out)])
    from mgfk.fsd import FsdCoefficients

    from helpers import read_csv

    ref = FsdCoefficients.build(0.37, 3, 1.0 + 2.0j, 0.05, 20)
    l, d = read_csv(out)
    assert np.array_equal(l, ref.l)
    assert np.array_equal(d, ref.d)


def test_table_writes_expected_columns(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = main([
        "table", "--preset", "example-6.1", "--alpha", "0.3",
        "--M", "8", "--M", "16", "--out", str(out),
    ])
    assert code == 0
    rows = read_rows(out)
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 3
    assert rows[1][2] == ""  # first row has no rate
    # rate column is log2 of successive error quotients
    e1, e2 = float(rows[1][1]), float(rows[2][1])
    assert float(rows[2][2]) == pytest.approx(np.log2(e1 / e2), abs=5e-4)
    text = capsys.readouterr().out
    assert "M" in text and "error" in text


def test_table_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["table", "--preset", "example-6.1", "--alpha", "0.3",
                     "--M", "8", "--out", str(out)]) == 0
    rows_a, rows_b = read_rows(a), read_rows(b)
    # identical apart from the wall-clock column
    for ra, rb in zip(rows_a, rows_b):
        assert ra[:4] == rb[:4]


def test_table_validation_failures_exit_one(tmp_path, capsys):
    assert main(["table", "--preset", "example-6.1", "--M", "6"]) == 1
    assert main(["table", "--alpha", "1.5"]) == 1
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"no_such_key": 1}))
    assert main(["table", "--config", str(cfg)]) == 1


def test_nan_arguments_exit_one(capsys):
    assert main(["theory", "--preset", "laplacian", "--omega", "nan"]) == 1
    assert "omega_pre" in capsys.readouterr().err
    assert main(["table", "--preset", "example-6.1", "--M", "8", "--tol", "nan"]) == 1
    assert "tol" in capsys.readouterr().err


def test_argparse_errors_exit_one():
    with pytest.raises(SystemExit) as info:
        main(["table", "--coarsen", "fancy"])
    assert info.value.code == 1


def test_nonconvergence_exits_two(capsys):
    code = main(["table", "--preset", "example-6.1", "--alpha", "0.3",
                 "--M", "8", "--tol", "1e-30"])
    assert code == 2
    assert "converge" in capsys.readouterr().err


def test_config_file_with_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"preset": "example-6.1", "alpha": 0.8, "m_values": [8]}))
    cfg = ExperimentConfig.from_json(cfg_path).resolved()
    assert cfg.alpha == 0.8
    assert cfg.nu == 4 and cfg.coarsen == "galerkin" and cfg.tol == 1e-11
    rows = run_table(cfg)
    assert len(rows) == 1 and rows[0]["M"] == 8


def test_theory_default_config_all_bounds_hold(capsys):
    code = main(["theory", "--preset", "example-6.1", "--alpha", "0.3", "--M", "16"])
    assert code == 0
    out = capsys.readouterr().out
    assert "VIOLATED" not in out
    assert "ok" in out


def test_theory_out_of_range_weight_warns_but_exits_zero(capsys):
    code = main(["theory", "--preset", "example-6.1", "--alpha", "0.3",
                 "--M", "16", "--omega", "0.9"])
    assert code == 0
    captured = capsys.readouterr()
    assert "outside the theory range" in captured.err


def test_theory_reports_a_diverging_cycle_as_violated(capsys):
    # out of the theory range, but a non-finite contraction is a violation
    # whatever the weight: it reads inf and VIOLATED, the run exits 3, and
    # stderr says only that the cycle diverged
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["theory", "--preset", "laplacian", "--omega", "1e200"])
    assert code == 3
    captured = capsys.readouterr()
    line = next(ln for ln in captured.out.splitlines() if ln.startswith("||I - B A||_A"))
    assert line.split()[8:11] == ["inf", "5.000000e-201", "VIOLATED"]
    assert captured.err.splitlines() == ["V-cycle diverged: its measured contraction is not finite"]


@pytest.mark.parametrize("preset", ["example-6.1", "example-6.2"])
def test_theory_json_of_a_feynman_kac_preset(tmp_path, preset):
    # their bound reports compare numpy floats; the JSON must still be written
    out = tmp_path / "reports.json"
    assert main(["theory", "--preset", preset, "--M", "16", "--json", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert rows and all(r["satisfied"] is True for r in rows)


def test_theory_laplacian_preset_reports_unit_constant(tmp_path):
    out = tmp_path / "reports.json"
    code = main(["theory", "--preset", "laplacian", "--json", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())
    contraction = [r for r in rows if "m0" in r.get("context", {})]
    assert contraction and contraction[0]["context"]["m0"] == 1.0
    assert contraction[0]["bound"] == pytest.approx(0.5)


def test_run_theory_violation_detection():
    cfg = ExperimentConfig(preset="example-6.1", alpha=0.3, m_values=[16])
    reports, violated = run_theory(cfg)
    assert not violated
    assert all(r.satisfied for r in reports if r.context.get("in_theory_range", True))


def test_theory_2d_at_m256_holds_every_bound():
    # the Lanczos estimate of the Galerkin level-1 spectrum used to stall here
    cfg = ExperimentConfig(preset="example-6.2", alpha=0.8, m_values=[256])
    reports, violated = run_theory(cfg)
    assert not violated
    assert all(r.satisfied for r in reports)
    assert {r.context.get("level") for r in reports} >= set(range(8))


def test_violated_bound_exits_three(monkeypatch, capsys):
    from mgfk import analysis, cli

    def fake_bounds(h, seed=0):
        return [analysis.BoundReport("lambda_max(D^-1 A) < 2", 2.0, 2.5, context={"level": 0})]

    monkeypatch.setattr(cli.analysis, "check_smoother_bounds", fake_bounds)
    code = main(["theory", "--preset", "laplacian"])
    assert code == 3
    assert "violated" in capsys.readouterr().err


def test_resolved_config_rejects_bad_values():
    with pytest.raises(MgfkError):
        ExperimentConfig(preset="nope").resolved()
    with pytest.raises(MgfkError):
        ExperimentConfig(m_values=[12]).resolved()
    with pytest.raises(MgfkError):
        ExperimentConfig(coarsen="best").resolved()


@pytest.mark.parametrize("command", ["table", "theory"])
@pytest.mark.parametrize(
    "fields",
    [{"alpha": "0.5"}, {"m_values": [8.0]}, {"m_values": 8}, {"nu": True}, {"preset": 3},
     {"seed": 1.5}, {"trials": "4"}, {"m1": None}, ["alpha", 0.5]],
)
def test_wrongly_typed_config_values_exit_one(tmp_path, capsys, command, fields):
    # a config file can hold any JSON value; a wrong type is a validation
    # error, not a traceback
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(fields))
    assert main([command, "--config", str(cfg)]) == 1
    assert "error:" in capsys.readouterr().err


def test_resolved_config_rejects_wrong_types():
    for fields in ({"alpha": "0.5"}, {"m_values": [8.0]}, {"nu": 2.0}, {"coarsen": 1}):
        with pytest.raises(MgfkError):
            ExperimentConfig(**fields).resolved()
    cfg = ExperimentConfig(omega_pre=1, tol=1, omega=None).resolved()  # ints are numbers
    assert cfg.omega_pre == 1 and cfg.tol == 1 and cfg.nu == 4
