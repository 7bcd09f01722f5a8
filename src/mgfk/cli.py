"""Experiment runner: convergence tables, theory checks, coefficient dumps.

Exit codes: 0 success, 1 validation problem, 2 solver non-convergence,
3 violated theory bound.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass, field, replace

from . import analysis, multigrid as vc
from .coarsen import fk_operator, mu_coefficient
from .errors import ConvergenceFailure, MgfkError
from .feynman_kac import Evolution, convergence_rate, preset
from .fsd import FsdCoefficients, weights, write_csv
from .stencil import IDENTITY, LAPLACIAN, KroneckerSum

CSV_COLUMNS = ["M", "error", "rate", "iter", "cpu_s"]

_PRESET_DEFAULTS = {
    "example-6.1": {"nu": 4, "m_values": [32, 64, 128, 256], "coarsen": "galerkin", "tol": 1e-11},
    "example-6.2": {"nu": 2, "m_values": [16, 32, 64], "coarsen": "geometric", "tol": 1e-7},
}


def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _is_number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


_FIELD_KINDS = [
    *((n, "a number", _is_number) for n in ("alpha", "tol", "omega")),
    *((n, "an integer", _is_int) for n in ("nu", "trials", "seed")),
    *((n, "a string", lambda val: isinstance(val, str)) for n in ("preset", "coarsen", "out")),
]


@dataclass
class ExperimentConfig:
    """Run configuration; JSON file fields use the same names."""

    preset: str = "example-6.1"
    alpha: float = 0.3
    nu: int | None = None
    m_values: list = field(default_factory=list)
    coarsen: str | None = None
    tol: float | None = None
    omega: float | None = None
    trials: int = 4
    seed: int = 0
    out: str | None = None

    def resolved(self) -> "ExperimentConfig":
        self._check_types()
        if self.preset not in _PRESET_DEFAULTS and self.preset != "laplacian":
            raise MgfkError(f"unknown preset {self.preset!r}")
        base = _PRESET_DEFAULTS.get(self.preset, _PRESET_DEFAULTS["example-6.1"])
        cfg = replace(self)
        if cfg.nu is None:
            cfg.nu = base["nu"]
        if not cfg.m_values:
            cfg.m_values = list(base["m_values"])
        if cfg.coarsen is None:
            cfg.coarsen = base["coarsen"]
        if cfg.tol is None:
            cfg.tol = base["tol"]
        for m in cfg.m_values:
            if m < 2 or m & (m - 1):
                raise MgfkError(f"M values must be powers of two >= 2, got {m}")
        if cfg.coarsen not in ("galerkin", "geometric"):
            raise MgfkError(f"coarsen must be galerkin or geometric, got {cfg.coarsen!r}")
        if not 0.0 < cfg.alpha < 1.0:
            raise MgfkError(f"alpha must lie in (0, 1), got {cfg.alpha}")
        return cfg

    def _check_types(self) -> None:
        """Raise ``MgfkError`` for a field of the wrong type, which a config
        file can hold: a number for a float, an ``int`` (not a ``bool``) for
        a count and every M, a string for a name; ``None`` only where it is
        the default."""
        for name, kind, ok in _FIELD_KINDS:
            val = getattr(self, name)
            optional = self.__dataclass_fields__[name].default is None
            if not (ok(val) or (val is None and optional)):
                raise MgfkError(f"{name} must be {kind}, got {val!r}")
        if not isinstance(self.m_values, list) or not all(map(_is_int, self.m_values)):
            raise MgfkError(f"m_values must be a list of integers, got {self.m_values!r}")

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise MgfkError(f"config must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise MgfkError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


def run_table(cfg: ExperimentConfig) -> list[dict]:
    """One table sweep: rows of (M, max error, rate, mean iterations, cpu)."""
    cfg = cfg.resolved()
    rows = []
    prev_err = None
    for m in cfg.m_values:
        problem = preset(cfg.preset, cfg.alpha, m)
        t0 = time.perf_counter()
        ev = Evolution(problem, order=cfg.nu, solver="mgm", coarsening=cfg.coarsen, tol=cfg.tol).run()
        cpu = time.perf_counter() - t0
        err = ev.max_error()
        rate = convergence_rate(prev_err, err) if prev_err else None
        rows.append(
            {"M": m, "error": err, "rate": rate, "iter": ev.avg_iterations, "cpu_s": cpu}
        )
        prev_err = err
    return rows


def _format_row(row: dict) -> list[str]:
    return [
        str(row["M"]),
        f"{row['error']:.4e}",
        "" if row["rate"] is None else f"{row['rate']:.4f}",
        f"{row['iter']:.1f}",
        f"{row['cpu_s']:.2f}",
    ]


def write_table_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(_format_row(row))


def print_table(rows: list[dict], cfg: ExperimentConfig, out=None) -> None:
    out = out if out is not None else sys.stdout
    print(
        f"preset={cfg.preset} alpha={cfg.alpha} nu={cfg.nu} coarsen={cfg.coarsen} tol={cfg.tol}",
        file=out,
    )
    print(f"{'M':>6} {'error':>12} {'rate':>8} {'iter':>6} {'cpu_s':>8}", file=out)
    for row in rows:
        cells = _format_row(row)
        print(f"{cells[0]:>6} {cells[1]:>12} {cells[2]:>8} {cells[3]:>6} {cells[4]:>8}", file=out)


def run_theory(cfg: ExperimentConfig) -> tuple[list[analysis.BoundReport], bool]:
    """Bound suite for the configured system; returns (reports, any_violation).

    The checks run at one grid: more than one given M raises ``MgfkError``,
    and none runs them at the preset's first.  Out-of-range smoothing
    weights flag their report instead of counting as a violation, unless
    the measured value is not finite: a diverging cycle is a violation
    whatever the weight.
    """
    given = cfg.m_values  # before the preset's defaults fill it in
    cfg = cfg.resolved()
    if len(given) > 1:
        raise MgfkError(f"theory checks one M at a time, got {given}")
    m = cfg.m_values[0] - 1

    if cfg.preset == "laplacian":
        fine = KroneckerSum(1, 0.0, 1.0, IDENTITY, LAPLACIAN)
        m0 = analysis.approx_constant_tridiag(*LAPLACIAN.bands)
    else:
        problem = preset(cfg.preset, cfg.alpha, cfg.m_values[0])
        l0 = weights(cfg.alpha, cfg.nu, 0)[0]
        mu = mu_coefficient(problem.kappa, problem.alpha, problem.tau, problem.h)
        fine = fk_operator(problem.ndim, l0, mu)
        m0 = 16.0 if problem.ndim == 1 else 1536.0

    omega = cfg.omega if cfg.omega is not None else 0.5**fine.ndim
    hier = vc.build_hierarchy(fine, m, strategy="galerkin", omega_pre=omega, omega_post=omega)
    reports = analysis.check_smoother_bounds(hier)
    reports.append(
        analysis.check_contraction_bounds(hier, m0, trials=cfg.trials, seed=cfg.seed)
    )
    reports.append(analysis.coarsening_consistency(seed=cfg.seed))
    violated = any(
        not r.satisfied
        and (r.context.get("in_theory_range", True) or not math.isfinite(r.measured))
        for r in reports
    )
    return reports, violated


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mgfk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="run a convergence-table sweep")
    table.add_argument("--config", help="JSON config file")
    table.add_argument("--preset", choices=["example-6.1", "example-6.2"])
    table.add_argument("--alpha", type=float)
    table.add_argument("--nu", type=int, choices=[1, 2, 3, 4])
    table.add_argument("--M", dest="m_values", type=int, action="append",
                       help="resolution (repeatable); number of grid intervals, a power of two")
    table.add_argument("--coarsen", choices=["galerkin", "geometric"])
    table.add_argument("--tol", type=float)
    table.add_argument("--out", help="CSV output path")

    theory = sub.add_parser("theory", help="check spectral and contraction bounds")
    theory.add_argument("--config", help="JSON config file")
    theory.add_argument("--preset", choices=["example-6.1", "example-6.2", "laplacian"])
    theory.add_argument("--alpha", type=float)
    theory.add_argument("--nu", type=int, choices=[1, 2, 3, 4])
    theory.add_argument("--M", dest="m_values", type=int, action="append")
    theory.add_argument("--omega", type=float, help="smoothing weight (both pre and post)")
    theory.add_argument("--trials", type=int)
    theory.add_argument("--seed", type=int)
    theory.add_argument("--json", dest="json_out", help="write the reports as JSON")

    coeffs = sub.add_parser("coeffs", help="dump quadrature coefficient tables")
    coeffs.add_argument("--alpha", type=float, required=True)
    coeffs.add_argument("--nu", type=int, choices=[1, 2, 3, 4], required=True)
    coeffs.add_argument("--count", type=int, required=True, help="largest index N")
    coeffs.add_argument("--rho-re", type=float, default=0.0)
    coeffs.add_argument("--rho-im", type=float, default=0.0)
    coeffs.add_argument("--tau", type=float, default=1.0)
    coeffs.add_argument("--out", required=True)
    return parser


def _config_from_args(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig()
    for name in ("preset", "alpha", "nu", "coarsen", "tol", "omega", "trials", "seed", "out"):
        val = getattr(args, name, None)
        if val is not None:
            cfg = replace(cfg, **{name: val})
    if getattr(args, "m_values", None):
        cfg = replace(cfg, m_values=args.m_values)
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "table":
            cfg = _config_from_args(args).resolved()
            rows = run_table(cfg)
            print_table(rows, cfg)
            if cfg.out:
                write_table_csv(rows, cfg.out)
                print(f"wrote {cfg.out}")
            return 0

        if args.command == "theory":
            cfg = _config_from_args(args)
            reports, violated = run_theory(cfg)
            print(analysis.format_reports(reports))
            if getattr(args, "json_out", None):
                with open(args.json_out, "w") as fh:
                    fh.write(analysis.reports_to_json(reports))
            contraction = [r for r in reports if "in_theory_range" in r.context]
            if not all(math.isfinite(r.measured) for r in contraction):
                print("V-cycle diverged: its measured contraction is not finite", file=sys.stderr)
                return 3
            if not all(r.context["in_theory_range"] for r in contraction):
                print("warning: smoothing weight outside the theory range; "
                      "contraction bound not asserted", file=sys.stderr)
            if violated:
                print("theory bound violated", file=sys.stderr)
                return 3
            return 0

        if args.command == "coeffs":
            coeffs = FsdCoefficients.build(
                args.alpha, args.nu, complex(args.rho_re, args.rho_im), args.tau, args.count
            )
            write_csv(coeffs, args.out)
            print(f"wrote {args.out}")
            return 0
    except ConvergenceFailure as exc:
        print(f"solver failed to converge: {exc}", file=sys.stderr)
        return 2
    except (MgfkError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
