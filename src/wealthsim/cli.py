"""Command-line driver.

Four commands, all driven by a sectioned key-value config file:

    wealthsim regime   --config run.ini            classify the economy
    wealthsim simulate --config run.ini --out dir  run the configured scenario
    wealthsim sweep    --config run.ini --out dir  analytic parameter sweep
    wealthsim validate --config run.ini            internal consistency checks

Exit codes: 0 success, 1 validation or simulation failure, 2 config
error, 3 knife-edge regime boundary.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

from . import market
from .errors import (
    ConfigError,
    DomainError,
    KnifeEdgeError,
    NonFiniteError,
    PriceUndefinedError,
    WealthsimError,
)
from .runconfig import RunConfig, load_config
from .scenarios import run_scenario, scenario_economy, validate_checks, write_summary

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_KNIFE_EDGE = 3

_REGIME_LABELS = {
    market.STATIONARY: "Stationary",
    market.ENDOGENOUS_GROWTH: "EndogenousGrowth",
    market.CONDITIONAL_GROWTH: "ConditionalEndogenousGrowth",
}


_FLAGS = {
    "out": dict(help="output directory (default from [outputs], else stdout only)"),
    "seed": dict(type=int, help="override the simulation seed"),
    "format": dict(choices=("csv", "json"), help="override the [outputs] format"),
    "threads": dict(type=int, help="most processes a simulation keeps busy: noise workers "
                                   "while stepping, then panel.csv writers (default 2); "
                                   "results do not depend on it"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wealthsim",
        description="Simulate and analyze a stochastic wealth-distribution economy.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text, flags in (
        ("regime", "classify the configured economy and print its equilibrium", ("out",)),
        ("simulate", "run the configured scenario and write panel + summary",
         ("out", "seed", "format", "threads")),
        ("sweep", "tabulate regime and tail index over a parameter grid", ("out",)),
        ("validate", "run internal consistency checks", ()),
    ):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, help="path to the run config file")
        for flag in flags:
            cmd.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def _out_dir(args, cfg) -> str | None:
    return args.out if args.out is not None else cfg.outputs.get("directory")


def cmd_regime(args) -> int:
    cfg = load_config(args.config)
    report = scenario_economy(cfg)[1]
    label = _REGIME_LABELS[report.regime]
    bits = [label]
    if report.regime == market.STATIONARY:
        bits.append(f"p_bar_star={report.mean_wealth:.6g}")
    else:
        bits.append(f"psi={report.growth_rate:.6g}")
    bits.append(f"rho_star={report.capital_return:.6g}")
    bits.append(f"omega_star={report.wage:.6g}")
    if report.tail_exponent is not None:
        bits.append(f"alpha={report.tail_exponent:.6g}")
    if report.poverty_threshold is not None:
        bits.append(f"poverty_threshold={report.poverty_threshold:.6g}")
    print(", ".join(bits))
    out = _out_dir(args, cfg)
    if out is not None:
        os.makedirs(out, exist_ok=True)
        write_summary({"regime": report.to_dict(), "config": cfg.to_dict()},
                      os.path.join(out, "regime.json"))
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = cfg.with_raw("simulation", seed=str(args.seed))
    if args.format is not None:
        cfg = cfg.with_raw("outputs", format=args.format)
    if args.threads is not None and args.threads < 1:
        raise ConfigError(f"thread count must be positive, got {args.threads}")
    summary = run_scenario(cfg, out_dir=_out_dir(args, cfg), threads=args.threads)
    print(f"{summary['scenario']}: {summary['snapshot_count']} snapshots, "
          f"final mean {summary['mean_path'][-1]:.6g}")
    for key in sorted(summary["metrics"]):
        print(f"  {key} = {summary['metrics'][key]}")
    if summary.get("ks_distance") is not None:
        print(f"  ks_distance = {summary['ks_distance']:.4g}")
    return EXIT_OK


def _sweep_value(cfg: RunConfig, parameter: str, value: float):
    """The scenario economy's regime report at one grid point, or an error."""
    params, theta = cfg.economy, None
    if parameter == "theta_bar":
        # sum_j w_ij**2 of a row-stochastic row lies in [1/F, 1]
        if not 0.0 < value <= 1.0:
            return f"theta_bar={value!r} must be > 0 and at most 1"
        theta = value
    else:
        try:
            params = dataclasses.replace(params, **{parameter: value})
        except DomainError as exc:
            return str(exc)
    try:
        return scenario_economy(cfg, params, theta)[1]
    except KnifeEdgeError:
        return "knife_edge"
    except WealthsimError as exc:
        return f"{type(exc).__name__}: {exc}"


def sweep_rows(cfg: RunConfig) -> list[list[str]]:
    """CSV rows for the configured sweep: one per grid value."""
    if cfg.sweep is None:
        raise ConfigError("config has no [sweep] section")
    parameter, grid = cfg.sweep
    cfg.overlap_means()  # a network that cannot be built or loaded fails the sweep
    rows = []
    for value in grid:
        out = _sweep_value(cfg, parameter, float(value))
        row = [parameter, f"{value:.17g}"]
        if isinstance(out, str):
            rows.append(row + [out, "", "", ""])
            continue
        alpha = "" if out.tail_exponent is None else f"{out.tail_exponent:.17g}"
        if out.regime == market.STATIONARY:
            rows.append(row + [out.regime, alpha, f"{out.mean_wealth:.17g}", ""])
        else:
            rows.append(row + [out.regime, alpha, "", f"{out.growth_rate:.17g}"])
    return rows


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    rows = [["parameter", "value", "regime", "alpha", "p_bar_star", "psi_eg"]] + sweep_rows(cfg)
    out = _out_dir(args, cfg)
    if out is not None:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "sweep.csv"), "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    checks = validate_checks(cfg)
    print(json.dumps({"checks": checks, "passed": all(c["passed"] for c in checks)},
                     indent=2))
    failing = [c["name"] for c in checks if not c["passed"]]
    if failing:
        print("failing checks: " + ", ".join(failing), file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"regime": cmd_regime, "simulate": cmd_simulate,
               "sweep": cmd_sweep, "validate": cmd_validate}[args.command]
    try:
        return handler(args)
    except KnifeEdgeError as exc:
        print(f"knife-edge: {exc}", file=sys.stderr)
        return EXIT_KNIFE_EDGE
    except (PriceUndefinedError, NonFiniteError) as exc:
        step = getattr(exc, "step", None)
        where = f" (step {step})" if step is not None else ""
        print(f"simulation failed{where}: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except WealthsimError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
