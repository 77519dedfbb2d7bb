"""Named simulation scenarios and the validation check suite.

Each scenario fixes a market structure, runs the matching simulator,
compares the outcome with its closed-form prediction, and returns a
JSON-ready summary.  The four absolute-wealth scenarios differ only in
how much risk households can diversify away; the relative-wealth
scenario follows the sustained-growth regime.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np

from . import market
from .analytics import (
    GaussianDensity,
    PointMassDensity,
    mean_field_coeffs,
    relative_wealth_density,
    stationary_density,
    write_density_table,
)
from .errors import ConfigError, WealthsimError
from .network import build_regular
from .params import validate_params
from .runconfig import RunConfig
from .simulate import (
    _stream,
    empirical_noise_covariance,
    run_absolute,
    run_relative_growth,
)
from .tails import hill, ks_distance, moments, write_ccdf_table

__all__ = ["run_scenario", "validate_checks", "write_summary"]

_INIT_STREAM = 2 ** 63  # step index reserved for initial-condition draws


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def write_summary(summary: dict, path):
    with open(path, "w") as fh:
        json.dump(_jsonable(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _initial_wealth(cfg: RunConfig, base: float, n: int) -> np.ndarray:
    if cfg.initial_spread == 0.0:
        return np.full(n, base)
    gen = _stream(cfg.simulation.seed, _INIT_STREAM)
    return base * (1.0 + cfg.initial_spread * gen.uniform(-1.0, 1.0, n))


def _try_hill(sample):
    try:
        est = hill(sample)
    except WealthsimError as exc:
        return None, str(exc)
    return {"alpha": est.alpha, "stderr": est.stderr, "n_tail": est.n_tail,
            "threshold": est.threshold}, None


def run_scenario(cfg: RunConfig, out_dir=None) -> dict:
    """Run the configured scenario and summarize it against theory.

    Writes ``summary.json`` plus, in csv mode, the wealth panel and
    plot-ready density and tail tables into ``out_dir`` when given.
    """
    if cfg.scenario is None:
        raise ConfigError("config has no [scenario] section")
    params, pf = cfg.economy, cfg.production
    if cfg.scenario == "CompleteMarkets" and params.delta > 0.0:
        # every household holds every firm, so idiosyncratic risk pools away;
        # finite-firm residual noise is not part of this scenario
        params = dataclasses.replace(params, delta=0.0)
    report = market.classify_regime(params, pf, invest_overlap_mean=cfg.theta_bar())

    if cfg.scenario == "EndogenousGrowthRelative":
        summary, panel, density = _run_relative(cfg, report)
    else:
        summary, panel, density = _run_absolute_scenario(cfg, report, params)

    summary["scenario"] = cfg.scenario
    summary["seed"] = cfg.simulation.seed
    summary["config"] = cfg.to_dict()
    summary["regime"] = report.to_dict()
    summary["times"] = panel.times
    summary["mean_path"] = panel.mean_path()
    summary["snapshot_count"] = int(panel.times.size)
    summary["moments"] = moments(panel.pooled())

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_summary(summary, os.path.join(out_dir, "summary.json"))
        if cfg.outputs.get("format", "csv") == "csv":
            panel.to_csv(os.path.join(out_dir, "panel.csv"))
            if density is not None and not isinstance(density, PointMassDensity):
                grid = density.quantile(np.linspace(0.001, 0.999, 501))
                write_density_table(density, os.path.join(out_dir, "density.csv"), grid)
            if summary.get("hill") is not None:
                write_ccdf_table(panel.pooled(), os.path.join(out_dir, "ccdf.csv"))
    return summary


def _run_absolute_scenario(cfg: RunConfig, report, params):
    pf = cfg.production
    net = cfg.build_network()

    if cfg.initial == "stationary":
        if report.regime != market.STATIONARY:
            raise ConfigError(
                "initial = stationary needs a stationary regime;"
                f" this economy is {report.regime} - give a numeric initial instead")
        base = report.mean_wealth
    else:
        base = float(cfg.initial)
    p0 = _initial_wealth(cfg, base, net.n_households)

    panel = run_absolute(cfg.simulation, params, net, pf, p0)
    pooled = panel.pooled()
    final = panel.final()
    summary: dict = {"hill": None, "ks_distance": None, "metrics": {}}

    density = None
    if report.regime == market.STATIONARY:
        invest_mean, cross_mean, labor_mean = net.overlap_means()
        state = market.clear(params, pf, report.mean_wealth)
        if cfg.simulation.labor_deterministic:
            coeffs = mean_field_coeffs(params, state, invest_mean, 0.0, 0.0)
        else:
            coeffs = mean_field_coeffs(params, state, invest_mean, cross_mean, labor_mean)
        density = stationary_density(coeffs)

    if cfg.scenario == "CompleteMarkets":
        summary["metrics"]["risk_fully_pooled"] = params.delta != cfg.economy.delta
        target = report.mean_wealth if report.regime == market.STATIONARY else None
        if target is not None:
            dev = float(np.max(np.abs(final - target)))
            summary["metrics"]["max_abs_dev_from_stationary_mean"] = dev
            summary["metrics"]["degenerate"] = dev < 1e-6 * target
    elif cfg.scenario == "LaborOnlyRisk":
        if density is not None:
            gauss = GaussianDensity(
                coeffs.drift_intercept / coeffs.drift_slope,
                coeffs.var_const / (2.0 * coeffs.drift_slope))
            summary["ks_distance"] = ks_distance(pooled, gauss.cdf)
            summary["metrics"] = {
                "analytic_mean": gauss.mean, "analytic_variance": gauss.variance,
                "sample_skewness": moments(pooled)["skewness"],
            }
            density = gauss
    elif cfg.scenario == "IncompleteMarkets":
        est, note = _try_hill(pooled)
        summary["hill"] = est
        if note:
            summary["metrics"]["hill_note"] = note
        if density is not None:
            summary["ks_distance"] = ks_distance(pooled, density.cdf)
        summary["metrics"]["alpha_analytic"] = report.tail_exponent
        if est is not None:
            summary["metrics"]["alpha_hat"] = est["alpha"]
    elif cfg.scenario == "StaggeredWages":
        min_wealth = float(pooled.min())
        summary["metrics"] = {
            "min_wealth_after_burn_in": min_wealth,
            "bounded_away_from_zero": min_wealth > 0.0,
            "alpha_analytic": report.tail_exponent,
        }
        est, note = _try_hill(pooled)
        summary["hill"] = est
        if note:
            summary["metrics"]["hill_note"] = note
        if density is not None:
            summary["ks_distance"] = ks_distance(pooled, density.cdf)
    return summary, panel, density


def _run_relative(cfg: RunConfig, report):
    params = cfg.economy
    if report.regime == market.STATIONARY:
        raise ConfigError(
            "EndogenousGrowthRelative needs a growing economy;"
            " this configuration is stationary")
    theta_bar = cfg.theta_bar()
    alpha = report.tail_exponent

    n = 10_000
    if cfg.network_spec is not None and "file" not in cfg.network_spec:
        n = cfg.network_spec["n_households"]
    u0 = _initial_wealth(cfg, 1.0, n)
    u0 /= u0.mean()

    panel = run_relative_growth(cfg.simulation, params, theta_bar,
                                report.capital_return, u0)
    pooled = panel.pooled()
    final = panel.final()
    density = relative_wealth_density(alpha) if alpha is not None else None

    mean_u = float(final.mean())
    stderr = float(final.std(ddof=1) / math.sqrt(final.size))
    summary = {
        "hill": _try_hill(pooled)[0],
        "ks_distance": ks_distance(pooled, density.cdf) if density else None,
        "metrics": {
            "alpha_analytic": alpha,
            "mean_relative_wealth": mean_u,
            "stderr_mean": stderr,
            "mean_within_3_stderr_of_1": abs(mean_u - 1.0) <= 3.0 * stderr,
            "growth_rate": report.growth_rate,
        },
    }
    return summary, panel, density


# ---------------------------------------------------------------------------
# validation suite


def _check(name, fn):
    try:
        detail = fn()
    except WealthsimError as exc:
        return {"name": name, "passed": False, "detail": f"{type(exc).__name__}: {exc}"}
    if isinstance(detail, tuple):
        passed, detail = detail
    else:
        passed = True
    return {"name": name, "passed": bool(passed), "detail": detail}


def validate_checks(cfg: RunConfig) -> list[dict]:
    """Fast internal-consistency checks for a configuration.

    Covers parameter ranges, the price-accounting identity, network
    invariants, the noise-covariance construction on a small instance,
    density normalization, and tail-index continuity at the regime
    boundary.  Returns one pass/fail record per check.
    """
    params, pf = cfg.economy, cfg.production
    checks = []

    def economy_check():
        problems = validate_params(params)
        return (not problems, "; ".join(problems) or "all fields in range")

    checks.append(_check("economy_params", economy_check))

    def euler_check():
        gen = _stream(0, 0)
        lam = 10.0 ** gen.uniform(-2.0, 4.0, 1000)
        rho = params.a * pf.derivative(lam)
        omega = params.a * (pf.value(lam) - lam * pf.derivative(lam))
        lhs = rho * lam + omega
        rhs = params.a * pf.value(lam)
        err = float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))
        return (err < 1e-12, f"max relative error {err:.3e} over 1000 ratios")

    checks.append(_check("euler_identity", euler_check))

    def network_check():
        if cfg.network_spec is None:
            return "no network configured"
        net = cfg.build_network()
        rows_i = np.abs(np.asarray(net.invest.sum(axis=1)).ravel() - 1.0).max()
        rows_l = np.abs(np.asarray(net.labor.sum(axis=1)).ravel() - 1.0).max()
        ok = rows_i < 1e-9 and rows_l < 1e-9
        return (ok, f"row-sum deviations invest {rows_i:.2e}, labor {rows_l:.2e}")

    checks.append(_check("network_invariants", network_check))

    def covariance_check():
        net = build_regular(40, 20,
                            min(cfg.network_spec["invest_spread"], 20)
                            if cfg.network_spec and "invest_spread" in cfg.network_spec else 4,
                            min(cfg.network_spec["labor_spread"], 20)
                            if cfg.network_spec and "labor_spread" in cfg.network_spec else 10,
                            seed=3)
        gen = _stream(1, 0)
        wealth = 1.0 + 0.2 * gen.uniform(-1.0, 1.0, 40)
        # always the full-noise variant: the deterministic-labor covariance is
        # dominated by a rank-one term and needs ~20x the samples to resolve
        emp, ana = empirical_noise_covariance(
            params, net, pf, wealth, n_samples=20_000, seed=5)
        scale = np.abs(ana).max()
        if scale == 0.0:
            ok = bool(np.allclose(emp, 0.0, atol=1e-15))
            return (ok, "zero-noise economy, covariance identically zero")
        mask = np.abs(ana) > 1e-3 * scale
        rel = float(np.max(np.abs(emp[mask] - ana[mask]) / np.abs(ana[mask])))
        return (rel < 0.10, f"max relative gap {rel:.3f} on significant entries")

    checks.append(_check("noise_covariance", covariance_check))

    def density_check():
        report = market.classify_regime(params, pf, invest_overlap_mean=cfg.theta_bar())
        if report.regime != market.STATIONARY:
            if report.tail_exponent is None:
                return "growth regime without capital tax: no stationary shape to check"
            dens = relative_wealth_density(report.tail_exponent)
        else:
            state = market.clear(params, pf, report.mean_wealth)
            tb = cfg.theta_bar()
            coeffs = mean_field_coeffs(params, state, tb, tb, tb)
            dens = stationary_density(coeffs)
        if isinstance(dens, PointMassDensity):
            return "degenerate point mass, nothing to normalize"
        qs = np.linspace(0.01, 0.99, 25)
        gap = float(np.max(np.abs(dens.cdf(dens.quantile(qs)) - qs)))
        return (gap < 1e-6, f"max |cdf(quantile(q)) - q| = {gap:.2e}")

    checks.append(_check("density_normalization", density_check))

    def continuity_check():
        limit = pf.derivative_limit()
        if limit == 0.0:
            return "capital return vanishes at large ratios: no growth transition"
        if params.tau_k == 0.0:
            return "tau_k = 0: both sides of the transition are untaxed, no finite index"
        from .analytics import tail_exponent_growth, tail_exponent_stationary
        rho_inf = params.a * limit
        boundary = dataclasses.replace(params, nu=params.s * rho_inf)
        a_stat = tail_exponent_stationary(boundary, rho_inf, cfg.theta_bar())
        a_eg = tail_exponent_growth(params, rho_inf, cfg.theta_bar())
        gap = abs(a_stat - a_eg)
        return (gap < 1e-9, f"|stationary - growth| = {gap:.2e} at the boundary")

    checks.append(_check("transition_continuity", continuity_check))
    return checks
