"""Named simulation scenarios and the validation check suite.

Each scenario (a row of ``runconfig.SCENARIOS``) fixes a market structure,
runs the matching simulator, compares the outcome with its closed-form
prediction, and returns a JSON-ready summary whose contents follow from
the scenario's fields and its target's family.  The absolute-wealth
scenarios differ only in how much risk households can diversify away;
the relative-wealth scenario follows the sustained-growth regime.
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
    tail_exponent_growth,
    tail_exponent_stationary,
    write_density_table,
)
from .errors import ConfigError, WealthsimError
from .network import _row_sums, build_regular
from .params import validate_params
from .runconfig import RunConfig
from .simulate import (
    _stream,
    empirical_noise_covariance,
    run_absolute,
    run_relative_growth,
)
from .tails import hill, ks_distance, moments, write_ccdf_table

__all__ = ["run_scenario", "scenario_economy", "validate_checks", "write_summary"]

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


def scenario_economy(cfg: RunConfig, params=None, theta_bar=None):
    """The law a config's scenario runs: ``(params, report, overlaps)``.

    The one reader of the config's overlap means, after a sweep's
    ``theta_bar`` replaces the invest one.  Pinning both sides pools the
    firm noise away (``delta`` 0), a pinned invest side shuts the invest
    and cross overlaps, fixed wages the cross and labor ones, and the
    regime is classified at the invest overlap left.
    """
    params = cfg.economy if params is None else params
    invest, cross, labor = cfg.overlap_means()
    if theta_bar is not None:
        invest = theta_bar
    if set(cfg.scenario.pinned) == {"invest", "labor"} and params.delta > 0.0:
        # every household holds every firm: finite-firm noise is not in this law
        params = dataclasses.replace(params, delta=0.0)
    if "invest" in cfg.scenario.pinned:
        invest = cross = 0.0
    if cfg.scenario.fixed_wages:
        cross = labor = 0.0
    return params, market.classify_regime(params, cfg.production, invest), (invest, cross, labor)


def _closed_form(cfg: RunConfig, relative: bool | None = None):
    """``(params, report, target, overlaps)``: the law and its target.

    A growth regime's target is the density of relative wealth (None
    without a tail exponent), a stationary one's the mean-field density at
    the law's overlaps.  A run passes its kind as ``relative`` and gets a
    target only in the regime that kind measures; with None it is always
    built.
    """
    params, report, overlaps = scenario_economy(cfg)
    target = None
    if report.regime != market.STATIONARY:
        if relative is not False and report.tail_exponent is not None:
            target = relative_wealth_density(report.tail_exponent)
    elif not relative:
        state = market.clear(params, cfg.production, report.mean_wealth)
        target = stationary_density(mean_field_coeffs(params, state, *overlaps))
    return params, report, target, overlaps


def run_scenario(cfg: RunConfig, out_dir=None, threads: int | None = None) -> dict:
    """Run the configured scenario and summarize it against theory.

    Writes, into ``out_dir`` when given, the wealth panel (csv mode),
    then ``summary.json`` and, in csv mode, plot-ready density and tail
    tables.  The panel is consumed: once its moments and mean path are
    taken and ``panel.csv`` is written, its own pooled buffer is sorted
    in place for KS, Hill and ``ccdf.csv``.  ``threads`` caps every
    process the run forks (None: the default of two): first the noise
    workers while stepping, then the ``panel.csv`` writers, each capped
    again by the usable cores.  The outputs do not depend on it; the
    summary's ``counters`` say how many of each ran, ``panel_writers``
    being 0 when no ``panel.csv`` was written.
    """
    if cfg.scenario.name is None:
        raise ConfigError("config has no [scenario] section")
    # the target comes first, so a config without a closed form fails before step 1
    params, report, target, overlaps = _closed_form(cfg, cfg.scenario.relative)
    if cfg.scenario.relative:
        panel, metrics = _run_relative(cfg, params, report, overlaps[0], threads)
    else:
        panel, metrics = _run_absolute_scenario(cfg, params, report, threads)
    pooled = panel.pooled()
    measured = target is not None and not isinstance(target, PointMassDensity)
    tables = out_dir is not None and cfg.outputs.get("format", "csv") == "csv"
    # everything that reads the panel in time order comes first; then the
    # pooled view of the panel's one buffer is sorted in place, so KS, Hill
    # and ccdf.csv share the sorted sample without a copy
    stats = moments(pooled)
    mean_path = panel.mean_path()
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    panel.counters["panel_writers"] = \
        panel.to_csv(os.path.join(out_dir, "panel.csv"), threads) if tables else 0
    if measured:
        pooled.sort()

    summary = {
        "scenario": cfg.scenario.name,
        "seed": cfg.simulation.seed,
        "config": cfg.to_dict(),
        "regime": report.to_dict(),
        "times": panel.times,
        "mean_path": mean_path,
        "snapshot_count": int(panel.times.size),
        "moments": stats,
        "metrics": metrics,
        "hill": None,
        "ks_distance": ks_distance(pooled, target.cdf) if measured else None,
        "counters": panel.counters,
    }
    for key in ("mean", "variance"):
        if target is not None and getattr(target, key) is not None:
            metrics[f"analytic_{key}"] = getattr(target, key)
    if isinstance(target, GaussianDensity):
        metrics["sample_skewness"] = summary["moments"]["skewness"]
    if target is not None and target.tail_exponent is not None:
        est, note = _try_hill(pooled)
        summary["hill"] = est
        if note:
            metrics["hill_note"] = note
        metrics["alpha_analytic"] = report.tail_exponent
        if est is not None:
            metrics["alpha_hat"] = est["alpha"]

    if out_dir is not None:
        write_summary(summary, os.path.join(out_dir, "summary.json"))
    if tables:
        if measured:
            grid = target.quantile(np.linspace(0.001, 0.999, 501))
            write_density_table(target, os.path.join(out_dir, "density.csv"), grid)
        if summary["hill"] is not None:
            write_ccdf_table(pooled, os.path.join(out_dir, "ccdf.csv"))
    return summary


def _run_absolute_scenario(cfg: RunConfig, params, report, threads):
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

    panel = run_absolute(cfg.simulation, params, net, cfg.production, p0, threads,
                         labor_deterministic=cfg.scenario.fixed_wages)
    metrics: dict = {}
    if set(cfg.scenario.pinned) == {"invest", "labor"}:
        metrics["risk_fully_pooled"] = params.delta != cfg.economy.delta
        if report.regime == market.STATIONARY:
            dev = float(np.max(np.abs(panel.final() - report.mean_wealth)))
            metrics["max_abs_dev_from_stationary_mean"] = dev
            metrics["degenerate"] = dev < 1e-6 * report.mean_wealth
    if cfg.scenario.fixed_wages:
        min_wealth = float(panel.pooled().min())
        metrics["min_wealth_after_burn_in"] = min_wealth
        metrics["bounded_away_from_zero"] = min_wealth > 0.0
    return panel, metrics


def _run_relative(cfg: RunConfig, params, report, theta_bar, threads):
    if report.regime == market.STATIONARY:
        raise ConfigError(f"{cfg.scenario.name} needs a growing economy;"
                          " this configuration is stationary")
    n = cfg.build_network().n_households if cfg.network_spec else 10_000
    u0 = _initial_wealth(cfg, 1.0, n)
    u0 /= u0.mean()

    panel = run_relative_growth(cfg.simulation, params, theta_bar,
                                report.capital_return, u0, threads)
    final = panel.final()
    mean_u = float(final.mean())
    stderr = float(final.std(ddof=1) / math.sqrt(final.size))
    return panel, {
        "mean_relative_wealth": mean_u,
        "stderr_mean": stderr,
        "mean_within_3_stderr_of_1": abs(mean_u - 1.0) <= 3.0 * stderr,
        "growth_rate": report.growth_rate,
    }


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
    density normalization, tail-index continuity at the regime boundary,
    and the target's mean against the law's.  Returns one pass/fail
    record per check.
    """
    params, pf = cfg.economy, cfg.production
    checks = []

    def economy_check():
        problems = validate_params(params)
        return (not problems, "; ".join(problems) or "all fields in range")

    checks.append(_check("economy_params", economy_check))

    def euler_check():
        # the prices every step uses must pay out exactly a * g(ratio)
        err = 0.0
        for lam in (10.0 ** _stream(0, 0).uniform(-2.0, 4.0, 1000)).tolist():
            state = market.clear(params, pf, lam)
            rhs = params.a * pf.value(lam)
            err = max(err, abs(state.capital_return * lam + state.wage - rhs) / abs(rhs))
        return (err < 1e-12, f"max relative error {err:.3e} over 1000 ratios")

    checks.append(_check("euler_identity", euler_check))

    def network_check():
        if cfg.network_spec is None:
            return "no network configured"
        net = cfg.build_network()
        rows_i, rows_l = (np.abs(_row_sums(m.indptr, m.data) - 1.0).max()
                          for m in (net.invest, net.labor))
        ok = rows_i < 1e-9 and rows_l < 1e-9
        return (ok, f"row-sum deviations invest {rows_i:.2e}, labor {rows_l:.2e}")

    checks.append(_check("network_invariants", network_check))

    def covariance_check():
        spreads = (4, 10)  # else each side's widest configured row, at most 20
        if cfg.network_spec is not None:
            net = cfg.build_network()
            spreads = [min(int(np.diff(m.indptr).max()), 20) for m in (net.invest, net.labor)]
        net = build_regular(40, 20, *spreads, seed=3)
        gen = _stream(1, 0)
        wealth = 1.0 + 0.2 * gen.uniform(-1.0, 1.0, 40)
        # always the full-noise variant: the deterministic-labor covariance is
        # dominated by a rank-one term and needs ~20x the samples to resolve
        n_samples = 20_000
        emp, ana = empirical_noise_covariance(
            params, net, pf, wealth, n_samples=n_samples, seed=5)
        if not ana.any():
            ok = bool(np.allclose(emp, 0.0, atol=1e-15))
            return (ok, "zero-noise economy, covariance identically zero")
        # at a frozen state the increment is exactly Gaussian, so each sampled
        # entry has the known standard error sqrt((C_ii C_jj + C_ij^2) / (n-1))
        var = np.diag(ana)
        stderr = np.sqrt((np.outer(var, var) + ana ** 2) / (n_samples - 1))
        z = float(np.max(np.abs(emp - ana) / stderr))
        return (z < 5.0, f"max |sampled - analytic| = {z:.2f} standard errors (bound 5)")

    checks.append(_check("noise_covariance", covariance_check))

    def density_check():
        dens = _closed_form(cfg)[2]
        if dens is None:
            return "growth regime without capital tax or firm noise: no stationary shape to check"
        if isinstance(dens, PointMassDensity):
            return "degenerate point mass, nothing to normalize"
        qs = np.linspace(0.01, 0.99, 25)
        gap = float(np.max(np.abs(dens.cdf(dens.quantile(qs)) - qs)))
        return (gap < 1e-6,
                f"{type(dens).__name__}: max |cdf(quantile(q)) - q| = {gap:.2e}")

    checks.append(_check("density_normalization", density_check))

    def continuity_check():
        limit = pf.derivative_limit()
        if limit == 0.0:
            return "capital return vanishes at large ratios: no growth transition"
        if params.tau_k == 0.0:
            return "tau_k = 0: both sides of the transition are untaxed, no finite index"
        law, _, (theta, _, _) = scenario_economy(cfg)
        if law.delta == 0.0 or theta == 0.0:
            return "no capital noise in this law: no tail index to continue"
        rho_inf = law.a * limit
        boundary = dataclasses.replace(law, nu=law.s * rho_inf)
        a_stat = tail_exponent_stationary(boundary, rho_inf, theta)
        a_eg = tail_exponent_growth(law, rho_inf, theta)
        gap = abs(a_stat - a_eg)
        return (gap < 1e-9, f"|stationary - growth| = {gap:.2e} at the boundary")

    checks.append(_check("transition_continuity", continuity_check))

    def target_mean_check():
        _, report, dens, _ = _closed_form(cfg)
        if dens is None or dens.mean is None:
            return "no target with a finite mean"
        # a stationary law's mean is the cleared mean wealth, relative wealth's is 1
        want = report.mean_wealth if report.regime == market.STATIONARY else 1.0
        gap = abs(dens.mean - want) / abs(want)
        return (gap <= 1e-12, f"target mean {dens.mean:.17g} against {want:.17g}: "
                              f"relative gap {gap:.2e} (bound 1e-12)")

    checks.append(_check("target_mean", target_mean_check))
    return checks
