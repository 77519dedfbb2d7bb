"""Scenario drivers: summaries, artifacts, and the check suite."""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import P_BAR_STAR, SHORT_RUNS
from wealthsim import (
    GaussianDensity,
    build_regular,
    config_from_dict,
    load_config,
    market,
    run_scenario,
    save_network,
    validate_checks,
)
from wealthsim.cli import main
from wealthsim.errors import ConfigError
from wealthsim.scenarios import _closed_form

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

_BENCH_ECONOMY = {"s": "0.2", "tau_k": "0.2", "tau_l": "0.1",
                  "nu": "0.05", "delta": "1"}
_CD = {"kind": "cobb_douglas", "eps": "0.3"}


def _config(economy, production, network, simulation, scenario, outputs=None):
    sections = {"economy": economy, "production": production,
                "simulation": simulation, "scenario": {"name": scenario}}
    if network is not None:
        sections["network"] = network
    if outputs is not None:
        sections["outputs"] = outputs
    return config_from_dict(sections)


def test_run_scenario_requires_scenario_section():
    cfg = config_from_dict({"economy": _BENCH_ECONOMY, "production": _CD})
    with pytest.raises(ConfigError):
        run_scenario(cfg)


def test_stationary_initial_needs_stationary_regime():
    cfg = _config({"s": "0.2", "tau_k": "0.2", "nu": "0.01", "delta": "1"},
                  {"kind": "ces", "eps": "0.2", "gam": "0.7"},
                  {"n_households": "20", "n_firms": "4",
                   "invest_spread": "4", "labor_spread": "4", "seed": "0"},
                  {"dt": "0.25", "t_end": "10"},
                  "CompleteMarkets")
    with pytest.raises(ConfigError) as err:
        run_scenario(cfg)
    assert "stationary" in str(err.value)


def test_complete_markets_collapses_to_the_mean():
    cfg = _config(_BENCH_ECONOMY, _CD,
                  {"n_households": "60", "n_firms": "12",
                   "invest_spread": "12", "labor_spread": "12", "seed": "3"},
                  {"dt": "0.5", "t_end": "400", "burn_in": "0",
                   "record_every": "100", "seed": "7",
                   "initial": "stationary", "initial_spread": "0.2"},
                  "CompleteMarkets")
    summary = run_scenario(cfg)
    assert summary["scenario"] == "CompleteMarkets"
    assert summary["regime"]["regime"] == "stationary"
    assert summary["metrics"]["risk_fully_pooled"] is True
    assert summary["metrics"]["degenerate"] is True
    assert summary["metrics"]["max_abs_dev_from_stationary_mean"] < 1e-6 * P_BAR_STAR
    assert summary["snapshot_count"] == 5
    # pooled moments include the pre-relaxation snapshot; the path end is exact
    assert summary["mean_path"][-1] == pytest.approx(P_BAR_STAR, rel=1e-6)


def _incomplete_cfg(outputs=None, scenario="IncompleteMarkets"):
    return _config({**_BENCH_ECONOMY, "delta": "700"}, _CD,
                   {"n_households": "100", "n_firms": "100",
                    "invest_spread": "2", "labor_spread": "10", "seed": "7"},
                   {"dt": "0.1", "t_end": "30", "burn_in": "10",
                    "record_every": "5", "seed": "2",
                    "initial": "stationary", "initial_spread": "0.2"},
                   scenario, outputs)


def test_incomplete_markets_artifacts(tmp_path):
    out = tmp_path / "run"
    summary = run_scenario(_incomplete_cfg(), out_dir=out)

    assert summary["snapshot_count"] == 5
    assert summary["hill"] is not None
    assert set(summary["hill"]) == {"alpha", "stderr", "n_tail", "threshold"}
    assert 0.0 < summary["ks_distance"] < 1.0
    assert summary["metrics"]["alpha_analytic"] == pytest.approx(
        2.507936507936507, rel=1e-12)

    data = json.loads((out / "summary.json").read_text())
    assert data["scenario"] == "IncompleteMarkets"
    assert len(data["mean_path"]) == 5
    echoed = config_from_dict(data["config"])
    assert echoed.economy == _incomplete_cfg().economy
    assert echoed.scenario.name == "IncompleteMarkets"

    panel_lines = (out / "panel.csv").read_text().strip().splitlines()
    assert panel_lines[0] == "t,household_id,wealth"
    assert len(panel_lines) == 1 + 5 * 100

    density_lines = (out / "density.csv").read_text().strip().splitlines()
    assert density_lines[0] == "x,pdf,cdf"
    cdf = np.array([float(r.split(",")[2]) for r in density_lines[1:]])
    assert np.all(np.diff(cdf) >= 0.0)

    assert (out / "ccdf.csv").read_text().startswith("log_x,log_ccdf")


def test_order_statistics_read_the_panels_own_sorted_buffer(tmp_path, monkeypatch):
    # KS, Hill and ccdf.csv get the panel's pooled buffer, sorted in place,
    # and panel.csv is written from the panel before that sort
    from wealthsim import scenarios

    seen, panels = [], []

    def recording(fn):
        def wrapped(sample, *args):
            seen.append((fn.__name__, sample))
            return fn(sample, *args)
        return wrapped

    run_absolute = scenarios.run_absolute

    def run(*args, **kwargs):
        panel = run_absolute(*args, **kwargs)
        panels.append((panel, panel.snapshots.copy()))
        return panel

    monkeypatch.setattr(scenarios, "run_absolute", run)
    for name in ("ks_distance", "hill", "write_ccdf_table"):
        monkeypatch.setattr(scenarios, name, recording(getattr(scenarios, name)))
    run_scenario(_incomplete_cfg(), out_dir=tmp_path)

    (panel, unsorted), = panels
    assert [name for name, _ in seen] == ["ks_distance", "hill", "write_ccdf_table"]
    for _, sample in seen:
        assert np.shares_memory(sample, panel.snapshots)
        assert np.all(np.diff(sample) >= 0.0)
    rows = np.loadtxt(tmp_path / "panel.csv", delimiter=",", skiprows=1)
    np.testing.assert_array_equal(rows[:, 2], unsorted.ravel())


def test_json_format_suppresses_tables(tmp_path):
    out = tmp_path / "run"
    run_scenario(_incomplete_cfg(outputs={"format": "json"}), out_dir=out)
    assert (out / "summary.json").exists()
    assert not (out / "panel.csv").exists()
    assert not (out / "density.csv").exists()
    assert not (out / "ccdf.csv").exists()


def test_labor_only_compares_against_gaussian():
    cfg = _config(_BENCH_ECONOMY, _CD,
                  {"n_households": "60", "n_firms": "12",
                   "invest_spread": "12", "labor_spread": "3", "seed": "5"},
                  {"dt": "0.25", "t_end": "150", "burn_in": "50",
                   "record_every": "10", "seed": "1", "initial": "stationary"},
                  "LaborOnlyRisk")
    summary = run_scenario(cfg)
    m = summary["metrics"]
    assert m["analytic_mean"] == pytest.approx(P_BAR_STAR, rel=1e-12)
    assert m["analytic_variance"] > 0.0
    assert abs(m["sample_skewness"]) < 1.0
    assert summary["ks_distance"] < 0.25
    assert summary["hill"] is None


def test_staggered_wages_floor():
    summary = run_scenario(_incomplete_cfg(scenario="StaggeredWages"))
    m = summary["metrics"]
    assert m["bounded_away_from_zero"] is True
    assert m["min_wealth_after_burn_in"] > 0.0
    # the capital-noise tail is untouched by freezing wage income
    assert m["alpha_analytic"] == pytest.approx(2.507936507936507, rel=1e-12)
    assert summary["ks_distance"] is not None


def _growth_relative_cfg():
    return config_from_dict({
        "economy": {"s": "0.2", "tau_k": "0.2", "nu": "0.01",
                    "delta": "10"},
        "production": {"kind": "ces", "eps": "0.2", "gam": "0.7"},
        "simulation": {"dt": "0.25", "t_end": "300", "burn_in": "200",
                       "record_every": "50", "seed": "3"},
        "scenario": {"name": "EndogenousGrowthRelative"},
    })


def test_endogenous_growth_scenario():
    summary = run_scenario(_growth_relative_cfg())
    assert summary["regime"]["regime"] == "endogenous_growth"
    assert summary["snapshot_count"] == 3
    m = summary["metrics"]
    assert m["alpha_analytic"] == pytest.approx(4.114430180685449, rel=1e-12)
    assert m["growth_rate"] == pytest.approx(0.010067876424908159, rel=1e-12)
    assert m["mean_within_3_stderr_of_1"] is True
    assert summary["ks_distance"] is not None


def test_relative_run_takes_its_size_from_the_network_file(tmp_path):
    path = tmp_path / "net.txt"
    save_network(build_regular(60, 30, 3, 1, seed=0), path)
    # delta = 30 at the network's overlap 1/3 is the product 10 of the base config
    sections = _growth_relative_cfg().to_dict()
    sections["economy"] = {"s": "0.2", "tau_k": "0.2", "nu": "0.01", "delta": "30"}
    cfg = config_from_dict({**sections, "network": {"file": str(path)}})
    summary = run_scenario(cfg)
    assert summary["moments"]["n"] == 60 * summary["snapshot_count"]


@pytest.mark.parametrize("name", ["complete_markets", "labor_only"])
def test_a_saved_network_steps_like_the_built_one(tmp_path, saved_network_config, name):
    # the full sides are measured on the loaded matrices, so the loaded run
    # takes the firm-mean shortcut that the built run takes
    for label, path in (("built", CONFIG_DIR / f"{name}.ini"),
                        ("saved", saved_network_config(name))):
        cfg = load_config(path).with_raw("simulation", **SHORT_RUNS[name])
        assert ("file" in cfg.network_spec) == (label == "saved")
        run_scenario(cfg, out_dir=tmp_path / label)
    saved, built = ((tmp_path / label / "panel.csv").read_bytes() for label in ("saved", "built"))
    assert saved == built


@pytest.mark.parametrize("make_cfg", [_incomplete_cfg, _growth_relative_cfg])
def test_missing_target_fails_before_the_run(monkeypatch, make_cfg):
    from wealthsim import scenarios
    from wealthsim.errors import DegenerateDiscriminantError

    def no_closed_form(*args):
        raise DegenerateDiscriminantError("discriminant 0")

    def never(*args, **kwargs):
        raise AssertionError("the run started before its target was built")

    monkeypatch.setattr(scenarios, "stationary_density", no_closed_form)
    monkeypatch.setattr(scenarios, "relative_wealth_density", no_closed_form)
    monkeypatch.setattr(scenarios, "run_absolute", never)
    monkeypatch.setattr(scenarios, "run_relative_growth", never)
    with pytest.raises(DegenerateDiscriminantError):
        run_scenario(make_cfg())


def test_relative_growth_extreme_tail_matches_density():
    # tail index just above one: the pooled sample still tracks the
    # closed-form shape even though sample moments are useless there
    cfg = config_from_dict({
        "economy": {"s": "0.2", "tau_k": "0.2", "nu": "0.01",
                    "delta": "300"},
        "production": {"kind": "ces", "eps": "0.2", "gam": "0.7"},
        "simulation": {"dt": "0.25", "t_end": "2500", "burn_in": "2400",
                       "record_every": "50", "seed": "2"},
        "scenario": {"name": "EndogenousGrowthRelative"},
    })
    summary = run_scenario(cfg)
    assert summary["metrics"]["alpha_analytic"] == pytest.approx(
        1.1038143393561817, rel=1e-12)
    assert summary["ks_distance"] < 0.05
    assert 0.9 < summary["hill"]["alpha"] < 1.4


# the closed form each shipped config's density check normalises: the
# same target the scenario's KS distance is measured against
_SHIPPED_TARGETS = {
    "complete_markets": "point mass",
    "labor_only": "GaussianDensity",
    "incomplete_markets": "PearsonType4Density",
    "staggered_wages": "InverseGammaDensity",
    "endogenous_growth": "InverseGammaDensity",
    "nu_sweep": "InverseGammaDensity",
}


@pytest.mark.parametrize("name", sorted(_SHIPPED_TARGETS))
def test_validate_checks_pass_on_shipped_config(name):
    cfg = load_config(CONFIG_DIR / f"{name}.ini")
    checks = validate_checks(cfg)
    assert [c["name"] for c in checks] == [
        "economy_params", "euler_identity", "network_invariants",
        "noise_covariance", "density_normalization", "transition_continuity", "target_mean"]
    failed = [c for c in checks if not c["passed"]]
    assert failed == []
    assert _SHIPPED_TARGETS[name] in checks[4]["detail"]
    if name == "incomplete_markets":
        assert "no growth transition" in checks[5]["detail"]


@pytest.mark.parametrize("name", sorted(SHORT_RUNS))
def test_one_tail_exponent_per_shipped_config(name, capsys):
    # the alpha regime prints, the summary's regime and alpha_analytic and
    # the target density's tail all read one law: one value, or none at all
    assert main(["regime", "--config", str(CONFIG_DIR / f"{name}.ini")]) == 0
    printed = re.search(r"alpha=([^,\s]+)", capsys.readouterr().out)
    cfg = load_config(CONFIG_DIR / f"{name}.ini").with_raw("simulation", **SHORT_RUNS[name])
    alpha = _closed_form(cfg)[2].tail_exponent
    summary = run_scenario(cfg)
    reported = [summary["regime"]["tail_exponent"], summary["metrics"].get("alpha_analytic")]
    if alpha is None:
        assert printed is None
        assert reported == [None, None]
    else:
        assert printed.group(1) == f"{alpha:.6g}"
        assert reported == [pytest.approx(alpha, rel=1e-12, abs=0)] * 2


@pytest.mark.parametrize("name, economy", [
    *((name, {}) for name in sorted(SHORT_RUNS)),
    ("incomplete_markets", {"delta": "0"}),
], ids=[*sorted(SHORT_RUNS), "incomplete_markets_delta_0"])
def test_reporting_follows_the_target(name, economy):
    # a Hill index is reported exactly where the closed form has a power
    # tail, analytic moments exactly where they are finite: with delta = 0
    # an IncompleteMarkets economy targets a point mass and reports no Hill index
    cfg = load_config(CONFIG_DIR / f"{name}.ini").with_raw("simulation", **SHORT_RUNS[name])
    cfg = cfg.with_raw("economy", **economy)
    target = _closed_form(cfg, cfg.scenario.relative)[2]
    summary = run_scenario(cfg)
    tailed = target is not None and target.tail_exponent is not None
    metrics = summary["metrics"]
    assert (summary["hill"] is not None) == tailed
    assert ("alpha_analytic" in metrics) == tailed
    assert metrics.get("alpha_hat") == (summary["hill"] or {}).get("alpha")
    for key in ("mean", "variance"):
        finite = target is not None and getattr(target, key) is not None
        assert metrics.get(f"analytic_{key}") == (getattr(target, key) if finite else None)
    assert ("sample_skewness" in metrics) == isinstance(target, GaussianDensity)


def test_euler_check_tests_the_prices_every_step_uses(monkeypatch):
    # a wage off by a relative 1e-6 in market.clear must fail the check
    cfg = config_from_dict({"economy": _BENCH_ECONOMY, "production": _CD})
    honest = market.clear

    def skewed(params, pf, mean_wealth):
        state = honest(params, pf, mean_wealth)
        return dataclasses.replace(state, wage=state.wage * (1.0 + 1e-6))

    assert {c["name"]: c for c in validate_checks(cfg)}["euler_identity"]["passed"]
    monkeypatch.setattr(market, "clear", skewed)
    euler = {c["name"]: c for c in validate_checks(cfg)}["euler_identity"]
    assert not euler["passed"]
    assert "max relative error" in euler["detail"]


def _noise_covariance(cfg):
    return {c["name"]: c for c in validate_checks(cfg)}["noise_covariance"]


def test_noise_covariance_check_passes_on_two_firm_probe():
    # 20 000 samples on a network of two-firm rows: a relative-gap bound
    # reads sampling noise as a model error here, the standard errors do not
    cfg = _config({**_BENCH_ECONOMY, "delta": "700"}, _CD,
                  {"n_households": "20", "n_firms": "10",
                   "invest_spread": "2", "labor_spread": "2", "seed": "7"},
                  {"dt": "0.1", "t_end": "200", "burn_in": "20",
                   "record_every": "10", "seed": "2", "initial": "stationary"},
                  "IncompleteMarkets")
    check = _noise_covariance(cfg)
    assert check["passed"], check["detail"]


def test_noise_covariance_check_catches_a_five_percent_error(monkeypatch):
    from wealthsim import scenarios

    sampled = scenarios.empirical_noise_covariance

    def off_by_five_percent(*args, **kwargs):
        emp, ana = sampled(*args, **kwargs)
        return emp, 1.05 * ana

    cfg = load_config(CONFIG_DIR / "incomplete_markets.ini")
    monkeypatch.setattr(scenarios, "empirical_noise_covariance", off_by_five_percent)
    check = _noise_covariance(cfg)
    assert not check["passed"]
    assert "standard errors" in check["detail"]


def _guard_at(cfg, mean_wealth):
    params = dataclasses.replace(cfg.economy, delta=0.0)
    rho = market.clear(params, cfg.production, mean_wealth).capital_return
    return params.s * (1.0 - params.tau_k) * rho * cfg.simulation.dt


def test_dt_guard_counter_is_flat_at_a_constant_mean():
    cfg = dataclasses.replace(load_config(CONFIG_DIR / "complete_markets.ini"),
                              initial_spread=0.0)
    summary = run_scenario(cfg)
    assert summary["counters"]["steps"] == 1600
    start = _guard_at(cfg, summary["regime"]["mean_wealth"])
    assert summary["counters"]["dt_guard_max"] == pytest.approx(start, rel=1e-12)


def test_dt_guard_counter_rises_as_mean_wealth_falls():
    # the shipped initial spread draws a mean 0.07% above the fixed point,
    # so the mean falls all run long and the return, with the guard, rises
    cfg = load_config(CONFIG_DIR / "complete_markets.ini")
    summary = run_scenario(cfg)
    path = summary["mean_path"]
    assert np.all(np.diff(path) < 0.0)
    start = _guard_at(cfg, path[0])
    assert summary["counters"]["dt_guard_max"] > start * (1.0 + 1e-4)
    assert summary["counters"]["dt_guard_max"] < _guard_at(cfg, path[-1]) * (1.0 + 1e-9)


def test_validate_checks_degenerate_branches():
    quiet = config_from_dict({
        "economy": {**_BENCH_ECONOMY, "delta": "0"},
        "production": _CD,
    })
    by_name = {c["name"]: c for c in validate_checks(quiet)}
    assert all(c["passed"] for c in by_name.values())
    assert by_name["network_invariants"]["detail"] == "no network configured"
    assert "identically zero" in by_name["noise_covariance"]["detail"]
    assert "point mass" in by_name["density_normalization"]["detail"]

    untaxed = config_from_dict({
        "economy": {"s": "0.2", "tau_k": "0", "nu": "0.01", "delta": "300"},
        "production": {"kind": "ces", "eps": "0.2", "gam": "0.7"},
    })
    by_name = {c["name"]: c for c in validate_checks(untaxed)}
    assert "tau_k = 0" in by_name["transition_continuity"]["detail"]
    assert "no stationary shape" in by_name["density_normalization"]["detail"]

    still = config_from_dict({
        "economy": {"s": "0.2", "tau_k": "0.2", "nu": "0.01", "delta": "0"},
        "production": {"kind": "ces", "eps": "0.2", "gam": "0.7"},
    })
    by_name = {c["name"]: c for c in validate_checks(still)}
    assert all(c["passed"] for c in by_name.values())
    assert "no tail index to continue" in by_name["transition_continuity"]["detail"]


def test_fully_spread_incomplete_markets_target_a_shifted_inverse_gamma():
    # both spreads equal to n_firms make the noise variance a perfect square,
    # whose discriminant rounding leaves at about 1e-16 * var_lin**2
    cfg = load_config(CONFIG_DIR / "complete_markets.ini").with_raw(
        "scenario", name="IncompleteMarkets")
    by_name = {c["name"]: c for c in validate_checks(cfg)}
    assert [c for c in by_name.values() if not c["passed"]] == []
    assert "InverseGammaDensity" in by_name["density_normalization"]["detail"]
    summary = run_scenario(cfg.with_raw("simulation", **SHORT_RUNS["complete_markets"]))
    # the run completes against that target; its 50 firms' common noise
    # moves the cross-section's mean, so no KS bound is asserted here
    assert summary["metrics"]["analytic_mean"] == pytest.approx(P_BAR_STAR, rel=1e-12)
    assert summary["ks_distance"] is not None


@pytest.mark.parametrize("name", ["endogenous_growth", "staggered_wages"])
def test_target_mean_check_sees_a_misplaced_target(monkeypatch, name):
    # a rate off by 1e-9 moves the mean but keeps the target normalized
    from wealthsim import analytics, scenarios

    honest = analytics.InverseGammaDensity

    def misplaced(shape, rate, shift=0.0):
        return honest(shape, rate * (1.0 + 1e-9), shift)

    cfg = load_config(CONFIG_DIR / f"{name}.ini")
    assert {c["name"]: c for c in validate_checks(cfg)}["target_mean"]["passed"]
    monkeypatch.setattr(analytics, "InverseGammaDensity", misplaced)
    by_name = {c["name"]: c for c in scenarios.validate_checks(cfg)}
    assert by_name["density_normalization"]["passed"]
    assert not by_name["target_mean"]["passed"]
    assert "relative gap 1.00e-09" in by_name["target_mean"]["detail"]


def test_validate_checks_boundary_continuity_for_growth_config():
    cfg = load_config(CONFIG_DIR / "endogenous_growth.ini")
    by_name = {c["name"]: c for c in validate_checks(cfg)}
    assert by_name["transition_continuity"]["passed"]
    assert by_name["density_normalization"]["passed"]
    failed = [c for c in by_name.values() if not c["passed"]]
    assert failed == []
