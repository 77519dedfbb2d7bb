"""End-to-end checks pinning simulations against the closed-form results.

Each test states its tolerance inline and prints the measured quantity,
so a failing run shows how far off it landed.  Runtime ceilings guard
against silent blowups in the heavy simulations.
"""

import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import NU_STAR, P_BAR_STAR, RHO_INF
from wealthsim import (
    CES,
    CobbDouglas,
    EconomyParams,
    SimulationConfig,
    build_regular,
    classify_regime,
    clear,
    empirical_noise_covariance,
    hill,
    integrate_mean_field,
    ks_distance,
    load_config,
    log_log_slope,
    mean_field_coeffs,
    relative_wealth_density,
    run_absolute,
    run_relative_growth,
    run_scenario,
    stationary_density,
    tail_exponent_growth,
    tail_exponent_stationary,
)
from wealthsim.cli import sweep_rows
from wealthsim.scenarios import scenario_economy
from wealthsim.runconfig import config_from_dict
from wealthsim.simulate import _stream

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

STAT_ALPHA_D700 = 2.507936507936507      # 1 + 2*z1/a2 at delta=700, spread 2
EG_ALPHA_300 = 1.1038143393561817        # growth-side index at delta*overlap = 300
EG_ALPHA_10 = 4.114430180685449          # growth-side index at delta*overlap = 10


def test_price_accounting_identity_is_exact():
    t0 = time.perf_counter()
    gen = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        if gen.uniform() < 0.5:
            pf = CobbDouglas(gen.uniform(0.05, 0.95))
        else:
            pf = CES(gen.uniform(0.05, 0.95), gen.uniform(0.1, 0.9))
        a = gen.uniform(0.5, 2.0)
        lam = 10.0 ** gen.uniform(-2.0, 3.0)
        rho = a * pf.derivative(lam)
        omega = a * (pf.value(lam) - lam * pf.derivative(lam))
        worst = max(worst, abs(rho * lam + omega - a * pf.value(lam))
                    / abs(a * pf.value(lam)))
    elapsed = time.perf_counter() - t0
    print(f"[measured] capital+labor accounting: max rel err {worst:.3e}, {elapsed:.2f}s")
    assert worst < 1e-12
    assert elapsed < 1.0


def test_noise_covariance_matches_analytic_form():
    t0 = time.perf_counter()
    params = EconomyParams(s=0.2, tau_k=0.2, tau_l=0.1, chi=0.0, nu=0.05,
                           a=1.0, delta=1.0)
    net = build_regular(40, 20, 4, 10, seed=3)
    pf = CobbDouglas(0.3)
    wealth = P_BAR_STAR * (1.0 + 0.2 * _stream(11, 0).uniform(-1.0, 1.0, 40))
    emp, ana = empirical_noise_covariance(params, net, pf, wealth,
                                          n_samples=100_000, seed=5)
    mask = np.abs(ana) > 1e-3 * np.abs(ana).max()
    rel = float(np.max(np.abs(emp[mask] - ana[mask]) / np.abs(ana[mask])))
    elapsed = time.perf_counter() - t0
    print(f"[measured] covariance: max rel gap {rel:.4f} on {mask.sum()} entries, "
          f"{elapsed:.1f}s")
    assert rel < 0.05
    assert elapsed < 120.0


def test_full_diversification_washes_out_inequality():
    cfg = load_config(CONFIG_DIR / "complete_markets.ini")
    summary = run_scenario(cfg)
    dev = summary["metrics"]["max_abs_dev_from_stationary_mean"]
    print(f"[measured] residual spread after burn-in: {dev:.3e} "
          f"(limit {1e-6 * P_BAR_STAR:.3e})")
    assert summary["metrics"]["risk_fully_pooled"] is True
    assert dev < 1e-6 * P_BAR_STAR
    assert summary["metrics"]["degenerate"] is True


def test_labor_only_risk_matches_gaussian():
    t0 = time.perf_counter()
    cfg = load_config(CONFIG_DIR / "labor_only.ini")
    summary = run_scenario(cfg)
    n_pooled = summary["snapshot_count"] * cfg.network_spec["n_households"]
    band = 1.358 / math.sqrt(n_pooled)
    ks = summary["ks_distance"]
    skew = summary["metrics"]["sample_skewness"]
    elapsed = time.perf_counter() - t0
    print(f"[measured] {n_pooled} pooled: KS {ks:.4f} (band {band:.4f}), "
          f"skewness {skew:+.4f}, {elapsed:.1f}s")
    assert n_pooled == 5000
    assert ks < band
    assert abs(skew) < 0.1
    assert elapsed < 300.0


def test_undiversified_capital_risk_produces_pareto_tail():
    t0 = time.perf_counter()
    cfg = load_config(CONFIG_DIR / "incomplete_markets.ini")
    params, pf = cfg.economy, cfg.production
    net = cfg.build_network()
    report = classify_regime(params, pf, invest_overlap_mean=scenario_economy(cfg)[2][0])
    assert report.tail_exponent == pytest.approx(STAT_ALPHA_D700, rel=1e-12)
    panel = run_absolute(cfg.simulation, params, net, pf,
                         np.full(net.n_households, report.mean_wealth))
    pooled = panel.pooled()
    assert pooled.size >= 100_000
    est = hill(pooled, n_tail=math.ceil(0.01 * pooled.size))
    gap = est.alpha / STAT_ALPHA_D700 - 1.0
    elapsed = time.perf_counter() - t0
    print(f"[measured] top-1% tail index {est.alpha:.4f} vs {STAT_ALPHA_D700:.4f} "
          f"({gap:+.1%}), {pooled.size} pooled, {elapsed:.1f}s")
    assert abs(gap) < 0.15
    assert elapsed < 600.0


def test_deterministic_wages_bound_wealth_above_zero():
    cfg = load_config(CONFIG_DIR / "staggered_wages.ini")
    summary = run_scenario(cfg)
    m = summary["metrics"]
    print(f"[measured] min wealth {m['min_wealth_after_burn_in']:.4f}")
    assert m["bounded_away_from_zero"] is True
    assert m["min_wealth_after_burn_in"] > 0.0

    # closed-form side: the density with wage channels silenced has the
    # same log-log tail slope as -(alpha + 1)
    params, pf = cfg.economy, cfg.production
    report = classify_regime(params, pf, invest_overlap_mean=scenario_economy(cfg)[2][0])
    state = clear(params, pf, report.mean_wealth)
    coeffs = mean_field_coeffs(params, state, scenario_economy(cfg)[2][0], 0.0, 0.0)
    slope = log_log_slope(stationary_density(coeffs).pdf)
    gap = abs(slope + (report.tail_exponent + 1.0))
    print(f"[measured] tail slope {slope:.6f} vs {-(report.tail_exponent + 1):.6f}, "
          f"gap {gap:.2e}")
    assert gap < 1e-3


def test_relative_wealth_matches_inverse_gamma():
    run_cfg = SimulationConfig(dt=0.25, t_end=2500.0, burn_in=2499.75,
                               record_every=0.25, seed=1)

    # heavy-tail setting: only the shape is checkable, sample moments of a
    # tail index this close to one carry no information
    heavy = EconomyParams(s=0.2, tau_k=0.2, chi=0.0, nu=0.01, a=1.0, delta=300.0)
    final = run_relative_growth(run_cfg, heavy, 1.0, RHO_INF, np.ones(10_000)).final()
    ks_heavy = ks_distance(final, relative_wealth_density(EG_ALPHA_300).cdf)
    print(f"[measured] KS {ks_heavy:.4f} at tail index {EG_ALPHA_300:.4f}")
    assert ks_heavy < 0.05

    # tamer tail: shape and mean are both checkable
    tame = dataclasses.replace(heavy, delta=10.0)
    final = run_relative_growth(run_cfg, tame, 1.0, RHO_INF, np.ones(10_000)).final()
    ks_tame = ks_distance(final, relative_wealth_density(EG_ALPHA_10).cdf)
    mean_gap = abs(final.mean() - 1.0)
    stderr = final.std(ddof=1) / math.sqrt(final.size)
    print(f"[measured] KS {ks_tame:.4f} at tail index {EG_ALPHA_10:.4f}, "
          f"|mean-1| = {mean_gap:.2e} = {mean_gap / stderr:.2f} stderr")
    assert ks_tame < 0.05
    assert mean_gap <= 3.0 * stderr


def test_tail_index_continuous_with_kink_at_boundary():
    gen = np.random.Generator(np.random.Philox(key=42))
    worst_gap = 0.0
    min_abs_slope = math.inf
    worst_slope_rel = 0.0
    for _ in range(100):
        eps = gen.uniform(0.1, 0.9)
        gam = gen.uniform(0.3, 0.9)
        a = gen.uniform(0.5, 2.0)
        s = gen.uniform(0.05, 0.9)
        tau_k = gen.uniform(0.1, 0.9)
        tau_l = gen.uniform(0.0, 0.9)
        # subsistence off: just above the boundary a positive floor can rule
        # out a stationary state entirely, a separate phenomenon from the
        # continuity probed here
        chi = 0.0
        theta = gen.uniform(0.01, 1.0)
        target = 10.0 ** gen.uniform(-1.0, 1.5)      # alpha - 1 on the growth side
        pf = CES(eps, gam)
        rho_inf = a * pf.derivative_limit()
        delta = 2.0 * tau_k / (target * s * (1.0 - tau_k) ** 2 * rho_inf * theta)
        nu_b = s * rho_inf
        params = EconomyParams(s=s, tau_k=tau_k, tau_l=tau_l, chi=chi,
                               nu=nu_b, a=a, delta=delta)

        a_eg = tail_exponent_growth(params, rho_inf, theta)
        a_stat = tail_exponent_stationary(params, rho_inf, theta)
        worst_gap = max(worst_gap, abs(a_stat - a_eg))

        # left of the boundary the index ignores the consumption rate entirely
        below = dataclasses.replace(params, nu=nu_b * (1.0 - 1e-6))
        assert tail_exponent_growth(below, rho_inf, theta) == a_eg

        # right of it the index moves with the consumption rate; first-order
        # perturbation of the fixed point gives the derivative as
        # (2/a2) * (1 - (1-gam)*(1+tau_k)), which either sign can realize
        nu_hi = nu_b * (1.0 + 1e-6)
        report = classify_regime(dataclasses.replace(params, nu=nu_hi), pf,
                                 invest_overlap_mean=theta)
        assert report.regime == "stationary"
        slope = (report.tail_exponent - a_stat) / (nu_hi - nu_b)
        a2 = delta * s ** 2 * (1.0 - tau_k) ** 2 * rho_inf ** 2 * theta
        predicted = (2.0 / a2) * (1.0 - (1.0 - gam) * (1.0 + tau_k))
        worst_slope_rel = max(worst_slope_rel,
                              abs(slope - predicted) / abs(predicted))
        min_abs_slope = min(min_abs_slope, abs(slope))

    print(f"[measured] boundary gap max {worst_gap:.3e}; right slope matches "
          f"perturbation value to {worst_slope_rel:.1e}, min magnitude "
          f"{min_abs_slope:.4f} (left slope identically zero)")
    assert worst_gap < 1e-12
    assert worst_slope_rel < 1e-3
    assert min_abs_slope > 5e-3


def test_consumption_rate_sweep_traces_both_regimes():
    t0 = time.perf_counter()
    lo = NU_STAR * (1.0 - 1e-6)
    hi = NU_STAR * (1.0 + 1e-6)
    values = " ".join(repr(v) for v in (0.004, 0.012, lo, hi, 0.028, 0.036))
    cfg = config_from_dict({
        "economy": {"s": "0.2", "tau_k": "0.2", "nu": "0.01",
                    "delta": "300"},
        "production": {"kind": "ces", "eps": "0.2", "gam": "0.7"},
        "sweep": {"parameter": "nu", "values": values},
    })
    rows = sweep_rows(cfg)
    assert [r[2] for r in rows] == ["endogenous_growth"] * 3 + ["stationary"] * 3

    growth_alphas = {r[3] for r in rows[:3]}
    assert growth_alphas == {repr(EG_ALPHA_300)}

    # continuity: the first stationary point sits a hair above the boundary
    straddle_gap = abs(float(rows[3][3]) - EG_ALPHA_300)
    print(f"[measured] index gap across the boundary {straddle_gap:.3e}")
    assert straddle_gap < 1e-5

    # stationary rows must agree with direct arithmetic from their own mean
    pf = CES(0.2, 0.7)
    for row in rows[3:]:
        nu = float(row[1])
        p_bar = float(row[4])
        rho = pf.derivative(p_bar)
        slope = nu - 0.2 * 0.8 * rho
        quad = 300.0 * 0.2 ** 2 * 0.8 ** 2 * rho ** 2
        assert float(row[3]) == pytest.approx(1.0 + 2.0 * slope / quad, rel=1e-10)
    elapsed = time.perf_counter() - t0
    print(f"[measured] sweep of {len(rows)} points in {elapsed:.2f}s")
    assert elapsed < 30.0


def test_higher_saving_raises_growth_and_inequality():
    cfg = config_from_dict({
        "economy": {"s": "0.2", "tau_k": "0.2", "nu": "0.01",
                    "delta": "300"},
        "production": {"kind": "ces", "eps": "0.2", "gam": "0.7"},
        "sweep": {"parameter": "s",
                  "values": "0.15 0.2 0.3 0.4 0.55 0.7 0.9"},
    })
    rows = sweep_rows(cfg)
    assert all(r[2] == "endogenous_growth" for r in rows)
    psis = [float(r[5]) for r in rows]
    alphas = [float(r[3]) for r in rows]
    print(f"[measured] growth {psis[0]:.4f} -> {psis[-1]:.4f}, "
          f"tail index {alphas[0]:.4f} -> {alphas[-1]:.4f}")
    assert all(b > a for a, b in zip(psis, psis[1:]))
    assert all(b < a for a, b in zip(alphas, alphas[1:]))


def test_zero_noise_mean_path_first_order_in_dt():
    params = EconomyParams(s=0.2, tau_k=0.2, tau_l=0.1, chi=0.0, nu=0.05,
                           a=1.0, delta=0.0)
    pf = CobbDouglas(0.3)
    net = build_regular(20, 10, 2, 5, seed=4)
    _, ref = integrate_mean_field(params, pf, 1.0, 50.0, 0.001)

    def path_error(dt):
        cfg = SimulationConfig(dt=dt, t_end=50.0, burn_in=0.0, record_every=1.0)
        panel = run_absolute(cfg, params, net, pf, np.ones(20))
        idx = np.rint(panel.times / 0.001).astype(int)
        return float(np.max(np.abs(panel.mean_path() - ref[idx])))

    coarse = path_error(0.1)
    fine = path_error(0.05)
    ratio = fine / coarse
    print(f"[measured] mean-path error {coarse:.3e} -> {fine:.3e}, ratio {ratio:.4f}")
    assert 0.45 < ratio < 0.55
