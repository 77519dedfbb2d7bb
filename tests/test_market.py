"""Market clearing, stationary fixed points, and regime classification."""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import NU_STAR, OMEGA_STAR, P_BAR_STAR, RHO_INF, RHO_STAR
from wealthsim import EconomyParams, CES, CobbDouglas, classify_regime, load_config, market
from wealthsim.errors import (
    DomainError,
    KnifeEdgeError,
    NoStationaryStateError,
    RegimeMismatchError,
)
from wealthsim.market import (
    STATIONARY,
    ENDOGENOUS_GROWTH,
    CONDITIONAL_GROWTH,
    clear,
    stationary_roots,
)


def test_stationary_mean_closed_form(cd_benchmark):
    params, pf = cd_benchmark
    assert stationary_roots(params, pf)[0] == pytest.approx(P_BAR_STAR, rel=1e-14)


def test_cleared_prices(cd_benchmark):
    params, pf = cd_benchmark
    state = clear(params, pf, P_BAR_STAR)
    assert state.capital_return == pytest.approx(RHO_STAR, rel=1e-14)
    assert state.wage == pytest.approx(OMEGA_STAR, rel=1e-14)
    # factor payments exhaust output per worker
    total = state.capital_return * P_BAR_STAR + state.wage
    assert total == pytest.approx(params.a * pf.value(P_BAR_STAR), rel=1e-14)
    with pytest.raises(DomainError):
        clear(params, pf, 0.0)


def test_stationary_report(cd_benchmark):
    params, pf = cd_benchmark
    report = classify_regime(params, pf, invest_overlap_mean=0.1)
    assert report.regime == STATIONARY
    assert report.growth_rate is None
    assert report.poverty_threshold is None
    assert report.mean_wealth == pytest.approx(P_BAR_STAR, rel=1e-14)
    # alpha = 1 + 2*(nu - s*(1-tau_k)*rho) / (delta*s^2*(1-tau_k)^2*rho^2*theta)
    #       = 1 + 2*0.038 / 1.44e-5
    assert report.tail_exponent == pytest.approx(5278.777777777776, rel=1e-12)
    d = report.to_dict()
    assert d["regime"] == STATIONARY and d["tail_exponent"] == report.tail_exponent


def test_zero_noise_report_has_no_tail(cd_benchmark):
    params, pf = cd_benchmark
    quiet = dataclasses.replace(params, delta=0.0)
    assert classify_regime(quiet, pf).tail_exponent is None
    assert classify_regime(params, pf, invest_overlap_mean=0.0).tail_exponent is None


def test_poverty_threshold_with_subsistence():
    # chi > 0 pushes the drift negative near the origin, creating an
    # unstable lower root next to the stable one
    params = EconomyParams(s=0.2, tau_k=0.2, tau_l=0.1, chi=0.1, nu=0.05, a=1.0, delta=1.0)
    pf = CobbDouglas(0.3)
    stable, threshold = stationary_roots(params, pf)
    assert stable == pytest.approx(4.114351682736506, rel=1e-12)
    assert threshold == pytest.approx(0.12059380216916235, rel=1e-12)

    drift = lambda p: 0.2 * p ** 0.3 - 0.1 - 0.05 * p
    assert abs(drift(stable)) < 1e-14 and abs(drift(threshold)) < 1e-14
    assert drift(0.5 * (stable + threshold)) > 0.0
    assert drift(0.5 * threshold) < 0.0 and drift(2.0 * stable) < 0.0

    report = classify_regime(params, pf, invest_overlap_mean=0.1)
    assert report.poverty_threshold == pytest.approx(threshold, rel=1e-12)


def test_excessive_subsistence_collapses():
    params = EconomyParams(s=0.2, tau_k=0.2, chi=5.0, nu=0.05, a=1.0, delta=1.0)
    with pytest.raises(NoStationaryStateError):
        stationary_roots(params, CobbDouglas(0.3))


def test_growth_regime_report(ces_growth):
    params, pf = ces_growth
    report = classify_regime(params, pf, invest_overlap_mean=1.0)
    assert report.regime == ENDOGENOUS_GROWTH
    assert report.mean_wealth is None
    assert report.capital_return == RHO_INF
    assert report.wage == 0.0
    # psi = s*rho_inf - nu
    assert report.growth_rate == pytest.approx(0.2 * RHO_INF - 0.01, rel=1e-14)
    # alpha = 1 + 2*tau_k / (delta*s*(1-tau_k)^2*rho_inf*theta)
    assert report.tail_exponent == pytest.approx(1.1038143393561817, rel=1e-14)


def test_growth_with_zero_capital_tax_has_no_tail(ces_growth):
    params, pf = ces_growth
    untaxed = dataclasses.replace(params, tau_k=0.0)
    report = classify_regime(untaxed, pf)
    assert report.regime == ENDOGENOUS_GROWTH
    assert report.tail_exponent is None


def test_conditional_growth_with_subsistence():
    # enough subsistence consumption to starve a poor economy of savings,
    # while a rich one still outgrows nu
    params = EconomyParams(s=0.2, tau_k=0.2, chi=0.2, nu=0.01, a=1.0, delta=300.0)
    report = classify_regime(params, CES(0.2, 0.7))
    assert report.regime == CONDITIONAL_GROWTH
    assert report.growth_rate == pytest.approx(0.2 * RHO_INF - 0.01, rel=1e-14)


def test_knife_edge_raises(ces_growth):
    _, pf = ces_growth
    params = EconomyParams(s=0.2, tau_k=0.2, chi=0.0, nu=NU_STAR, a=1.0, delta=300.0)
    with pytest.raises(KnifeEdgeError):
        classify_regime(params, pf)
    with pytest.raises(KnifeEdgeError):
        stationary_roots(params, pf)


def test_stationary_solver_rejects_growing_economy(ces_growth):
    params, pf = ces_growth
    with pytest.raises(RegimeMismatchError):
        stationary_roots(params, pf)[0]


def test_ces_stationary_mean():
    # nu above s*rho_inf: fixed point exists and solves 0.2*g(p) = 0.05*p
    params = EconomyParams(s=0.2, tau_k=0.2, chi=0.0, nu=0.05, a=1.0, delta=300.0)
    p_bar = stationary_roots(params, CES(0.2, 0.7))[0]
    assert p_bar == pytest.approx(8.494847436527852, rel=1e-13)
    pf = CES(0.2, 0.7)
    assert 0.2 * pf.value(p_bar) == pytest.approx(0.05 * p_bar, rel=1e-13)


def test_power_technology_mean_closed_form():
    gen = np.random.default_rng(3)
    economies = [(gen.uniform(0.02, 0.2), gen.uniform(0.05, 0.9), gen.uniform(0.1, 0.9))
                 for _ in range(20)]
    # fixed points near both ends of the ratio range
    economies += [(1e130, 0.2, 0.5), (1e-28, 0.2, 0.9)]
    for nu, s, eps in economies:
        params = EconomyParams(s=s, nu=nu, a=1.0, delta=1.0)
        pf = CobbDouglas(eps)
        p_bar = stationary_roots(params, pf)[0]
        # closed form for the power technology
        assert p_bar == pytest.approx((s / nu) ** (1.0 / (1.0 - eps)), rel=1e-12)


# ---------------------------------------------------------------------------
# bisection root finder: every root brackets a sign change to its
# neighbouring float and agrees with scipy's brentq to 4 ulp

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
SHIPPED = ["complete_markets", "labor_only", "incomplete_markets",
           "staggered_wages", "endogenous_growth", "nu_sweep"]


def _checked_root(f, lo, hi):
    root = market._bisect(f, lo, hi)
    fr = f(root)
    if fr != 0.0:
        # the sign flips on one side: the root's neighbour towards it
        sides = [f(math.nextafter(root, -math.inf)), f(math.nextafter(root, math.inf))]
        assert any((s > 0.0) != (fr > 0.0) or s == 0.0 for s in sides)
    # brentq falls back to halving in value, which needs ~1100 steps on
    # the ratio range
    ref = brentq(f, lo, hi, xtol=1e-300, rtol=8.9e-16, maxiter=2000)
    # a function that is exactly 0 on a stretch of floats has many roots
    assert abs(root - ref) <= 4.0 * math.ulp(ref) or fr == f(ref) == 0.0
    return root


@pytest.mark.parametrize("name", SHIPPED)
def test_brentq_matches_scipy_on_shipped_equations(name):
    cfg = load_config(CONFIG_DIR / f"{name}.ini")
    params, pf = cfg.economy, cfg.production
    sa = params.s * params.a
    # the slope equation s*a*g'(p) = target, here with its root at pi
    target = sa * pf.derivative(math.pi)
    slope = lambda p: sa * pf.derivative(p) - target
    root = _checked_root(slope, 1e-12, 1e12)
    assert root == pytest.approx(math.pi, rel=1e-12)
    assert _checked_root(slope, 1e12, 1e-12) == root
    if sa * pf.derivative_limit() < params.nu:
        # the drift equation, whose root is p_bar*
        drift = lambda p: market._aggregate_drift(params, pf, p)
        hi = market.RATIO_RANGE[1]
        _checked_root(drift, 1e-6, hi)
        _checked_root(drift, hi, 1e-6)
        _checked_root(lambda p: sa * pf.derivative(p) - params.nu, 1e-12, 1e12)


def test_brentq_matches_scipy_on_every_subsistence_root(monkeypatch):
    # chi > 0 takes the slope-peak and poverty-threshold branches for
    # Cobb-Douglas (3 roots); CES has positive output at zero (1 root)
    calls = []
    real = market._bisect

    def recording(f, lo, hi):
        calls.append((f, lo, hi))
        return real(f, lo, hi)

    monkeypatch.setattr(market, "_bisect", recording)
    params = EconomyParams(s=0.2, tau_k=0.2, tau_l=0.1, chi=0.1, nu=0.05, a=1.0, delta=1.0)
    for pf in (CobbDouglas(0.3), CES(0.2, 0.7)):
        stationary_roots(params, pf)
    assert len(calls) == 4
    monkeypatch.undo()
    for f, lo, hi in calls:
        _checked_root(f, lo, hi)


@pytest.mark.parametrize("f, lo, hi", [
    (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: x ** 3 - 2.0 * x - 5.0, 3.0, 2.0),
    (lambda x: (x - 1.0 / 3.0) ** 3, 0.0, 1.0),
    (lambda x: math.exp(40.0 * x) - 1e6, -1.0, 1.0),
    (lambda x: math.exp(40.0 * x) - 1e6, 1.0, -1.0),
    (lambda x: math.atan(1e8 * (x - 0.7)), 0.0, 1.0),
    (lambda x: x, 0.0, 1.0),
    # subnormal values: f is exactly 0 on a stretch around the root
    (lambda x: 5e-324 * (x + 45.5) ** 3, -100.0, 100.0),
])
def test_brentq_matches_scipy_on_textbook_functions(f, lo, hi):
    _checked_root(f, lo, hi)


def test_brentq_raises_typed_errors():
    with pytest.raises(NoStationaryStateError, match="not bracketed"):
        market._bisect(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(NoStationaryStateError, match="NaN"):
        market._bisect(lambda x: math.nan if x > 0.5 else -1.0, 0.0, 1.0)
    # a sign jump at 0: the bracket closes on the adjacent floats 0 and
    # 5e-324, and the tie in |f| goes to the lower end
    step = lambda x: 1.0 if x > 0.0 else -1.0
    assert market._bisect(step, -1.0, 2.0) == 0.0
    assert market._bisect(step, 2.0, -1.0) == 0.0


@pytest.mark.parametrize("lo, hi", [(5e-324, sys.float_info.max), (-1e300, 1e300)])
def test_bisection_in_float_rank_takes_at_most_66_evaluations(lo, hi):
    # two ends plus at most 64 halvings of the 2**64 float ranks
    calls = []
    f = lambda x: calls.append(x) or x - 1.0 - 1e-9
    assert market._bisect(f, lo, hi) == pytest.approx(1.0 + 1e-9, rel=1e-15)
    assert len(calls) <= 66


@pytest.mark.parametrize("name", ["complete_markets", "labor_only", "incomplete_markets",
                                  "staggered_wages"])
def test_shipped_roots_take_at_most_66_evaluations_each(name, monkeypatch):
    cfg = load_config(CONFIG_DIR / f"{name}.ini")
    params, pf = cfg.economy, cfg.production
    counts = []
    real = market._bisect

    def counting(f, lo, hi):
        calls = []
        root = real(lambda x: calls.append(x) or f(x), lo, hi)
        counts.append(len(calls))
        return root

    monkeypatch.setattr(market, "_bisect", counting)
    stationary_roots(params, pf)
    # the slope peak, then the drift from the peak to the top of the range
    assert len(counts) == 2 and max(counts) <= 66
