"""Mean-field coefficients and the closed-form density family.

Expected numbers are frozen from independent arithmetic on the
benchmark equilibria; density shapes are cross-checked against scipy
distributions and direct quadrature.
"""

import dataclasses
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from conftest import OMEGA_STAR, P_BAR_STAR, RHO_INF, RHO_STAR
from wealthsim import (
    EconomyParams,
    CES,
    load_config,
    relative_wealth_density,
    stationary_density,
)
from wealthsim.analytics import (
    GaussianDensity,
    InverseGammaDensity,
    PearsonType4Density,
    PointMassDensity,
    _growth_coeffs,
    log_log_slope,
    mean_field_coeffs,
    tail_exponent_growth,
    tail_exponent_stationary,
    write_density_table,
)
from wealthsim.errors import (
    DegenerateDiscriminantError,
    DegenerateDynamicsError,
    DomainError,
    RegimeMismatchError,
)
from wealthsim.market import classify_regime, clear
from wealthsim.scenarios import _closed_form
from wealthsim.tails import ks_distance


@pytest.fixture(scope="module")
def cd_coeffs(cd_benchmark):
    params, pf = cd_benchmark
    state = clear(params, pf, P_BAR_STAR)
    return mean_field_coeffs(params, state, 0.1, 0.05, 0.1)


def test_benchmark_coefficients(cd_benchmark, cd_coeffs):
    params, pf = cd_benchmark
    co = cd_coeffs
    # z1 = nu - s*(1-tau_k)*rho_star = 0.05 - 0.2*0.8*0.075
    assert co.drift_slope == pytest.approx(0.038, rel=1e-14)
    # z0 = s*(omega_star + tau_k*rho_star*p_bar_star)
    z0 = 0.2 * (OMEGA_STAR + 0.2 * RHO_STAR * P_BAR_STAR)
    assert co.drift_intercept == pytest.approx(z0, rel=1e-14)
    assert co.drift_intercept == pytest.approx(0.2753399939362276, rel=1e-14)
    # a2 = delta*s^2*(1-tau_k)^2*rho_star^2*theta = 0.04*0.64*0.005625*0.1
    assert co.var_quad == pytest.approx(1.44e-5, rel=1e-14)
    # a1 = 2*delta*s^2*(1-tau_k)*(1-tau_l)*rho*omega*cross
    a1 = 2.0 * 0.04 * 0.8 * 0.9 * RHO_STAR * OMEGA_STAR * 0.05
    assert co.var_lin == pytest.approx(a1, rel=1e-14)
    # a0 = delta*s^2*(1-tau_l)^2*omega^2*labor
    a0 = 0.04 * 0.81 * OMEGA_STAR ** 2 * 0.1
    assert co.var_const == pytest.approx(a0, rel=1e-14)


def test_coefficient_guards(cd_benchmark):
    params, pf = cd_benchmark
    state = clear(params, pf, P_BAR_STAR)
    with pytest.raises(DomainError):
        mean_field_coeffs(params, state, -0.1, 0.0, 0.1)
    # cross overlap beyond the geometric mean of the two self-overlaps
    with pytest.raises(DegenerateDiscriminantError):
        mean_field_coeffs(params, state, 0.01, 5.0, 0.01)
    # non-reverting drift: consumption rate below the retained return
    lazy = dataclasses.replace(params, nu=0.01)
    with pytest.raises(RegimeMismatchError):
        mean_field_coeffs(lazy, state, 0.1, 0.05, 0.1)


def test_tail_exponent_formulas(cd_benchmark):
    params, _ = cd_benchmark
    assert tail_exponent_stationary(params, RHO_STAR, 0.1) == \
        pytest.approx(5278.777777777776, rel=1e-13)
    grow = EconomyParams(s=0.2, tau_k=0.2, chi=0.0, nu=0.01, a=1.0, delta=300.0)
    assert tail_exponent_growth(grow, RHO_INF, 1.0) == \
        pytest.approx(1.1038143393561817, rel=1e-14)
    # tau_k = 0 leaves the stationary index finite but refuses a growth
    # one; no firm noise, or no reversion, leaves neither
    assert tail_exponent_stationary(dataclasses.replace(params, tau_k=0.0), RHO_STAR, 0.1) > 1.0
    with pytest.raises(DegenerateDynamicsError):
        tail_exponent_growth(dataclasses.replace(grow, tau_k=0.0), RHO_INF, 1.0)
    with pytest.raises(DomainError):
        tail_exponent_stationary(dataclasses.replace(params, delta=0.0), RHO_STAR, 0.1)
    with pytest.raises(DomainError):
        tail_exponent_growth(dataclasses.replace(grow, delta=0.0), RHO_INF, 1.0)
    with pytest.raises(RegimeMismatchError):
        tail_exponent_stationary(params, 1.0, 0.1)
    with pytest.raises(DomainError):
        tail_exponent_growth(grow, -RHO_INF, 1.0)


def test_growth_coefficients_give_the_relative_wealth_density():
    # du = r(1-u)dt + sigma*u dW is the affine family with intercept =
    # slope, whose inverse gamma has rate alpha - 1
    cfg = load_config(CONFIG_DIR / "endogenous_growth.ini")
    report = classify_regime(cfg.economy, cfg.production, invest_overlap_mean=cfg.overlap_means()[0])
    co = _growth_coeffs(cfg.economy, report.capital_return, cfg.overlap_means()[0])
    assert co.drift_intercept == co.drift_slope
    assert co.tail_exponent == report.tail_exponent
    q = np.linspace(0.001, 0.999, 501)
    np.testing.assert_allclose(stationary_density(co).quantile(q),
                               relative_wealth_density(co.tail_exponent).quantile(q),
                               rtol=1e-13, atol=0)


def test_boundary_identity_quick():
    # at nu = s*rho the stationary drift slope collapses to s*rho*tau_k
    # and both exponent formulas coincide
    gen = np.random.default_rng(11)
    for _ in range(10):
        pf = CES(gen.uniform(0.1, 0.9), gen.uniform(0.3, 0.9))
        s, tk = gen.uniform(0.05, 0.9), gen.uniform(0.1, 0.9)
        rho = gen.uniform(0.5, 2.0) * pf.derivative_limit()
        params = EconomyParams(s=s, tau_k=tk, nu=s * rho, a=1.0, delta=50.0)
        a_stat = tail_exponent_stationary(params, rho, 0.3)
        a_eg = tail_exponent_growth(params, rho, 0.3)
        assert abs(a_stat - a_eg) < 1e-12


def test_gaussian_density_matches_scipy():
    d = GaussianDensity(3.0, 0.25)
    ref = scipy.stats.norm(loc=3.0, scale=0.5)
    x = np.linspace(1.0, 5.0, 9)
    np.testing.assert_allclose(d.pdf(x), ref.pdf(x), rtol=1e-12)
    np.testing.assert_allclose(d.cdf(x), ref.cdf(x), rtol=1e-12)
    q = np.linspace(0.01, 0.99, 9)
    np.testing.assert_allclose(d.quantile(q), ref.ppf(q), rtol=1e-12)
    assert d.mean == 3.0 and d.variance == 0.25


def test_inverse_gamma_matches_scipy():
    d = InverseGammaDensity(shape=2.507936507936507, rate=10.926190235564583)
    ref = scipy.stats.invgamma(a=d.shape, scale=d.rate)
    x = np.geomspace(0.5, 500.0, 12)
    np.testing.assert_allclose(d.pdf(x), ref.pdf(x), rtol=1e-10)
    np.testing.assert_allclose(d.cdf(x), ref.cdf(x), rtol=1e-10)
    q = np.linspace(0.01, 0.99, 11)
    np.testing.assert_allclose(d.quantile(q), ref.ppf(q), rtol=1e-10)
    assert d.support[0] == 0.0
    assert d.tail_exponent == d.shape


def test_shifted_inverse_gamma_matches_scipy():
    # a perfect-square variance moves the inverse gamma's edge to its root
    for shape, shift in ((2.507936507936507, -3.5), (1.5, 2.0), (0.8, 0.0)):
        d = InverseGammaDensity(shape=shape, rate=10.926190235564583, shift=shift)
        ref = scipy.stats.invgamma(a=shape, loc=shift, scale=d.rate)
        x = shift + np.geomspace(0.5, 500.0, 12)
        np.testing.assert_allclose(d.pdf(x), ref.pdf(x), rtol=1e-10)
        np.testing.assert_allclose(d.cdf(x), ref.cdf(x), rtol=1e-10)
        q = np.linspace(0.01, 0.99, 11)
        np.testing.assert_allclose(d.quantile(q), ref.ppf(q), rtol=1e-10)
        assert d.pdf(shift) == 0.0 and d.cdf(shift - 1.0) == 0.0
        assert d.support == (shift, math.inf)
        assert d.mean == (pytest.approx(ref.mean(), rel=1e-12) if shape > 1.0 else None)
        assert d.variance == (pytest.approx(ref.var(), rel=1e-12) if shape > 2.0 else None)


def test_relative_wealth_density_unit_mean():
    for alpha in (1.5, 2.5, 4.114430180685449):
        d = relative_wealth_density(alpha)
        assert d.shape == alpha and d.rate == alpha - 1.0
        mean, err = scipy.integrate.quad(lambda u: u * d.pdf(u), 0.0, np.inf)
        assert mean == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(DomainError):
        relative_wealth_density(1.0)


def test_point_mass_density():
    d = PointMassDensity(P_BAR_STAR)
    assert d.cdf(P_BAR_STAR - 1e-9) == 0.0
    assert d.cdf(P_BAR_STAR + 1e-9) == 1.0
    assert float(d.quantile(0.3)) == P_BAR_STAR


def test_stationary_density_dispatch(cd_benchmark):
    params, pf = cd_benchmark
    state = clear(params, pf, P_BAR_STAR)

    full = stationary_density(mean_field_coeffs(params, state, 0.1, 0.05, 0.1))
    assert isinstance(full, PearsonType4Density)

    labor_only = stationary_density(mean_field_coeffs(params, state, 0.0, 0.0, 0.1))
    assert isinstance(labor_only, GaussianDensity)
    co = mean_field_coeffs(params, state, 0.0, 0.0, 0.1)
    assert labor_only.mean == pytest.approx(co.drift_intercept / co.drift_slope, rel=1e-14)
    assert labor_only.variance == pytest.approx(
        co.var_const / (2.0 * co.drift_slope), rel=1e-14)

    capital_only = stationary_density(mean_field_coeffs(params, state, 0.5, 0.0, 0.0))
    assert isinstance(capital_only, InverseGammaDensity)

    quiet = dataclasses.replace(params, delta=0.0)
    point = stationary_density(mean_field_coeffs(quiet, state, 0.1, 0.05, 0.1))
    assert isinstance(point, PointMassDensity)
    assert float(point.quantile(0.5)) == pytest.approx(
        co.drift_intercept / co.drift_slope, rel=1e-14)


def test_staggered_density_parameters(cd_benchmark):
    params, pf = cd_benchmark
    heavy = dataclasses.replace(params, delta=700.0)
    state = clear(heavy, pf, P_BAR_STAR)
    co = mean_field_coeffs(heavy, state, 0.5, 0.0, 0.0)
    d = stationary_density(co)
    assert isinstance(d, InverseGammaDensity)
    # shape is the tail exponent, rate is 2*z0/a2
    assert d.shape == pytest.approx(2.507936507936507, rel=1e-13)
    assert d.rate == pytest.approx(10.926190235564583, rel=1e-13)
    # far-tail log-log slope of an inverse gamma is -(shape+1)
    slope = log_log_slope(d.pdf)
    assert slope == pytest.approx(-(d.shape + 1.0), abs=1e-3)


def test_pearson_density_self_consistency(cd_benchmark):
    params, pf = cd_benchmark
    heavy = dataclasses.replace(params, delta=700.0)
    state = clear(heavy, pf, P_BAR_STAR)
    co = mean_field_coeffs(heavy, state, 0.5, 0.05, 0.1)
    d = stationary_density(co)
    assert isinstance(d, PearsonType4Density)

    # split at the mode so the adaptive rule cannot overlook the peak
    mid = co.drift_intercept / co.drift_slope
    total = sum(scipy.integrate.quad(d.pdf, a, b, limit=200)[0]
                for a, b in ((-np.inf, mid), (mid, np.inf)))
    assert total == pytest.approx(1.0, abs=1e-7)

    # stationarity balances the linear drift: E[p] = z0/z1
    mean = sum(scipy.integrate.quad(lambda x: x * d.pdf(x), a, b, limit=200)[0]
               for a, b in ((-np.inf, mid), (mid, np.inf)))
    assert mean == pytest.approx(mid, rel=1e-7)

    q = np.linspace(0.005, 0.995, 21)
    np.testing.assert_allclose(d.cdf(d.quantile(q)), q, atol=1e-9)

    alpha = 1.0 + 2.0 * co.drift_slope / co.var_quad
    assert d.tail_exponent == pytest.approx(alpha, rel=1e-13)
    assert log_log_slope(d.pdf) == pytest.approx(-(alpha + 1.0), abs=1e-3)


def test_log_log_slope_pure_power_law():
    slope = log_log_slope(lambda x: 2.0 * np.asarray(x) ** -3.5)
    assert slope == pytest.approx(-3.5, abs=1e-12)
    with pytest.raises(DomainError):
        log_log_slope(lambda x: np.zeros_like(np.asarray(x)))
    with pytest.raises(DomainError):
        log_log_slope(lambda x: x, lo=10.0, hi=1.0)


def test_density_table_output(tmp_path, cd_benchmark):
    params, pf = cd_benchmark
    state = clear(params, pf, P_BAR_STAR)
    d = stationary_density(mean_field_coeffs(params, state, 0.0, 0.0, 0.1))
    path = tmp_path / "density.csv"
    grid = d.quantile(np.linspace(0.01, 0.99, 50))
    write_density_table(d, path, grid)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "x,pdf,cdf"
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    assert data.shape == (50, 3)
    assert np.all(np.diff(data[:, 2]) > 0)
    np.testing.assert_allclose(data[:, 2], np.linspace(0.01, 0.99, 50), atol=1e-9)


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="module")
def shipped_pearson():
    """Coefficients of the incomplete_markets target density."""
    return _closed_form(load_config(CONFIG_DIR / "incomplete_markets.ini"))[2].coeffs


# the shipped law, a near-Cauchy tail (alpha ~ 1.015), a narrow peak
# (alpha ~ 152), and the mode moved far right and far left
_VARIANTS = {
    "shipped": {},
    "slope_x0.01": {"drift_slope": 0.01},
    "slope_x100": {"drift_slope": 100.0},
    "intercept_x30": {"drift_intercept": 30.0},
    "intercept_x-5": {"drift_intercept": -5.0},
}


def _variant(coeffs, name):
    scaled = {k: getattr(coeffs, k) * f for k, f in _VARIANTS[name].items()}
    return PearsonType4Density(dataclasses.replace(coeffs, **scaled))


@pytest.mark.parametrize("name", list(_VARIANTS))
def test_pearson_cdf_matches_quadrature(shipped_pearson, name):
    d = _variant(shipped_pearson, name)
    co = d.coeffs
    x = d.quantile(np.linspace(0.002, 0.998, 21))

    # quad of the pdf under p = (S*tan(t) - v1)/(2*v2), which maps the
    # real line onto (-pi/2, pi/2) and leaves a smooth compact integrand
    def dens(t):
        return d.pdf(d._wealth(t)) * d._s / (2.0 * co.var_quad * math.cos(t) ** 2)

    ref = [scipy.integrate.quad(dens, -0.5 * math.pi, float(d._angle(v)), limit=500,
                                epsabs=1e-14, epsrel=1e-13)[0] for v in x]
    np.testing.assert_allclose(d.cdf(x), ref, rtol=0.0, atol=1e-10)


def test_pearson_cdf_horner_in_place(shipped_pearson):
    # the in-place Horner form gives the nested expression's bits, and KS on
    # a presorted sample of the flagship's pooled size keeps a bounded peak
    d = PearsonType4Density(shipped_pearson)
    q = d.quantile(np.linspace(0.0005, 0.9995, 2001))
    x = np.interp(np.linspace(0.0, 2000.0, 402_000), np.arange(2001), q)
    t = np.clip(d._angle(x), d._grid[0], d._grid[-1])
    k = np.clip(np.searchsorted(d._grid, t, side="right") - 1, 0, d._grid.size - 2)
    c0, c1, c2, c3 = d._coef
    s = t - d._grid[k]
    nested = np.clip(c0[k] + s * (c1[k] + s * (c2[k] + s * c3[k])), 0.0, 1.0)
    assert np.array_equal(d.cdf(x), nested)
    ks_distance(x, d.cdf)  # warm caches
    tracemalloc.start()
    try:
        ks_distance(x, d.cdf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured: 1.45 MB with the nested form, 1.05 MB in place
    assert peak < 1.25e6


@pytest.mark.parametrize("name", list(_VARIANTS))
def test_pearson_quantile_inverts_cdf(shipped_pearson, name):
    d = _variant(shipped_pearson, name)
    q = np.linspace(0.001, 0.999, 501)
    x = d.quantile(q)
    assert np.all(np.diff(x) > 0.0)
    np.testing.assert_allclose(d.cdf(x), q, rtol=0.0, atol=1e-14)
    assert isinstance(d.quantile(0.5), float) and d.quantile(0.5) == x[250]
    with pytest.raises(DomainError):
        d.quantile([0.5, 1.0])


@pytest.mark.parametrize("name", list(_VARIANTS))
def test_pearson_moments_match_quadrature(shipped_pearson, name):
    # Pearson's closed-form mean and variance against the moment identities
    # of the diffusion, E[drift] = 0 and E[2*p*drift + variance] = 0, and
    # against quad of the density in the angle coordinate
    d = _variant(shipped_pearson, name)
    co = d.coeffs
    mean = co.drift_intercept / co.drift_slope
    assert d.mean == pytest.approx(mean, rel=1e-12)
    second = ((co.var_const + (2.0 * co.drift_intercept + co.var_lin) * mean)
              / (2.0 * co.drift_slope - co.var_quad))
    assert (d.variance is None) == (d.tail_exponent <= 2.0)

    def expect(fn):
        def integrand(t):
            p = d._wealth(t)
            return fn(p) * d.pdf(p) * d._s / (2.0 * co.var_quad * math.cos(t) ** 2)
        with warnings.catch_warnings():
            # the near-Cauchy variant's slow tail warns, and still meets rel 1e-7
            warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
            return scipy.integrate.quad(integrand, -0.5 * math.pi, 0.5 * math.pi,
                                        limit=500, epsabs=0.0, epsrel=1e-12)[0]

    assert d.mean == pytest.approx(expect(lambda p: p), rel=1e-7)
    if d.variance is not None:
        assert d.variance == pytest.approx(second - mean * mean, rel=1e-12)
        assert d.variance == pytest.approx(expect(lambda p: (p - d.mean) ** 2), rel=1e-7)


@pytest.mark.parametrize("firms", [3, 7, 12, 50, 100])
def test_perfect_square_noise_targets_a_shifted_inverse_gamma(cd_benchmark, firms):
    # equal invest, cross and labor overlaps make the variance
    # var_quad*(p - root)**2; rounding decides the discriminant's sign
    params, pf = cd_benchmark
    state = clear(params, pf, P_BAR_STAR)
    theta = 1.0 / firms
    co = mean_field_coeffs(params, state, theta, theta, theta)
    assert co.perfect_square and abs(co.discriminant) < 1e-15 * co.var_lin ** 2
    d = stationary_density(co)
    assert isinstance(d, InverseGammaDensity)
    root = -co.var_lin / (2.0 * co.var_quad)
    assert d.shift == root and d.support == (root, math.inf)
    assert d.shape == co.tail_exponent
    assert d.mean == pytest.approx(P_BAR_STAR, rel=1e-12)
    q = np.linspace(0.01, 0.99, 25)
    np.testing.assert_allclose(d.cdf(d.quantile(q)), q, rtol=0.0, atol=1e-12)
    # the zero-flux density: d/dp log(variance * pdf) = 2 * drift / variance
    p = d.quantile(np.linspace(0.05, 0.95, 7))
    h = 1e-5 * (p - root)

    def log_flux(x):
        return np.log(co.var_const + co.var_lin * x + co.var_quad * x * x) + d.log_pdf(x)

    slope = (log_flux(p + h) - log_flux(p - h)) / (2.0 * h)
    drift = co.drift_intercept - co.drift_slope * p
    variance = co.var_const + co.var_lin * p + co.var_quad * p * p
    np.testing.assert_allclose(slope, 2.0 * drift / variance, rtol=0.0,
                               atol=1e-6 * np.max(np.abs(slope)))
    # a clearly non-square variance keeps the Pearson IV, a clearly negative
    # discriminant still raises
    near = mean_field_coeffs(params, state, theta * (1.0 + 1e-6), theta, theta)
    assert not near.perfect_square
    assert isinstance(stationary_density(near), PearsonType4Density)
    with pytest.raises(DegenerateDiscriminantError):
        mean_field_coeffs(params, state, theta, theta * (1.0 + 1e-6), theta)
