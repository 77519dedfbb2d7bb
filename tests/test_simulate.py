"""Stepping, noise generation, and the two simulation drivers."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import P_BAR_STAR, RHO_INF
from wealthsim import (
    AllocationNetwork,
    EconomyParams,
    CES,
    CobbDouglas,
    SimulationConfig,
    build_heterogeneous,
    build_regular,
    classify_regime,
    clear,
    integrate_mean_field,
    run_absolute,
    run_relative_growth,
    sample_firm_shocks,
    step_absolute,
)
from wealthsim import simulate
from wealthsim.errors import (
    ConfigError,
    DegenerateDynamicsError,
    DomainError,
    NonFiniteError,
    PriceUndefinedError,
)
from wealthsim.simulate import (
    WealthPanel,
    _firm_shock_increment,
    _stream,
    analytic_noise_covariance,
    empirical_noise_covariance,
)


# ---------------------------------------------------------------------------
# configuration and streams


def test_config_validation():
    ok = SimulationConfig(dt=0.5, t_end=10.0, burn_in=2.0, record_every=1.0)
    assert ok.step_counts() == (20, 4, 2)
    with pytest.raises(ConfigError):
        SimulationConfig(dt=0.0, t_end=10.0)
    with pytest.raises(ConfigError):
        SimulationConfig(dt=0.5, t_end=10.0, burn_in=10.0)
    with pytest.raises(ConfigError):
        SimulationConfig(dt=0.5, t_end=10.0, record_every=0.3)
    with pytest.raises(ConfigError):
        SimulationConfig(dt=0.5, t_end=10.3)
    with pytest.raises(ConfigError):
        SimulationConfig(dt=0.5, t_end=10.0, seed=-1)


def test_streams_are_reproducible_and_disjoint():
    a = _stream(3, 17).standard_normal(8)
    b = _stream(3, 17).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    c = _stream(3, 18).standard_normal(8)
    d = _stream(4, 17).standard_normal(8)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def _fresh(seed, step):
    counter = np.array([0, 0, 0, step], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=np.uint64(seed), counter=counter))


@pytest.mark.parametrize("method, args", [("standard_normal", (7,)),
                                          ("uniform", (-1.0, 1.0, 7)),
                                          ("lognormal", (0.0, 2.0, 7))])
def test_stream_matches_a_fresh_generator(method, args):
    # each stream starts clean, whatever the one before it left in its
    # buffers: half a uint32, a partly used Philox block, another seed
    steps = (0, 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1)
    seeds = (0, 3, 2 ** 64 - 1)
    for step in steps:
        for seed in seeds:
            _stream(seeds[-1 - seeds.index(seed)], step).integers(0, 10, 3, dtype=np.uint32)
            got = getattr(_stream(seed, step), method)(*args)
            want = getattr(_fresh(seed, step), method)(*args)
            np.testing.assert_array_equal(got, want)
            _stream(seed, step).standard_normal(3)
            np.testing.assert_array_equal(getattr(_stream(seed, step), method)(*args), want)


def test_firm_shock_moments():
    params = EconomyParams(s=0.2, nu=0.05, a=1.3, delta=2.0)
    gen = _stream(1, 0)
    draws = np.concatenate([sample_firm_shocks(1000, params, 0.05, gen)
                            for _ in range(40)])
    assert draws.mean() == pytest.approx(1.3 * 0.05, abs=0.0075)
    assert draws.var() == pytest.approx(1.3 ** 2 * 2.0 * 0.05, rel=0.03)

    exact = sample_firm_shocks(5, params, 0.05, gen)
    quiet = dataclasses.replace(params, delta=0.0)
    np.testing.assert_array_equal(sample_firm_shocks(5, quiet, 0.05, gen),
                                  np.full(5, 1.3 * 0.05))
    with pytest.raises(DomainError):
        sample_firm_shocks(5, params, 0.0, gen)
    assert exact.shape == (5,)


# ---------------------------------------------------------------------------
# one-step arithmetic


def test_single_household_step_by_hand():
    # one household, one firm: the household pays all taxes and receives
    # the whole transfer back, so the increment reduces to
    # s * g(p) * dA - (chi + nu*p) * dt  at  lambda = p
    params = EconomyParams(s=0.5, tau_k=0.1, tau_l=0.2, chi=0.01, nu=0.05,
                           a=1.0, delta=1.0)
    net = build_regular(1, 1, 1, 1, seed=0)
    pf = CobbDouglas(0.3)
    out = step_absolute([1.0], params, net, pf, [0.13], 0.1)
    # 1 + 0.5*1*0.13 - (0.01 + 0.05)*0.1
    assert out[0] == pytest.approx(1.059, rel=1e-14)

    quiet = dataclasses.replace(params, delta=0.0)
    out = step_absolute([1.0], quiet, net, pf, None, 0.1)
    # deterministic shock dA = a*dt = 0.1
    assert out[0] == pytest.approx(1.044, rel=1e-14)


def test_single_household_tax_wash_property():
    # with all allocations on one firm, redistribution returns every
    # collected unit to its payer for any tax mix
    gen = np.random.default_rng(21)
    net = build_regular(1, 1, 1, 1, seed=0)
    for _ in range(25):
        params = EconomyParams(
            s=gen.uniform(0.05, 1.0), tau_k=gen.uniform(0.0, 0.9),
            tau_l=gen.uniform(0.0, 0.9), chi=gen.uniform(0.0, 0.1),
            nu=gen.uniform(0.01, 0.2), a=gen.uniform(0.5, 2.0),
            delta=gen.uniform(0.0, 2.0))
        pf = CobbDouglas(gen.uniform(0.1, 0.9))
        p = gen.uniform(0.5, 5.0)
        dA = gen.uniform(0.01, 0.2)
        dt = 0.05
        expected = p + params.s * pf.value(p) * dA - (params.chi + params.nu * p) * dt
        out = step_absolute([p], params, net, pf, [dA], dt)
        assert out[0] == pytest.approx(expected, rel=1e-13)


def test_deterministic_labor_step_by_hand():
    # two households on one firm: capital earns the realized dA, wages the
    # mean flow a*dt, and both tax takes come back split in half
    params = EconomyParams(s=0.5, tau_k=0.1, tau_l=0.2, chi=0.01, nu=0.05,
                           a=1.0, delta=1.0)
    net = build_regular(2, 1, 1, 1, seed=0)
    pf = CobbDouglas(0.3)
    p, dA, dt = np.array([1.0, 3.0]), 0.13, 0.1
    lam = p.mean()
    slope, wage = pf.derivative(lam), pf.value(lam) - lam * pf.derivative(lam)
    transfer = (0.1 * slope * p.sum() * dA + 0.2 * wage * 2 * dt) / 2
    expected = p + 0.5 * (0.9 * slope * p * dA + 0.8 * wage * dt + transfer) \
        - (0.01 + 0.05 * p) * dt
    out = step_absolute(p, params, net, pf, [dA], dt, labor_deterministic=True)
    np.testing.assert_allclose(out, expected, rtol=1e-14)


def test_step_rejects_bad_state():
    params = EconomyParams(s=0.2, nu=0.05, delta=1.0)
    net = build_regular(4, 2, 1, 1, seed=0)
    pf = CobbDouglas(0.3)
    with pytest.raises(DomainError):
        step_absolute([1.0, 2.0], params, net, pf, None, 0.1)
    with pytest.raises(PriceUndefinedError):
        step_absolute([-2.0, 1.0, 0.0, 0.5], params, net, pf, None, 0.1)


def test_increment_shortcuts_match_general_path():
    # rows over every firm take the firm-mean shortcut; the same matrices
    # without a declared spread go through the sparse products instead
    params = EconomyParams(s=0.2, tau_k=0.2, tau_l=0.1, chi=0.01, nu=0.05,
                           a=1.0, delta=1.0)
    pf = CobbDouglas(0.3)
    n, f, k, dt = 12, 6, 5, 0.1
    uniform = build_regular(n, f, f, f, seed=0)
    general = AllocationNetwork(n_households=n, n_firms=f, invest=uniform.invest,
                                labor=uniform.labor, invest_spread=None, labor_spread=None)
    mixed = build_regular(n, f, f, 2, seed=1)
    gen = _stream(13, 0)
    wealth = P_BAR_STAR * (1.0 + 0.3 * gen.uniform(-1.0, 1.0, n))
    block = sample_firm_shocks((k, f), params, dt, gen)
    state = clear(params, pf, wealth.mean())
    for labor_deterministic in (False, True):
        for shocks in (block[0], None):
            a = step_absolute(wealth, params, uniform, pf, shocks, dt, labor_deterministic)
            b = step_absolute(wealth, params, general, pf, shocks, dt, labor_deterministic)
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0)
        for net in (uniform, general, mixed):
            batched = _firm_shock_increment(wealth, params, net, state,
                                            block, dt, labor_deterministic)
            single = [_firm_shock_increment(wealth, params, net, state,
                                            row, dt, labor_deterministic) for row in block]
            assert batched.shape == (k, n)
            np.testing.assert_allclose(batched, np.array(single), rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# noise covariance


def test_covariance_small_network():
    params = EconomyParams(s=0.2, tau_k=0.2, tau_l=0.1, chi=0.0, nu=0.05,
                           a=1.0, delta=1.0)
    net = build_regular(10, 5, 2, 2, seed=2)
    pf = CobbDouglas(0.3)
    wealth = P_BAR_STAR * (1.0 + 0.2 * _stream(7, 0).uniform(-1, 1, 10))
    emp, ana = empirical_noise_covariance(params, net, pf, wealth,
                                          n_samples=40000, seed=3)
    assert ana.shape == (10, 10)
    np.testing.assert_allclose(ana, ana.T, rtol=1e-12, atol=0.0)
    # every entry within a few sampling standard errors of the largest scale
    dev = np.max(np.abs(emp - ana)) / np.abs(ana).max()
    assert dev < 0.10


def test_covariance_zero_noise_is_zero():
    params = EconomyParams(s=0.2, tau_k=0.2, nu=0.05, delta=0.0)
    net = build_regular(6, 3, 1, 3, seed=0)
    pf = CobbDouglas(0.3)
    wealth = np.linspace(1.0, 2.0, 6)
    emp, ana = empirical_noise_covariance(params, net, pf, wealth, n_samples=100)
    assert np.all(ana == 0.0)
    np.testing.assert_allclose(emp, 0.0, atol=1e-15)
    # a wealth vector of the wrong length is a typed error, not a numpy one
    for short in (wealth[:5], np.append(wealth, 1.0)):
        with pytest.raises(DomainError):
            analytic_noise_covariance(params, net, pf, short)
        with pytest.raises(DomainError):
            empirical_noise_covariance(params, net, pf, short, n_samples=100)


def _kernel_jacobian(params, net, pf, wealth, labor_deterministic):
    """The stepping kernel's Jacobian with respect to the firm shocks.

    The increment is affine in the shocks, so pushing the identity block
    and a zero block through the kernel and differencing gives column j
    as the response to a unit shock at firm j.
    """
    state = clear(params, pf, wealth.mean())
    f = net.n_firms

    def push(shocks):
        return _firm_shock_increment(wealth, params, net, state, shocks, 1.0,
                                     labor_deterministic)

    return (push(np.eye(f)) - push(np.zeros((f, f)))).T


@pytest.mark.parametrize("labor_deterministic", [False, True], ids=["noisy_labor", "fixed_labor"])
@pytest.mark.parametrize("pf, a", [(CobbDouglas(0.3), 1.0), (CES(0.4, 0.6), 1.7)],
                         ids=["cobb_douglas", "ces"])
def test_analytic_covariance_is_the_kernel_law(pf, a, labor_deterministic):
    # shocks have variance a**2 * delta per unit time, so the increment's
    # covariance is exactly delta * a**2 * J @ J.T with J the kernel's Jacobian
    params = EconomyParams(s=0.2, tau_k=0.2, tau_l=0.1, chi=0.01, nu=0.05,
                           a=a, delta=1.3)
    n, f = 40, 20
    nets = [build_regular(n, f, inv, lab, seed=3)
            for inv, lab in ((4, 10), (2, 2), (20, 20), (20, 5), (3, 20))]
    spreads = _stream(11, 0).integers(1, f + 1, (2, n))
    nets.append(build_heterogeneous(n, f, spreads[0], spreads[1], seed=4))
    for i, net in enumerate(nets):
        wealth = P_BAR_STAR * (1.0 + 0.5 * _stream(12, i).uniform(-1.0, 1.0, n))
        jac = _kernel_jacobian(params, net, pf, wealth, labor_deterministic)
        law = params.delta * a ** 2 * (jac @ jac.T)
        ana = analytic_noise_covariance(params, net, pf, wealth,
                                        labor_deterministic=labor_deterministic)
        gap = np.max(np.abs(ana - law)) / np.max(np.abs(law))
        assert gap < 1e-12, (i, gap)


def test_labor_deterministic_covariance_drops_wage_channels():
    params = EconomyParams(s=0.2, tau_k=0.2, tau_l=0.1, chi=0.0, nu=0.05,
                           a=1.0, delta=1.0)
    net = build_regular(8, 4, 2, 2, seed=1)
    pf = CobbDouglas(0.3)
    wealth = np.full(8, P_BAR_STAR)
    full = analytic_noise_covariance(params, net, pf, wealth)
    cap = analytic_noise_covariance(params, net, pf, wealth, labor_deterministic=True)
    # wage noise is gone, so every variance shrinks
    assert np.all(np.diag(cap) < np.diag(full))
    assert np.abs(cap).max() > 0.0


# ---------------------------------------------------------------------------
# absolute-wealth runs


def _benchmark_setup():
    params = EconomyParams(s=0.2, tau_k=0.2, tau_l=0.1, chi=0.0, nu=0.05,
                           a=1.0, delta=1.0)
    net = build_regular(20, 10, 2, 5, seed=4)
    return params, net, CobbDouglas(0.3)


def test_run_absolute_recording_grid():
    params, net, pf = _benchmark_setup()
    cfg = SimulationConfig(dt=0.5, t_end=30.0, burn_in=10.0, record_every=5.0, seed=1)
    panel = run_absolute(cfg, params, net, pf, np.full(20, P_BAR_STAR))
    np.testing.assert_allclose(panel.times, [10, 15, 20, 25, 30], atol=1e-12)
    assert panel.snapshots.shape == (5, 20)
    assert panel.pooled().size == 100
    np.testing.assert_array_equal(panel.final(), panel.snapshots[-1])


def test_run_absolute_is_deterministic_in_seed():
    params, net, pf = _benchmark_setup()
    cfg = SimulationConfig(dt=0.5, t_end=20.0, record_every=5.0, seed=9)
    a = run_absolute(cfg, params, net, pf, np.full(20, P_BAR_STAR))
    b = run_absolute(cfg, params, net, pf, np.full(20, P_BAR_STAR))
    np.testing.assert_array_equal(a.snapshots, b.snapshots)
    c = run_absolute(dataclasses.replace(cfg, seed=10), params, net, pf,
                     np.full(20, P_BAR_STAR))
    assert not np.array_equal(a.snapshots, c.snapshots)


def test_zero_noise_fixed_point_is_flat():
    params, net, pf = _benchmark_setup()
    quiet = dataclasses.replace(params, delta=0.0)
    cfg = SimulationConfig(dt=0.25, t_end=50.0, record_every=10.0)
    panel = run_absolute(cfg, quiet, net, pf, np.full(20, P_BAR_STAR))
    assert np.max(np.abs(panel.snapshots - P_BAR_STAR)) < 1e-12


def test_zero_noise_deviations_decay_geometrically():
    # individual deviations from a mean pinned at the fixed point relax
    # by the factor (1 - z1*dt) each step, exactly, z1 = nu - s*(1-tau_k)*rho
    params, net, pf = _benchmark_setup()
    quiet = dataclasses.replace(params, delta=0.0)
    dt = 0.25
    cfg = SimulationConfig(dt=dt, t_end=10.0, record_every=10.0)
    spread = np.linspace(-0.3, 0.3, 20) * P_BAR_STAR
    panel = run_absolute(cfg, quiet, net, pf, P_BAR_STAR + spread)
    steps = 40
    factor = (1.0 - 0.038 * dt) ** steps
    np.testing.assert_allclose(panel.final() - P_BAR_STAR, spread * factor, rtol=1e-9)


def test_run_absolute_failure_reports_step():
    params, net, pf = _benchmark_setup()
    cfg = SimulationConfig(dt=0.5, t_end=50.0, record_every=1.0)
    # subsistence far above income drives mean wealth negative quickly,
    # a milder one after some noisy steps; both steps are pinned exactly
    for chi, step in ((5.0, 2), (0.3, 18)):
        with pytest.raises(PriceUndefinedError) as err:
            run_absolute(cfg, dataclasses.replace(params, chi=chi), net, pf, np.full(20, 1.0))
        assert err.value.step == step


def test_non_finite_absolute_state_keeps_its_exact_step(monkeypatch):
    kernel, calls = simulate._firm_shock_increment, []

    def poisoned(*args):
        out = kernel(*args)
        calls.append(None)
        if len(calls) == 7:
            out[3] = np.nan
        return out

    monkeypatch.setattr(simulate, "_firm_shock_increment", poisoned)
    params, net, pf = _benchmark_setup()
    cfg = SimulationConfig(dt=0.5, t_end=20.0, record_every=5.0, seed=2)
    with pytest.raises(NonFiniteError) as err:
        run_absolute(cfg, params, net, pf, np.full(20, P_BAR_STAR))
    assert err.value.step == 7


def test_non_finite_relative_state_keeps_its_exact_step(monkeypatch):
    stream = simulate._stream

    class Poisoned:
        def standard_normal(self, size):
            return np.full(size, np.inf)

    monkeypatch.setattr(simulate, "_stream",
                        lambda seed, step: Poisoned() if step == 5 else stream(seed, step))
    params = EconomyParams(s=0.2, tau_k=0.2, chi=0.0, nu=0.01, a=1.0, delta=10.0)
    cfg = SimulationConfig(dt=0.25, t_end=10.0, record_every=1.0, seed=4)
    with pytest.raises(NonFiniteError) as err:
        run_relative_growth(cfg, params, 1.0, RHO_INF, np.ones(30))
    assert err.value.step == 5


def test_run_absolute_stability_guard():
    params, net, pf = _benchmark_setup()
    cfg = SimulationConfig(dt=0.5, t_end=10.0)
    # tiny wealth means a huge marginal product; the explicit step would
    # amplify noise, so the run must refuse
    with pytest.raises(ConfigError):
        run_absolute(cfg, params, net, pf, np.full(20, 1e-4))


# ---------------------------------------------------------------------------
# relative-wealth runs


def test_relative_growth_basics():
    params = EconomyParams(s=0.2, tau_k=0.2, chi=0.0, nu=0.01, a=1.0, delta=10.0)
    report = classify_regime(params, CES(0.2, 0.7))
    cfg = SimulationConfig(dt=0.25, t_end=200.0, burn_in=100.0, record_every=25.0, seed=3)
    panel = run_relative_growth(cfg, params, 1.0, report.capital_return, np.ones(2000))
    assert panel.snapshots.shape == (5, 2000)
    assert np.all(panel.snapshots > 0.0)
    # the scheme conserves the cross-sectional mean up to MC noise
    assert panel.final().mean() == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("delta, dt", [(10.0, 0.25), (70.0, 50.0)],
                         ids=["shipped_dt", "coarse_dt"])
def test_relative_steps_by_hand(delta, dt):
    # the coarse input has revert*dt = 0.20 and sigma**2*dt = 0.90, where
    # an Euler-type step would need rejections to stay positive
    params = EconomyParams(s=0.2, tau_k=0.2, chi=0.0, nu=0.01, a=1.0, delta=delta)
    cfg = SimulationConfig(dt=dt, t_end=3 * dt, record_every=dt, seed=5)
    u = 1.0 + 0.5 * np.random.default_rng(2).uniform(-1.0, 1.0, 50)
    u /= u.mean()
    panel = run_relative_growth(cfg, params, 1.0, RHO_INF, u)
    np.testing.assert_array_equal(panel.times, [0.0, dt, 2 * dt, 3 * dt])
    np.testing.assert_array_equal(panel.snapshots[0], u)

    revert = params.s * RHO_INF * params.tau_k
    sigma = math.sqrt(delta) * params.s * (1.0 - params.tau_k) * RHO_INF
    half = math.exp(-0.5 * revert * dt)
    for step in (1, 2, 3):
        dw = math.sqrt(dt) * _stream(5, step).standard_normal(50)
        geometric = np.exp(sigma * dw - 0.5 * sigma ** 2 * dt)
        u = 1.0 + ((1.0 + (u - 1.0) * half) * geometric - 1.0) * half
        np.testing.assert_allclose(panel.snapshots[step], u, rtol=1e-14, atol=0)
    assert np.all(panel.snapshots > 0.0)


def test_relative_growth_input_validation():
    params = EconomyParams(s=0.2, tau_k=0.2, chi=0.0, nu=0.01, a=1.0, delta=10.0)
    cfg = SimulationConfig(dt=0.25, t_end=10.0)
    with pytest.raises(DegenerateDynamicsError):
        run_relative_growth(cfg, dataclasses.replace(params, tau_k=0.0), 1.0,
                            RHO_INF, np.ones(10))
    with pytest.raises(DomainError):
        run_relative_growth(cfg, params, 1.0, RHO_INF, np.full(10, 2.0))
    with pytest.raises(DomainError):
        run_relative_growth(cfg, params, 1.0, RHO_INF,
                            np.array([1.5, 0.5, 1.0, -0.0, 2.0, 1.0, 1.0, 1.0, 1.0, 0.0]))
    # a non-finite entry is refused before any step
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError):
            run_relative_growth(cfg, params, 1.0, RHO_INF, np.array([bad] + [1.0] * 9))
    # a step too coarse for the reversion rate is refused outright
    with pytest.raises(ConfigError):
        run_relative_growth(
            SimulationConfig(dt=200.0, t_end=400.0, record_every=200.0),
            params, 1.0, RHO_INF, np.ones(10))


def test_relative_growth_deterministic_by_seed():
    params = EconomyParams(s=0.2, tau_k=0.2, chi=0.0, nu=0.01, a=1.0, delta=10.0)
    cfg = SimulationConfig(dt=0.25, t_end=100.0, record_every=50.0, seed=8)
    a = run_relative_growth(cfg, params, 1.0, RHO_INF, np.ones(300))
    b = run_relative_growth(cfg, params, 1.0, RHO_INF, np.ones(300))
    np.testing.assert_array_equal(a.snapshots, b.snapshots)


# ---------------------------------------------------------------------------
# mean-field integration


def test_integrate_mean_field_reaches_fixed_point():
    params = EconomyParams(s=0.2, tau_k=0.2, tau_l=0.1, chi=0.0, nu=0.05,
                           a=1.0, delta=1.0)
    times, path = integrate_mean_field(params, CobbDouglas(0.3), 1.0, 400.0, 0.05)
    assert times[0] == 0.0 and times[-1] == pytest.approx(400.0)
    assert path[0] == 1.0
    assert path[-1] == pytest.approx(P_BAR_STAR, rel=1e-5)
    assert np.all(np.diff(path) > 0.0)


def test_integrate_mean_field_fourth_order():
    params = EconomyParams(s=0.2, tau_k=0.2, chi=0.0, nu=0.05, a=1.0, delta=1.0)
    pf = CobbDouglas(0.3)
    _, coarse = integrate_mean_field(params, pf, 1.0, 10.0, 0.5)
    _, fine = integrate_mean_field(params, pf, 1.0, 10.0, 0.25)
    _, ref = integrate_mean_field(params, pf, 1.0, 10.0, 0.001)
    e_coarse = abs(coarse[-1] - ref[-1])
    e_fine = abs(fine[-1] - ref[-1])
    assert e_fine < e_coarse / 8.0


def test_panel_csv_round_trip(tmp_path):
    params, net, pf = _benchmark_setup()
    cfg = SimulationConfig(dt=0.5, t_end=5.0, record_every=1.0, seed=6)
    panel = run_absolute(cfg, params, net, pf, np.full(20, P_BAR_STAR))
    path = tmp_path / "panel.csv"
    panel.to_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "t,household_id,wealth"
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    assert data.shape == (panel.times.size * 20, 3)
    # full-precision formatting restores the exact floats
    back = data[:, 2].reshape(panel.times.size, 20)
    np.testing.assert_array_equal(back, panel.snapshots)
    # byte for byte the text of one f-string per row, also for snapshots
    # wider than one block of formatted rows
    wide = WealthPanel(np.array([0.5, 1.0]),
                       _stream(4, 0).lognormal(0.0, 2.0, (2, 5000)), "absolute")
    for p in (panel, wide):
        p.to_csv(path)
        expected = ["t,household_id,wealth"] + [
            f"{t:.17g},{i},{row[i]:.17g}"
            for t, row in zip(p.times, p.snapshots) for i in range(row.size)]
        text = path.read_text()
        assert text.endswith("\n")
        lines = text.split("\n")[:-1]
        assert len(lines) == len(expected)
        # first differing line only: a full diff of 10k lines takes minutes
        assert next(((k, a, b) for k, (a, b) in enumerate(zip(lines, expected))
                     if a != b), None) is None
