"""Monte Carlo simulation of household wealth under firm-level shocks.

Absolute-wealth runs step every household through realized firm payoffs:
each firm's production over a step is a random multiple of its inputs,
factor payments are proportional to the realized shock, flat taxes are
collected on realized incomes and redistributed equally, and households
save a fixed share of what remains.  Relative-wealth runs follow wealth
divided by its growing mean along a sustained-growth path.

Randomness is counter-based: step n of a run draws from a dedicated
Philox stream keyed by (seed, n), so trajectories are reproducible and
independent of how the work is scheduled.  One generator is reset to
each stream rather than rebuilt, with the same draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DegenerateDynamicsError,
    DomainError,
    NonFiniteError,
    PriceUndefinedError,
)
from .market import _aggregate_drift, clear
from .network import AllocationNetwork
from .params import EconomyParams, ProductionFunction

__all__ = [
    "SimulationConfig",
    "WealthPanel",
    "sample_firm_shocks",
    "step_absolute",
    "run_absolute",
    "run_relative_growth",
    "integrate_mean_field",
    "empirical_noise_covariance",
    "analytic_noise_covariance",
]

@dataclass(frozen=True)
class SimulationConfig:
    """Time stepping and recording plan for a run.

    Snapshots are recorded at ``burn_in, burn_in + record_every, ...``
    up to ``t_end``; all three must be multiples of ``dt``.
    """

    dt: float
    t_end: float
    burn_in: float = 0.0
    record_every: float = 1.0
    seed: int = 0
    labor_deterministic: bool = False

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not 0.0 <= self.burn_in < self.t_end:
            raise ConfigError(
                f"need 0 <= burn_in < t_end, got burn_in={self.burn_in} t_end={self.t_end}")
        if not self.record_every > 0.0:
            raise ConfigError(f"record_every must be positive, got {self.record_every}")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        for name in ("t_end", "burn_in", "record_every"):
            steps = getattr(self, name) / self.dt
            if abs(steps - round(steps)) > 1e-9 * max(1.0, abs(steps)):
                raise ConfigError(f"{name}={getattr(self, name)} is not a multiple of dt={self.dt}")

    def step_counts(self) -> tuple[int, int, int]:
        return (int(round(self.t_end / self.dt)),
                int(round(self.burn_in / self.dt)),
                max(1, int(round(self.record_every / self.dt))))


_CSV_BLOCK = 2048  # panel.csv rows formatted per write


@dataclass(frozen=True)
class WealthPanel:
    """Recorded snapshots of a run.

    times      (n_snapshots,) recording times
    snapshots  (n_snapshots, n_households) wealth levels
    counters   what an absolute run did: steps taken and the largest
               stability-guard value s*(1-tau_k)*return*dt
    """

    times: np.ndarray
    snapshots: np.ndarray
    counters: dict = field(default_factory=dict)

    def mean_path(self) -> np.ndarray:
        return self.snapshots.mean(axis=1)

    def pooled(self) -> np.ndarray:
        return self.snapshots.ravel()

    def final(self) -> np.ndarray:
        return self.snapshots[-1]

    def to_csv(self, path):
        """Long-form CSV ``t,household_id,wealth`` at full precision."""
        with open(path, "w") as fh:
            fh.write("t,household_id,wealth\n")
            # a bounded block of rows per write keeps the formatted text
            # small whatever the number of households; the time prefix is
            # formatted once per snapshot and one % formats a whole block
            for t, snap in zip(self.times.tolist(), self.snapshots):
                row = "%.17g" % t + ",%d,%.17g\n"
                for lo in range(0, snap.size, _CSV_BLOCK):
                    block = snap[lo:lo + _CSV_BLOCK].tolist()
                    fields = [None] * (2 * len(block))
                    fields[::2] = range(lo, lo + len(block))
                    fields[1::2] = block
                    fh.write(row * len(block) % tuple(fields))


_KEY = np.zeros(2, dtype=np.uint64)
_COUNTER = np.zeros(4, dtype=np.uint64)
_STREAM_STATE = {"bit_generator": "Philox", "state": {"counter": _COUNTER, "key": _KEY},
                 "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0}
_GENERATOR = np.random.Generator(np.random.Philox(key=0))


def _stream(seed: int, step: int) -> np.random.Generator:
    """The Philox stream of ``(seed, step)``, valid until the next call.

    One Philox block of 2**192 draws per step index, so streams never
    overlap.  A single generator is reset to the stream's key and counter
    with empty buffers, which draws exactly what a freshly built
    ``Philox(key=seed, counter=[0, 0, 0, step])`` would, without the
    cost of building one.  The generator is shared by the whole process,
    so no caller may hold two streams at once or draw from two threads.
    """
    _KEY[0] = seed
    _COUNTER[3] = step
    _GENERATOR.bit_generator.state = _STREAM_STATE
    return _GENERATOR


def sample_firm_shocks(n_firms: int | tuple[int, int], params: EconomyParams, dt: float,
                       rng: np.random.Generator) -> np.ndarray:
    """Realized production per unit input for each firm over one step.

    Mean ``a * dt``, variance ``a**2 * delta * dt``, independent across
    firms and steps.  With ``delta = 0`` the draw is exactly the mean.
    ``n_firms`` may also be a shape ``(K, F)`` for K draws at once.
    """
    if dt <= 0.0:
        raise DomainError(f"dt must be positive, got {dt}")
    mean = params.a * dt
    if params.delta == 0.0:
        return np.full(n_firms, mean)
    draws = rng.standard_normal(n_firms)
    draws *= params.a * math.sqrt(params.delta * dt)
    draws += mean
    return draws


def _firm_flows(net, shocks, labor):
    """``invest @ shock`` and, with ``labor``, ``labor @ shock`` per household
    (else None), for a draw ``(F,)`` or a block ``(K, F)``.

    Rows spread evenly over every firm all see the firm mean, which
    costs O(F) instead of O(N*F).  When both channels need a sparse
    product they share one over the stacked rows ``net.flow_rows``.
    """
    n, f = net.n_households, net.n_firms
    if net.invest_spread != f and labor and net.labor_spread != f:
        both = (net.flow_rows @ shocks.T).T
        return both[..., :n], both[..., n:]

    def flow(alloc, spread):
        if spread == f:
            return np.broadcast_to(shocks.mean(axis=-1)[..., None], shocks.shape[:-1] + (n,))
        return (alloc @ shocks.T).T

    return flow(net.invest, net.invest_spread), \
        flow(net.labor, net.labor_spread) if labor else None


def _firm_shock_increment(p, params, net, state, shocks, dt, labor_deterministic):
    """One-step wealth change given realized firm shocks.

    Factor payments scale with the realized shock of each firm a
    household is exposed to; taxes apply to realized incomes and the
    proceeds return as an equal per-household transfer.  ``state`` holds
    the prices cleared at the current mean wealth.  ``shocks`` is one
    draw ``(F,)`` or a block ``(K, F)`` of draws at the same state; the
    result is ``(N,)`` or ``(K, N)``.
    """
    n = net.n_households
    # the shocks carry the productivity a, so prices enter per unit of a
    gslope, wage_unit = state.capital_return / params.a, state.wage / params.a
    cap_flow, lab_flow = _firm_flows(net, shocks, not labor_deterministic)
    if labor_deterministic:
        lab_flow = params.a * dt
        lab_total = n * lab_flow
    else:
        lab_total = lab_flow.sum(axis=-1)
    # taxed capital income sums to p @ (invest @ shocks), taxed wages to
    # the labor-weighted firm shocks; the pool is shared equally
    pool = params.tau_k * gslope * (cap_flow @ p) + params.tau_l * wage_unit * lab_total
    # s * ((1-tau_k)*gslope*p*cap + (1-tau_l)*wage_unit*lab + pool/n) - (chi + nu*p)*dt
    # in one buffer and one scratch, operation by operation in the order
    # that expression rounds in, so same-seed panels stay bit-identical
    out = np.multiply(p, (1.0 - params.tau_k) * gslope, out=np.empty(cap_flow.shape))
    out *= cap_flow
    scratch = np.multiply(lab_flow, (1.0 - params.tau_l) * wage_unit, out=np.empty_like(out))
    out += scratch
    out += (pool / n)[..., None]
    out *= params.s
    np.multiply(p, params.nu, out=scratch)
    scratch += params.chi
    scratch *= dt
    out -= scratch
    return out


def _frozen_state(params, net, pf, wealth):
    """Wealth as an array and the prices cleared at its mean."""
    p = np.asarray(wealth, dtype=float)
    if p.shape != (net.n_households,):
        raise DomainError(f"wealth vector must have length {net.n_households}")
    lam = p.mean()
    if not lam > 0.0:
        raise PriceUndefinedError(f"mean wealth {lam} is not positive")
    return p, clear(params, pf, lam)


def step_absolute(state, params: EconomyParams, net: AllocationNetwork,
                  pf: ProductionFunction, shocks, dt: float,
                  labor_deterministic: bool = False) -> np.ndarray:
    """Advance absolute wealth by one step under given firm shocks.

    ``shocks=None`` applies the mean flow ``a * dt`` at every firm.
    """
    p, prices = _frozen_state(params, net, pf, state)
    shocks = np.full(net.n_firms, params.a * dt) if shocks is None \
        else np.asarray(shocks, dtype=float)
    return p + _firm_shock_increment(p, params, net, prices, shocks, dt, labor_deterministic)


def analytic_noise_covariance(params: EconomyParams, net: AllocationNetwork,
                              pf: ProductionFunction, wealth,
                              labor_deterministic: bool = False) -> np.ndarray:
    """Per-unit-time covariance of the wealth noise at a frozen state.

    A shock to firm j moves household i's wealth by ``s/a`` times
    ``load[i, j]``: its after-tax capital income ``(1-tau_k)*rho*p_i*invest_ij``
    and wage ``(1-tau_l)*omega*labor_ij`` from the firm, plus an equal share
    ``(tau_k*rho*K_j + tau_l*omega*L_j)/N`` of the taxes on the firm's
    payouts.  Firm shocks are independent with variance ``a**2 * delta``
    per unit time, so the covariance is ``delta * s**2 * load @ load.T``.
    With deterministic labor income both wage terms drop out.  The
    increment is linear in the Gaussian firm shocks, so at a frozen state
    it is exactly Gaussian with this covariance times dt;
    ``empirical_noise_covariance`` samples it through the stepping kernel.
    """
    p, state = _frozen_state(params, net, pf, wealth)
    rho, omega = state.capital_return, state.wage
    load = ((1.0 - params.tau_k) * rho * p)[:, None] * net.invest.toarray()
    transfer = params.tau_k * rho * net.firm_capital(p)
    if not labor_deterministic:
        load += (1.0 - params.tau_l) * omega * net.labor.toarray()
        transfer += params.tau_l * omega * net.firm_labor()
    load += transfer / net.n_households
    return params.delta * params.s ** 2 * (load @ load.T)


def empirical_noise_covariance(params: EconomyParams, net: AllocationNetwork,
                               pf: ProductionFunction, wealth, n_samples: int,
                               dt: float = 0.01, seed: int = 0,
                               labor_deterministic: bool = False):
    """Sampled covariance of one-step increments at a frozen wealth state.

    Draws ``n_samples`` independent shock vectors, forms the one-step
    increments without ever moving the state, and returns the increment
    covariance divided by dt next to its analytic counterpart.
    """
    if n_samples < 2:
        raise DomainError("need at least two samples for a covariance")
    p, state = _frozen_state(params, net, pf, wealth)
    n, f = net.n_households, net.n_firms

    increments = np.empty((n_samples, n))
    chunk = max(1, (1 << 22) // max(f, 1))
    for block, start in enumerate(range(0, n_samples, chunk)):
        stop = min(start + chunk, n_samples)
        shocks = sample_firm_shocks((stop - start, f), params, dt, _stream(seed, block))
        increments[start:stop] = _firm_shock_increment(p, params, net, state, shocks, dt,
                                                       labor_deterministic)

    empirical = np.cov(increments, rowvar=False) / dt
    analytic = analytic_noise_covariance(params, net, pf, p,
                                         labor_deterministic=labor_deterministic)
    return empirical, analytic


def _record(config: SimulationConfig, state: np.ndarray, advance):
    """Step ``state`` through ``advance(state, step, mean)`` and keep the snapshots.

    ``mean`` is the mean of the state handed in, the one reduction per
    step.  It doubles as the finiteness check: a finite mean means every
    entry is finite, so only a non-finite mean costs a scan, and a state
    with a non-finite entry raises NonFiniteError carrying the step
    index.  The state is recorded at t=0 when there is no burn-in, then
    every ``record_every`` from ``burn_in`` on.  Returns the recording
    times and the stacked snapshots.
    """
    steps_total, burn_steps, rec_steps = config.step_counts()
    times, snaps = [], []
    if burn_steps == 0:
        times.append(0.0)
        snaps.append(state.copy())
    # sum / size is exactly what ndarray.mean computes, without its overhead
    mean = state.sum() / state.size
    for step in range(1, steps_total + 1):
        state = advance(state, step, mean)
        mean = state.sum() / state.size
        if not math.isfinite(mean) and not np.all(np.isfinite(state)):
            raise NonFiniteError(f"state stopped being finite at step {step}", step=step)
        if step >= burn_steps and (step - burn_steps) % rec_steps == 0:
            times.append(step * config.dt)
            snaps.append(state.copy())
    return np.array(times), np.array(snaps)


def run_absolute(config: SimulationConfig, params: EconomyParams,
                 net: AllocationNetwork, pf: ProductionFunction,
                 initial) -> WealthPanel:
    """Simulate absolute wealth for every household.

    Prices are recomputed from current mean wealth each step.  The run
    aborts if mean wealth turns non-positive or any state stops being
    finite; both errors carry the offending step index.  The stability
    guard ``s*(1-tau_k)*return*dt < 0.1`` is enforced at t=0; its
    largest value over the run is kept in ``counters["dt_guard_max"]``.
    """
    p, prices = _frozen_state(params, net, pf, np.array(initial, dtype=float))
    saved = params.s * (1.0 - params.tau_k)
    dt_guard_max = saved * prices.capital_return * config.dt
    if dt_guard_max >= 0.1:
        raise ConfigError(
            f"dt={config.dt} too coarse: s*(1-tau_k)*return*dt = {dt_guard_max:.3g} >= 0.1")

    def advance(p, step, lam):
        nonlocal dt_guard_max
        if not lam > 0.0:
            raise PriceUndefinedError(
                f"mean wealth {lam} became non-positive at step {step}", step=step)
        state = clear(params, pf, lam)
        dt_guard_max = max(dt_guard_max, saved * state.capital_return * config.dt)
        shocks = sample_firm_shocks(net.n_firms, params, config.dt, _stream(config.seed, step))
        inc = _firm_shock_increment(p, params, net, state, shocks, config.dt,
                                    config.labor_deterministic)
        inc += p
        return inc

    times, snaps = _record(config, p, advance)
    return WealthPanel(
        times=times,
        snapshots=snaps,
        counters={"steps": config.step_counts()[0], "dt_guard_max": dt_guard_max},
    )


def run_relative_growth(config: SimulationConfig, params: EconomyParams,
                        invest_overlap_mean: float, capital_return: float,
                        initial) -> WealthPanel:
    """Simulate wealth relative to the growing mean along a growth path.

    Relative wealth reverts to 1 at rate ``s * return * tau_k`` and
    carries multiplicative noise with variance rate
    ``delta * s**2 * (1-tau_k)**2 * return**2 * overlap``.  Each step
    is a Strang splitting whose parts are solved exactly: half a step
    of relaxation ``1 + (u-1)*exp(-revert*dt/2)``, the geometric step
    ``u*exp(sigma*dW - sigma**2*dt/2)``, then the other half step of
    relaxation, with one normal per household from the (seed, step)
    stream.  Relative wealth stays positive and its mean is kept in
    expectation for any dt.  Without capital taxation there is nothing
    to revert to and the run refuses.
    """
    if params.tau_k == 0.0:
        raise DegenerateDynamicsError(
            "tau_k = 0: relative wealth only spreads out; no stationary run exists")
    if capital_return <= 0.0 or invest_overlap_mean <= 0.0:
        raise DomainError("capital return and overlap must be positive")
    u = np.array(initial, dtype=float)
    if not np.all(u > 0.0):
        raise DomainError("initial relative wealth must be positive and finite")
    if abs(u.mean() - 1.0) > 1e-8:
        raise DomainError(f"initial relative wealth must average 1, got {u.mean()!r}")

    revert = params.s * capital_return * params.tau_k
    sigma = math.sqrt(params.delta) * params.s * (1.0 - params.tau_k) \
        * capital_return * math.sqrt(invest_overlap_mean)
    if revert * config.dt >= 0.5 or sigma * sigma * config.dt >= 1.0:
        raise ConfigError("dt too coarse for the reversion or noise scale")
    decay = math.exp(-0.5 * revert * config.dt)
    sq = math.sqrt(config.dt)

    def advance(u, step, _mean):
        dw = sq * _stream(config.seed, step).standard_normal(u.shape[0])
        u = 1.0 + (u - 1.0) * decay
        u = u * np.exp(sigma * dw - 0.5 * sigma * sigma * config.dt)
        return 1.0 + (u - 1.0) * decay

    times, snaps = _record(config, u, advance)
    return WealthPanel(times=times, snapshots=snaps)


def integrate_mean_field(params: EconomyParams, pf: ProductionFunction,
                         initial_mean: float, t_end: float, dt: float):
    """Classic fourth-order Runge-Kutta path of mean wealth.

    Integrates ``dp/dt = s*a*g(p) - chi - nu*p`` and returns the time
    grid and the trajectory.  Taxes never enter: redistribution cancels
    in the aggregate.
    """
    if dt <= 0.0 or t_end <= 0.0:
        raise DomainError("t_end and dt must be positive")
    steps = int(round(t_end / dt))
    if abs(steps * dt - t_end) > 1e-9 * max(1.0, t_end):
        raise DomainError(f"t_end={t_end} is not a multiple of dt={dt}")
    if not initial_mean > 0.0:
        raise PriceUndefinedError(f"initial mean wealth {initial_mean} is not positive")

    def f(p):
        if not p > 0.0:
            raise PriceUndefinedError(f"mean wealth {p} left the positive domain")
        return _aggregate_drift(params, pf, p)

    times = np.linspace(0.0, steps * dt, steps + 1)
    path = np.empty(steps + 1)
    path[0] = p = initial_mean
    for i in range(1, steps + 1):
        k1 = f(p)
        k2 = f(p + 0.5 * dt * k1)
        k3 = f(p + 0.5 * dt * k2)
        k4 = f(p + dt * k3)
        p = p + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        path[i] = p
    return times, path
