"""Monte Carlo simulation of household wealth under firm-level shocks.

Absolute-wealth runs step every household through realized firm payoffs:
each firm's production over a step is a random multiple of its inputs,
factor payments are proportional to the realized shock, flat taxes are
collected on realized incomes and redistributed equally, and households
save a fixed share of what remains.  Relative-wealth runs follow wealth
divided by its growing mean along a sustained-growth path.

Randomness is counter-based: step n of a run draws from a dedicated
Philox stream keyed by (seed, n), so trajectories are reproducible and
independent of how the work is scheduled.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DegenerateDynamicsError,
    DomainError,
    NonFiniteError,
    PriceUndefinedError,
)
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


@dataclass(frozen=True)
class WealthPanel:
    """Recorded snapshots of a run.

    times      (n_snapshots,) recording times
    snapshots  (n_snapshots, n_households) wealth levels
    kind       'absolute' or 'relative'
    metadata   full echo of the inputs that produced the panel
    """

    times: np.ndarray
    snapshots: np.ndarray
    kind: str
    metadata: dict = field(default_factory=dict)

    def mean_path(self) -> np.ndarray:
        return self.snapshots.mean(axis=1)

    def pooled(self) -> np.ndarray:
        return self.snapshots.ravel()

    def final(self) -> np.ndarray:
        return self.snapshots[-1]

    def to_csv(self, path):
        """Long-form CSV ``t,household_id,wealth`` at full precision."""
        n_snap, n_h = self.snapshots.shape
        with open(path, "w") as fh:
            fh.write("t,household_id,wealth\n")
            for t, row in zip(self.times, self.snapshots):
                for i in range(n_h):
                    fh.write(f"{t:.17g},{i},{row[i]:.17g}\n")


def _stream(seed: int, step: int) -> np.random.Generator:
    # one Philox block of 2**192 draws per step index: streams never overlap
    counter = np.zeros(4, dtype=np.uint64)
    counter[3] = np.uint64(step)
    return np.random.Generator(np.random.Philox(key=np.uint64(seed), counter=counter))


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
    return mean + params.a * math.sqrt(params.delta * dt) * rng.standard_normal(n_firms)


def _firm_flow(alloc, spread, shocks):
    """``alloc @ shock`` per household for a draw ``(F,)`` or a block ``(K, F)``.

    Rows spread evenly over every firm all see the firm mean, which
    costs O(F) instead of O(N*F).
    """
    n, f = alloc.shape
    if spread == f:
        return np.broadcast_to(shocks.mean(axis=-1)[..., None], shocks.shape[:-1] + (n,))
    return (alloc @ shocks.T).T


def _firm_shock_increment(p, params, net, gval, gslope, lam, shocks, dt,
                          labor_deterministic):
    """One-step wealth change given realized firm shocks.

    Factor payments scale with the realized shock of each firm a
    household is exposed to; taxes apply to realized incomes and the
    proceeds return as an equal per-household transfer.  ``shocks`` is
    one draw ``(F,)`` or a block ``(K, F)`` of draws at the same state;
    the result is ``(N,)`` or ``(K, N)``.
    """
    n = net.n_households
    wage_unit = gval - lam * gslope
    cap_flow = _firm_flow(net.invest, net.invest_spread, shocks)
    if labor_deterministic:
        lab_flow = params.a * dt
        lab_total = n * lab_flow
    else:
        lab_flow = _firm_flow(net.labor, net.labor_spread, shocks)
        lab_total = lab_flow.sum(axis=-1)
    # taxed capital income sums to p @ (invest @ shocks), taxed wages to
    # the labor-weighted firm shocks; the pool is shared equally
    pool = params.tau_k * gslope * (cap_flow @ p) + params.tau_l * wage_unit * lab_total
    return (params.s * ((1.0 - params.tau_k) * gslope * p * cap_flow
                        + (1.0 - params.tau_l) * wage_unit * lab_flow
                        + (pool / n)[..., None])
            - (params.chi + params.nu * p) * dt)


def step_absolute(state, params: EconomyParams, net: AllocationNetwork,
                  pf: ProductionFunction, shocks, dt: float,
                  labor_deterministic: bool = False) -> np.ndarray:
    """Advance absolute wealth by one step under given firm shocks.

    ``shocks=None`` applies the mean flow ``a * dt`` at every firm.
    """
    p = np.asarray(state, dtype=float)
    if p.shape != (net.n_households,):
        raise DomainError(f"state must have length {net.n_households}")
    lam = p.mean()
    if not lam > 0.0:
        raise PriceUndefinedError(f"mean wealth {lam} is not positive")
    shocks = np.full(net.n_firms, params.a * dt) if shocks is None \
        else np.asarray(shocks, dtype=float)
    return p + _firm_shock_increment(p, params, net, pf.value(lam), pf.derivative(lam),
                                     lam, shocks, dt, labor_deterministic)


def analytic_noise_covariance(params: EconomyParams, net: AllocationNetwork,
                              pf: ProductionFunction, wealth,
                              labor_deterministic: bool = False) -> np.ndarray:
    """Per-unit-time covariance of the wealth noise at a frozen state.

    The entries combine pairwise portfolio overlaps weighted by wealth
    and labor exposures, the covariance of each household's income with
    the common redistribution transfer, and the variance of the transfer
    itself.  With deterministic labor income only the capital channels
    remain.  The increment is linear in the Gaussian firm shocks, so at
    a frozen state it is exactly Gaussian with this covariance times dt;
    ``empirical_noise_covariance`` samples it through the stepping kernel.
    """
    p = np.asarray(wealth, dtype=float)
    n = net.n_households
    lam = p.mean()
    if not lam > 0.0:
        raise PriceUndefinedError(f"mean wealth {lam} is not positive")
    rho = params.a * pf.derivative(lam)
    omega = params.a * (pf.value(lam) - lam * pf.derivative(lam))
    ov = net.overlaps()
    ck = 1.0 - params.tau_k
    cl = 1.0 - params.tau_l
    base = params.delta * params.s ** 2

    H = ck ** 2 * rho ** 2 * np.outer(p, p) * ov.invest
    if labor_deterministic:
        transfer_rate = params.tau_k * rho
        agg = ck * rho * p * (ov.invest @ p)
    else:
        H = H + cl ** 2 * omega ** 2 * ov.labor
        cross = p[:, None] * ov.cross
        H = H + ck * cl * rho * omega * (cross + cross.T)
        transfer_rate = params.tau_k * rho + params.tau_l * omega / lam
        agg = ck * rho * p * (ov.invest @ p) + cl * omega * (ov.cross @ p)
    H = H + (transfer_rate / n) * (agg[:, None] + agg[None, :])
    k = net.firm_capital(p)
    H = H + (transfer_rate / n) ** 2 * np.sum(k * k)
    return base * H


def empirical_noise_covariance(params: EconomyParams, net: AllocationNetwork,
                               pf: ProductionFunction, wealth, n_samples: int,
                               dt: float = 0.01, seed: int = 0,
                               labor_deterministic: bool = False):
    """Sampled covariance of one-step increments at a frozen wealth state.

    Draws ``n_samples`` independent shock vectors, forms the one-step
    increments without ever moving the state, and returns the increment
    covariance divided by dt next to its analytic counterpart.
    """
    p = np.asarray(wealth, dtype=float)
    n, f = net.n_households, net.n_firms
    if n_samples < 2:
        raise DomainError("need at least two samples for a covariance")
    lam = p.mean()
    if not lam > 0.0:
        raise PriceUndefinedError(f"mean wealth {lam} is not positive")
    gval = pf.value(lam)
    gslope = pf.derivative(lam)

    increments = np.empty((n_samples, n))
    chunk = max(1, (1 << 22) // max(f, 1))
    for block, start in enumerate(range(0, n_samples, chunk)):
        stop = min(start + chunk, n_samples)
        shocks = sample_firm_shocks((stop - start, f), params, dt, _stream(seed, block))
        increments[start:stop] = _firm_shock_increment(p, params, net, gval, gslope, lam,
                                                       shocks, dt, labor_deterministic)

    empirical = np.cov(increments, rowvar=False) / dt
    analytic = analytic_noise_covariance(params, net, pf, p,
                                         labor_deterministic=labor_deterministic)
    return empirical, analytic


def _panel_metadata(config, params, pf, extra=None):
    meta = {
        "config": asdict(config),
        "params": asdict(params),
        "production": {"kind": type(pf).__name__, **asdict(pf)},
    }
    if extra:
        meta.update(extra)
    return meta


def _record(config: SimulationConfig, state: np.ndarray, advance):
    """Step ``state`` through ``advance(state, step)`` and keep the snapshots.

    The state is recorded at t=0 when there is no burn-in, then every
    ``record_every`` from ``burn_in`` on.  A state that stops being
    finite raises NonFiniteError carrying the step index.  Returns the
    recording times and the stacked snapshots.
    """
    steps_total, burn_steps, rec_steps = config.step_counts()
    times, snaps = [], []
    if burn_steps == 0:
        times.append(0.0)
        snaps.append(state.copy())
    for step in range(1, steps_total + 1):
        state = advance(state, step)
        if not np.all(np.isfinite(state)):
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
    finite; both errors carry the offending step index.
    """
    p = np.array(initial, dtype=float)
    n, f = net.n_households, net.n_firms
    if p.shape != (n,):
        raise DomainError(f"initial state must have length {n}")
    lam0 = p.mean()
    if not lam0 > 0.0:
        raise PriceUndefinedError(f"initial mean wealth {lam0} is not positive")
    rho0 = params.a * pf.derivative(lam0)
    if params.s * (1.0 - params.tau_k) * rho0 * config.dt >= 0.1:
        raise ConfigError(
            f"dt={config.dt} too coarse: s*(1-tau_k)*return*dt = "
            f"{params.s * (1.0 - params.tau_k) * rho0 * config.dt:.3g} >= 0.1")

    def advance(p, step):
        lam = p.mean()
        if not lam > 0.0:
            raise PriceUndefinedError(
                f"mean wealth {lam} became non-positive at step {step}", step=step)
        shocks = sample_firm_shocks(f, params, config.dt, _stream(config.seed, step))
        return p + _firm_shock_increment(p, params, net, pf.value(lam), pf.derivative(lam),
                                         lam, shocks, config.dt, config.labor_deterministic)

    times, snaps = _record(config, p, advance)
    return WealthPanel(
        times=times,
        snapshots=snaps,
        kind="absolute",
        metadata=_panel_metadata(config, params, pf, {
            "network": {"n_households": n, "n_firms": f,
                        "invest_spread": net.invest_spread,
                        "labor_spread": net.labor_spread},
        }),
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
    if np.any(u <= 0.0):
        raise DomainError("initial relative wealth must be positive")
    if abs(u.mean() - 1.0) > 1e-8:
        raise DomainError(f"initial relative wealth must average 1, got {u.mean()!r}")

    revert = params.s * capital_return * params.tau_k
    sigma = math.sqrt(params.delta) * params.s * (1.0 - params.tau_k) \
        * capital_return * math.sqrt(invest_overlap_mean)
    if revert * config.dt >= 0.5 or sigma * sigma * config.dt >= 1.0:
        raise ConfigError("dt too coarse for the reversion or noise scale")
    decay = math.exp(-0.5 * revert * config.dt)
    sq = math.sqrt(config.dt)

    def advance(u, step):
        dw = sq * _stream(config.seed, step).standard_normal(u.shape[0])
        u = 1.0 + (u - 1.0) * decay
        u = u * np.exp(sigma * dw - 0.5 * sigma * sigma * config.dt)
        return 1.0 + (u - 1.0) * decay

    times, snaps = _record(config, u, advance)
    return WealthPanel(
        times=times,
        snapshots=snaps,
        kind="relative",
        metadata={
            "config": asdict(config),
            "params": asdict(params),
            "capital_return": capital_return,
            "invest_overlap_mean": invest_overlap_mean,
        },
    )


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
        return params.s * params.a * pf.value(p) - params.chi - params.nu * p

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
