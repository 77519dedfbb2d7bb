"""Factor prices, stationary aggregates and regime classification.

When all firms operate at the same capital-labor ratio, the ratio equals
mean household wealth, the return on capital is the marginal product
there, and the wage is the residual of output per worker.  Whether mean
wealth settles at a fixed point or grows forever depends only on how the
saving rate times productivity compares with the consumption rate at
large wealth.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from scipy.optimize import brentq

from .analytics import tail_exponent_growth, tail_exponent_stationary
from .errors import (
    DomainError,
    KnifeEdgeError,
    NoStationaryStateError,
    RegimeMismatchError,
)
from .params import EconomyParams, ProductionFunction

__all__ = [
    "MarketState",
    "RegimeReport",
    "clear",
    "stationary_mean_wealth",
    "stationary_roots",
    "classify_regime",
]

STATIONARY = "stationary"
ENDOGENOUS_GROWTH = "endogenous_growth"
CONDITIONAL_GROWTH = "conditional_endogenous_growth"


@dataclass(frozen=True)
class MarketState:
    """Cleared factor prices at a given mean wealth.

    mean_wealth     the common capital-labor ratio across firms
    capital_return  expected return per unit of capital
    wage            expected pay per unit of labor
    """

    mean_wealth: float
    capital_return: float
    wage: float


def clear(params: EconomyParams, pf: ProductionFunction, mean_wealth: float) -> MarketState:
    """Compute prices when every firm runs at ratio ``mean_wealth``.

    The return is ``a * g'`` and the wage ``a * (g - ratio * g')``; their
    wealth-weighted sum exhausts output per worker exactly.
    """
    if not mean_wealth > 0.0:
        raise DomainError(f"mean wealth must be positive to clear markets, got {mean_wealth}")
    slope = pf.derivative(mean_wealth)
    value = pf.value(mean_wealth)
    return MarketState(
        mean_wealth=float(mean_wealth),
        capital_return=params.a * slope,
        wage=params.a * (value - mean_wealth * slope),
    )


def _aggregate_drift(params, pf, p):
    return params.s * params.a * pf.value(p) - params.chi - params.nu * p


def _expand_upper(params, pf, hi_start=1e6, cap=1e280):
    hi = hi_start
    while _aggregate_drift(params, pf, hi) >= 0.0:
        hi *= 10.0
        if hi > cap:
            raise NoStationaryStateError(
                "aggregate drift stayed non-negative past the bracket cap; "
                "the economy is not in the stationary regime")
    return hi


def _solve_ratio_with_slope(params, pf, target, lo=1e-12, hi=1e12):
    """Ratio at which s*a*g' equals ``target`` (g' is decreasing)."""
    fn = lambda p: params.s * params.a * pf.derivative(p) - target
    while fn(lo) <= 0.0:
        lo /= 100.0
        if lo < 1e-250:
            raise NoStationaryStateError("could not bracket the slope equation from below")
    while fn(hi) >= 0.0:
        hi *= 100.0
        if hi > 1e250:
            raise NoStationaryStateError("could not bracket the slope equation from above")
    return brentq(fn, lo, hi, xtol=1e-300, rtol=8.9e-16, maxiter=200)


def stationary_roots(params: EconomyParams, pf: ProductionFunction):
    """Fixed points of aggregate wealth in the stationary regime.

    Returns ``(stable, threshold)``.  With zero subsistence consumption
    there is a single stable fixed point and ``threshold`` is None.  With
    positive subsistence the drift can be negative near zero; then the
    smaller root is an unstable poverty threshold below which aggregate
    wealth collapses.
    """
    crit = params.s * params.a * pf.derivative_limit()
    if crit > params.nu:
        raise RegimeMismatchError(
            f"no stationary state: s*a*g'(inf)={crit:.6g} exceeds nu={params.nu:.6g}")
    if crit == params.nu:
        raise KnifeEdgeError(
            f"s*a*g'(inf) equals nu exactly ({params.nu!r}); the fixed point diverges")

    drift = lambda p: _aggregate_drift(params, pf, p)
    drift_at_zero = params.s * params.a * pf.value_at_zero() - params.chi

    if drift_at_zero > 0.0:
        lo = 1e-6
        while drift(lo) <= 0.0:
            lo /= 100.0
            if lo < 1e-250:
                raise NoStationaryStateError("could not bracket the fixed point from below")
        hi = _expand_upper(params, pf)
        stable = brentq(drift, lo, hi, xtol=1e-300, rtol=8.9e-16, maxiter=200)
        return float(stable), None

    # drift starts negative: find its maximum, then both crossings
    peak = _solve_ratio_with_slope(params, pf, params.nu)
    if drift(peak) < 0.0:
        raise NoStationaryStateError(
            "subsistence consumption exceeds savings at every wealth level; "
            "aggregate wealth collapses for any initial condition")
    if drift(peak) == 0.0:
        return float(peak), float(peak)
    hi = _expand_upper(params, pf)
    stable = brentq(drift, peak, hi, xtol=1e-300, rtol=8.9e-16, maxiter=200)
    lo = peak
    while drift(lo) >= 0.0:
        lo /= 100.0
        if lo < 1e-250:
            # drift never turns negative below the peak (chi at the
            # boundary value): the origin itself is the only lower root
            return float(stable), None
    threshold = brentq(drift, lo, peak, xtol=1e-300, rtol=8.9e-16, maxiter=200)
    return float(stable), float(threshold)


def stationary_mean_wealth(params: EconomyParams, pf: ProductionFunction) -> float:
    """The stable fixed point of mean wealth."""
    stable, _ = stationary_roots(params, pf)
    return stable


@dataclass(frozen=True)
class RegimeReport:
    """Long-run diagnosis of the aggregate economy.

    regime            one of 'stationary', 'endogenous_growth',
                      'conditional_endogenous_growth'
    mean_wealth       stable fixed point (stationary regimes only)
    growth_rate       asymptotic growth rate of mean wealth (growth regimes)
    capital_return    long-run return on capital
    wage              long-run wage (zero under sustained growth)
    tail_exponent     power-law exponent of the wealth distribution, when
                      defined
    poverty_threshold unstable lower fixed point, when one exists
    """

    regime: str
    capital_return: float
    wage: float
    mean_wealth: float | None = None
    growth_rate: float | None = None
    tail_exponent: float | None = None
    poverty_threshold: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def classify_regime(params: EconomyParams, pf: ProductionFunction,
                    invest_overlap_mean: float = 1.0) -> RegimeReport:
    """Decide the long-run regime and fill in its closed-form quantities.

    ``invest_overlap_mean`` scales the capital-noise variance in the tail
    exponent; use the network's value when one is available, or leave the
    default 1.0 when the shock variance scale already absorbs it.

    Raises KnifeEdgeError when ``s*a*g'(inf)`` equals ``nu`` exactly.
    """
    crit = params.s * params.a * pf.derivative_limit()
    if crit == params.nu:
        raise KnifeEdgeError(
            f"economy sits on the knife edge: s*a*g'(inf) = nu = {params.nu!r}")
    if crit > params.nu:
        capital_return = params.a * pf.derivative_limit()
        growth = params.s * capital_return - params.nu
        noisy = params.delta > 0.0 and invest_overlap_mean > 0.0
        if params.tau_k > 0.0 and noisy:
            alpha = tail_exponent_growth(params, capital_return, invest_overlap_mean)
        else:
            alpha = None
        regime = ENDOGENOUS_GROWTH
        if params.s * params.a * pf.value_at_zero() <= params.chi:
            # growth only takes hold above a wealth threshold
            regime = CONDITIONAL_GROWTH
        return RegimeReport(
            regime=regime,
            capital_return=capital_return,
            wage=0.0,
            growth_rate=growth,
            tail_exponent=alpha,
        )

    stable, threshold = stationary_roots(params, pf)
    state = clear(params, pf, stable)
    if params.delta > 0.0 and invest_overlap_mean > 0.0 and state.capital_return > 0.0:
        alpha = tail_exponent_stationary(params, state.capital_return, invest_overlap_mean)
    else:
        alpha = None
    return RegimeReport(
        regime=STATIONARY,
        capital_return=state.capital_return,
        wage=state.wage,
        mean_wealth=stable,
        tail_exponent=alpha,
        poverty_threshold=threshold,
    )
