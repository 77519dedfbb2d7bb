"""Factor prices, stationary aggregates and regime classification.

When all firms operate at the same capital-labor ratio, the ratio equals
mean household wealth, the return on capital is the marginal product
there, and the wage is the residual of output per worker.  Whether mean
wealth settles at a fixed point or grows forever depends only on how the
saving rate times productivity compares with the consumption rate at
large wealth.  Every fixed point is bisected in float rank over one
range of ratios, ``RATIO_RANGE``, so no root needs a bracket search.
"""

from __future__ import annotations

import math
import struct
from dataclasses import asdict, dataclass

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
    "stationary_roots",
    "classify_regime",
    "STATIONARY",
    "ENDOGENOUS_GROWTH",
    "CONDITIONAL_GROWTH",
]

STATIONARY = "stationary"
ENDOGENOUS_GROWTH = "endogenous_growth"
CONDITIONAL_GROWTH = "conditional_endogenous_growth"

# capital-labor ratios every root is bisected on; both technologies'
# value and derivative are finite over the whole range
RATIO_RANGE = (1e-300, 1e300)


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


def _rank(x):
    """Position of ``x`` in the order of all floats: its bit pattern read
    as an int64, mirrored for negative floats, so -0.0 and 0.0 share 0."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _unrank(r):
    return struct.unpack("<d", struct.pack("<q", r))[0] if r >= 0 else -_unrank(-r)


def _bisect(f, xa, xb):
    """Root of ``f`` between ``xa`` and ``xb`` by bisection in float rank.

    Each midpoint halves the number of floats left in the bracket, not
    its length, so the two ends are adjacent floats after at most 64
    halvings from any bracket.  Returns the end with the smaller ``|f|``
    (the lower end on a tie), or a midpoint where ``f`` is exactly zero.
    A bracket without a sign change or a NaN value raises
    NoStationaryStateError.
    """
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise NoStationaryStateError(f"root finder met a NaN function value at {x!r}")
        return fx

    lo, hi = min(xa, xb), max(xa, xb)
    flo, fhi = value(lo), value(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise NoStationaryStateError(
            f"no sign change between {xa!r} and {xb!r}; the root is not bracketed")
    rlo, rhi = _rank(lo), _rank(hi)
    while rhi - rlo > 1:
        rmid = (rlo + rhi) // 2
        mid = _unrank(rmid)
        fmid = value(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo, rlo = mid, fmid, rmid
        else:
            hi, fhi, rhi = mid, fmid, rmid
    return hi if abs(fhi) < abs(flo) else lo


def _grows(params: EconomyParams, pf: ProductionFunction) -> bool:
    """Whether ``s*a*g'(inf)`` exceeds ``nu``; KnifeEdgeError when equal."""
    crit = params.s * params.a * pf.derivative_limit()
    if crit == params.nu:
        raise KnifeEdgeError(
            f"economy sits on the knife edge: s*a*g'(inf) = nu = {params.nu!r}")
    return crit > params.nu


def stationary_roots(params: EconomyParams, pf: ProductionFunction):
    """Fixed points of aggregate wealth in the stationary regime.

    Returns ``(stable, threshold)``.  With zero subsistence consumption
    there is a single stable fixed point and ``threshold`` is None.  With
    positive subsistence the drift can be negative near zero; then the
    smaller root is an unstable poverty threshold below which aggregate
    wealth collapses.
    """
    if _grows(params, pf):
        raise RegimeMismatchError(
            f"no stationary state: s*a*g'(inf) exceeds nu={params.nu:.6g}")

    drift = lambda p: _aggregate_drift(params, pf, p)
    lo, hi = RATIO_RANGE
    if params.s * params.a * pf.value_at_zero() > params.chi:
        return float(_bisect(drift, lo, hi)), None

    # drift starts non-positive and rises up to its peak, where s*a*g' = nu
    peak = _bisect(lambda p: params.s * params.a * pf.derivative(p) - params.nu, lo, hi)
    top = drift(peak)
    if top < 0.0:
        raise NoStationaryStateError(
            "subsistence consumption exceeds savings at every wealth level; "
            "aggregate wealth collapses for any initial condition")
    if top == 0.0:
        return float(peak), float(peak)
    stable = _bisect(drift, peak, hi)
    if drift(lo) >= 0.0:
        # drift never turns negative below the peak (chi at the boundary
        # value): the origin itself is the only lower root
        return float(stable), None
    return float(stable), float(_bisect(drift, lo, peak))


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
    exponent: the law's invest overlap (``scenarios.scenario_economy``; at 0
    no capital noise is left, so no exponent); 1.0 without a network, where
    ``delta`` is the whole noise-times-overlap product.

    Raises KnifeEdgeError when ``s*a*g'(inf)`` equals ``nu`` exactly.
    """
    if _grows(params, pf):
        capital_return = params.a * pf.derivative_limit()
        growth = params.s * capital_return - params.nu
        noisy = params.tau_k > 0.0 and params.delta > 0.0 and invest_overlap_mean > 0.0
        alpha = tail_exponent_growth(params, capital_return, invest_overlap_mean) \
            if noisy else None
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
    noisy = params.delta > 0.0 and invest_overlap_mean > 0.0 and state.capital_return > 0.0
    alpha = tail_exponent_stationary(params, state.capital_return, invest_overlap_mean) \
        if noisy else None
    return RegimeReport(
        regime=STATIONARY,
        capital_return=state.capital_return,
        wage=state.wage,
        mean_wealth=stable,
        tail_exponent=alpha,
        poverty_threshold=threshold,
    )
