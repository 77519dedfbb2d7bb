"""Closed-form stationary wealth distributions and tail exponents.

In the large-economy limit a single household's wealth follows a
diffusion with affine drift ``intercept - slope * p`` and quadratic
noise variance ``v0 + v1 * p + v2 * p**2``.  The zero-flux stationary
density of that diffusion is available in closed form; which member of
the family applies depends on which variance coefficients survive the
aggregation of firm shocks.

Both regimes belong to the family, so ``alpha = 1 + 2 * slope / v2``
is the one tail exponent, with ``v2`` the capital-noise term
``delta * s**2 * (1-tau_k)**2 * return**2 * overlap``.  A stationary
state has slope ``nu - s*(1-tau_k)*return``.  Along the growth path,
relative wealth ``du = r*(1-u) dt + sqrt(v2)*u dW`` is the member with
intercept = slope = ``r = s*return*tau_k`` and no labor noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    DegenerateDiscriminantError,
    DegenerateDynamicsError,
    DomainError,
    RegimeMismatchError,
)
from .params import EconomyParams

if TYPE_CHECKING:
    from .market import MarketState

__all__ = [
    "MeanFieldCoeffs",
    "mean_field_coeffs",
    "tail_exponent_stationary",
    "tail_exponent_growth",
    "GaussianDensity",
    "InverseGammaDensity",
    "PearsonType4Density",
    "PointMassDensity",
    "stationary_density",
    "relative_wealth_density",
    "log_log_slope",
    "write_density_table",
]


# |discriminant| / var_lin**2 is about 1e-16 when the overlap means
# coincide and about 1/F for F firms with one fewer on one side
_SQUARE_TOL = 1e-8


@dataclass(frozen=True)
class MeanFieldCoeffs:
    """Drift and noise-variance coefficients of one household's wealth.

    drift(p)    = drift_intercept - drift_slope * p
    variance(p) = var_const + var_lin * p + var_quad * p**2

    The constant term comes from labor-income risk, the quadratic term
    from capital-income risk, and the linear term from their covariance.
    """

    drift_intercept: float
    drift_slope: float
    var_const: float
    var_lin: float
    var_quad: float

    @property
    def discriminant(self) -> float:
        return 4.0 * self.var_const * self.var_quad - self.var_lin ** 2

    @property
    def perfect_square(self) -> bool:
        """Whether the variance is ``var_quad * (p + var_lin/(2*var_quad))**2``:
        a discriminant within ``_SQUARE_TOL * var_lin**2`` of zero is
        rounding, which decides its sign on networks whose overlap means
        coincide."""
        return abs(self.discriminant) <= _SQUARE_TOL * self.var_lin ** 2

    @property
    def skew_weight(self) -> float:
        """Coefficient of the odd (arctan) factor of the density; a
        non-positive value tilts mass onto the negative half-line."""
        if self.var_quad == 0.0:
            return self.drift_intercept
        return self.drift_intercept + self.drift_slope * self.var_lin / (2.0 * self.var_quad)

    @property
    def tail_exponent(self) -> float:
        if self.var_quad <= 0.0:
            raise DomainError("no quadratic noise term, the density has no power tail")
        return 1.0 + 2.0 * self.drift_slope / self.var_quad


def _stationary_slope(params: EconomyParams, capital_return: float) -> float:
    """Reversion rate of wealth at a stationary state, which must be positive."""
    slope = params.nu - params.s * (1.0 - params.tau_k) * capital_return
    if slope <= 0.0:
        raise RegimeMismatchError(
            f"drift slope {slope:.6g} is not positive at return {capital_return:.6g}; "
            "individual wealth is not mean-reverting")
    return slope


def _capital_variance(params: EconomyParams, capital_return: float,
                      invest_mean: float) -> float:
    """Quadratic noise coefficient: after-tax capital-income risk."""
    return (params.delta * params.s ** 2 * (1.0 - params.tau_k) ** 2
            * capital_return ** 2 * invest_mean)


def mean_field_coeffs(params: EconomyParams, market: "MarketState",
                      invest_mean: float, cross_mean: float,
                      labor_mean: float) -> MeanFieldCoeffs:
    """Coefficients at given cleared prices and overlap levels.

    Raises RegimeMismatchError when the drift slope is not positive, in
    which case individual wealth is not mean-reverting and no stationary
    distribution exists.
    """
    for name, v in (("invest_mean", invest_mean), ("cross_mean", cross_mean),
                    ("labor_mean", labor_mean)):
        if v < 0.0 or not math.isfinite(v):
            raise DomainError(f"{name} must be finite and >= 0, got {v}")
    rho, omega = market.capital_return, market.wage
    base = params.delta * params.s ** 2
    coeffs = MeanFieldCoeffs(
        drift_intercept=params.s * (omega + params.tau_k * rho * market.mean_wealth) - params.chi,
        drift_slope=_stationary_slope(params, rho),
        var_const=base * (1.0 - params.tau_l) ** 2 * omega ** 2 * labor_mean,
        var_lin=2.0 * base * (1.0 - params.tau_k) * (1.0 - params.tau_l) * rho * omega * cross_mean,
        var_quad=_capital_variance(params, rho, invest_mean),
    )
    if coeffs.discriminant < 0.0 and not coeffs.perfect_square:
        raise DegenerateDiscriminantError(
            "cross-noise exceeds the geometric mean of labor and capital noise; "
            "overlap inputs violate the Cauchy-Schwarz bound")
    return coeffs


def _growth_coeffs(params: EconomyParams, capital_return: float,
                   invest_mean: float) -> MeanFieldCoeffs:
    """Coefficients of wealth relative to the mean along the growth path;
    without a capital tax nothing pulls it back to 1."""
    if params.tau_k == 0.0:
        raise DegenerateDynamicsError(
            "tau_k = 0: relative wealth has no stationary distribution along "
            "the growth path")
    if capital_return <= 0.0 or invest_mean <= 0.0:
        raise DomainError("capital return and overlap must be positive")
    slope = params.s * capital_return * params.tau_k
    return MeanFieldCoeffs(slope, slope, 0.0, 0.0,
                           _capital_variance(params, capital_return, invest_mean))


def tail_exponent_stationary(params: EconomyParams, capital_return: float,
                             invest_mean: float) -> float:
    """Power-law exponent of the stationary wealth distribution."""
    # the tail needs only the slope and the capital noise
    return MeanFieldCoeffs(0.0, _stationary_slope(params, capital_return), 0.0, 0.0,
                           _capital_variance(params, capital_return, invest_mean)).tail_exponent


def tail_exponent_growth(params: EconomyParams, capital_return: float,
                         invest_mean: float) -> float:
    """Power-law exponent of relative wealth under sustained growth."""
    return _growth_coeffs(params, capital_return, invest_mean).tail_exponent


# ---------------------------------------------------------------------------
# regularized incomplete gamma ratios P(a, x) and Q(a, x) = 1 - P(a, x)

_EPS = 2.0 ** -52
_TINY = 2.0 ** -1022  # the smallest normal float
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# B_2k / (2k (2k - 1)), k = 1..7: Stirling's series of log Gamma
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0,
             -691.0 / 360360.0, 1.0 / 156.0)
_BLOCK = 1 << 14  # values per cdf block of a Pearson IV, a Gaussian or an inverse gamma


def _log_gamma_star(a):
    """log of Gamma(a) / (sqrt(2 pi) a**(a - 1/2) e**-a).  From a = 10 on,
    Stirling's series to a**-13 is exact to 3e-17; below, lgamma loses
    little to the cancellation."""
    if a < 10.0:
        return math.lgamma(a) - (a - 0.5) * math.log(a) + a - _HALF_LOG_2PI
    s = 0.0
    for c in reversed(_STIRLING):
        s = s / (a * a) + c
    return s / a


def _iterate(step, out, state):
    """Run ``step(n, state)`` for n = 1, 2, ... on the entries still open.

    ``state`` is a list of arrays: the entries' positions in ``out``, their
    values, then whatever else the step carries.  The step updates the
    arrays in place and returns the mask of the entries that stay open.
    When some close, every value lands in ``out`` (an open one is written
    again later) and the list keeps only the open entries, one array at a
    time, so that closed ones hold no memory."""
    n = 0
    while state[0].size:
        n += 1
        keep = step(n, state)
        if not keep.all():
            out[state[0]] = state[1]
            for i in range(len(state)):
                state[i] = state[i][keep]


def _prefactor(a, x):
    """x**a e**-x / Gamma(a) for finite x > 0, as exp(-a (mu - log(1 + mu)))
    sqrt(a / 2 pi) / Gamma*(a) with mu = (x - a) / a, which keeps its
    digits at large shapes (Temme 1979)."""
    mu = x - a
    mu /= a
    # log(1 + mu) as log1p near a, where x - a is exact
    out = np.empty_like(x)
    far = mu < -0.5
    np.log1p(mu, out=out, where=~far)
    np.log(x, out=out, where=far)
    np.subtract(out, math.log(a), out=out, where=far)
    np.subtract(mu, out, out=out)
    out *= -a
    out += 0.5 * math.log(a) - _HALF_LOG_2PI - _log_gamma_star(a)
    return np.exp(out, out=out)


def _gamma_ratio(a, x, lower):
    """Overwrite the 1-D array x, all finite and > 0 and fewer than 2**31,
    with P(a, x) where ``lower`` holds and Q(a, x) elsewhere; return it.

    The power series gives P below a + 1 and Lentz's continued fraction Q
    above (Numerical Recipes 6.2), each started from the prefactor; the
    other ratio is 1 minus it."""

    def power_series(n, s):
        _, total, term, v = s
        term *= v
        term /= a + n
        total += term
        return (term > _EPS * total) & (term > _TINY)

    def fraction(n, s):
        _, h, c, d, v = s
        an, b = n * (a - n), v + (2.0 * n + 1.0 - a)
        d *= an
        d += b
        np.reciprocal(d, out=d)
        np.divide(an, c, out=c)
        c += b
        np.multiply(c, d, out=b)
        h *= b
        b -= 1.0
        return np.abs(b, out=b) > _EPS

    series = x < a + 1.0
    # int32 positions take half the memory of the state's other arrays
    idx = np.flatnonzero(series).astype(np.int32)
    v = x[idx]
    total = _prefactor(a, v)
    total /= a
    state = [idx, total, total.copy(), v]
    del idx, total, v
    _iterate(power_series, x, state)
    idx = np.flatnonzero(~series).astype(np.int32)
    v = x[idx]
    d = v + (1.0 - a)
    np.reciprocal(d, out=d)
    h = _prefactor(a, v)
    h *= d
    state = [idx, h, np.full(idx.size, math.inf), d, v]
    del idx, h, d, v
    _iterate(fraction, x, state)
    np.subtract(1.0, x, out=x, where=series != lower)
    return x


def _gamma_q(a, x):
    """Overwrite the 1-D array x with the regularized upper incomplete
    gamma Q(a, x), where Q(a, 0) = 1, Q(a, inf) = 0 and Q is NaN below 0."""
    inner = (x > 0.0) & (x < math.inf)
    if not inner.all():
        edge = x[~inner]
        x[~inner] = np.where(edge == 0.0, 1.0, np.where(edge > 0.0, 0.0, math.nan))
        x[inner] = _gamma_ratio(a, x[inner], False)
    else:
        _gamma_ratio(a, x, False)
    return x


# DiDonato & Morris (1986) eq 32: the normal quantile at min(p, q)
_DM_NUM = (0.213623493715853, 4.28342155967104, 11.6616720288968, 3.31125922108741)
_DM_DEN = (0.3611708101884203e-1, 1.27364489782223, 6.40691597760039, 6.61053765625462, 1.0)


def _gamma_q_guess(a, q, p):
    """DiDonato & Morris's (1986) first approximation to the x with
    Q(a, x) = q = 1 - p: eq 31 in the body for a > 1, and in the tails the
    fixed points of eq 35 (P(a, x) from its series' first terms, small x)
    and of eqs 23/33 (Q(a, x) from its asymptotic form, large x)."""
    lb = np.log(q) + math.lgamma(a)
    if a > 1.0:
        t = np.sqrt(-2.0 * np.log(np.minimum(p, q)))
        s = t - np.polyval(_DM_NUM, t) / np.polyval(_DM_DEN, t)
        s = np.where(p < 0.5, -s, s)
        ra = math.sqrt(a)
        x = (a + s * ra + (s * s - 1.0) / 3.0 + (s ** 3 - 7.0 * s) / (36.0 * ra)
             - (3.0 * s ** 4 + 7.0 * s * s - 16.0) / (810.0 * a)
             + (9.0 * s ** 5 + 256.0 * s ** 3 - 433.0 * s) / (38880.0 * a * ra))
        small = (p < 0.5) & (x < 0.15 * (a + 1.0))
        large = (p >= 0.5) & (x >= 3.0 * a)
        z, y = x[small], x[large]
    else:
        small = q * math.gamma(a) > 0.6 if a < 0.3 else q * math.gamma(a) >= 0.45
        large = ~small
        x = np.empty(q.shape)
        z, y = 0.0, -lb[large]
    v = np.log(p[small]) + math.lgamma(a + 1.0)
    z = np.exp((v + z) / a)
    for _ in range(3):
        z = np.exp((v + z - np.log1p(z / (a + 1.0) * (1.0 + z / (a + 2.0)))) / a)
    x[small] = z
    for _ in range(2):
        y = -lb[large] + (a - 1.0) * np.log(y) - np.log1p((1.0 - a) / (1.0 + y))
    x[large] = y
    return x


def _gamma_q_inv(a, q):
    """The x >= 0 with Q(a, x) = q, for an array q in [0, 1].

    From DiDonato & Morris's first approximation, Halley steps on
    Q(a, x) - q (on P(a, x) - p where q > 1/2, so that the residual keeps
    its digits) run until a step is below 4 ulps of x or the residual is
    within rounding of the ratio.  A step that would leave the bracket
    the residuals have set is replaced by bisection."""
    q = np.asarray(q, dtype=float)
    out = np.where(q == 0.0, math.inf, np.where(q == 1.0, 0.0, math.nan))
    inner = np.flatnonzero((q > 0.0) & (q < 1.0))
    q = q.reshape(-1)[inner]
    lower = q > 0.5
    target = np.where(lower, 1.0 - q, q)
    x = _gamma_q_guess(a, q, 1.0 - q)
    x = np.where(x > 0.0, x, a)

    def halley(n, s):
        _, x, lo, hi, target, lower = s
        ratio, pref = _gamma_ratio(a, x.copy(), lower), _prefactor(a, x)
        f = np.where(lower, target - ratio, ratio - target)
        np.copyto(lo, x, where=f > 0.0)
        np.copyto(hi, x, where=f < 0.0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            newton = f * x / pref
            bend = 1.0 + 0.5 * newton * ((a - 1.0) / x - 1.0)
            new = x + np.where(bend > 0.5, newton / bend, newton)
        bisect = ~((new > lo) & (new < hi) | (new == x))
        new[bisect] = np.where(hi < math.inf, 0.5 * (lo + hi), 2.0 * x)[bisect]
        keep = ((np.abs(new - x) > 4.0 * _EPS * new)
                & ((np.abs(f) > 4.0 * _EPS * ratio) | bisect) & (n < 100))
        x[:] = new
        return keep

    flat = out.reshape(-1)
    _iterate(halley, flat, [inner, x, np.zeros(x.size), np.full(x.size, math.inf),
                            target, lower])
    return out


def _blockwise(fn, x):
    """Call ``fn(block, out)`` on the flattened x a block of ``_BLOCK``
    values at a time, ``out`` the block's slice of the result for ``fn`` to
    fill, so that the temporaries stay block-sized on a sample of any size."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    src, dst = x.reshape(-1), out.reshape(-1)
    for lo in range(0, src.size, _BLOCK):
        fn(src[lo:lo + _BLOCK], dst[lo:lo + _BLOCK])
    return out


# ---------------------------------------------------------------------------
# density handles

class _Density:
    """Common interface: pdf, cdf, quantile, support, tail_exponent, and
    the mean and variance, None where infinite."""

    support: tuple[float, float] = (-math.inf, math.inf)
    tail_exponent: float | None = None
    mean: float | None = None
    variance: float | None = None


def _check_q(q):
    arr = np.asarray(q, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("quantile levels must lie strictly inside (0, 1)")
    return arr


class GaussianDensity(_Density):
    """Normal wealth distribution arising when only labor income is risky.

    Its cdf is ndtr(z) = Q(1/2, z**2/2) / 2 below the mean, mirrored above
    it, and its quantile inverts that."""

    def __init__(self, mean, variance):
        if variance <= 0.0:
            raise DomainError(f"variance must be positive, got {variance}")
        self.mean = float(mean)
        self.variance = float(variance)
        self.sd = math.sqrt(variance)

    def pdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mean) / self.sd
        return np.exp(-0.5 * z * z) / (self.sd * math.sqrt(2.0 * math.pi))

    def _cdf(self, x, out):
        np.subtract(x, self.mean, out=out)
        out /= self.sd
        above = out >= 0.0
        out *= out
        out *= 0.5
        _gamma_q(0.5, out)
        out *= 0.5
        np.subtract(1.0, out, out=out, where=above)

    def cdf(self, x):
        return _blockwise(self._cdf, x)

    def quantile(self, q):
        arr = _check_q(q)
        # 1 - q is exact above 1/2
        z = np.sqrt(2.0 * _gamma_q_inv(0.5, 2.0 * np.minimum(arr, 1.0 - arr)))
        return self.mean + self.sd * np.where(arr < 0.5, -z, z)


class InverseGammaDensity(_Density):
    """Density ``rate**shape / Gamma(shape) * y**-(shape+1) * exp(-rate/y)``
    of ``y = x - shift`` on x > shift.  The tail exponent equals
    ``shape``; the mean is ``shift + rate / (shape - 1)`` when shape > 1
    and the variance ``rate**2 / ((shape - 1)**2 * (shape - 2))`` when
    shape > 2.  The cdf is Q(shape, rate / y)."""

    def __init__(self, shape, rate, shift=0.0):
        if shape <= 0.0 or rate <= 0.0:
            raise DomainError(f"shape and rate must be positive, got {shape}, {rate}")
        self.shape = float(shape)
        self.rate = float(rate)
        self.shift = float(shift)
        self.support = (self.shift, math.inf)
        self.tail_exponent = float(shape)
        if shape > 1.0:
            self.mean = self.shift + self.rate / (self.shape - 1.0)
        if shape > 2.0:
            self.variance = self.rate ** 2 / ((self.shape - 1.0) ** 2 * (self.shape - 2.0))
        self._log_norm = shape * math.log(rate) - math.lgamma(shape)

    def log_pdf(self, x):
        arr = np.asarray(x, dtype=float) - self.shift
        safe = np.where(arr > 0.0, arr, 1.0)
        raw = self._log_norm - (self.shape + 1.0) * np.log(safe) - self.rate / safe
        return np.where(arr > 0.0, raw, -math.inf)

    def pdf(self, x):
        return np.exp(self.log_pdf(x))

    def _cdf(self, x, out):
        np.subtract(x, self.shift, out=out)
        outside = ~(out > 0.0)
        out[outside] = 1.0
        np.divide(self.rate, out, out=out)
        _gamma_q(self.shape, out)
        out[outside] = 0.0

    def cdf(self, x):
        return _blockwise(self._cdf, x)

    def quantile(self, q):
        return self.rate / _gamma_q_inv(self.shape, _check_q(q)) + self.shift


class PointMassDensity(_Density):
    """Degenerate distribution concentrated at one wealth level."""

    variance = 0.0

    def __init__(self, location):
        self.location = self.mean = float(location)
        self.support = (self.location, self.location)

    def pdf(self, x):
        arr = np.asarray(x, dtype=float)
        return np.where(arr == self.location, math.inf, 0.0)

    def cdf(self, x):
        return np.where(np.asarray(x, dtype=float) >= self.location, 1.0, 0.0)

    def quantile(self, q):
        _check_q(q)
        return np.full(np.shape(q), self.location) if np.ndim(q) else self.location


_GL_NODES = np.array([
    -0.9061798459386640, -0.5384693101056831, 0.0,
    0.5384693101056831, 0.9061798459386640])
_GL_WEIGHTS = np.array([
    0.2369268850561891, 0.4786286704993665, 0.5688888888888889,
    0.4786286704993665, 0.2369268850561891])


def _cumulative_exp_integral(log_fn, grid):
    """Cumulative integral of exp(log_fn) over a sorted grid.

    Five-point Gauss-Legendre per interval; returns the per-node
    cumulative values of exp(log_fn - shift) and the shift itself.
    """
    a, b = grid[:-1], grid[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    pts = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    logv = log_fn(pts.ravel()).reshape(pts.shape)
    shift = float(np.max(logv))
    pieces = half * (np.exp(logv - shift) @ _GL_WEIGHTS)
    cum = np.concatenate([[0.0], np.cumsum(pieces)])
    return cum, shift


def _sorted_distinct(values):
    """``np.unique(values)`` for a float array, without the ``numpy.ma``
    import that ``np.unique`` makes: the same sort, then the first of each
    run of equal neighbours."""
    out = np.sort(values)
    return out[np.concatenate(([True], out[1:] != out[:-1]))]


class PearsonType4Density(_Density):
    """Stationary density of an affine-drift diffusion whose noise
    variance is a positive quadratic in wealth.

    Up to normalization the density is
    ``variance(p)**-(1 + slope/v2) * exp(4 * w * arctan((v1 + 2 v2 p)/S))``
    with ``S = sqrt(4 v0 v2 - v1**2)`` and skew weight
    ``w = (intercept + slope*v1/(2 v2)) / S``.  Both tails decay like
    ``|p|**-(alpha+1)`` with ``alpha = 1 + 2*slope/v2``.  In Pearson's
    form ``(1 + ((p - lam)/a)**2)**-m * exp(-nu*arctan((p - lam)/a))``,
    with ``lam = -v1/(2 v2)``, ``a = S/(2 v2)`` and ``nu = -4 w``, the mean
    is ``lam - a*nu/r`` and, when ``r = 2(m - 1) > 1``, the variance is
    ``a**2 * (r**2 + nu**2) / (r**2 * (r - 1))``.

    The CDF comes from the substitution ``p = (S*tan(t) - v1)/(2 v2)``,
    under which the density becomes ``cos(t)**(alpha-1) * exp(4*w*S_t*t)``
    on a bounded interval; that compact integrand is integrated once on a
    refined grid, and between nodes the CDF is the cubic Hermite piece
    whose end slopes are the integrand itself.
    """

    def __init__(self, coeffs: MeanFieldCoeffs):
        if coeffs.drift_slope <= 0.0:
            raise RegimeMismatchError("drift slope must be positive")
        if coeffs.var_quad <= 0.0 or coeffs.var_const <= 0.0:
            raise DomainError("both constant and quadratic noise terms must be positive")
        disc = coeffs.discriminant
        if disc <= 0.0:
            raise DegenerateDiscriminantError(
                f"discriminant {disc:.6g} is not positive; the variance polynomial "
                "has a real root and this density family does not apply")
        self.coeffs = coeffs
        self._s = math.sqrt(disc)
        self._m = 1.0 + coeffs.drift_slope / coeffs.var_quad
        self._beta = 2.0 * coeffs.drift_slope / coeffs.var_quad
        self._w4 = 4.0 * coeffs.skew_weight / self._s
        self.tail_exponent = coeffs.tail_exponent
        # Pearson's lam, a and nu; r = 2(m - 1) is self._beta
        lam, a, nu, r = -coeffs.var_lin / (2.0 * coeffs.var_quad), \
            self._s / (2.0 * coeffs.var_quad), -self._w4, self._beta
        self.mean = lam - a * nu / r
        if r > 1.0:
            self.variance = a * a * (r * r + nu * nu) / (r * r * (r - 1.0))
        self._build_tables()

    # angle coordinate of a wealth level
    def _angle(self, p):
        c = self.coeffs
        return np.arctan((c.var_lin + 2.0 * c.var_quad * p) / self._s)

    def _wealth(self, t):
        c = self.coeffs
        return (self._s * np.tan(t) - c.var_lin) / (2.0 * c.var_quad)

    def _log_core(self, t):
        # log integrand in the angle coordinate, up to a constant
        return self._beta * np.log(np.cos(t)) + self._w4 * t

    def _build_tables(self):
        half_pi = 0.5 * math.pi
        base = np.linspace(-half_pi, half_pi, 8193)
        pieces = [base]
        # refine around the peak, which is narrow when the exponent is large
        t_peak = math.atan2(self._w4, self._beta)
        width = math.cos(t_peak) / math.sqrt(self._beta + 1.0)
        lo = max(-half_pi, t_peak - 25.0 * width)
        hi = min(half_pi, t_peak + 25.0 * width)
        pieces.append(np.linspace(lo, hi, 8193))
        # refine the endpoint regions so quantiles far in either tail resolve
        h = base[1] - base[0]
        pieces.append(np.linspace(-half_pi, -half_pi + h, 513))
        pieces.append(np.linspace(half_pi - h, half_pi, 513))
        grid = _sorted_distinct(np.concatenate(pieces))
        cum, shift = _cumulative_exp_integral(self._log_core, grid)
        total = cum[-1]
        if not np.isfinite(total) or total <= 0.0:
            raise DomainError("density normalization failed; coefficients are too extreme")
        # log of int f_un dp, where f_un uses the raw closed form in p
        c = self.coeffs
        const = (math.log(self._s / (2.0 * c.var_quad))
                 - self._m * math.log(self._s ** 2 / (4.0 * c.var_quad)))
        self._log_norm = const + shift + math.log(total)
        frac = cum / total
        step = np.diff(frac)
        if np.count_nonzero(step > 1e-15) < 3:
            raise DomainError("density mass collapsed onto too few grid nodes")
        # cubic Hermite pieces of the cdf in t: node slopes are the
        # normalized integrand itself, so none is estimated
        h = np.diff(grid)
        d = np.exp(self._log_core(grid) - shift) / total
        m = step / h
        self._coef = (frac[:-1], d[:-1], (3.0 * m - 2.0 * d[:-1] - d[1:]) / h,
                      (d[:-1] + d[1:] - 2.0 * m) / (h * h))
        self._grid = grid
        self._frac = frac

    def log_pdf(self, x):
        c = self.coeffs
        arr = np.asarray(x, dtype=float)
        var = c.var_const + c.var_lin * arr + c.var_quad * arr * arr
        return (-self._m * np.log(var) + self._w4 * self._angle(arr)
                - self._log_norm)

    def pdf(self, x):
        out = np.exp(self.log_pdf(x))
        return out if out.ndim else float(out)

    def _hermite(self, k, t):
        # the cdf at angles t, each inside grid interval k: Horner's
        # c3*s + c2, *s + c1, *s + c0 in one buffer, the same products and
        # sums as c0 + s*(c1 + s*(c2 + s*c3)), so the same bits
        c0, c1, c2, c3 = self._coef
        s = t - self._grid[k]
        out = c3[k]
        for c in (c2, c1, c0):
            out *= s
            out += c[k]
        return out

    def _cdf(self, x, out):
        grid = self._grid
        t = np.clip(self._angle(x), grid[0], grid[-1])
        k = np.searchsorted(grid, t, side="right") - 1
        np.clip(k, 0, grid.size - 2, out=k)
        np.clip(self._hermite(k, t), 0.0, 1.0, out=out)

    def cdf(self, x):
        return _blockwise(self._cdf, x)

    def quantile(self, q):
        arr = _check_q(q)
        # bisect the cubic of the grid interval that holds each level
        # until the two ends are adjacent floats
        k = np.searchsorted(self._frac, arr, side="right") - 1
        lo, hi = self._grid[k], self._grid[k + 1]
        while True:
            mid = lo + 0.5 * (hi - lo)
            if np.all((mid == lo) | (mid == hi)):
                break
            below = self._hermite(k, mid) < arr
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        out = self._wealth(mid)
        return out if out.ndim else float(out)


def stationary_density(coeffs: MeanFieldCoeffs):
    """Pick the closed-form stationary density implied by the coefficients.

    All noise terms zero        -> point mass at intercept/slope
    only constant noise         -> Gaussian
    a perfect square, v2 > 0    -> inverse-gamma above -v1/(2 v2), the root
                                   of the variance (0 with quadratic noise only)
    constant and quadratic > 0  -> Pearson type IV on the whole line
    """
    c = coeffs
    if c.drift_slope <= 0.0:
        raise RegimeMismatchError("drift slope must be positive for a stationary density")
    if c.var_const == 0.0 and c.var_lin == 0.0 and c.var_quad == 0.0:
        return PointMassDensity(c.drift_intercept / c.drift_slope)
    if c.var_lin == 0.0 and c.var_quad == 0.0:
        return GaussianDensity(mean=c.drift_intercept / c.drift_slope,
                               variance=c.var_const / (2.0 * c.drift_slope))
    if c.var_quad > 0.0 and c.perfect_square:
        # the drift at the variance's root must point away from it
        if c.skew_weight <= 0.0:
            raise DomainError(
                "with purely multiplicative noise the drift at the variance's root "
                "must be positive to keep wealth above it")
        return InverseGammaDensity(shape=c.tail_exponent,
                                   rate=2.0 * c.skew_weight / c.var_quad,
                                   shift=-c.var_lin / (2.0 * c.var_quad))
    return PearsonType4Density(c)


def relative_wealth_density(alpha: float) -> InverseGammaDensity:
    """Stationary density of wealth relative to the growing mean.

    An inverse-gamma with shape ``alpha`` and rate ``alpha - 1``, which
    pins the mean of relative wealth at exactly 1.
    """
    if alpha <= 1.0:
        raise DomainError(f"tail exponent must exceed 1, got {alpha}")
    return InverseGammaDensity(shape=alpha, rate=alpha - 1.0)


def log_log_slope(pdf, lo=1e4, hi=1e6, n=65) -> float:
    """Least-squares slope of log pdf against log wealth over [lo, hi]."""
    if not 0.0 < lo < hi:
        raise DomainError("need 0 < lo < hi for a tail window")
    x = np.geomspace(lo, hi, n)
    with np.errstate(divide="ignore"):
        y = np.log(np.asarray(pdf(x), dtype=float))
    if not np.all(np.isfinite(y)):
        raise DomainError("pdf must be positive over the tail window")
    return float(np.polyfit(np.log(x), y, 1)[0])


def write_density_table(density, path, x_grid):
    """Tabulate a density as CSV columns ``x,pdf,cdf``."""
    xs = np.asarray(x_grid, dtype=float)
    pdf = np.asarray(density.pdf(xs), dtype=float)
    cdf = np.asarray(density.cdf(xs), dtype=float)
    with open(path, "w") as fh:
        fh.write("x,pdf,cdf\n")
        for x, f, c in zip(xs, pdf, cdf):
            fh.write(f"{x:.17g},{f:.17g},{c:.17g}\n")
