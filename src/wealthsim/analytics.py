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

    Its cdf and quantile import ``scipy.special`` themselves, so runs
    with other targets never load it.
    """

    def __init__(self, mean, variance):
        if variance <= 0.0:
            raise DomainError(f"variance must be positive, got {variance}")
        self.mean = float(mean)
        self.variance = float(variance)
        self.sd = math.sqrt(variance)

    def pdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mean) / self.sd
        return np.exp(-0.5 * z * z) / (self.sd * math.sqrt(2.0 * math.pi))

    def cdf(self, x):
        from scipy.special import ndtr
        return ndtr((np.asarray(x, dtype=float) - self.mean) / self.sd)

    def quantile(self, q):
        from scipy.special import ndtri
        return self.mean + self.sd * ndtri(_check_q(q))


class InverseGammaDensity(_Density):
    """Density ``rate**shape / Gamma(shape) * y**-(shape+1) * exp(-rate/y)``
    of ``y = x - shift`` on x > shift.  The tail exponent equals
    ``shape``; the mean is ``shift + rate / (shape - 1)`` when shape > 1
    and the variance ``rate**2 / ((shape - 1)**2 * (shape - 2))`` when
    shape > 2.  Like the Gaussian, it imports ``scipy.special`` itself."""

    def __init__(self, shape, rate, shift=0.0):
        from scipy.special import gammaln
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
        self._log_norm = shape * math.log(rate) - gammaln(shape)

    def log_pdf(self, x):
        arr = np.asarray(x, dtype=float) - self.shift
        safe = np.where(arr > 0.0, arr, 1.0)
        raw = self._log_norm - (self.shape + 1.0) * np.log(safe) - self.rate / safe
        return np.where(arr > 0.0, raw, -math.inf)

    def pdf(self, x):
        return np.exp(self.log_pdf(x))

    def cdf(self, x):
        from scipy.special import gammaincc
        arr = np.asarray(x, dtype=float) - self.shift
        safe = np.where(arr > 0.0, arr, 1.0)
        return np.where(arr > 0.0, gammaincc(self.shape, self.rate / safe), 0.0)

    def quantile(self, q):
        from scipy.special import gammainccinv
        return self.rate / gammainccinv(self.shape, _check_q(q)) + self.shift


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


_BLOCK = 1 << 14  # values per cdf block of a Pearson IV


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
        grid = np.unique(np.concatenate(pieces))
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

    def cdf(self, x):
        grid = self._grid
        t = np.clip(self._angle(np.asarray(x, dtype=float)), grid[0], grid[-1])
        u = t.reshape(-1)
        out = np.empty(t.shape)
        flat = out.reshape(-1)
        # blocks keep the temporaries small on samples of any size
        for lo in range(0, u.size, _BLOCK):
            v = u[lo:lo + _BLOCK]
            k = np.searchsorted(grid, v, side="right") - 1
            np.clip(k, 0, grid.size - 2, out=k)
            flat[lo:lo + _BLOCK] = self._hermite(k, v)
        return np.clip(out, 0.0, 1.0)

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
