"""Closed-form stationary wealth distributions and tail exponents.

In the large-economy limit a single household's wealth follows a
diffusion with affine drift ``intercept - slope * p`` and quadratic
noise variance ``v0 + v1 * p + v2 * p**2``.  The zero-flux stationary
density of that diffusion is available in closed form; which member of
the family applies depends on which variance coefficients survive the
aggregation of firm shocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import gammaincc, gammainccinv, gammaln, ndtr, ndtri

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
    slope = params.nu - params.s * (1.0 - params.tau_k) * rho
    if slope <= 0.0:
        raise RegimeMismatchError(
            f"drift slope {slope:.6g} is not positive; individual wealth is not "
            "mean-reverting at these prices")
    base = params.delta * params.s ** 2
    coeffs = MeanFieldCoeffs(
        drift_intercept=params.s * (omega + params.tau_k * rho * market.mean_wealth) - params.chi,
        drift_slope=slope,
        var_const=base * (1.0 - params.tau_l) ** 2 * omega ** 2 * labor_mean,
        var_lin=2.0 * base * (1.0 - params.tau_k) * (1.0 - params.tau_l) * rho * omega * cross_mean,
        var_quad=base * (1.0 - params.tau_k) ** 2 * rho ** 2 * invest_mean,
    )
    if coeffs.discriminant < 0.0:
        raise DegenerateDiscriminantError(
            "cross-noise exceeds the geometric mean of labor and capital noise; "
            "overlap inputs violate the Cauchy-Schwarz bound")
    return coeffs


def tail_exponent_stationary(params: EconomyParams, capital_return: float,
                             invest_mean: float) -> float:
    """Power-law exponent of the stationary wealth distribution."""
    slope = params.nu - params.s * (1.0 - params.tau_k) * capital_return
    if slope <= 0.0:
        raise RegimeMismatchError(
            f"drift slope {slope:.6g} is not positive at return {capital_return:.6g}")
    quad = (params.delta * params.s ** 2 * (1.0 - params.tau_k) ** 2
            * capital_return ** 2 * invest_mean)
    if quad <= 0.0:
        raise DomainError("capital noise is zero, the distribution has no power tail")
    return 1.0 + 2.0 * slope / quad


def tail_exponent_growth(params: EconomyParams, capital_return: float,
                         invest_mean: float) -> float:
    """Power-law exponent of relative wealth under sustained growth.

    Capital taxation is the only force pulling relative wealth back to
    its mean along the growth path; with ``tau_k = 0`` dispersion grows
    without bound and no exponent exists.
    """
    if params.tau_k == 0.0:
        raise DegenerateDynamicsError(
            "tau_k = 0: relative wealth has no stationary distribution along "
            "the growth path")
    denom = (params.delta * params.s * (1.0 - params.tau_k) ** 2
             * capital_return * invest_mean)
    if denom <= 0.0:
        raise DomainError("capital noise is zero, relative wealth has no power tail")
    return 1.0 + 2.0 * params.tau_k / denom


# ---------------------------------------------------------------------------
# density handles

class _Density:
    """Common interface: pdf, cdf, quantile, support, tail_exponent."""

    support: tuple[float, float] = (-math.inf, math.inf)
    tail_exponent: float | None = None

    def pdf(self, x):
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    def quantile(self, q):
        raise NotImplementedError


def _check_q(q):
    arr = np.asarray(q, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("quantile levels must lie strictly inside (0, 1)")
    return arr


class GaussianDensity(_Density):
    """Normal wealth distribution arising when only labor income is risky."""

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
        return ndtr((np.asarray(x, dtype=float) - self.mean) / self.sd)

    def quantile(self, q):
        return self.mean + self.sd * ndtri(_check_q(q))


class InverseGammaDensity(_Density):
    """Density ``rate**shape / Gamma(shape) * x**-(shape+1) * exp(-rate/x)``
    on x > 0.  The tail exponent equals ``shape``; the mean is
    ``rate / (shape - 1)`` when shape > 1."""

    support = (0.0, math.inf)

    def __init__(self, shape, rate):
        if shape <= 0.0 or rate <= 0.0:
            raise DomainError(f"shape and rate must be positive, got {shape}, {rate}")
        self.shape = float(shape)
        self.rate = float(rate)
        self.tail_exponent = float(shape)
        self._log_norm = shape * math.log(rate) - gammaln(shape)

    def log_pdf(self, x):
        arr = np.asarray(x, dtype=float)
        safe = np.where(arr > 0.0, arr, 1.0)
        raw = self._log_norm - (self.shape + 1.0) * np.log(safe) - self.rate / safe
        return np.where(arr > 0.0, raw, -math.inf)

    def pdf(self, x):
        return np.exp(self.log_pdf(x))

    def cdf(self, x):
        arr = np.asarray(x, dtype=float)
        safe = np.where(arr > 0.0, arr, 1.0)
        return np.where(arr > 0.0, gammaincc(self.shape, self.rate / safe), 0.0)

    def quantile(self, q):
        return self.rate / gammainccinv(self.shape, _check_q(q))


class PointMassDensity(_Density):
    """Degenerate distribution concentrated at one wealth level."""

    def __init__(self, location):
        self.location = float(location)
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


class PearsonType4Density(_Density):
    """Stationary density of an affine-drift diffusion whose noise
    variance is a positive quadratic in wealth.

    Up to normalization the density is
    ``variance(p)**-(1 + slope/v2) * exp(4 * w * arctan((v1 + 2 v2 p)/S))``
    with ``S = sqrt(4 v0 v2 - v1**2)`` and skew weight
    ``w = (intercept + slope*v1/(2 v2)) / S``.  Both tails decay like
    ``|p|**-(alpha+1)`` with ``alpha = 1 + 2*slope/v2``.

    The CDF comes from the substitution ``p = (S*tan(t) - v1)/(2 v2)``,
    under which the density becomes ``cos(t)**(alpha-1) * exp(4*w*S_t*t)``
    on a bounded interval; that compact integrand is integrated once on a
    refined grid and interpolated monotonically.
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
        # near-flat stretches of the cdf make the monotone slope formula
        # overflow harmlessly before its own guard kicks in
        with np.errstate(over="ignore"):
            self._cdf_interp = PchipInterpolator(grid, frac, extrapolate=False)
            # nodes separated by under ~1 ulp of probability would give the
            # inverse interpolant unbounded slopes; drop them
            keep = np.concatenate([[True], np.diff(frac) > 1e-15])
            if keep.sum() < 4:
                raise DomainError("density mass collapsed onto too few grid nodes")
            self._quantile_interp = PchipInterpolator(frac[keep], grid[keep],
                                                      extrapolate=False)
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

    def cdf(self, x):
        t = self._angle(np.asarray(x, dtype=float))
        out = self._cdf_interp(np.clip(t, self._grid[0], self._grid[-1]))
        return np.clip(out, 0.0, 1.0)

    def quantile(self, q):
        arr = _check_q(q)
        lo, hi = self._frac[1], self._frac[-2]
        t = self._quantile_interp(np.clip(arr, lo, hi))
        out = self._wealth(t)
        return out if out.ndim else float(out)


def stationary_density(coeffs: MeanFieldCoeffs):
    """Pick the closed-form stationary density implied by the coefficients.

    All noise terms zero        -> point mass at intercept/slope
    only constant noise         -> Gaussian
    only quadratic noise        -> inverse-gamma on positive wealth
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
    if c.var_const == 0.0 and c.var_lin == 0.0:
        if c.drift_intercept <= 0.0:
            raise DomainError(
                "with purely multiplicative noise the drift intercept must be "
                "positive to keep wealth away from zero")
        return InverseGammaDensity(shape=1.0 + 2.0 * c.drift_slope / c.var_quad,
                                   rate=2.0 * c.drift_intercept / c.var_quad)
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
