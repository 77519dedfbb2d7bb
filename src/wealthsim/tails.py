"""Descriptive statistics for simulated wealth samples.

Heavy upper tails are the main object of interest, so the module
centres on the Hill estimator of the power-law index, plus plain moment
summaries and goodness-of-fit distances against candidate distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateTailError,
    InsufficientDataError,
    NonPositiveThresholdError,
)

__all__ = [
    "TailEstimate",
    "hill",
    "ks_distance",
    "moments",
    "ccdf_loglog",
    "write_ccdf_table",
]


@dataclass(frozen=True)
class TailEstimate:
    """Hill estimate of the power-law index of an upper tail."""

    alpha: float
    stderr: float
    n_tail: int
    threshold: float


def hill(sample, n_tail: int | None = None) -> TailEstimate:
    """Estimate the tail index from the largest order statistics.

    Uses the ``n_tail`` largest positive values (default
    ``ceil(n**0.6)`` of the positive count); the index is the
    reciprocal mean log-excess over the next order statistic, and the
    reported standard error is ``alpha / sqrt(n_tail)``.
    """
    x = np.asarray(sample, dtype=float).ravel()
    x = x[np.isfinite(x) & (x > 0.0)]
    n = x.size
    if n < 10:
        raise InsufficientDataError(f"need at least 10 positive values, got {n}")
    if n_tail is None:
        n_tail = math.ceil(n ** 0.6)
    n_tail = int(n_tail)
    if not 2 <= n_tail <= n - 1:
        raise InsufficientDataError(
            f"tail size must lie in [2, {n - 1}], got {n_tail}")
    x.sort()
    top = x[n - n_tail:]
    threshold = x[n - n_tail - 1]
    if threshold <= 0.0:
        raise NonPositiveThresholdError(
            f"order statistic at the cutoff is {threshold}; tail is not positive")
    mean_log = float(np.mean(np.log(top) - math.log(threshold)))
    if mean_log <= 0.0:
        raise DegenerateTailError("all tail values equal the threshold")
    alpha = 1.0 / mean_log
    return TailEstimate(alpha=alpha, stderr=alpha / math.sqrt(n_tail),
                        n_tail=n_tail, threshold=threshold)


def ks_distance(sample, cdf) -> float:
    """Kolmogorov-Smirnov distance between a sample and a model cdf.

    ``cdf`` is any vectorized callable; the distance is the largest gap
    between the empirical step function and the model, checked on both
    sides of every jump.
    """
    x = np.sort(np.asarray(sample, dtype=float).ravel())
    n = x.size
    if n == 0:
        raise InsufficientDataError("empty sample")
    model = np.asarray(cdf(x), dtype=float)
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - model), np.max(model - (grid - 1.0 / n))))


def moments(sample) -> dict:
    """Mean, variance, skewness and excess kurtosis of a sample.

    Sums are compensated so that large samples with small fluctuations
    around a big mean do not lose the fluctuations to rounding.
    Variance uses the n-1 convention; skewness and kurtosis are the
    usual standardized central moments.
    """
    x = np.asarray(sample, dtype=float).ravel()
    n = x.size
    if n < 2:
        raise InsufficientDataError(f"need at least 2 values, got {n}")
    mean = math.fsum(x) / n
    d = x - mean
    m2 = math.fsum(d * d) / n
    if m2 == 0.0:
        return {"n": n, "mean": mean, "variance": 0.0, "skewness": 0.0,
                "excess_kurtosis": 0.0}
    m3 = math.fsum(d * d * d) / n
    m4 = math.fsum(d * d * d * d) / n
    return {
        "n": n,
        "mean": mean,
        "variance": m2 * n / (n - 1),
        "skewness": m3 / m2 ** 1.5,
        "excess_kurtosis": m4 / (m2 * m2) - 3.0,
    }


def ccdf_loglog(sample, n_points: int = 200):
    """Log-log table of the empirical complementary cdf.

    Positive values only.  Returns ``(log_x, log_ccdf)`` thinned to at
    most ``n_points`` rows, suitable for eyeballing tail straightness
    or fitting a slope.
    """
    x = np.asarray(sample, dtype=float).ravel()
    x = np.sort(x[np.isfinite(x) & (x > 0.0)])
    n = x.size
    if n < 2:
        raise InsufficientDataError(f"need at least 2 positive values, got {n}")
    # rank from above: ccdf at x_(i) is (n - i) / n, drop the final zero
    log_x = np.log(x[:-1])
    log_ccdf = np.log((n - np.arange(1, n)) / n)
    if n - 1 > n_points:
        idx = np.unique(np.linspace(0, n - 2, n_points).round().astype(int))
        log_x, log_ccdf = log_x[idx], log_ccdf[idx]
    return log_x, log_ccdf


def write_ccdf_table(sample, path, n_points: int = 200):
    log_x, log_ccdf = ccdf_loglog(sample, n_points)
    with open(path, "w") as fh:
        fh.write("log_x,log_ccdf\n")
        for a, b in zip(log_x, log_ccdf):
            fh.write(f"{a:.17g},{b:.17g}\n")
