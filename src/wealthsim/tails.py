"""Descriptive statistics for simulated wealth samples.

Heavy upper tails are the main object of interest, so the module
centres on the Hill estimator of the power-law index, plus plain moment
summaries and goodness-of-fit distances against candidate distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTailError, InsufficientDataError

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


_ORDER_BLOCK = 1 << 14  # adjacent pairs per order check in _sorted


def _sorted(sample) -> np.ndarray:
    """The sample as a flat float array in ascending order, NaNs last.

    An input already in that order comes back itself, any other as an
    ``np.sort`` copy; the input is never changed.  The order is checked
    over bounded blocks of adjacent pairs: each pair must ascend, or its
    second value be NaN (so NaNs may only form a suffix).
    """
    x = np.asarray(sample, dtype=float).ravel()
    for lo in range(0, x.size - 1, _ORDER_BLOCK):
        a = x[lo:lo + _ORDER_BLOCK]
        b = x[lo + 1:lo + _ORDER_BLOCK + 1]
        if not np.all((a[:b.size] <= b) | np.isnan(b)):
            return np.sort(x)
    return x


def _positive(x: np.ndarray) -> np.ndarray:
    """The finite positive values of an ascending array, as a view."""
    return x[np.searchsorted(x, 0.0, "right"):np.searchsorted(x, math.inf, "left")]


def hill(sample, n_tail: int | None = None) -> TailEstimate:
    """Estimate the tail index from the largest order statistics.

    Uses the ``n_tail`` largest positive values (default
    ``ceil(n**0.6)`` of the positive count); the index is the
    reciprocal mean log-excess over the next order statistic, and the
    reported standard error is ``alpha / sqrt(n_tail)``.
    """
    x = _positive(_sorted(sample))
    n = x.size
    if n < 10:
        raise InsufficientDataError(f"need at least 10 positive values, got {n}")
    if n_tail is None:
        n_tail = math.ceil(n ** 0.6)
    n_tail = int(n_tail)
    if not 2 <= n_tail <= n - 1:
        raise InsufficientDataError(
            f"tail size must lie in [2, {n - 1}], got {n_tail}")
    top = x[n - n_tail:]
    threshold = x[n - n_tail - 1]
    mean_log = float(np.mean(np.log(top) - math.log(threshold)))
    if mean_log <= 0.0:
        raise DegenerateTailError("all tail values equal the threshold")
    alpha = 1.0 / mean_log
    return TailEstimate(alpha=alpha, stderr=alpha / math.sqrt(n_tail),
                        n_tail=n_tail, threshold=threshold)


_KS_BLOCK = 1 << 14  # sorted values per cdf evaluation in ks_distance


def ks_distance(sample, cdf) -> float:
    """Kolmogorov-Smirnov distance between a sample and a model cdf.

    ``cdf`` is any elementwise vectorized callable, applied to blocks of
    ``_KS_BLOCK`` sorted values in turn; the distance is the largest gap
    between the empirical step function and the model, checked on both
    sides of every jump.
    """
    x = _sorted(sample)
    n = x.size
    if n == 0:
        raise InsufficientDataError("empty sample")
    # the cdf and both gaps over a bounded block of sorted values at a
    # time; the maxima of the block maxima are the maxima over the sample
    above, below = [], []
    for lo in range(0, n, _KS_BLOCK):
        model = np.asarray(cdf(x[lo:lo + _KS_BLOCK]), dtype=float)
        grid = np.arange(lo + 1, lo + model.size + 1) / n
        above.append(np.max(grid - model))
        below.append(np.max(model - (grid - 1.0 / n)))
    return float(max(np.max(above), np.max(below)))


_SUM_BLOCK = 1 << 14  # most values per block of moments' centred sums


def _centred_sums(x: np.ndarray, mean: float, lo: int, n: int) -> tuple:
    """Sums of d**2, d**3 and d**4 over ``d = x[lo:lo + n] - mean``.

    numpy sums a contiguous float array pairwise, halving a range of more
    than 128 values at ``n // 2`` rounded down to a multiple of 8.  The
    range is halved at the same points until a block holds at most
    ``_SUM_BLOCK`` values, numpy sums each block as that subtree, and the
    partial sums are added in the tree's order: each result is the bits of
    the one-shot sum, with two block-sized temporaries at a time.
    """
    if n > _SUM_BLOCK:
        h = n // 2
        h -= h % 8
        a = _centred_sums(x, mean, lo, h)
        b = _centred_sums(x, mean, lo + h, n - h)
        return a[0] + b[0], a[1] + b[1], a[2] + b[2]
    d = x[lo:lo + n] - mean
    d2 = d * d
    # d's buffer takes d**3 and then d**4: the same products, no new array
    return d2.sum(), np.multiply(d2, d, out=d).sum(), np.multiply(d2, d2, out=d).sum()


def moments(sample) -> dict:
    """Mean, variance, skewness and excess kurtosis of a sample.

    The mean is a compensated sum, so large samples with small
    fluctuations around a big mean do not lose the fluctuations to
    rounding.  The centred sums are numpy's pairwise sums of the whole
    sample, bit for bit, taken over blocks of at most ``_SUM_BLOCK``
    values (``_centred_sums``), so no temporary grows with the sample.
    Variance uses the n-1 convention; skewness and kurtosis are the usual
    standardized central moments.
    """
    x = np.asarray(sample, dtype=float).ravel()
    n = x.size
    if n < 2:
        raise InsufficientDataError(f"need at least 2 values, got {n}")
    mean = math.fsum(x) / n
    m2, m3, m4 = (float(s) / n for s in _centred_sums(x, mean, 0, n))
    if m2 == 0.0:
        return {"n": n, "mean": mean, "variance": 0.0, "skewness": 0.0,
                "excess_kurtosis": 0.0}
    return {
        "n": n,
        "mean": mean,
        "variance": m2 * n / (n - 1),
        "skewness": m3 / m2 ** 1.5,
        "excess_kurtosis": m4 / (m2 * m2) - 3.0,
    }


_CCDF_ROWS = 200  # most rows of a thinned ccdf table


def ccdf_loglog(sample):
    """Log-log table of the empirical complementary cdf.

    Positive values only.  Returns ``(log_x, log_ccdf)`` thinned to at
    most 200 rows (``_CCDF_ROWS``), suitable for eyeballing tail straightness
    or fitting a slope.
    """
    x = _positive(_sorted(sample))
    n = x.size
    if n < 2:
        raise InsufficientDataError(f"need at least 2 positive values, got {n}")
    # rank from above: ccdf at x_(i) is (n - i) / n, drop the final zero;
    # the rows are picked before the logs are taken
    if n - 1 > _CCDF_ROWS:
        idx = np.unique(np.linspace(0, n - 2, _CCDF_ROWS).round().astype(int))
    else:
        idx = np.arange(n - 1)
    return np.log(x[idx]), np.log((n - 1 - idx) / n)


def write_ccdf_table(sample, path):
    log_x, log_ccdf = ccdf_loglog(sample)
    with open(path, "w") as fh:
        fh.write("log_x,log_ccdf\n")
        for a, b in zip(log_x, log_ccdf):
            fh.write(f"{a:.17g},{b:.17g}\n")
