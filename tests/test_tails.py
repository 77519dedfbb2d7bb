"""Tail index estimation, distances, and moment summaries."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from wealthsim import ccdf_loglog, hill, ks_distance, moments, tails
from wealthsim.errors import DegenerateTailError, InsufficientDataError
from wealthsim.tails import write_ccdf_table


def test_hill_by_hand():
    # top three values 2, 4, 8 over threshold 1: mean log excess is
    # (1+2+3)*log(2)/3, so alpha = 1/(2 log 2)
    est = hill([1, 1, 1, 1, 1, 1, 1, 2, 4, 8], n_tail=3)
    assert est.alpha == pytest.approx(1.0 / (2.0 * math.log(2.0)), rel=1e-15)
    assert est.threshold == 1.0
    assert est.n_tail == 3
    assert est.stderr == pytest.approx(est.alpha / math.sqrt(3.0), rel=1e-15)


def test_hill_recovers_exact_pareto():
    gen = np.random.default_rng(5)
    alpha = 2.5
    x = (1.0 - gen.uniform(size=20000)) ** (-1.0 / alpha)
    est = hill(x, n_tail=1000)
    assert abs(est.alpha - alpha) < 4.0 * est.stderr


def test_hill_default_tail_size():
    x = np.arange(1, 1001, dtype=float)
    est = hill(x)
    assert est.n_tail == math.ceil(1000 ** 0.6)


def test_hill_ignores_nonpositive_values():
    gen = np.random.default_rng(6)
    x = (1.0 - gen.uniform(size=5000)) ** (-1.0 / 3.0)
    with_junk = np.concatenate([x, [-5.0, 0.0, np.nan, np.inf]])
    with_junk[np.isinf(with_junk)] = -1.0
    a = hill(x, n_tail=300).alpha
    b = hill(with_junk, n_tail=300).alpha
    assert a == b


def test_hill_errors():
    with pytest.raises(InsufficientDataError):
        hill([1.0] * 5)
    with pytest.raises(InsufficientDataError):
        hill(np.arange(1, 21, dtype=float), n_tail=1)
    with pytest.raises(InsufficientDataError):
        hill(np.arange(1, 21, dtype=float), n_tail=20)
    with pytest.raises(DegenerateTailError):
        hill([1.0] * 50)


def test_ks_distance_by_hand():
    # two points against the uniform cdf: every jump is off by 1/4
    assert ks_distance([0.25, 0.75], lambda x: np.asarray(x)) == pytest.approx(0.25)


def test_ks_distance_against_scipy():
    gen = np.random.default_rng(8)
    x = gen.normal(size=400)
    ours = ks_distance(x, scipy.stats.norm.cdf)
    ref = scipy.stats.kstest(x, "norm").statistic
    assert ours == pytest.approx(ref, abs=1e-12)


def test_moments_by_hand():
    m = moments([1.0, 2.0, 3.0, 4.0])
    assert m["n"] == 4
    assert m["mean"] == 2.5
    assert m["variance"] == pytest.approx(5.0 / 3.0, rel=1e-15)
    assert m["skewness"] == 0.0
    # m4/m2^2 - 3 = 2.5625/1.5625 - 3
    assert m["excess_kurtosis"] == pytest.approx(-1.36, rel=1e-14)


def test_moments_match_scipy():
    gen = np.random.default_rng(9)
    x = gen.gamma(shape=2.0, size=3000)
    m = moments(x)
    assert m["variance"] == pytest.approx(np.var(x, ddof=1), rel=1e-12)
    assert m["skewness"] == pytest.approx(scipy.stats.skew(x), rel=1e-10)
    assert m["excess_kurtosis"] == pytest.approx(scipy.stats.kurtosis(x), rel=1e-10)


def test_moments_survive_large_offset():
    # fluctuations of order 1 on top of a mean of 1e9 must not be lost
    gen = np.random.default_rng(10)
    base = gen.normal(size=2000)
    shifted = base + 1e9
    m = moments(shifted)
    assert m["variance"] == pytest.approx(np.var(base, ddof=1), rel=1e-6)


def test_blocked_statistics_equal_the_one_shot_formulas():
    # a sample spanning several ks_distance blocks, a partial last one included
    gen = np.random.default_rng(11)
    x = gen.gamma(shape=2.0, size=3 * tails._KS_BLOCK + 123)
    s = np.sort(x)
    n = s.size
    model = scipy.stats.gamma(2.0).cdf(s)
    grid = np.arange(1, n + 1) / n
    assert ks_distance(x, scipy.stats.gamma(2.0).cdf) == \
        float(max(np.max(grid - model), np.max(model - (grid - 1.0 / n))))

    mean = math.fsum(x) / n
    d = x - mean
    d2 = d * d
    m2 = float(d2.sum()) / n
    m3 = float((d2 * d).sum()) / n
    m4 = float((d2 * d2).sum()) / n
    assert moments(x) == {"n": n, "mean": mean, "variance": m2 * n / (n - 1),
                          "skewness": m3 / m2 ** 1.5,
                          "excess_kurtosis": m4 / (m2 * m2) - 3.0}


@pytest.mark.parametrize("shift", [0.0, 1e9])
@pytest.mark.parametrize("n", [2, 7, 8, 9, 127, 128, 129, (1 << 14) - 1, 1 << 14,
                               (1 << 14) + 1, 3 * (1 << 14) + 123, 402_000, (1 << 20) + 5])
def test_blocked_centred_sums_are_numpys_one_shot_sums(n, shift):
    # the blocks split where numpy's pairwise sum splits, so every partial
    # sum is numpy's own: equal bits, no tolerance, on a heavy-tailed sample
    gen = np.random.default_rng(n)
    x = shift + gen.standard_t(2.5, size=n)
    mean = math.fsum(x) / n
    d = x - mean
    d2 = d * d
    one_shot = [d2.sum(), (d2 * d).sum(), (d2 * d2).sum()]
    blocked = tails._centred_sums(x, mean, 0, n)
    assert [float(v).hex() for v in blocked] == [float(v).hex() for v in one_shot]


def test_moments_degenerate_cases():
    m = moments([3.0, 3.0, 3.0])
    assert m["variance"] == 0.0 and m["skewness"] == 0.0
    with pytest.raises(InsufficientDataError):
        moments([1.0])


def test_ccdf_loglog_by_hand():
    log_x, log_ccdf = ccdf_loglog([1.0, 2.0, 4.0])
    np.testing.assert_allclose(log_x, [0.0, math.log(2.0)], atol=1e-15)
    np.testing.assert_allclose(log_ccdf, [math.log(2.0 / 3.0), math.log(1.0 / 3.0)],
                               atol=1e-15)


def test_ccdf_loglog_thinning():
    gen = np.random.default_rng(11)
    x = gen.uniform(1.0, 2.0, size=5000)
    log_x, log_ccdf = ccdf_loglog(x)
    assert log_x.size == 200
    assert np.all(np.diff(log_x) > 0)
    assert np.all(np.diff(log_ccdf) < 0)


def test_ccdf_table_file(tmp_path):
    gen = np.random.default_rng(12)
    x = (1.0 - gen.uniform(size=3000)) ** (-1.0 / 2.5)
    path = tmp_path / "ccdf.csv"
    write_ccdf_table(x, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "log_x,log_ccdf"
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    assert data.shape[0] == 200 and np.all(np.isfinite(data))
    # tail straightness: least-squares slope near -alpha on the top decade
    top = data[data[:, 0] > np.quantile(data[:, 0], 0.5)]
    slope = np.polyfit(top[:, 0], top[:, 1], 1)[0]
    assert slope == pytest.approx(-2.5, abs=0.6)


def _logistic(v):
    return 1.0 / (1.0 + np.exp(-np.asarray(v)))


def _order_statistics(x):
    return hill(x), ccdf_loglog(x), ks_distance(x, _logistic)


def _assert_same_statistics(a, b):
    assert a[0] == b[0]
    assert all(np.array_equal(u, v) for u, v in zip(a[1], b[1]))
    assert a[2] == b[2] or (math.isnan(a[2]) and math.isnan(b[2]))


@pytest.mark.parametrize("with_nan", [False, True])
def test_presorted_and_shuffled_samples_give_equal_statistics(with_nan):
    # several order-check and cdf blocks, a partial last one included, with
    # negatives, both zeros and both infinities (and NaNs, which make KS NaN)
    gen = np.random.default_rng(14)
    x = (1.0 - gen.uniform(size=2 * tails._KS_BLOCK + 77)) ** (-1.0 / 2.5)
    x[: x.size // 10] *= -1.0
    junk = [-0.0, 0.0, 0.0, -0.0, np.inf, -np.inf] + [np.nan, np.nan] * with_nan
    x = np.concatenate([x, junk])
    ordered, shuffled = np.sort(x), gen.permutation(x)
    before = ordered.tobytes(), shuffled.tobytes()
    _assert_same_statistics(_order_statistics(ordered), _order_statistics(shuffled))
    assert math.isnan(ks_distance(shuffled, _logistic)) == with_nan
    # an ascending input is used as it is, any other is sorted into a copy
    assert np.shares_memory(tails._sorted(ordered), ordered)
    assert not np.shares_memory(tails._sorted(shuffled), shuffled)
    assert (ordered.tobytes(), shuffled.tobytes()) == before


def test_nan_between_finite_values_is_sorted_not_taken_as_ascending():
    # every finite pair ascends, but a NaN sits between 1 and 0.5
    x = np.concatenate([np.arange(1.0, 21.0), [np.nan, 0.5, 30.0]])
    before = x.tobytes()
    s = tails._sorted(x)
    assert not np.shares_memory(s, x)
    np.testing.assert_array_equal(s, np.sort(x))
    _assert_same_statistics(_order_statistics(x), _order_statistics(np.sort(x)))
    assert x.tobytes() == before
    # a NaN suffix keeps an ascending input as it is
    tail_nan = np.sort(x)
    assert np.shares_memory(tails._sorted(tail_nan), tail_nan)


def test_order_statistics_of_a_sorted_pooled_sample_take_under_1_mb():
    # 402 000 values, the size of incomplete_markets' pooled panel: no
    # statistic copies or masks a sorted sample, KS holds one block of cdf
    # values at a time (a cheap cdf, so the peak is the statistic's own),
    # and moments two blocks of centred powers
    gen = np.random.default_rng(15)
    x = np.sort(7.0 * (1.0 - gen.uniform(size=402_000)) ** (-1.0 / 2.5) - 3.0)
    for fn in (ccdf_loglog, hill, lambda v: ks_distance(v, _logistic), moments):
        tracemalloc.start()
        try:
            fn(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
