"""Tail index estimation, distances, and moment summaries."""

import math

import numpy as np
import pytest
import scipy.stats

from wealthsim import ccdf_loglog, hill, ks_distance, moments
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
    log_x, log_ccdf = ccdf_loglog(x, n_points=100)
    assert log_x.size <= 100
    assert np.all(np.diff(log_x) > 0)
    assert np.all(np.diff(log_ccdf) < 0)


def test_ccdf_table_file(tmp_path):
    gen = np.random.default_rng(12)
    x = (1.0 - gen.uniform(size=3000)) ** (-1.0 / 2.5)
    path = tmp_path / "ccdf.csv"
    write_ccdf_table(x, path, n_points=50)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "log_x,log_ccdf"
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    assert data.shape[0] <= 50 and np.all(np.isfinite(data))
    # tail straightness: least-squares slope near -alpha on the top decade
    top = data[data[:, 0] > np.quantile(data[:, 0], 0.5)]
    slope = np.polyfit(top[:, 0], top[:, 1], 1)[0]
    assert slope == pytest.approx(-2.5, abs=0.6)
