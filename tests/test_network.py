"""Allocation network construction, invariants, and persistence."""

import hashlib

import numpy as np
import pytest

from wealthsim import build_heterogeneous, build_regular, load_network, save_network
from wealthsim.errors import DomainError, NetworkBuildError
from wealthsim.network import AllocationNetwork, CSRMatrix


def test_regular_network_is_balanced():
    net = build_regular(12, 6, 2, 3, seed=0)
    assert net.n_households == 12 and net.n_firms == 6
    assert net.full_sides == frozenset()

    inv = net.invest.toarray()
    lab = net.labor.toarray()
    # every row spreads evenly over exactly `spread` distinct firms
    assert np.all((inv > 0).sum(axis=1) == 2)
    assert np.all((lab > 0).sum(axis=1) == 3)
    assert np.allclose(inv[inv > 0], 0.5)
    assert np.allclose(lab[lab > 0], 1.0 / 3.0)
    np.testing.assert_allclose(inv.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(lab.sum(axis=1), 1.0, atol=1e-12)
    # balance: each firm hosts n*spread/f households per side, so every
    # column sums to n/f
    np.testing.assert_allclose(inv.sum(axis=0), 2.0, atol=1e-12)
    np.testing.assert_allclose(lab.sum(axis=0), 2.0, atol=1e-12)


def test_overlap_statistics():
    net = build_regular(40, 20, 4, 10, seed=3)
    invest, cross, labor = net.overlaps()
    # a household fully overlaps itself: diagonal is 1/spread exactly
    np.testing.assert_allclose(np.diag(invest), 0.25, atol=1e-15)
    np.testing.assert_allclose(np.diag(labor), 0.1, atol=1e-15)
    invest_mean, _, labor_mean = net.overlap_means()
    assert invest_mean == pytest.approx(0.25)
    assert labor_mean == pytest.approx(0.1)
    np.testing.assert_allclose(invest, invest.T, atol=0)
    np.testing.assert_allclose(labor, labor.T, atol=0)
    assert np.all(invest >= 0) and np.all(labor >= 0) and np.all(cross >= 0)
    # off-diagonal overlap cannot exceed the self-overlap of the more
    # concentrated side
    assert invest.max() <= 0.25 + 1e-15
    assert cross.max() <= 0.25 + 1e-15


def _same(a, b):
    """Equal CSR matrices: the same shape and stored arrays."""
    return a.shape == b.shape and all(np.array_equal(getattr(a, name), getattr(b, name))
                                      for name in ("indptr", "indices", "data"))


def test_same_seed_reproduces_network():
    a = build_regular(30, 10, 3, 5, seed=9)
    b = build_regular(30, 10, 3, 5, seed=9)
    assert _same(a.invest, b.invest)
    assert _same(a.labor, b.labor)
    c = build_regular(30, 10, 3, 5, seed=10)
    assert not _same(a.invest, c.invest)


def test_unbalanceable_spread_rejected():
    # 10 households * 3 slots = 30 is not a multiple of 4 firms
    with pytest.raises(NetworkBuildError):
        build_regular(10, 4, 3, 2, seed=0)
    with pytest.raises(NetworkBuildError):
        build_regular(10, 4, 0, 2, seed=0)
    with pytest.raises(NetworkBuildError):
        build_regular(10, 4, 5, 2, seed=0)


def test_heterogeneous_spreads():
    spreads = [1, 2, 3, 4, 5]
    net = build_heterogeneous(5, 8, spreads, [2] * 5, seed=1)
    inv = net.invest.toarray()
    assert list((inv > 0).sum(axis=1)) == spreads
    np.testing.assert_allclose(inv.sum(axis=1), 1.0, atol=1e-12)
    assert net.full_sides == frozenset()
    with pytest.raises(NetworkBuildError):
        build_heterogeneous(5, 8, [1, 2, 3], [2] * 5, seed=1)
    with pytest.raises(NetworkBuildError):
        build_heterogeneous(5, 8, [0, 2, 3, 4, 5], [2] * 5, seed=1)


def test_firm_capital_and_labor():
    net = build_regular(6, 3, 3, 3, seed=0)
    wealth = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    cap, lab = net.firm_capital(wealth), net.firm_labor()
    # full spread: every firm receives exactly a 1/3 share of everything
    np.testing.assert_allclose(cap, np.full(3, wealth.sum() / 3.0), atol=1e-12)
    np.testing.assert_allclose(lab, np.full(3, 2.0), atol=1e-12)
    with pytest.raises(DomainError):
        net.firm_capital(wealth[:4])


def test_save_load_round_trip(tmp_path):
    net = build_regular(20, 10, 3, 4, seed=5)
    path = tmp_path / "net.txt"
    save_network(net, path)
    back = load_network(path)
    assert back.n_households == 20 and back.n_firms == 10
    assert _same(back.invest, net.invest)
    assert _same(back.labor, net.labor)


# Each loads a 1-household, 2-firm network whose one valid form is
# "1 2 1 1\n0 0 1.0\n0 1 1.0\n"; every entry breaks it in one way.
CORRUPT_NETWORK_FILES = {
    "empty": "",
    "short header": "3 2\n",
    "missing labor triplet": "1 2 1 1\n0 0 1.0\n",
    # weights there but rows not summing to one
    "row sum": "1 2 2 1\n0 0 0.5\n0 1 0.2\n0 0 1.0\n",
    "nan weight": "1 2 1 1\n0 0 nan\n0 1 1.0\n",
    "inf weight": "1 2 1 1\n0 0 1.0\n0 1 inf\n",
    "non-numeric weight": "1 2 1 1\n0 0 one\n0 1 1.0\n",
    "2-token line": "1 2 1 1\n0 0\n0 1 1.0\n",
    "4-token line": "1 2 1 1\n0 0 1.0 0\n0 1 1.0\n",
    "non-integral index": "1 2 1 1\n0 1.0 1.0\n0 1 1.0\n",
    "row index out of range": "1 2 1 1\n1 0 1.0\n0 1 1.0\n",
    "column index out of range": "1 2 1 1\n0 0 1.0\n0 2 1.0\n",
    "negative index": "1 2 1 1\n-1 0 1.0\n0 1 1.0\n",
    "comment line": "1 2 1 1\n# invest\n0 0 1.0\n0 1 1.0\n",
    "more triplets than header": "1 2 1 1\n0 0 1.0\n0 1 1.0\n0 1 1.0\n",
    # summed, the repeated pair would be one valid invest entry of weight 1.0
    "repeated triplet": "1 2 2 1\n0 0 0.5\n0 0 0.5\n0 1 1.0\n",
    "negative count": "1 2 -1 3\n0 0 1.0\n0 1 1.0\n",
    "header only, no triplets declared": "1 2 0 0\n",
    "header only, triplets declared": "1 2 1 1\n",
}


@pytest.mark.filterwarnings("error")
def test_load_rejects_corrupt_files(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1 2 1 1\n0 0 1.0\n0 1 1.0\n")
    assert load_network(p).n_firms == 2
    for label, text in CORRUPT_NETWORK_FILES.items():
        p.write_text(text)
        try:
            load_network(p)
        except NetworkBuildError:
            continue
        pytest.fail(f"{label}: loaded without NetworkBuildError")


@pytest.mark.parametrize("build", [
    lambda: build_regular(40, 20, 4, 10, seed=3),
    lambda: build_heterogeneous(30, 12, np.arange(30) % 12 + 1, np.arange(30) % 5 + 1, seed=2),
    lambda: build_regular(12, 6, 6, 6, seed=0),
], ids=["regular", "heterogeneous", "all_firms"])
def test_overlap_means_match_dense_diagonals(build):
    net = build()
    means = net.overlap_means()
    dense = [np.mean(np.diag(m)) for m in net.overlaps()]
    np.testing.assert_allclose(means, dense, rtol=1e-15, atol=0)


def test_regular_network_is_pinned():
    # sha256 of the index arrays, recorded before the duplicate-firm
    # repair changed from per-row count matrices to sorted rows; the
    # repairs must pick the same rows in the same order so the seeded
    # draws stay the same
    net = build_regular(300, 100, 7, 30, seed=11)
    h = hashlib.sha256()
    for m in (net.invest, net.labor):
        h.update(np.asarray(m.indices, dtype=np.int64).tobytes())
        h.update(np.asarray(m.indptr, dtype=np.int64).tobytes())
    assert h.hexdigest() == "7bfe53ab4c43356c7c039b7f582dff991118d73007e9093b8170b1c85f62c6f8"


def test_network_validation():
    import scipy.sparse as sp

    ok = sp.csr_matrix(np.full((2, 2), 0.5))
    with pytest.raises(DomainError):
        AllocationNetwork(ok, sp.csr_matrix(np.array([[0.7, 0.2], [0.5, 0.5]])))
    with pytest.raises(DomainError):
        AllocationNetwork(ok, sp.csr_matrix(np.full((2, 3), 1.0 / 3.0)))
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError):
            AllocationNetwork(ok, sp.csr_matrix(np.array([[bad, 0.5], [0.5, 0.5]])))
    # the counts are read off the matrices and cannot be declared beside them
    with pytest.raises(TypeError):
        AllocationNetwork(ok, ok, n_households=2)
    # a record the compiled kernels would index out of bounds with is refused
    good = CSRMatrix(np.array([0, 2, 4]), np.array([0, 1, 0, 1]), np.full(4, 0.5), (2, 2))
    assert AllocationNetwork(good, ok).full_sides == {"invest", "labor"}
    for indptr, indices, data in (
            ([0, 2, 4], [0, 2, 0, 1], np.full(4, 0.5)),    # column 2 of 2
            ([0, 2, 4], [0, -1, 0, 1], np.full(4, 0.5)),   # negative column
            ([0, 2, 4, 4], [0, 1, 0, 1], np.full(4, 0.5)),  # three rows of pointers
            ([0, 2, 5], [0, 1, 0, 1], np.full(4, 0.5)),    # more entries than stored
            ([0, 3, 2], [0, 1], [1.0, 1.0]),               # pointers fall back
            ([0, 2, 4], [0, 1, 0, 1], np.full(3, 0.5)),    # a weight short
            ([0, 2, 4], [0.0, 1.0, 0.0, 1.0], np.full(4, 0.5))):  # float columns
        bad = CSRMatrix(np.array(indptr), np.array(indices), np.asarray(data), (2, 2))
        with pytest.raises(DomainError, match="CSR structure"):
            AllocationNetwork(good, bad)


def test_full_sides_are_measured_on_the_matrices():
    # a side is full when every row holds every firm at weight 1/F
    assert build_regular(12, 6, 2, 3, seed=0).full_sides == frozenset()
    assert build_regular(12, 6, 5, 3, seed=0).full_sides == frozenset()
    assert build_regular(12, 6, 6, 3, seed=0).full_sides == {"invest"}
    assert build_regular(12, 6, 2, 6, seed=0).full_sides == {"labor"}
    assert build_regular(12, 6, 6, 6, seed=0).full_sides == {"invest", "labor"}
    het = build_heterogeneous(5, 8, [1, 2, 8, 4, 5], [8] * 5, seed=1)
    assert het.full_sides == {"labor"}

