"""The network's CSR records against ``scipy.sparse``, bit for bit.

The package never imports ``scipy.sparse``; here it is the oracle.  Every
reader of an allocation matrix (the flow kernel, row and column sums,
overlaps, save and load) must give the bits the scipy expressions it
replaced give, on networks built by the package and on hand-made scipy
matrices with int32 indices.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from wealthsim import AllocationNetwork, build_heterogeneous, load_network, save_network
from wealthsim.analytics import _sorted_distinct
from wealthsim.network import _row_sums
from wealthsim.simulate import _flow_rows, _stream

SIDES = ("invest", "labor")


def _scipy(mat):
    return sp.csr_matrix((mat.data, mat.indices, mat.indptr), shape=mat.shape)


def _flows(net, shocks, labor):
    n = net.n_households
    rows = np.empty((len(shocks), 2 * n + 1 if labor else n))
    _flow_rows(net, shocks, labor, rows)
    return rows


def _scipy_flows(net, shocks):
    """The rows the flows were written with before: ``M @ x`` for one draw,
    ``(M @ shocks.T).T`` for a block, the firm mean on a full side."""
    parts = []
    for side in SIDES:
        if side in net.full_sides:
            parts.append(np.broadcast_to(shocks.mean(axis=1)[:, None],
                                         (len(shocks), net.n_households)))
        elif len(shocks) == 1:
            parts.append((_scipy(getattr(net, side)) @ shocks[0])[None])
        else:
            parts.append((_scipy(getattr(net, side)) @ shocks.T).T)
    return parts


def _assert_readers_match_scipy(net, draws, wealth):
    n = net.n_households
    for k in (1, len(draws)):
        rows = _flows(net, draws[:k], True)
        invest, labor = _scipy_flows(net, draws[:k])
        assert np.array_equal(rows[:, :n], invest)
        assert np.array_equal(rows[:, n:2 * n], labor)
        assert np.array_equal(_flows(net, draws[:k], False), invest)
    for side in SIDES:
        mat = getattr(net, side)
        assert np.array_equal(_row_sums(mat.indptr, mat.data),
                              np.asarray(_scipy(mat).sum(axis=1)).ravel())
    inv, lab = _scipy(net.invest), _scipy(net.labor)
    assert np.array_equal(net.firm_labor(), np.asarray(lab.sum(axis=0)).ravel())
    assert np.array_equal(net.firm_capital(wealth), inv.T @ wealth)

    def mean_diag(a, b):
        return float(np.asarray(a.multiply(b).sum(axis=1)).ravel().mean())

    assert net.overlap_means() == (mean_diag(inv, inv), mean_diag(inv, lab),
                                   mean_diag(lab, lab))


def _assert_round_trip(net):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.txt"
        save_network(net, path)
        back = load_network(path)
        lines = path.read_text().splitlines()
        head, triplets = lines[0].split(), np.loadtxt(lines[1:], ndmin=2)
        nnz_invest = int(head[2])
        for side, chunk in zip(SIDES, (triplets[:nnz_invest], triplets[nnz_invest:])):
            # the matrix scipy builds from the file's triplets
            ref = sp.csr_matrix((chunk[:, 2], (chunk[:, 0].astype(int), chunk[:, 1].astype(int))),
                                shape=net.invest.shape)
            for mat in (getattr(back, side), getattr(net, side)):
                assert mat.shape == ref.shape
                for name in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(mat, name), getattr(ref, name)), (side, name)
        # the same triplets in another order load to the same matrices
        rng = np.random.default_rng(0)
        parts = [rng.permutation(lines[1:1 + nnz_invest]), rng.permutation(lines[1 + nnz_invest:])]
        path.write_text("\n".join([lines[0], *parts[0], *parts[1]]) + "\n")
        shuffled = load_network(path)
        for side in SIDES:
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(getattr(shuffled, side), name),
                                      getattr(getattr(back, side), name))


@st.composite
def networks(draw):
    n = draw(st.integers(1, 24))
    f = draw(st.integers(1, 14))
    spreads = [draw(st.lists(st.integers(1, f), min_size=n, max_size=n)) for _ in SIDES]
    return build_heterogeneous(n, f, *spreads, seed=draw(st.integers(0, 2 ** 16)))


@settings(max_examples=60, deadline=None)
@given(net=networks(), k=st.integers(2, 6), seed=st.integers(0, 2 ** 16))
def test_built_networks_read_as_scipy_reads_them(net, k, seed):
    gen = _stream(seed, 0)
    draws = 0.1 + 0.3 * gen.standard_normal((k, net.n_firms))
    wealth = gen.uniform(0.5, 20.0, net.n_households)
    _assert_readers_match_scipy(net, draws, wealth)
    _assert_round_trip(net)


HAND_MADE = {
    "sparse": (np.array([[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.2, 0.3, 0.5], [0.1, 0.1, 0.8]]),
               np.array([[0.0, 0.0, 1.0], [0.25, 0.5, 0.25], [0.5, 0.5, 0.0], [0.7, 0.2, 0.1]])),
    "full_invest": (np.full((4, 3), 1.0 / 3.0),
                    np.array([[0.0, 0.6, 0.4], [1.0, 0.0, 0.0], [0.3, 0.3, 0.4], [0.0, 0.0, 1.0]])),
    "both_full": (np.full((4, 3), 1.0 / 3.0), np.full((4, 3), 1.0 / 3.0)),
}


@pytest.mark.parametrize("name", sorted(HAND_MADE))
def test_scipy_matrices_passed_in_read_as_scipy_reads_them(name):
    invest, labor = (sp.csr_matrix(m) for m in HAND_MADE[name])
    assert invest.indices.dtype == np.int32 and labor.indptr.dtype == np.int32
    net = AllocationNetwork(invest, labor)
    assert net.invest is invest
    assert net.full_sides == {"full_invest": {"invest"}, "both_full": set(SIDES)}.get(name, set())
    gen = _stream(3, 1)
    draws = 0.1 + 0.3 * gen.standard_normal((5, 3))
    _assert_readers_match_scipy(net, draws, gen.uniform(0.5, 20.0, 4))
    _assert_round_trip(net)
    # the stacked rows the package builds keep scipy's index type
    assert net.flow_rows.indices.dtype == np.int32
    assert np.array_equal(net.flow_rows.toarray(), sp.vstack([invest, labor]).toarray())


@pytest.mark.parametrize("seed", range(4))
def test_sorted_distinct_is_numpys_unique(seed):
    rng = np.random.default_rng(seed)
    pieces = [np.linspace(-1.5, 1.5, 101), np.linspace(-0.2, 0.4, 57),
              rng.choice([-0.0, 0.0, 1.0, -2.5], 40), rng.standard_normal(30).round(1)]
    values = np.concatenate([rng.permutation(p) for p in pieces])
    assert _sorted_distinct(values).tobytes() == np.unique(values).tobytes()
