"""Bipartite allocation of household wealth and labor across firms.

Each household splits its wealth over a set of firms and its unit of
labor over a (possibly different) set of firms.  Both allocations are
row-stochastic N x F matrices.  Portfolio overlaps between households
decide how correlated their incomes are and therefore how much risk
survives aggregation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import DomainError, NetworkBuildError

__all__ = [
    "AllocationNetwork",
    "OverlapStats",
    "build_regular",
    "build_heterogeneous",
    "save_network",
    "load_network",
]

_ROW_SUM_TOL = 1e-9
_TRIPLET = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])


def _check_row_stochastic(mat, name):
    if mat.shape[0] == 0 or mat.shape[1] == 0:
        raise DomainError(f"{name} matrix must be non-empty, got shape {mat.shape}")
    data = mat.data
    if not np.all(np.isfinite(data)):
        raise DomainError(f"{name} weights must be finite")
    if data.size and (np.any(data < 0.0) or np.any(data > 1.0)):
        raise DomainError(f"{name} weights must lie in [0, 1]")
    rows = np.asarray(mat.sum(axis=1)).ravel()
    worst = np.max(np.abs(rows - 1.0)) if rows.size else 1.0
    if worst > _ROW_SUM_TOL:
        raise DomainError(f"{name} rows must sum to 1, worst deviation {worst:.3e}")


@dataclass(frozen=True)
class OverlapStats:
    """Pairwise portfolio overlaps.

    ``invest[i, m]`` is the probability-weighted number of firms the
    investment portfolios of households i and m share; ``labor`` is the
    analog for labor allocations and ``cross`` mixes the two sides.
    Their diagonal means come from ``AllocationNetwork.overlap_means``.
    """

    invest: np.ndarray
    cross: np.ndarray
    labor: np.ndarray


@dataclass(frozen=True)
class AllocationNetwork:
    """Immutable pair of row-stochastic allocation matrices.

    invest          (N, F) CSR matrix of wealth fractions
    labor           (N, F) CSR matrix of labor fractions
    invest_spread   number of firms per row when regular, else None
    labor_spread    number of firms per row when regular, else None
    """

    n_households: int
    n_firms: int
    invest: sp.csr_matrix
    labor: sp.csr_matrix
    invest_spread: int | None = None
    labor_spread: int | None = None

    def __post_init__(self):
        n, f = self.n_households, self.n_firms
        if n <= 0 or f <= 0:
            raise DomainError("network needs positive household and firm counts")
        for name in ("invest", "labor"):
            mat = getattr(self, name)
            if mat.shape != (n, f):
                raise DomainError(f"{name} matrix has shape {mat.shape}, expected {(n, f)}")
            _check_row_stochastic(mat, name)

    def firm_labor(self) -> np.ndarray:
        """Units of labor supplied to each firm."""
        return np.asarray(self.labor.sum(axis=0)).ravel()

    def firm_capital(self, wealth) -> np.ndarray:
        """Capital placed with each firm for a given wealth vector."""
        w = np.asarray(wealth, dtype=float)
        if w.shape != (self.n_households,):
            raise DomainError(f"wealth vector must have length {self.n_households}")
        return self.invest.T @ w

    @cached_property
    def flow_rows(self) -> sp.csr_matrix:
        """Invest rows over labor rows as one (2N, F) CSR, built on first use.

        One product with a firm shock gives both channels' firm flows.
        The stepping kernel uses it only when neither channel is spread
        over every firm, so such a channel never enters a product.
        """
        return sp.vstack([self.invest, self.labor], format="csr")

    def overlap_means(self) -> tuple[float, float, float]:
        """Diagonal means of the invest, cross and labor overlap matrices.

        Diagonal entry i is the inner product of household i's own two
        rows, so the means cost O(nnz) and no N x N product is formed.
        """
        def mean_diag(a, b):
            return float(np.asarray(a.multiply(b).sum(axis=1)).ravel().mean())

        return (mean_diag(self.invest, self.invest),
                mean_diag(self.invest, self.labor),
                mean_diag(self.labor, self.labor))

    def overlaps(self) -> OverlapStats:
        """Dense pairwise overlaps: three N x N matrices, for small N only.

        No simulation or check calls it.  It is the dense reference that
        the tests compare ``overlap_means`` against, and the benchmark's
        tracer still counts its calls and dense bytes.
        """
        return OverlapStats(
            invest=(self.invest @ self.invest.T).toarray(),
            cross=(self.invest @ self.labor.T).toarray(),
            labor=(self.labor @ self.labor.T).toarray(),
        )


def _balanced_rows(n_rows, n_firms, spread, rng, max_passes=500):
    """Assign each row ``spread`` distinct firms with equal firm in-degrees.

    Firms appear ``n_rows * spread / n_firms`` times overall.  A shuffled
    slot list is cut into rows; rows containing a repeated firm are then
    repaired by random swaps that do not introduce new repeats.
    """
    if spread == n_firms:
        return np.tile(np.arange(n_firms), (n_rows, 1))
    total = n_rows * spread
    if total % n_firms:
        raise NetworkBuildError(
            f"cannot balance {n_rows} rows of spread {spread} over {n_firms} firms: "
            f"{n_rows}*{spread} is not a multiple of {n_firms}")
    if spread > n_firms // 2:
        # build the complement; fewer collisions, same divisibility condition
        comp = _balanced_rows(n_rows, n_firms, n_firms - spread, rng, max_passes)
        all_firms = np.arange(n_firms)
        rows = np.empty((n_rows, spread), dtype=np.int64)
        for i in range(n_rows):
            rows[i] = np.setdiff1d(all_firms, comp[i], assume_unique=True)
        return rows

    slots = np.repeat(np.arange(n_firms), total // n_firms)
    rng.shuffle(slots)
    rows = slots.reshape(n_rows, spread)
    for _ in range(max_passes):
        srt = np.sort(rows, axis=1)
        bad_rows = np.nonzero((srt[:, 1:] == srt[:, :-1]).any(axis=1))[0]
        if bad_rows.size == 0:
            return rows
        for i in bad_rows:
            row = rows[i]
            seen = set()
            for c in range(spread):
                f = row[c]
                if f not in seen:
                    seen.add(f)
                    continue
                # swap the duplicate slot with a random slot elsewhere
                for _try in range(50):
                    j = int(rng.integers(n_rows))
                    d = int(rng.integers(spread))
                    if j == i:
                        continue
                    g = rows[j, d]
                    if g == f or g in seen:
                        continue
                    if np.any(rows[j] == f):
                        continue
                    rows[i, c], rows[j, d] = g, f
                    seen.add(g)
                    break
    raise NetworkBuildError("could not remove duplicate firms within the pass budget")


def _rows_to_csr(rows, n_firms, weight):
    n_rows, spread = rows.shape
    indptr = np.arange(0, n_rows * spread + 1, spread)
    order = np.argsort(rows, axis=1, kind="stable")
    cols = np.take_along_axis(rows, order, axis=1).ravel()
    data = np.full(n_rows * spread, weight, dtype=float)
    return sp.csr_matrix((data, cols, indptr), shape=(n_rows, n_firms))


def build_regular(n_households, n_firms, invest_spread, labor_spread, seed=0):
    """Build a network where every household spreads evenly over a fixed
    number of distinct firms and every firm absorbs the same number of
    households on each side.

    Requires ``n_households * spread`` to be a multiple of ``n_firms`` on
    both sides.  Identical inputs reproduce the identical network.
    """
    for name, spread in (("invest", invest_spread), ("labor", labor_spread)):
        if not 1 <= spread <= n_firms:
            raise NetworkBuildError(f"{name} spread must lie in [1, {n_firms}], got {spread}")
    rng = np.random.default_rng(seed)
    inv_rows = _balanced_rows(n_households, n_firms, invest_spread, rng)
    lab_rows = _balanced_rows(n_households, n_firms, labor_spread, rng)
    return AllocationNetwork(
        n_households=n_households,
        n_firms=n_firms,
        invest=_rows_to_csr(inv_rows, n_firms, 1.0 / invest_spread),
        labor=_rows_to_csr(lab_rows, n_firms, 1.0 / labor_spread),
        invest_spread=invest_spread,
        labor_spread=labor_spread,
    )


def build_heterogeneous(n_households, n_firms, invest_spreads, labor_spreads, seed=0):
    """Build a network with per-household spreads and no in-degree balance.

    Intended for qualitative experiments on uneven diversification; firm
    loads are random, so aggregate guarantees of the regular builder do
    not apply.
    """
    inv = np.asarray(invest_spreads, dtype=np.int64)
    lab = np.asarray(labor_spreads, dtype=np.int64)
    for name, arr in (("invest", inv), ("labor", lab)):
        if arr.shape != (n_households,):
            raise NetworkBuildError(f"{name} spreads must have length {n_households}")
        if np.any(arr < 1) or np.any(arr > n_firms):
            raise NetworkBuildError(f"{name} spreads must lie in [1, {n_firms}]")
    rng = np.random.default_rng(seed)

    def draw(spreads):
        cols, data, indptr = [], [], [0]
        for d in spreads:
            picks = np.sort(rng.choice(n_firms, size=int(d), replace=False))
            cols.append(picks)
            data.append(np.full(int(d), 1.0 / int(d)))
            indptr.append(indptr[-1] + int(d))
        return sp.csr_matrix(
            (np.concatenate(data), np.concatenate(cols), np.array(indptr)),
            shape=(n_households, n_firms))

    return AllocationNetwork(
        n_households=n_households,
        n_firms=n_firms,
        invest=draw(inv),
        labor=draw(lab),
    )


def save_network(net: AllocationNetwork, path):
    """Write a network as text: a header ``N F nnz_invest nnz_labor``
    followed by one ``row col weight`` triplet per entry.  Weights use
    round-trip float formatting, so loading restores them exactly."""
    inv = net.invest.tocoo()
    lab = net.labor.tocoo()
    with open(path, "w") as fh:
        fh.write(f"{net.n_households} {net.n_firms} {inv.nnz} {lab.nnz}\n")
        for mat in (inv, lab):
            for i, j, w in zip(mat.row, mat.col, mat.data):
                fh.write(f"{int(i)} {int(j)} {float(w)!r}\n")


def load_network(path) -> AllocationNetwork:
    """Read a network written by ``save_network``.

    The header is parsed by hand and the triplets by ``np.loadtxt``,
    whose integer fields reject non-integral indices; comment lines are
    not allowed.  Any malformed or invalid file raises NetworkBuildError.
    """
    with open(path) as fh:
        header = next((ln.strip() for ln in fh if ln.strip()), "")
        if not header:
            raise NetworkBuildError(f"network file {path} is empty")
        head = header.split()
        if len(head) != 4:
            raise NetworkBuildError(f"bad header {header!r}, expected 'N F nnz_invest nnz_labor'")
        try:
            n, f, nnz_inv, nnz_lab = (int(x) for x in head)
        except ValueError as exc:
            raise NetworkBuildError(f"bad header {header!r}: {exc}") from None
        if min(n, f, nnz_inv, nnz_lab) < 0:
            raise NetworkBuildError(f"bad header {header!r}: negative count")
        try:
            with warnings.catch_warnings():
                # a file without triplets fails the count or validation checks below
                warnings.filterwarnings("ignore", message="loadtxt: input contained no data")
                triplets = np.loadtxt(fh, dtype=_TRIPLET, comments=None, ndmin=1)
        except ValueError as exc:
            raise NetworkBuildError(f"bad triplet in network file {path}: {exc}") from None
    if triplets.size != nnz_inv + nnz_lab:
        raise NetworkBuildError(
            f"expected {nnz_inv + nnz_lab} triplets, found {triplets.size}")

    def to_csr(chunk, label):
        i, j = chunk["i"], chunk["j"]
        bad = np.nonzero((i < 0) | (i >= n) | (j < 0) | (j >= f))[0]
        if bad.size:
            raise NetworkBuildError(
                f"{label} index out of range in triplet {chunk[bad[0]].tolist()}")
        return sp.csr_matrix((chunk["w"], (i, j)), shape=(n, f))

    invest = to_csr(triplets[:nnz_inv], "invest")
    labor = to_csr(triplets[nnz_inv:], "labor")
    try:
        return AllocationNetwork(n_households=n, n_firms=f, invest=invest, labor=labor)
    except DomainError as exc:
        raise NetworkBuildError(f"network file {path} fails validation: {exc}") from None
