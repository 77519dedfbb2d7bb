"""Bipartite allocation of household wealth and labor across firms.

Each household splits its wealth over a set of firms and its unit of
labor over a (possibly different) set of firms.  Both allocations are
row-stochastic N x F matrices, and a network is these two alone: its
sizes and its full sides are read off them, so a saved network loads
back as the network that was built.  Portfolio overlaps between
households decide how correlated their incomes are and therefore how
much risk survives aggregation.

A matrix is a plain CSR record (``CSRMatrix``), and every reader uses
only its ``indptr``, ``indices``, ``data``, ``shape`` and ``nnz``, so a
``scipy.sparse`` ``csr_matrix`` works in its place.  Row and column sums
and overlaps are numpy; the one product, the firm flows of
``simulate._flow_rows``, runs scipy's compiled CSR kernels, which
``_csr_kernels`` loads from their file without importing
``scipy.sparse``.  A run without a network loads neither.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import warnings
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import DomainError, NetworkBuildError

__all__ = [
    "CSRMatrix",
    "AllocationNetwork",
    "build_regular",
    "build_heterogeneous",
    "save_network",
    "load_network",
]

_ROW_SUM_TOL = 1e-9
_TRIPLET = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])
_SAVE_BLOCK = 4096  # triplets formatted per write


@cache
def _csr_kernels():
    """scipy's compiled sparse kernels, ``scipy/sparse/_sparsetools``.

    The extension is loaded from its file, so the ``scipy.sparse``
    package, with the array-API namespace its import builds, never runs.
    ``csr_matvec`` and ``csr_matvecs`` are the kernels ``csr_matrix @ x``
    calls for a vector and a block, so the products keep their bits.
    """
    spec = importlib.util.find_spec("scipy")
    places = list(spec.submodule_search_locations or ()) if spec else []
    for place in places:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(place, "sparse", "_sparsetools" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader("wealthsim._sparsetools", path)
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_loader(loader.name, loader))
                loader.exec_module(module)
                return module
    searched = ", ".join(os.path.join(p, "sparse") for p in places) or "no installed scipy"
    raise ImportError("a network needs scipy's compiled CSR kernels"
                      f" (scipy/sparse/_sparsetools); searched {searched}")


@dataclass(frozen=True, eq=False)
class CSRMatrix:
    """An (N, F) matrix row by row: row i holds ``data[indptr[i]:indptr[i + 1]]``
    at the columns ``indices[indptr[i]:indptr[i + 1]]``.

    The builders and ``load_network`` store each (row, column) pair once,
    in column order within a row, with int32 indices when they fit, as
    ``scipy.sparse`` does.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    nnz = property(lambda self: int(self.indptr[-1]))

    def toarray(self) -> np.ndarray:
        """The dense matrix, repeated pairs summed; for small probes."""
        out = np.zeros(self.shape)
        np.add.at(out, (_entry_rows(self), self.indices), self.data)
        return out


def _csr(indptr, indices, data, shape) -> CSRMatrix:
    """A ``CSRMatrix`` with contiguous arrays and scipy's index type."""
    fits = max(int(indptr[-1]), *shape) <= np.iinfo(np.int32).max
    index = np.int32 if fits else np.int64
    return CSRMatrix(np.ascontiguousarray(indptr, dtype=index),
                     np.ascontiguousarray(indices, dtype=index),
                     np.ascontiguousarray(data, dtype=np.float64), tuple(shape))


def _entry_rows(mat) -> np.ndarray:
    """The row of each stored entry, in entry order."""
    return np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))


def _row_sums(indptr, data) -> np.ndarray:
    """Each row's entries summed in entry order, by ``np.add.reduceat`` over
    the non-empty rows, which is how ``csr_matrix.sum(axis=1)`` sums them."""
    sums = np.zeros(len(indptr) - 1)
    filled = np.flatnonzero(np.diff(indptr))
    if filled.size:
        sums[filled] = np.add.reduceat(data, indptr[filled])
    return sums


def _sorted_entries(mat) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each entry's row, its ``row * F + column`` key and its weight, in key order."""
    rows = _entry_rows(mat)
    keys = rows * mat.shape[1] + mat.indices
    if np.all(keys[1:] > keys[:-1]):
        return rows, keys, mat.data
    order = np.argsort(keys, kind="stable")
    return rows[order], keys[order], mat.data[order]


def _diagonal_mean(a, b) -> float:
    """Mean over rows i of ``sum_j a[i, j] * b[i, j]``, the diagonal of a @ b.T.

    The products of the pairs stored on both sides are taken in key
    order, zeros dropped, and summed row by row, as
    ``a.multiply(b).sum(axis=1)`` forms and sums them.
    """
    rows, keys, weights = _sorted_entries(a)
    if a is b:
        prod = weights * weights
    else:
        _, other, other_weights = _sorted_entries(b)
        at = np.minimum(np.searchsorted(other, keys), other.size - 1)
        both = other[at] == keys
        rows, prod = rows[both], weights[both] * other_weights[at[both]]
    nonzero = prod != 0.0
    if not nonzero.all():
        rows, prod = rows[nonzero], prod[nonzero]
    indptr = np.searchsorted(rows, np.arange(a.shape[0] + 1))
    return float(_row_sums(indptr, prod).mean())


def _check_row_stochastic(mat, name):
    n, f = mat.shape
    if n == 0 or f == 0:
        raise DomainError(f"{name} matrix must be non-empty, got shape {mat.shape}")
    # the compiled kernels index with these arrays unchecked
    indptr, indices, data = mat.indptr, mat.indices, mat.data
    if not (indptr.shape == (n + 1,) and indptr.dtype.kind == indices.dtype.kind == "i"
            and indptr[0] == 0 and indices.shape == data.shape == (indptr[-1],)
            and np.all(np.diff(indptr) >= 0) and np.all((indices >= 0) & (indices < f))):
        raise DomainError(f"{name} matrix is not a valid CSR structure of shape {mat.shape}")
    if not np.all(np.isfinite(data)):
        raise DomainError(f"{name} weights must be finite")
    if data.size and (np.any(data < 0.0) or np.any(data > 1.0)):
        raise DomainError(f"{name} weights must lie in [0, 1]")
    worst = np.max(np.abs(_row_sums(mat.indptr, data) - 1.0))
    if worst > _ROW_SUM_TOL:
        raise DomainError(f"{name} rows must sum to 1, worst deviation {worst:.3e}")


@dataclass(frozen=True)
class AllocationNetwork:
    """Immutable pair of row-stochastic allocation matrices.

    invest   (N, F) CSR matrix of wealth fractions
    labor    (N, F) CSR matrix of labor fractions

    Each is a ``CSRMatrix`` or anything with its fields, such as a
    ``scipy.sparse`` ``csr_matrix``.  The counts N and F and the full
    sides are read off the two matrices.
    """

    invest: CSRMatrix
    labor: CSRMatrix

    def __post_init__(self):
        if self.labor.shape != self.invest.shape:
            raise DomainError(f"labor matrix has shape {self.labor.shape},"
                              f" invest matrix {self.invest.shape}")
        for name in ("invest", "labor"):
            _check_row_stochastic(getattr(self, name), name)

    n_households = property(lambda self: self.invest.shape[0])
    n_firms = property(lambda self: self.invest.shape[1])

    @cached_property
    def full_sides(self) -> frozenset[str]:
        """The sides ("invest", "labor") on which every household holds every
        firm at weight 1/F to 1e-12, measured on first use.  A side that
        does not store each row's F columns once, in order, is not full;
        its weights are not read.
        """
        n, f = self.invest.shape

        def full(mat):
            return (mat.nnz == n * f
                    and np.array_equal(mat.indptr, np.arange(0, n * f + 1, f))
                    and np.array_equal(np.reshape(mat.indices, (n, f)),
                                       np.broadcast_to(np.arange(f), (n, f)))
                    and float(np.max(np.abs(mat.data - 1.0 / f))) <= 1e-12)

        return frozenset(side for side in ("invest", "labor") if full(getattr(self, side)))

    def firm_labor(self) -> np.ndarray:
        """Units of labor supplied to each firm, summed in entry order."""
        lab = self.labor
        return np.bincount(lab.indices, weights=lab.data, minlength=self.n_firms)

    def firm_capital(self, wealth) -> np.ndarray:
        """Capital placed with each firm for a given wealth vector."""
        w = np.asarray(wealth, dtype=float)
        if w.shape != (self.n_households,):
            raise DomainError(f"wealth vector must have length {self.n_households}")
        inv = self.invest
        return np.bincount(inv.indices, weights=inv.data * w[_entry_rows(inv)],
                           minlength=self.n_firms)

    @cached_property
    def flow_rows(self) -> CSRMatrix:
        """Invest rows over labor rows as one (2N, F) CSR, built on first use.

        One product with a block of firm draws gives both channels' firm
        flows.  ``simulate._flow_rows``, which writes every firm flow, uses
        it only when neither side is in ``full_sides``.
        """
        inv, lab = self.invest, self.labor
        return _csr(np.concatenate([inv.indptr, inv.nnz + np.asarray(lab.indptr[1:], np.int64)]),
                    np.concatenate([inv.indices, lab.indices]),
                    np.concatenate([inv.data, lab.data]),
                    (2 * self.n_households, self.n_firms))

    def overlap_means(self) -> tuple[float, float, float]:
        """Diagonal means of the invest, cross and labor overlap matrices.

        Diagonal entry i is the inner product of household i's own two
        rows, so the means cost O(nnz log nnz) and no N x N product is
        formed.
        """
        inv, lab = self.invest, self.labor
        return (_diagonal_mean(inv, inv), _diagonal_mean(inv, lab), _diagonal_mean(lab, lab))

    def overlaps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Dense pairwise overlaps: the (invest, cross, labor) N x N matrices,
        for small N only.  ``overlap_means`` are their diagonal means.

        No simulation or check calls it.  It is the dense reference that
        the tests compare ``overlap_means`` against, and the benchmark's
        tracer still counts its calls and dense bytes.
        """
        inv, lab = self.invest.toarray(), self.labor.toarray()
        return inv @ inv.T, inv @ lab.T, lab @ lab.T


def _balanced_rows(n_rows, n_firms, spread, rng):
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
        comp = _balanced_rows(n_rows, n_firms, n_firms - spread, rng)
        all_firms = np.arange(n_firms)
        rows = np.empty((n_rows, spread), dtype=np.int64)
        for i in range(n_rows):
            rows[i] = np.setdiff1d(all_firms, comp[i], assume_unique=True)
        return rows

    slots = np.repeat(np.arange(n_firms), total // n_firms)
    rng.shuffle(slots)
    rows = slots.reshape(n_rows, spread)
    for _ in range(500):  # repair passes before giving up
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
                    g = rows[j, d]
                    # j == i or g == f is refused too: rows[j] then holds f
                    if g in seen or np.any(rows[j] == f):
                        continue
                    rows[i, c], rows[j, d] = g, f
                    seen.add(g)
                    break
    raise NetworkBuildError("could not remove duplicate firms within the pass budget")


def _rows_to_csr(rows, n_firms, weight):
    n_rows, spread = rows.shape
    indptr = np.arange(0, n_rows * spread + 1, spread)
    cols = np.sort(rows, axis=1).ravel()
    return _csr(indptr, cols, np.full(n_rows * spread, weight), (n_rows, n_firms))


def build_regular(n_households, n_firms, invest_spread, labor_spread, seed=0):
    """Build a network where every household spreads evenly over a fixed
    number of distinct firms and every firm absorbs the same number of
    households on each side.

    Requires ``n_households * spread`` to be a multiple of ``n_firms`` on
    both sides.  Identical inputs reproduce the identical network.
    """
    if min(n_households, n_firms) < 1 or seed < 0:
        raise NetworkBuildError(f"need at least 1 household and 1 firm and a seed >= 0,"
                                f" got {n_households}, {n_firms} and {seed}")
    for name, spread in (("invest", invest_spread), ("labor", labor_spread)):
        if not 1 <= spread <= n_firms:
            raise NetworkBuildError(f"{name} spread must lie in [1, {n_firms}], got {spread}")
    rng = np.random.default_rng(seed)
    inv_rows = _balanced_rows(n_households, n_firms, invest_spread, rng)
    lab_rows = _balanced_rows(n_households, n_firms, labor_spread, rng)
    return AllocationNetwork(_rows_to_csr(inv_rows, n_firms, 1.0 / invest_spread),
                             _rows_to_csr(lab_rows, n_firms, 1.0 / labor_spread))


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
        return _csr(np.array(indptr), np.concatenate(cols), np.concatenate(data),
                    (n_households, n_firms))

    return AllocationNetwork(draw(inv), draw(lab))


def save_network(net: AllocationNetwork, path):
    """Write a network as text: a header ``N F nnz_invest nnz_labor``
    followed by one ``row col weight`` triplet per entry.  Weights use
    round-trip float formatting, so loading restores them exactly."""
    inv, lab = net.invest, net.labor
    with open(path, "w") as fh:
        fh.write(f"{net.n_households} {net.n_firms} {inv.nnz} {lab.nnz}\n")
        # one % formats a bounded block of triplets, so the text stays small
        for mat in (inv, lab):
            rows = _entry_rows(mat)
            for lo in range(0, mat.nnz, _SAVE_BLOCK):
                hi = min(lo + _SAVE_BLOCK, mat.nnz)
                fields = [None] * (3 * (hi - lo))
                fields[::3] = rows[lo:hi].tolist()
                fields[1::3] = mat.indices[lo:hi].tolist()
                fields[2::3] = mat.data[lo:hi].tolist()
                fh.write("%d %d %r\n" * (hi - lo) % tuple(fields))


def load_network(path) -> AllocationNetwork:
    """Read a network written by ``save_network``.

    The header is parsed by hand and the triplets by ``np.loadtxt``,
    whose integer fields reject non-integral indices; comment lines are
    not allowed.  The triplets are sorted by (row, col) only when the file
    does not list them so.  Any malformed or invalid file raises
    NetworkBuildError.
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
        keys = i * f + j
        if not np.all(keys[1:] > keys[:-1]):
            order = np.argsort(keys, kind="stable")
            chunk, keys = chunk[order], keys[order]
            repeats = np.count_nonzero(keys[1:] == keys[:-1])
            if repeats:
                raise NetworkBuildError(f"{label} side lists {repeats}"
                                        " repeated (row, col) pair(s)")
        indptr = np.searchsorted(chunk["i"], np.arange(n + 1))
        return _csr(indptr, chunk["j"], chunk["w"], (n, f))

    invest = to_csr(triplets[:nnz_inv], "invest")
    labor = to_csr(triplets[nnz_inv:], "labor")
    try:
        return AllocationNetwork(invest, labor)
    except DomainError as exc:
        raise NetworkBuildError(f"network file {path} fails validation: {exc}") from None
