"""Monte Carlo simulation of household wealth under firm-level shocks.

Absolute-wealth runs step every household through realized firm payoffs:
each firm's production over a step is a random multiple of its inputs,
factor payments are proportional to the realized shock, flat taxes are
collected on realized incomes and redistributed equally, and households
save a fixed share of what remains.  Relative-wealth runs follow wealth
divided by its growing mean along a sustained-growth path.

Randomness is counter-based: step n of a run draws from a dedicated
Philox stream keyed by (seed, n), so trajectories are reproducible and
independent of how the work is scheduled.  One generator is reset to
each stream rather than rebuilt, with the same draws.

Each step splits into a state-free part, a pure function of (seed, n),
and the state update.  On long runs forked worker processes make the
state-free part ahead of the update, which stays in the calling process.
For an absolute run that part is the flow row of a step's firm draws,
which one routine writes for every caller: invest flows, labor flows and
their total, or invest flows alone under deterministic labor.  A
relative step is affine in the state, so a block of relative steps
composes into one affine map per household, made ahead and applied
once.  Whether a run forks depends on the normals it draws, not on the
width of its rows.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
import traceback
from dataclasses import dataclass, field

import numpy as np

from .analytics import _growth_coeffs
from .errors import (
    ConfigError,
    DomainError,
    NonFiniteError,
    PriceUndefinedError,
    WealthsimError,
)
from .market import clear
from .network import AllocationNetwork, _csr_kernels
from .params import EconomyParams, ProductionFunction

__all__ = [
    "SimulationConfig",
    "WealthPanel",
    "sample_firm_shocks",
    "step_absolute",
    "run_absolute",
    "run_relative_growth",
    "empirical_noise_covariance",
    "analytic_noise_covariance",
]

@dataclass(frozen=True)
class SimulationConfig:
    """Time stepping and recording plan for a run.

    Snapshots are recorded at ``burn_in, burn_in + record_every, ...``
    up to ``t_end``; all three must be multiples of ``dt``.  The plan holds
    no part of the law: ``run_absolute`` takes deterministic labor itself.
    """

    dt: float
    t_end: float
    burn_in: float = 0.0
    record_every: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not 0.0 <= self.burn_in < self.t_end:
            raise ConfigError(
                f"need 0 <= burn_in < t_end, got burn_in={self.burn_in} t_end={self.t_end}")
        if not self.record_every > 0.0:
            raise ConfigError(f"record_every must be positive, got {self.record_every}")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        for name in ("t_end", "burn_in", "record_every"):
            steps = getattr(self, name) / self.dt
            if abs(steps - round(steps)) > 1e-9 * max(1.0, abs(steps)):
                raise ConfigError(f"{name}={getattr(self, name)} is not a multiple of dt={self.dt}")

    def step_counts(self) -> tuple[int, int, int]:
        return (int(round(self.t_end / self.dt)),
                int(round(self.burn_in / self.dt)),
                max(1, int(round(self.record_every / self.dt))))


_CSV_BLOCK = 2048        # panel.csv rows formatted per write
CSV_MIN_ROWS = 100_000   # fewest panel.csv rows that pay for one more writer process
_CSV_COPY = 1 << 18      # bytes per read when a helper's rows are appended


@dataclass(frozen=True)
class WealthPanel:
    """Recorded snapshots of a run.

    times      (n_snapshots,) recording times
    snapshots  (n_snapshots, n_households) wealth levels
    counters   what the run did: steps taken, the number of forked noise
               workers (0 when the noise was made inline) and, for
               absolute runs, the largest stability-guard value
               s*(1-tau_k)*return*dt
    """

    times: np.ndarray
    snapshots: np.ndarray
    counters: dict = field(default_factory=dict)

    def mean_path(self) -> np.ndarray:
        return self.snapshots.mean(axis=1)

    def pooled(self) -> np.ndarray:
        return self.snapshots.ravel()

    def final(self) -> np.ndarray:
        return self.snapshots[-1]

    def to_csv(self, path, threads: int | None = None) -> int:
        """Long-form CSV ``t,household_id,wealth`` at full precision;
        returns the number of writer processes.

        Contiguous snapshot ranges go to ``_process_cap(threads, snapshots,
        rows // CSV_MIN_ROWS)`` writers, or one: this process writes the
        header and the first, forked helpers the others into unlinked
        files, appended in order once each has exited 0.  The bytes do not
        depend on the count.  Any error kills and reaps every helper; a
        failed one raises ``WealthsimError`` naming its range.
        """
        n = len(self.times)
        writers = max(1, _process_cap(threads, n, self.snapshots.size // max(1, CSV_MIN_ROWS))
                      if hasattr(os, "fork") else 1)
        cuts = [n * w // writers for w in range(writers + 1)]
        helpers = []  # [pid (0 once reaped), rows fd, message fd, lo, hi]
        with open(path, "w") as fh:
            fh.write("t,household_id,wealth\n")
            fh.flush()  # a helper must not inherit unwritten text
            try:
                for lo, hi in zip(cuts[1:-1], cuts[2:]):
                    helpers.append([0, -1, -1, lo, hi])
                    self._fork_writer(helpers[-1], path)
                self._write_rows(fh, 0, cuts[1])
                fh.flush()
                for helper in helpers:
                    pid, rows, message, lo, hi = helper
                    status = os.waitpid(pid, 0)[1]
                    helper[0] = 0
                    if status:
                        why = " ".join(os.read(message, 4096).decode(errors="replace").split()) \
                            or f"exit status {os.waitstatus_to_exitcode(status)}"
                        raise WealthsimError(
                            f"panel.csv writer failed on snapshots {lo}-{hi - 1}: {why}")
                    _append(fh.fileno(), rows)
            finally:
                for pid, *fds, _, _ in helpers:
                    if pid:
                        os.kill(pid, signal.SIGKILL)
                        os.waitpid(pid, 0)
                    for fd in fds:
                        if fd >= 0:
                            os.close(fd)
        return writers

    def _write_rows(self, fh, lo, hi):
        # a bounded block of rows per write keeps the formatted text
        # small whatever the number of households; the time prefix is
        # formatted once per snapshot and one % formats a whole block
        for t, snap in zip(self.times[lo:hi].tolist(), self.snapshots[lo:hi]):
            row = "%.17g" % t + ",%d,%.17g\n"
            for first in range(0, snap.size, _CSV_BLOCK):
                block = snap[first:first + _CSV_BLOCK].tolist()
                fields = [None] * (2 * len(block))
                fields[::2] = range(first, first + len(block))
                fields[1::2] = block
                fh.write(row * len(block) % tuple(fields))

    def _fork_writer(self, helper, path):
        # the helper's file is unlinked before the fork, so no exit leaves
        # it behind; a failure is one line on the message pipe and exit 1
        lo, hi = helper[3:]
        name = f"{path}.{os.getpid()}.{lo}.part"
        helper[1] = os.open(name, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o600)
        os.unlink(name)
        helper[2], report = os.pipe()
        try:
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    with open(helper[1], "w", closefd=False) as part:
                        self._write_rows(part, lo, hi)
                    code = 0
                except Exception as exc:
                    os.write(report, f"{type(exc).__name__}: {exc}".encode())
                finally:
                    os._exit(code)
            helper[0] = pid
        finally:
            os.close(report)


def _append(dst, src):
    size, done = os.fstat(src).st_size, 0
    while done < size:
        done += os.write(dst, os.pread(src, min(_CSV_COPY, size - done), done))


_KEY = np.zeros(2, dtype=np.uint64)
_COUNTER = np.zeros(4, dtype=np.uint64)
_STREAM_STATE = {"bit_generator": "Philox", "state": {"counter": _COUNTER, "key": _KEY},
                 "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0}
_GENERATOR = np.random.Generator(np.random.Philox(key=0))


def _stream(seed: int, step: int) -> np.random.Generator:
    """The Philox stream of ``(seed, step)``, valid until the next call.

    One Philox block of 2**192 draws per step index, so streams never
    overlap.  A single generator is reset to the stream's key and counter
    with empty buffers, which draws exactly what a freshly built
    ``Philox(key=seed, counter=[0, 0, 0, step])`` would, without the
    cost of building one.  The generator is shared by the whole process,
    so no caller may hold two streams at once or draw from two threads;
    a forked noise worker owns its own copy.
    """
    _KEY[0] = seed
    _COUNTER[3] = step
    _GENERATOR.bit_generator.state = _STREAM_STATE
    return _GENERATOR


def sample_firm_shocks(n_firms: int | tuple[int, int], params: EconomyParams, dt: float,
                       rng: np.random.Generator) -> np.ndarray:
    """Realized production per unit input for each firm over one step.

    Mean ``a * dt``, variance ``a**2 * delta * dt``, independent across
    firms and steps.  With ``delta = 0`` the draw is exactly the mean.
    ``n_firms`` may also be a shape ``(K, F)`` for K draws at once.
    """
    if dt <= 0.0:
        raise DomainError(f"dt must be positive, got {dt}")
    mean = params.a * dt
    if params.delta == 0.0:
        return np.full(n_firms, mean)
    draws = rng.standard_normal(n_firms)
    draws *= params.a * math.sqrt(params.delta * dt)
    draws += mean
    return draws


def _flow_rows(net, shocks, labor, rows):
    """Write the firm flows of a block of draws ``shocks`` (K, F) into ``rows``.

    Row k is draw k's invest flows ``invest @ shocks[k]`` and, with
    ``labor``, its labor flows and their total over households:
    ``[invest | labor | labor total]``, 2N + 1 wide, or N wide without
    labor.  On a side in the measured ``net.full_sides`` every household
    sees the firm mean, which costs O(F) instead of O(N*F); the sparse
    sides take one product, over the stacked rows ``net.flow_rows`` when
    both are sparse: ``csr_matvec`` straight into the row for a single
    draw, ``csr_matvecs`` over a C-contiguous (F, K) copy of a block, the
    kernels and summation order of ``csr_matrix @ x``.  Row k depends only
    on draw k, not on the block it is in.
    """
    n, k = net.n_households, len(shocks)
    sides = ("invest", "labor") if labor else ("invest",)
    sparse = [side for side in sides if side not in net.full_sides]
    for i, side in enumerate(sides):
        if side in net.full_sides:
            rows[:, i * n:(i + 1) * n] = shocks.mean(axis=1)[:, None]
    if sparse:
        m = net.flow_rows if len(sparse) == 2 else getattr(net, sparse[0])
        (height, width), first = m.shape, n * sides.index(sparse[0])
        if k == 1:
            # the kernel adds to its output, which starts at zero as scipy's does
            out = rows[0, first:first + height]
            out[:] = 0.0
            _csr_kernels().csr_matvec(height, width, m.indptr, m.indices, m.data,
                                      shocks[0], out)
        else:
            out = np.zeros((height, k))
            _csr_kernels().csr_matvecs(height, width, k, m.indptr, m.indices, m.data,
                                       shocks.T.ravel(), out.ravel())
            rows[:, first:first + height] = out.T
    if labor:
        rows[:, 2 * n] = rows[:, n:2 * n].sum(axis=1)


def _firm_shock_increment(p, params, state, rows, dt):
    """One-step wealth change given the firm flows of realized shocks.

    Factor payments scale with the realized shock of each firm a
    household is exposed to; taxes apply to realized incomes and the
    proceeds return as an equal per-household transfer.  ``state`` holds
    the prices cleared at the current mean wealth.  ``rows`` are the
    flow rows (see ``_flow_rows``) of one draw ``(W,)`` or of a block of
    draws ``(K, W)`` at the same state; rows N wide pay wages at the mean
    firm flow ``a * dt``.  The result is ``(N,)`` or ``(K, N)``.
    """
    n = p.shape[-1]
    # the shocks carry the productivity a, so prices enter per unit of a
    gslope, wage_unit = state.capital_return / params.a, state.wage / params.a
    if rows.shape[-1] == n:
        cap, lab = rows, params.a * dt
        lab_total = n * lab
    else:
        cap, lab, lab_total = rows[..., :n], rows[..., n:2 * n], rows.T[2 * n]
    capital = cap @ p
    if rows.ndim == 1:
        # Python floats, same bits, without a ufunc call per 0-d array
        capital, lab_total = float(capital), float(lab_total)
    # taxed capital income sums to p @ (invest @ shocks), taxed wages to
    # the labor-weighted firm shocks; the pool is shared equally
    pool = params.tau_k * gslope * capital + params.tau_l * wage_unit * lab_total
    transfer = params.s / n * pool - params.chi * dt
    # s*((1-tau_k)*gslope*p*cap + (1-tau_l)*wage_unit*lab + pool/n) - (chi + nu*p)*dt,
    # regrouped as p*(c1*cap - nu*dt) + c2*lab + (s*pool/n - chi*dt)
    out = cap * (params.s * (1.0 - params.tau_k) * gslope)
    out -= params.nu * dt
    out *= p
    out += lab * (params.s * (1.0 - params.tau_l) * wage_unit)
    out += transfer if rows.ndim == 1 else transfer[:, None]
    return out


def _frozen_state(params, net, pf, wealth):
    """Wealth as an array and the prices cleared at its mean."""
    p = np.asarray(wealth, dtype=float)
    if p.shape != (net.n_households,):
        raise DomainError(f"wealth vector must have length {net.n_households}")
    lam = p.mean()
    if not lam > 0.0:
        raise PriceUndefinedError(f"mean wealth {lam} is not positive")
    return p, clear(params, pf, lam)


def step_absolute(state, params: EconomyParams, net: AllocationNetwork,
                  pf: ProductionFunction, shocks, dt: float,
                  labor_deterministic: bool = False) -> np.ndarray:
    """Advance absolute wealth by one step under given firm shocks.

    ``shocks=None`` applies the mean flow ``a * dt`` at every firm.
    """
    p, prices = _frozen_state(params, net, pf, state)
    shocks = np.full(net.n_firms, params.a * dt) if shocks is None \
        else np.asarray(shocks, dtype=float)
    if shocks.shape != (net.n_firms,):
        raise DomainError(f"shock vector must have length {net.n_firms}")
    n, labor = net.n_households, not labor_deterministic
    rows = np.empty((1, 2 * n + 1 if labor else n))
    _flow_rows(net, shocks[None], labor, rows)
    return p + _firm_shock_increment(p, params, prices, rows[0], dt)


def analytic_noise_covariance(params: EconomyParams, net: AllocationNetwork,
                              pf: ProductionFunction, wealth,
                              labor_deterministic: bool = False) -> np.ndarray:
    """Per-unit-time covariance of the wealth noise at a frozen state.

    A shock to firm j moves household i's wealth by ``s/a`` times
    ``load[i, j]``: its after-tax capital income ``(1-tau_k)*rho*p_i*invest_ij``
    and wage ``(1-tau_l)*omega*labor_ij`` from the firm, plus an equal share
    ``(tau_k*rho*K_j + tau_l*omega*L_j)/N`` of the taxes on the firm's
    payouts.  Firm shocks are independent with variance ``a**2 * delta``
    per unit time, so the covariance is ``delta * s**2 * load @ load.T``.
    With deterministic labor income both wage terms drop out.  The
    increment is linear in the Gaussian firm shocks, so at a frozen state
    it is exactly Gaussian with this covariance times dt;
    ``empirical_noise_covariance`` samples it through the stepping kernel.
    """
    p, state = _frozen_state(params, net, pf, wealth)
    rho, omega = state.capital_return, state.wage
    load = ((1.0 - params.tau_k) * rho * p)[:, None] * net.invest.toarray()
    transfer = params.tau_k * rho * net.firm_capital(p)
    if not labor_deterministic:
        load += (1.0 - params.tau_l) * omega * net.labor.toarray()
        transfer += params.tau_l * omega * net.firm_labor()
    load += transfer / net.n_households
    return params.delta * params.s ** 2 * (load @ load.T)


_COV_BYTES = 1 << 19  # shocks and increments per covariance sub-block, besides its flow rows


def empirical_noise_covariance(params: EconomyParams, net: AllocationNetwork,
                               pf: ProductionFunction, wealth, n_samples: int,
                               dt: float = 0.01, seed: int = 0,
                               labor_deterministic: bool = False):
    """Sampled covariance of one-step increments at a frozen wealth state.

    Draws ``n_samples`` independent shock vectors, forms the one-step
    increments without ever moving the state, and returns the increment
    covariance divided by dt next to its analytic counterpart.  Sample
    i comes from the stream ``(seed, i // chunk)``, a chunk being about
    2**22 normals.  Each stream is drawn and stepped in sub-blocks of
    about ``_COV_BYTES`` whose means and centred co-moments are merged
    into running ones (Chan, Golub & LeVeque 1983), so memory does not
    grow with ``n_samples``.
    """
    if n_samples < 2:
        raise DomainError("need at least two samples for a covariance")
    p, state = _frozen_state(params, net, pf, wealth)
    n, f, labor = net.n_households, net.n_firms, not labor_deterministic

    chunk = max(1, (1 << 22) // max(f, 1))
    rows = max(1, _COV_BYTES // (8 * (f + n)))
    flows = np.empty((rows, 2 * n + 1 if labor else n))
    mean, comoment = np.zeros(n), np.zeros((n, n))
    for block, start in enumerate(range(0, n_samples, chunk)):
        rng, stop = _stream(seed, block), min(start + chunk, n_samples)
        for lo in range(start, stop, rows):
            k = min(rows, stop - lo)
            shocks = sample_firm_shocks((k, f), params, dt, rng)
            _flow_rows(net, shocks, labor, flows[:k])
            inc = _firm_shock_increment(p, params, state, flows[:k], dt)
            # merge the sub-block's mean and centred co-moment into those
            # of the lo samples before it
            block_mean = inc.mean(axis=0)
            inc -= block_mean
            shift = block_mean - mean
            comoment += inc.T @ inc
            comoment += np.outer(shift, shift * (lo * k / (lo + k)))
            mean += shift * (k / (lo + k))

    empirical = comoment / (n_samples - 1) / dt
    analytic = analytic_noise_covariance(params, net, pf, p,
                                         labor_deterministic=labor_deterministic)
    return empirical, analytic


FORK_MIN_DRAWS = 2 ** 24  # runs drawing fewer normals make their noise inline
DEFAULT_THREADS = 2       # the one worker count measured (on 2 cores) to pay for itself
_SLOT_BYTES = 3 << 18     # noise per slot; a worker's two slots are its lead on the update
RELATIVE_BLOCK = 64       # most steps a relative run composes into one row; 16-256 ran alike


def _usable_cores() -> int:
    """CPUs this process may run on: its affinity, capped by a cgroup v2
    CPU quota, which the affinity does not show."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    try:
        with open("/sys/fs/cgroup/cpu.max") as fh:
            quota, period = fh.read().split()
        return max(1, min(cores, int(quota) // int(period)))
    except (OSError, ValueError):  # no cgroup v2 file, or "max": no quota
        return cores


def _process_cap(threads, *limits) -> int:
    """How many processes (noise workers, panel.csv writers) to use:
    ``min(threads, _usable_cores(), *limits)``, None: ``DEFAULT_THREADS``."""
    if threads is None:
        threads = DEFAULT_THREADS
    if threads < 1:
        raise ConfigError(f"thread count must be positive, got {threads}")
    return min(threads, _usable_cores(), *limits)


def _noise(ends, normals, width, make, threads, size=None):
    """Plan the noise of the step ranges ending at ``ends``: (workers, rows).

    ``make(lo, hi, rows)`` fills ``rows`` with the ``width``-value rows of
    steps ``lo..hi-1`` from each step's ``normals`` normals alone: one
    row per step, or one for the whole range when a slot holds one range
    (``size`` 1).  ``rows`` yields one row per range, each valid until
    the next is asked for; close it when done.  A run that draws at least
    ``FORK_MIN_DRAWS`` normals forks ``_process_cap(threads)`` workers,
    at most one per slot of ``size`` ranges (None: one-step rows filling
    about ``_SLOT_BYTES``).
    One worker would gain nothing, so then, and below the threshold,
    ``workers`` is 0 and each range is made inline before its update.
    """
    if size is None:
        size = max(1, _SLOT_BYTES // (8 * width))
    n_blocks = -(-len(ends) // size)
    workers = _process_cap(threads, n_blocks)
    if workers < 2 or ends[-1] * normals < FORK_MIN_DRAWS or not hasattr(os, "fork"):
        return 0, _inline_rows(ends, width, make)

    def block(b):
        # (first step, one past its last step, ranges) of the b-th slot's
        # fill, computed when asked: a list of them costs 125 KB on the flagship
        j = b * size
        k = min(size, len(ends) - j)
        return ends[j - 1] + 1 if j else 1, ends[j + k - 1] + 1, k

    return workers, _forked_rows(block, n_blocks, size, width, make, workers)


def _inline_rows(ends, width, make, lo=1):
    row = np.empty((1, width))
    for hi in ends:
        make(lo, hi + 1, row)
        yield row[0]
        lo = hi + 1


def _forked_rows(block, n_blocks, size, width, make, workers):
    # two slots per worker in one shared anonymous mapping: worker w
    # makes blocks w, w + workers, ... and alternates between its slots;
    # one-byte tokens on a pipe each way say a slot is free or filled
    ring = mmap.mmap(-1, 2 * workers * size * width * 8)
    slots = np.ndarray((2 * workers, size, width), buffer=ring)
    pids, frees, readies = [], [], []
    try:
        for w in range(workers):
            free_r, free_w = os.pipe()
            ready_r, ready_w = os.pipe()
            frees.append(free_w)
            readies.append(ready_r)
            pid = os.fork()
            if pid == 0:
                for fd in frees + readies:
                    os.close(fd)
                _noise_worker(map(block, range(w, n_blocks, workers)), slots[2 * w:2 * w + 2],
                              make, free_r, ready_w)
            pids.append(pid)
            os.close(free_r)
            os.close(ready_w)
            os.write(free_w, b"\0\0")  # both slots are free
        for b in range(n_blocks):
            lo, hi, count = block(b)
            w, j = b % workers, b // workers
            if not os.read(readies[w], 1):
                raise WealthsimError(
                    f"noise worker {w} exited before making steps {lo}-{hi - 1}")
            yield from slots[2 * w + j % 2, :count]
            if b + 2 * workers < n_blocks:
                try:
                    os.write(frees[w], b"\0")
                except BrokenPipeError:
                    pass  # the worker died; reading its next block says so
    finally:
        for fd in frees + readies:
            os.close(fd)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _noise_worker(blocks, slots, make, free_r, ready_w):
    """Body of a forked noise worker: make ``blocks`` (first step, end,
    ranges) in turn straight into the two ``slots``, each once the
    parent sends a token that it is free, and exit.  End of file on the
    token pipe, or a closed ready pipe, means the parent is gone or
    stopping: the worker exits quietly.  Only a failure to make a block
    is reported."""
    code = 1
    try:
        for j, (lo, hi, count) in enumerate(blocks):
            if not os.read(free_r, 1):
                break
            make(lo, hi, slots[j % 2, :count])
            try:
                os.write(ready_w, b"\0")
            except BrokenPipeError:
                break
        code = 0
    except Exception:
        os.write(2, ("wealthsim noise worker failed:\n" + traceback.format_exc()).encode())
    finally:
        os._exit(code)


def _record(config: SimulationConfig, state: np.ndarray, advance, make, normals, width,
            threads, block=1) -> WealthPanel:
    """Step ``state`` through ``advance(state, step, mean, row)`` and keep
    the snapshots.

    ``row`` is the noise of the steps up to ``step``, in ranges that end
    every ``block`` steps, at every recorded step and at the last:
    ``width`` values that ``make`` fills from ``normals`` normals a step,
    planned by ``_noise`` for ``threads`` workers.  ``mean`` is the mean
    of the state handed in, the one reduction per row.  It doubles as the
    finiteness check: a finite mean means every entry is finite, so only
    a non-finite mean costs a scan, and a state with a non-finite entry
    raises NonFiniteError carrying the step index, found by stepping a
    longer range again one step at a time.
    The state is recorded at t=0 when there is no burn-in, then every
    ``record_every`` from ``burn_in`` on, straight into the panel's one
    preallocated array.  Returns the panel, counting the steps and the
    noise workers.
    """
    steps_total, burn_steps, rec_steps = config.step_counts()
    # the steps burn_steps, burn_steps + rec_steps, ... up to steps_total,
    # step 0 being the state handed in
    recorded = np.arange(burn_steps, steps_total + 1, rec_steps)
    snaps = np.empty((recorded.size, state.size))
    if burn_steps == 0:
        snaps[0] = state
    ends = range(1, steps_total + 1) if block == 1 else sorted(
        {*range(block, steps_total, block), *recorded.tolist(), steps_total} - {0})
    workers, noise = _noise(ends, normals, width, make, threads, None if block == 1 else 1)
    try:
        # sum / size is exactly what ndarray.mean computes, without its overhead
        mean = state.sum() / state.size
        lo = 1
        for hi in ends:
            new = advance(state, hi, mean, next(noise))
            mean = new.sum() / new.size
            if not math.isfinite(mean) and not np.all(np.isfinite(new)):
                # step the range again one step at a time for the exact step
                steps = range(lo, hi + 1)
                for step, row in zip(steps, _inline_rows(steps, width, make, lo)):
                    state = advance(state, step, state.sum() / state.size, row)
                    if not np.all(np.isfinite(state)):
                        break
                raise NonFiniteError(f"state stopped being finite at step {step}", step=step)
            state = new
            if hi >= burn_steps and (hi - burn_steps) % rec_steps == 0:
                snaps[(hi - burn_steps) // rec_steps] = state
            lo = hi + 1
    finally:
        noise.close()
    return WealthPanel(times=recorded * config.dt, snapshots=snaps,
                       counters={"steps": steps_total, "noise_workers": workers})


def _flow_maker(params, net, dt, seed, labor):
    """``make`` and row width of an absolute run's noise (see ``_noise``).

    A step's row is the flow row (see ``_flow_rows``) of its own draw
    from its own stream.  A block of K steps is drawn into a (K, F)
    buffer, made once per process and reused, and its rows are written
    in one call.
    """
    f = net.n_firms
    draws = np.empty((0, f))

    def make(lo, hi, rows):
        nonlocal draws
        if len(draws) < hi - lo:
            draws = np.empty((hi - lo, f))
        for j, step in enumerate(range(lo, hi)):
            draws[j] = sample_firm_shocks(f, params, dt, _stream(seed, step))
        _flow_rows(net, draws[:hi - lo], labor, rows)

    return make, 2 * net.n_households + 1 if labor else net.n_households


def run_absolute(config: SimulationConfig, params: EconomyParams,
                 net: AllocationNetwork, pf: ProductionFunction,
                 initial, threads: int | None = None,
                 labor_deterministic: bool = False) -> WealthPanel:
    """Simulate absolute wealth for every household.

    Prices are recomputed from current mean wealth each step, and with
    ``labor_deterministic`` wages are paid at the mean firm flow.  The run
    aborts if mean wealth turns non-positive or any state stops being
    finite; both errors carry the offending step index.  The stability
    guard ``s*(1-tau_k)*return*dt < 0.1`` is enforced at t=0; its
    largest value over the run is kept in ``counters["dt_guard_max"]``.
    The firm draws and their flows are made ahead of the update, by up
    to ``threads`` forked workers on long runs (see ``_noise``); the
    panel does not depend on how many.
    """
    p, prices = _frozen_state(params, net, pf, np.array(initial, dtype=float))
    saved = params.s * (1.0 - params.tau_k)
    dt_guard_max = saved * prices.capital_return * config.dt
    if dt_guard_max >= 0.1:
        raise ConfigError(
            f"dt={config.dt} too coarse: s*(1-tau_k)*return*dt = {dt_guard_max:.3g} >= 0.1")
    make, width = _flow_maker(params, net, config.dt, config.seed, not labor_deterministic)

    def advance(p, step, lam, row):
        nonlocal dt_guard_max
        if not lam > 0.0:
            raise PriceUndefinedError(
                f"mean wealth {lam} became non-positive at step {step}", step=step)
        state = clear(params, pf, lam)
        dt_guard_max = max(dt_guard_max, saved * state.capital_return * config.dt)
        inc = _firm_shock_increment(p, params, state, row, config.dt)
        inc += p
        return inc

    panel = _record(config, p, advance, make, net.n_firms, width, threads)
    panel.counters["dt_guard_max"] = dt_guard_max
    return panel


def run_relative_growth(config: SimulationConfig, params: EconomyParams,
                        invest_overlap_mean: float, capital_return: float,
                        initial, threads: int | None = None) -> WealthPanel:
    """Simulate wealth relative to the growing mean along a growth path.

    Relative wealth reverts to 1 at the drift slope of the growth
    coefficients (``analytics._growth_coeffs``, which refuse tau_k = 0)
    and carries multiplicative noise whose variance rate is their
    ``var_quad``.  Each step is a Strang splitting whose parts are
    solved exactly: half a step of relaxation
    ``1 + (u-1)*exp(-revert*dt/2)``, the geometric step
    ``u*exp(sigma*dW - sigma**2*dt/2)``, then the other half step of
    relaxation, with one normal per household from the (seed, step)
    stream.  Relative wealth stays positive and its mean is kept in
    expectation for any dt.  A step is affine in u, so each block of at
    most ``RELATIVE_BLOCK`` steps, cut at every recorded step, composes
    into one map per household, made ahead of the update by up to
    ``threads`` forked workers on long runs (see ``_noise``); the panel
    does not depend on how many.
    """
    coeffs = _growth_coeffs(params, capital_return, invest_overlap_mean)
    u = np.array(initial, dtype=float)
    if not np.all(u > 0.0):
        raise DomainError("initial relative wealth must be positive and finite")
    if abs(u.mean() - 1.0) > 1e-8:
        raise DomainError(f"initial relative wealth must average 1, got {u.mean()!r}")

    revert = coeffs.drift_slope
    sigma = math.sqrt(coeffs.var_quad)
    if revert * config.dt >= 0.5 or sigma * sigma * config.dt >= 1.0:
        raise ConfigError("dt too coarse for the reversion or noise scale")
    # with d = exp(-revert*dt/2), a step u -> 1 + ((1 + (u-1)*d)*factor - 1)*d
    # is u + c -> g*(u + c) + kappa, c = (1-d)/d, kappa = (1-d*d)/d and
    # g = factor*d*d = exp(sigma*sqrt(dt)*normal - sigma**2*dt/2 - revert*dt);
    # a block composes to u -> gain*(u + c) + (offset - c), its row [gain | offset - c]
    half = 0.5 * revert * config.dt
    c, kappa = math.expm1(half), 2.0 * math.sinh(half)  # without 1 - d's cancellation
    scale, shift = sigma * math.sqrt(config.dt), -(0.5 * sigma * sigma + revert) * config.dt
    n = u.shape[0]

    def make(lo, hi, rows):
        gain, offset = rows[0, :n], rows[0, n:]
        for step in range(lo, hi):
            g = _stream(config.seed, step).standard_normal(n)
            g *= scale
            g += shift
            np.exp(g, out=g)
            if step == lo:  # no 0 * g: an infinite g stays inf, never nan
                gain[:] = g
                offset.fill(kappa)
            else:
                gain *= g
                offset *= g
                offset += kappa
        offset -= c

    def advance(u, _step, _mean, row):
        v = u + c
        v *= row[:n]
        v += row[n:]
        return v

    return _record(config, u, advance, make, n, 2 * n, threads, RELATIVE_BLOCK)
