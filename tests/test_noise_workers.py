"""Forked noise workers: same panels for any worker count, no process
outlives a run, and a worker that dies is reported."""

import configparser
import dataclasses
import io
import json
import os
import signal
from pathlib import Path

import numpy as np
import pytest

from wealthsim import CobbDouglas, EconomyParams, build_regular, load_config, run_scenario
from wealthsim import simulate
from wealthsim.cli import main
from wealthsim.errors import ConfigError, NonFiniteError, PriceUndefinedError, WealthsimError
from wealthsim.simulate import (
    SimulationConfig,
    _noise,
    _stream,
    run_absolute,
    run_relative_growth,
    sample_firm_shocks,
    step_absolute,
)

from conftest import P_BAR_STAR, RHO_INF, SHORT_RUNS

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture
def always_fork(monkeypatch):
    """Fork for any run, in blocks of a few steps, with up to eight usable
    cores; a test that hangs on a worker fails after a minute."""
    monkeypatch.setattr(simulate, "FORK_MIN_DRAWS", 0)
    monkeypatch.setattr(simulate, "_SLOT_BYTES", 256)
    monkeypatch.setattr(simulate, "_usable_cores", lambda: 8)

    def hung(signum, frame):
        raise TimeoutError("a noise worker test ran for a minute")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _short_config(tmp_path, name):
    """Path of the shortened copy of a shipped config."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(CONFIG_DIR / f"{name}.ini")
    parser["simulation"].update(SHORT_RUNS[name])
    path = tmp_path / f"{name}.ini"
    with open(path, "w") as fh:
        parser.write(fh)
    return str(path)


@pytest.mark.parametrize("name", sorted(SHORT_RUNS))
def test_scenario_panels_do_not_depend_on_workers(tmp_path, always_fork, name):
    cfg = load_config(_short_config(tmp_path, name))
    panels, summaries = {}, {}
    for threads in (1, 2, 3):
        out = tmp_path / f"t{threads}"
        summary = run_scenario(cfg, out_dir=str(out), threads=threads)
        _assert_no_children()
        panels[threads] = (out / "panel.csv").read_bytes()
        summaries[threads] = json.loads((out / "summary.json").read_text())
    for threads, summary in summaries.items():
        counters = summary.pop("counters")
        assert counters["noise_workers"] == (0 if threads == 1 else threads)
        assert counters["steps"] == cfg.simulation.step_counts()[0]
    # the counters are the only thing the worker count changes
    assert panels[1] == panels[2] == panels[3]
    assert summaries[1] == summaries[2] == summaries[3]


def _flow_setup(invest_spread, labor_spread):
    params = EconomyParams(s=0.2, tau_k=0.2, tau_l=0.1, chi=0.0, nu=0.05, a=1.0, delta=1.0)
    return params, build_regular(24, 12, invest_spread, labor_spread, seed=4), CobbDouglas(0.3)


@pytest.mark.parametrize("spreads", [(2, 3), (12, 3), (2, 12), (12, 12)],
                         ids=["stacked", "invest_over_all", "labor_over_all", "both_over_all"])
@pytest.mark.parametrize("labor_deterministic", [False, True],
                         ids=["noisy_labor", "fixed_labor"])
def test_run_steps_as_step_absolute_does(always_fork, spreads, labor_deterministic):
    # every branch _flow_rows takes, on draws made inline and by workers,
    # against the one-step kernel applied by hand with each step's stream
    params, net, pf = _flow_setup(*spreads)
    cfg = SimulationConfig(dt=0.5, t_end=20.0, record_every=0.5, seed=3)
    wealth = P_BAR_STAR * (1.0 + 0.3 * _stream(8, 0).uniform(-1.0, 1.0, 24))
    panels = {threads: run_absolute(cfg, params, net, pf, wealth, threads=threads,
                                    labor_deterministic=labor_deterministic)
              for threads in (1, 2)}
    _assert_no_children()
    assert panels[1].counters["noise_workers"] == 0
    assert panels[2].counters["noise_workers"] == 2
    np.testing.assert_array_equal(panels[1].snapshots, panels[2].snapshots)
    p = wealth
    for step in range(1, 41):
        shocks = sample_firm_shocks(12, params, cfg.dt, _stream(cfg.seed, step))
        p = step_absolute(p, params, net, pf, shocks, cfg.dt, labor_deterministic)
        np.testing.assert_array_equal(panels[2].snapshots[step], p)


def _rows_in_blocks(make, width, steps, size):
    rows = np.empty((steps, width))
    for lo in range(1, steps + 1, size):
        hi = min(lo + size, steps + 1)
        make(lo, hi, rows[lo - 1:hi - 1])
    return rows


@pytest.mark.parametrize("name", ["incomplete_markets", "labor_only", "complete_markets",
                                  "staggered_wages"],
                         ids=["both_sparse", "full_invest", "both_full", "fixed_labor"])
def test_flow_rows_do_not_depend_on_block_size(name):
    # a worker makes a slot's worth of steps at once, the inline path one;
    # the rows, and so the panel, must not depend on which
    cfg = load_config(CONFIG_DIR / f"{name}.ini")
    net = cfg.build_network()
    fixed = cfg.scenario.fixed_wages
    assert fixed == (name == "staggered_wages")
    assert net.full_sides == {"labor_only": {"invest"},
                              "complete_markets": {"invest", "labor"}}.get(name, frozenset())
    sim = cfg.simulation
    make, width = simulate._flow_maker(cfg.economy, net, sim.dt, sim.seed, not fixed)
    assert width == (net.n_households if fixed else 2 * net.n_households + 1)
    one = _rows_in_blocks(make, width, 40, 1)
    for size in (7, 24, 40):
        np.testing.assert_array_equal(_rows_in_blocks(make, width, 40, size), one)
    fresh, _ = simulate._flow_maker(cfg.economy, net, sim.dt, sim.seed, not fixed)
    np.testing.assert_array_equal(_rows_in_blocks(fresh, width, 40, 24), one)


def _ring_sizes(monkeypatch):
    """Lengths of the anonymous mappings made from now on."""
    sizes, real = [], simulate.mmap.mmap

    def recording(fileno, length, *args, **kwargs):
        sizes.append(length)
        return real(fileno, length, *args, **kwargs)

    monkeypatch.setattr(simulate.mmap, "mmap", recording)
    return sizes


def test_ring_slot_holds_one_relative_block_or_a_slot_of_absolute_steps(monkeypatch):
    monkeypatch.setattr(simulate, "FORK_MIN_DRAWS", 0)
    monkeypatch.setattr(simulate, "_usable_cores", lambda: 2)
    sizes = _ring_sizes(monkeypatch)
    # a relative row is [gain | offset], 2N wide, and fills a slot alone
    params = EconomyParams(s=0.2, tau_k=0.2, chi=0.0, nu=0.01, a=1.0, delta=10.0)
    cfg = SimulationConfig(dt=0.25, t_end=100.0, record_every=50.0, seed=4)
    forked = run_relative_growth(cfg, params, 1.0, RHO_INF, np.ones(300), threads=2)
    _assert_no_children()
    assert forked.counters["noise_workers"] == 2
    assert sizes == [2 * 2 * (2 * 300) * 8]
    inline = run_relative_growth(cfg, params, 1.0, RHO_INF, np.ones(300), threads=1)
    np.testing.assert_array_equal(forked.snapshots, inline.snapshots)
    # the flagship's absolute rows, 2N + 1 = 4001 wide, go 24 to a slot
    sizes.clear()
    flagship = load_config(CONFIG_DIR / "incomplete_markets.ini")
    sim = flagship.simulation
    net = flagship.build_network()
    make, width = simulate._flow_maker(flagship.economy, net, sim.dt, sim.seed, True)
    workers, rows = _noise(range(1, 101), net.n_firms, width, make, 2)
    next(rows)
    rows.close()
    _assert_no_children()
    assert (workers, width) == (2, 4001)
    assert sizes == [2 * 2 * 24 * 4001 * 8]


def test_fork_rule_counts_normals_not_row_width(monkeypatch):
    # rows of 2N + 1 = 49 values from F = 12 normals: the threshold is
    # crossed by steps * F, whatever the width of the rows
    monkeypatch.setattr(simulate, "_usable_cores", lambda: 2)
    monkeypatch.setattr(simulate, "_SLOT_BYTES", 256)
    monkeypatch.setattr(simulate, "FORK_MIN_DRAWS", 1000)
    params, net, pf = _flow_setup(2, 3)
    assert 2 * net.n_households + 1 > net.n_firms == 12

    def workers(steps):
        cfg = SimulationConfig(dt=0.5, t_end=0.5 * steps, record_every=0.5, seed=3)
        panel = run_absolute(cfg, params, net, pf, np.full(24, P_BAR_STAR))
        _assert_no_children()
        return panel.counters["noise_workers"]

    assert workers(83) == 0   # 996 normals
    assert workers(84) == 2   # 1008 normals


def test_price_error_reaps_every_worker(always_fork):
    params, net, pf = _flow_setup(2, 3)
    cfg = SimulationConfig(dt=0.5, t_end=200.0, record_every=1.0)
    with pytest.raises(PriceUndefinedError) as err:
        run_absolute(cfg, dataclasses.replace(params, chi=5.0), net, pf, np.full(24, 1.0),
                     threads=3)
    assert err.value.step == 2
    _assert_no_children()


def test_non_finite_error_reaps_every_worker(always_fork, monkeypatch):
    stream = simulate._stream

    class Poisoned:
        def standard_normal(self, size):
            return np.full(size, np.inf)

    monkeypatch.setattr(simulate, "_stream",
                        lambda seed, step: Poisoned() if step == 5 else stream(seed, step))
    params = EconomyParams(s=0.2, tau_k=0.2, chi=0.0, nu=0.01, a=1.0, delta=10.0)
    cfg = SimulationConfig(dt=0.25, t_end=100.0, record_every=1.0, seed=4)
    with pytest.raises(NonFiniteError) as err:
        run_relative_growth(cfg, params, 1.0, RHO_INF, np.ones(300), threads=2)
    assert err.value.step == 5
    _assert_no_children()


def _die_at_step(monkeypatch, bad_step):
    stream = simulate._stream

    def dying(seed, step):
        if step == bad_step:
            raise RuntimeError("worker lost")
        return stream(seed, step)

    monkeypatch.setattr(simulate, "_stream", dying)


def test_worker_that_exits_early_is_reported(always_fork, monkeypatch, capfd):
    monkeypatch.setattr(simulate, "_SLOT_BYTES", 4 * 8 * 30)
    _die_at_step(monkeypatch, 30)
    params = EconomyParams(s=0.2, tau_k=0.2, chi=0.0, nu=0.01, a=1.0, delta=10.0)
    cfg = SimulationConfig(dt=0.25, t_end=100.0, record_every=1.0, seed=4)
    # four steps of 30 households per block: step 30 is in the eighth
    with pytest.raises(WealthsimError, match="worker 1 exited before making steps 29-32"):
        run_relative_growth(cfg, params, 1.0, RHO_INF, np.ones(30), threads=2)
    _assert_no_children()
    assert "RuntimeError: worker lost" in capfd.readouterr().err


def test_cli_exits_1_when_a_worker_dies(always_fork, monkeypatch, tmp_path, capsys):
    _die_at_step(monkeypatch, 100)
    cfg = _short_config(tmp_path, "incomplete_markets")
    assert main(["simulate", "--config", cfg, "--threads", "2"]) == 1
    assert "noise worker" in capsys.readouterr().err
    _assert_no_children()


def test_worker_exits_quietly_when_the_parent_stops_reading():
    # a worker whose ready pipe has no reader (the parent is gone or
    # stopping) exits 0 without a report once it has made its block
    free_r, free_w = os.pipe()
    ready_r, ready_w = os.pipe()
    err_r, err_w = os.pipe()
    os.close(ready_r)
    os.write(free_w, b"\0")
    pid = os.fork()
    if pid == 0:
        try:
            os.dup2(err_w, 2)
            simulate._noise_worker([(0, 1, 1)], np.zeros((2, 1, 3)),
                                   lambda lo, hi, out: out.fill(1.0), free_r, ready_w)
        finally:
            os._exit(99)
    for fd in (free_r, ready_w, err_w):
        os.close(fd)
    with os.fdopen(err_r, "rb") as fh:
        err = fh.read()
    os.close(free_w)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
    assert err == b""


def test_fork_rule(monkeypatch):
    monkeypatch.setattr(simulate, "_usable_cores", lambda: 4)
    monkeypatch.setattr(simulate, "_SLOT_BYTES", 8000)  # ten steps of 100 floats
    monkeypatch.setattr(simulate, "FORK_MIN_DRAWS", 1000)

    def workers(threads, steps=1000):
        count, rows = _noise(range(1, steps + 1), 100, 100, None, threads)
        rows.close()
        return count

    assert workers(None) == simulate.DEFAULT_THREADS == 2
    assert workers(3) == 3
    assert workers(8) == 4             # never more than the usable cores
    assert workers(1) == 0             # one process: the run itself
    assert workers(4, steps=9) == 0    # too few draws to pay for a fork
    assert workers(4, steps=20) == 2   # at most one worker per block
    with pytest.raises(ConfigError):
        workers(0)


def test_usable_cores_follow_the_cpu_quota(monkeypatch):
    affinity = len(os.sched_getaffinity(0))
    real_open = open

    def quota(text):
        def fake_open(path, *args, **kwargs):
            if path == "/sys/fs/cgroup/cpu.max":
                if text is None:
                    raise FileNotFoundError(path)
                return io.StringIO(text)
            return real_open(path, *args, **kwargs)
        monkeypatch.setattr("builtins.open", fake_open)
        return simulate._usable_cores()

    assert quota(None) == affinity
    assert quota("max 100000\n") == affinity
    assert quota("50000 100000\n") == 1
    assert quota(f"{150000 * affinity} 100000\n") == affinity
    if affinity > 1:
        assert quota("150000 100000\n") == 1


@pytest.fixture
def any_writers(always_fork, monkeypatch):
    """panel.csv split over up to eight writers, however small the panel."""
    monkeypatch.setattr(simulate, "CSV_MIN_ROWS", 0)


def _panel(snapshots, households=7):
    values = _stream(6, 1).standard_normal((snapshots, households)) * 10.0 ** np.arange(households)
    return simulate.WealthPanel(times=0.1 * np.arange(snapshots), snapshots=values)


@pytest.mark.parametrize("snapshots", [1, 3, 11])
def test_panel_csv_does_not_depend_on_writers(any_writers, tmp_path, snapshots):
    panel, files = _panel(snapshots), {}
    for threads in (1, 2, 3, 4):
        path = tmp_path / f"panel{threads}.csv"
        assert panel.to_csv(path, threads) == min(threads, snapshots)
        _assert_no_children()
        files[threads] = path.read_bytes()
    assert files[1] == files[2] == files[3] == files[4]
    assert files[1].count(b"\n") == 1 + panel.snapshots.size
    assert sorted(os.listdir(tmp_path)) == [f"panel{t}.csv" for t in (1, 2, 3, 4)]


def _failing_writer(monkeypatch, bad_lo):
    write = simulate.WealthPanel._write_rows

    def failing(self, fh, lo, hi):
        if lo == bad_lo:
            raise RuntimeError("disk lost")
        write(self, fh, lo, hi)

    monkeypatch.setattr(simulate.WealthPanel, "_write_rows", failing)


def test_failing_writer_is_reported_and_leaves_nothing(any_writers, monkeypatch, tmp_path):
    _failing_writer(monkeypatch, 5)
    with pytest.raises(WealthsimError,
                       match="writer failed on snapshots 5-7: RuntimeError: disk lost"):
        _panel(11).to_csv(tmp_path / "panel.csv", 4)
    _assert_no_children()
    assert os.listdir(tmp_path) == ["panel.csv"]


def test_parent_error_reaps_every_writer(any_writers, monkeypatch, tmp_path):
    # the first range is the calling process's own: its failure kills the helpers
    _failing_writer(monkeypatch, 0)
    with pytest.raises(RuntimeError, match="disk lost"):
        _panel(11).to_csv(tmp_path / "panel.csv", 4)
    _assert_no_children()
    assert os.listdir(tmp_path) == ["panel.csv"]


def test_summary_counts_panel_writers(any_writers, tmp_path):
    cfg = load_config(_short_config(tmp_path, "staggered_wages"))
    assert run_scenario(cfg, out_dir=str(tmp_path / "csv"), threads=3)[
        "counters"]["panel_writers"] == 3
    _assert_no_children()
    assert run_scenario(cfg.with_raw("outputs", format="json"), out_dir=str(tmp_path / "json"),
                        threads=3)["counters"]["panel_writers"] == 0
    assert run_scenario(cfg, threads=3)["counters"]["panel_writers"] == 0


def test_cli_exits_1_when_a_writer_fails(any_writers, monkeypatch, tmp_path, capsys):
    _failing_writer(monkeypatch, 2)  # five snapshots: the helper writes 2-4
    cfg = _short_config(tmp_path, "staggered_wages")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--threads", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "panel.csv writer failed on snapshots" in err and "disk lost" in err
    _assert_no_children()
    assert os.listdir(out) == ["panel.csv"]
