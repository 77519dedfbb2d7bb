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


def test_fork_rule(monkeypatch):
    monkeypatch.setattr(simulate, "_usable_cores", lambda: 4)
    monkeypatch.setattr(simulate, "_SLOT_BYTES", 8000)  # ten steps of 100 floats
    monkeypatch.setattr(simulate, "FORK_MIN_DRAWS", 1000)

    def workers(threads, steps=1000):
        count, rows = _noise(steps, 100, 100, None, threads)
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
