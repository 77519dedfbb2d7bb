"""Tests of the benchmark itself: inputs, tracing and its metric names.

    python3 -m pytest benchmarks/tests -q
"""

import configparser
import json
import math
import re
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

ROOT = run.ROOT
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _make(workload, seed, directory):
    directory.mkdir()
    workloads.make_inputs(workload, seed, ROOT, directory)
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_deterministic_in_the_seed(workload, tmp_path):
    first = _make(workload, 5, tmp_path / "a")
    again = _make(workload, 5, tmp_path / "b")
    other = _make(workload, 6, tmp_path / "c")
    assert first == again
    assert first.keys() == other.keys() and first != other
    if workload == "file_network":
        assert set(first) == {workloads.CONFIG, workloads.NETWORK_FILE}


def _shorten(directory, workload):
    parser = configparser.ConfigParser()
    parser.read(directory / workloads.CONFIG)
    sim = parser["simulation"]
    if workload == "incomplete_markets":
        sim.update({"t_end": "300", "burn_in": "100"})
    else:
        sim.update({"t_end": "250", "burn_in": "249.75"})
    with open(directory / workloads.CONFIG, "w") as fh:
        parser.write(fh)


def _worker(directory, workload, trace):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "worker.py"), "run", workload, trace],
        cwd=directory, env=run._child_env(), stdout=subprocess.PIPE, text=True,
        timeout=120)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["incomplete_markets", "endogenous_growth"])
def test_tracing_leaves_the_panel_unchanged(workload, tmp_path):
    workloads.make_inputs(workload, 3, ROOT, tmp_path)
    _shorten(tmp_path, workload)
    plain = _worker(tmp_path, workload, "0")
    traced = _worker(tmp_path, workload, "1")
    assert traced["fingerprint"] == plain["fingerprint"]

    layers = tracing.aggregate(json.loads((tmp_path / "spans.json").read_text()))
    parts = sum(layers[f"simulate.{name}_s"]
                for name in ("draw", "increment", "price", "loop_self"))
    assert parts == pytest.approx(layers["simulate.run_s"], rel=1e-9)
    assert layers["simulate.draw_useful_ratio"] == 1.0
    assert layers["tails.samples"] == math.prod(plain["fingerprint"]["shape"])


def test_aggregate_counts_nested_spans_once_and_splits_self_time():
    spans = [
        ["scenarios.run", 0.0, 10.0, -1, None],
        ["simulate.run", 1.0, 9.0, 0, {"steps": 4, "household_steps": 40}],
        ["simulate.draw", 1.0, 3.0, 1, None],
        ["simulate.draw", 1.5, 2.5, 2, {"normals": 20}],
        ["simulate.price", 3.0, 4.0, 1, None],
        ["network.overlaps", 9.0, 9.5, 0, {"dense_bytes": 3e6}],
    ]
    layers = tracing.aggregate(spans)
    assert layers["simulate.draw_s"] == 2.0
    assert layers["simulate.loop_self_s"] == 5.0
    assert layers["simulate.self_s"] == 8.0
    assert layers["scenarios.self_s"] == 1.5
    assert layers["simulate.household_steps_per_s"] == 5.0
    assert layers["simulate.draw_useful_ratio"] == 2.0
    assert layers["network.overlaps_calls"] == 1
    assert layers["network.overlaps_dense_mb"] == 3.0


def test_names_match_the_benchmark_definition():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload_names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = workload_names + [m["name"] for m in metrics]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert workload_names == list(workloads.WORKLOADS)
    assert all(w["why"] == workloads.WHY[w["name"]] for w in spec["workloads"])
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(m["unit"] == run.unit(m["name"]) for m in metrics)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "file_network",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
