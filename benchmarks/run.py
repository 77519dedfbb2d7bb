"""Benchmark of wealthsim: end-to-end metrics per workload, or a traced
run with per-layer metrics.

    python3 benchmarks/run.py --workload incomplete_markets --seed 1 --seconds 35 --trace 0
    python3 benchmarks/run.py --workload all --seed 1

Run it from the root of a source checkout.  Each repetition of a
workload is a fresh single-process interpreter (``worker.py``) with
BLAS/OpenMP threads pinned to 1, run one after another.  Repetitions
continue until ``--seconds`` is used up (at least four untraced, or
one traced/untraced pair).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every repetition passed its checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402  (stdlib-only at import)
import workloads  # noqa: E402

END_TO_END = ("wall_s", "setup_s", "peak_rss_mb", "artifact_mb")
TRACE_METRICS = ("trace.traced_wall_s", "trace.overhead_s", "trace.spans")
PER_LAYER = tracing.SPAN_METRICS + TRACE_METRICS

SETUP_PROBES = 3       # set-up-only interpreters per untraced run, besides the repetitions
MIN_REPS = 4           # untraced repetitions, whatever --seconds says
RUN_DEADLINE_S = 170   # no child outlives this many seconds after run.py started
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
REFERENCE_FILE = HERE / "baseline.json"
T0 = time.perf_counter()


def unit(name: str) -> str:
    for suffix, text in (("_mb_per_s", "MB/s"), ("_per_s", "1/s"), ("_s", "s"),
                         ("_mb", "MB"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return text
    return "count"


class BenchmarkError(RuntimeError):
    pass


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "WEALTHSIM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join((str(ROOT / "src"), str(HERE)))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _child(args, workdir):
    """Run ``worker.py args`` in ``workdir``; (exit code, its JSON record or None)."""
    timeout = RUN_DEADLINE_S - (time.perf_counter() - T0)
    if timeout <= 0:
        return None, None
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=workdir, env=_child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, None
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if lines else None
    except ValueError:
        record = None
    return proc.returncode, record


def provenance(seed: int, versions: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "wealthsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest(), **versions,
            "nproc": os.cpu_count(), "seed": seed, "threads": 1}


def tail_percentile(samples):
    """Highest whole percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, statistics.quantiles(samples, n=100)[p - 1]


def fingerprint_gap(workload: str, seed: int, fingerprint) -> str:
    """How far a panel fingerprint is from the one recorded for this seed."""
    if fingerprint is None:
        return "none (no panel for this workload)"
    refs = json.loads(REFERENCE_FILE.read_text()).get("fingerprints", {}) \
        if REFERENCE_FILE.exists() else {}
    ref = refs.get(workload, {}).get(str(seed))
    if ref is None:
        return "no reference recorded for this seed"
    if ref["shape"] != fingerprint["shape"]:
        return f"shape {fingerprint['shape']} differs from reference {ref['shape']}"
    gap = max(abs(fingerprint[k] / ref[k] - 1.0) for k in ("mean", "variance"))
    return f"max relative gap to reference {gap:.3e}"


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Repetitions of one workload; (metrics, attempted, failed, report lines)."""
    workdir = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        code, versions = _child(["inputs", workload, str(seed), str(ROOT)], workdir)
        if code != 0 or versions is None:
            raise BenchmarkError(f"{workload}: input generation failed")
        setups = []
        for _ in range(0 if trace else SETUP_PROBES):
            code, record = _child(["setup", workload], workdir)
            if code != 0 or record is None:
                raise BenchmarkError(f"{workload}: set-up failed")
            setups.append(record["setup_s"])

        plain, traced, layer_rows, failures, fingerprints, checks = [], [], [], [], [], {}
        start = time.perf_counter()
        attempted = 0
        while True:
            with_trace = trace and attempted % 2 == 1
            began = time.perf_counter()
            code, record = _child(["run", workload, "1" if with_trace else "0"], workdir)
            took = time.perf_counter() - began
            attempted += 1
            problem = None
            if record is None or "checks" not in record:
                problem = "timed out" if code is None else f"exit code {code}, no result"
            else:
                checks = record["checks"]
                failing = [name for name, check in checks.items() if not check["passed"]]
                if code != 0 or failing:
                    problem = f"exit code {code}, failing checks {failing}"
                # every repetition of one seed, traced or not, samples the same panel
                elif fingerprints and record["fingerprint"] != fingerprints[0]:
                    problem = "panel fingerprint differs from the first repetition's"
                fingerprints.append(record["fingerprint"])
            if problem:
                failures.append(f"repetition {attempted}: {problem}")
            elif with_trace:
                spans = json.loads((workdir / "spans.json").read_text())
                layer_rows.append({**tracing.aggregate(spans), "trace.spans": len(spans)})
                traced.append(record["wall_s"])
            else:
                plain.append(record)
                setups.append(record["setup_s"])
            if code is None:
                break   # timed out: the run deadline is reached
            elapsed = time.perf_counter() - start
            enough = attempted >= (2 if trace else MIN_REPS)
            if enough and not (trace and attempted % 2) and elapsed + took > seconds:
                break
            if time.perf_counter() - T0 + took > RUN_DEADLINE_S - 10:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = [f"# workload {workload}: {workloads.WHY[workload]}",
             "provenance " + json.dumps(provenance(seed, versions), sort_keys=True)]
    metrics = {}
    walls = [r["wall_s"] for r in plain]
    if trace and traced and walls:
        for name in tracing.SPAN_METRICS:
            metrics[name] = statistics.median(row[name] for row in layer_rows)
        metrics["trace.traced_wall_s"] = statistics.median(traced)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(walls)
        metrics["trace.spans"] = statistics.median(row["trace.spans"] for row in layer_rows)
        lines.append(f"traced repetitions {len(traced)}, untraced {len(walls)}; "
                     f"tracing overhead {metrics['trace.overhead_s']:+.4f} s "
                     f"on an untraced wall_s of {statistics.median(walls):.4f} s")
    elif not trace and walls:
        metrics = {"wall_s": statistics.median(walls),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
                   "artifact_mb": statistics.median(r["artifact_mb"] for r in plain)}
        tail = tail_percentile(walls)
        lines.append(f"wall_s {metrics['wall_s']:.4f} s median of {len(walls)}, range "
                     f"{min(walls):.4f}-{max(walls):.4f} s; " +
                     (f"p{tail[0]} {tail[1]:.4f} s" if tail else
                      "no percentile has 10 samples beyond it"))
        lines.append("wall_s samples " + " ".join(f"{w:.4f}" for w in walls))
        lines.append(f"setup_s {metrics['setup_s']:.4f} s median of {len(setups)}, range "
                     f"{min(setups):.4f}-{max(setups):.4f} s")
        for name in ("peak_rss_mb", "artifact_mb"):
            lines.append(f"{name} {metrics[name]:.4f} MB median of {len(walls)}")
    lines.append(f"error_rate {len(failures) / attempted:.4g} ratio "
                 f"({len(failures)} failed of {attempted} attempted)")
    lines += [f"failed {text}" for text in failures]
    for name, check in checks.items():
        lines.append(f"check {name} " + json.dumps(check, sort_keys=True))
    if fingerprints and fingerprints[0] is not None:
        lines.append("fingerprint " + json.dumps(fingerprints[0]))
        lines.append("fingerprint vs baseline.json: "
                     + fingerprint_gap(workload, seed, fingerprints[0]))
    return metrics, attempted, len(failures), lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [path for path in [str(ROOT / "src" / "wealthsim" / "__init__.py"),
                                 *workloads.base_configs(ROOT)]
               if not os.path.isfile(path)]
    if missing:
        print("benchmark: the checkout lacks " + ", ".join(missing), file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    wanted = PER_LAYER if args.trace else END_TO_END
    results = []
    for name in names:
        try:
            metrics, attempted, failed, lines = measure(name, args.seed, args.seconds,
                                                        bool(args.trace))
        except BenchmarkError as exc:
            print(f"benchmark: {exc}", file=sys.stderr)
            return 1
        for line in lines:
            print(line)
        for metric in wanted:
            if metric in metrics:
                print(f"  {metric} = {metrics[metric]:.6g} {unit(metric)}")
        prefix = f"{name}." if len(names) > 1 else ""
        results.append(({f"{prefix}{m}": {"value": metrics[m], "unit": unit(m)}
                         for m in wanted if m in metrics},
                        attempted, failed, set(metrics) >= set(wanted)))
        sys.stdout.flush()

    correct = all(failed == 0 and complete for _, _, failed, complete in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r[1] for r in results),
        "failed": sum(r[2] for r in results),
        "metrics": {k: v for r in results for k, v in r[0].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
