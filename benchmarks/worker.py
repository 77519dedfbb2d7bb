"""One step of a benchmark run, in a fresh interpreter.

    python3 worker.py inputs <workload> <seed> <root>   write the generated inputs
    python3 worker.py setup <workload>                   import wealthsim, load the config
    python3 worker.py run <workload> <trace 0|1>         set up, run the workload, check it

It runs in the workload's working directory with ``<root>/src`` and
this directory on PYTHONPATH, and prints one JSON object as its last
line.  ``run`` exits 1 when a correctness check fails.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import sys
import time

import workloads


def _set_up(trace: bool):
    start = time.perf_counter()
    import wealthsim

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    cfg = wealthsim.load_config(workloads.CONFIG)
    return wealthsim, cfg, tracer, time.perf_counter() - start


def _tree_bytes(path) -> int:
    return sum(os.path.getsize(os.path.join(dirpath, name))
               for dirpath, _, names in os.walk(path) for name in names)


def inputs(workload: str, seed: int, root: str) -> dict:
    import numpy
    import scipy
    import wealthsim

    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(wealthsim.__file__).startswith(src + os.sep):
        raise SystemExit(f"wealthsim imported from {wealthsim.__file__}, not from {src}")
    workloads.make_inputs(workload, seed, root, ".")
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def run(workload: str, trace: bool) -> dict:
    shutil.rmtree(workloads.OUT_DIR, ignore_errors=True)
    wealthsim, cfg, tracer, setup_s = _set_up(trace)
    start = time.perf_counter()
    checks, fingerprint = workloads.BODIES[workload](wealthsim, cfg)
    wall_s = time.perf_counter() - start
    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "artifact_mb": _tree_bytes(workloads.OUT_DIR) / 1e6,
        "checks": checks,
        "fingerprint": fingerprint,
        "passed": all(check["passed"] for check in checks.values()),
    }
    if tracer is not None:
        tracer.dump("spans.json")
    return record


def main(argv) -> int:
    mode, workload = argv[1], argv[2]
    if mode == "inputs":
        record = inputs(workload, int(argv[3]), argv[4])
    elif mode == "setup":
        record = {"setup_s": _set_up(False)[3]}
    else:
        record = run(workload, argv[3] == "1")
    print(json.dumps(record))
    return 0 if record.get("passed", True) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
