"""The benchmark's workloads: inputs made from a seed, the body each
repetition runs, and the checks its outputs must pass.

Every function that needs ``wealthsim`` imports it inside, so that the
command (``run.py``) can read the workload names without numpy.
"""

from __future__ import annotations

import configparser
import contextlib
import io
import json
import os
import random

WORKLOADS = ("incomplete_markets", "endogenous_growth", "file_network")

# Why each workload is in the benchmark (also in README.md).
WHY = {
    "incomplete_markets": "N=F=2000, 22k absolute steps, 11 MB panel.csv: the heavy "
                          "case for absolute stepping, panel I/O and tails",
    "endogenous_growth": "N=1e4 relative steps with no network or sparse flows: "
                         "Philox normals only, bypassing the network and flow layers",
    "file_network": "regime, validate and simulate on a saved N=F=6000 network: "
                    "dominated by network load and dense overlaps, peak RSS from them",
}

CONFIG = "run.ini"
NETWORK_FILE = "network.txt"
OUT_DIR = "out"

FILE_NETWORK_SIZE = 6000
HILL_TOLERANCE = 0.15       # acceptance gate on the incomplete-markets tail index
KS_LIMIT = 0.05             # inverse-gamma fit of relative wealth
MEAN_STDERRS = 3.0          # relative-wealth mean against 1
REGIME_ALPHA = "alpha=2.50794"

_BASE_CONFIG = {
    "incomplete_markets": "incomplete_markets.ini",
    "endogenous_growth": "endogenous_growth.ini",
    "file_network": "incomplete_markets.ini",
}


def base_configs(root) -> list[str]:
    """Shipped config files the workloads are generated from."""
    return sorted({os.path.join(root, "configs", name) for name in _BASE_CONFIG.values()})


def derived_seeds(workload: str, seed: int) -> tuple[int, int]:
    """Network and simulation seeds for one benchmark seed."""
    rng = random.Random(f"{workload}:{seed}")
    return rng.getrandbits(31), rng.getrandbits(31)


def make_inputs(workload: str, seed: int, root, workdir) -> None:
    """Write the generated config (and network file) into ``workdir``.

    The same seed always gives byte-identical files; the network file is
    referenced by a relative path, so the run must start in ``workdir``.
    """
    net_seed, sim_seed = derived_seeds(workload, seed)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(os.path.join(root, "configs", _BASE_CONFIG[workload])) as fh:
        parser.read_file(fh)
    parser["simulation"]["seed"] = str(sim_seed)
    if workload == "incomplete_markets":
        parser["network"]["seed"] = str(net_seed)
    elif workload == "file_network":
        from wealthsim import build_regular, save_network

        net = build_regular(FILE_NETWORK_SIZE, FILE_NETWORK_SIZE, invest_spread=2,
                            labor_spread=10, seed=net_seed)
        save_network(net, os.path.join(workdir, NETWORK_FILE))
        parser["network"] = {"file": NETWORK_FILE}
        parser["simulation"].update({"dt": "0.1", "t_end": "50", "burn_in": "10",
                                     "record_every": "10"})
    with open(os.path.join(workdir, CONFIG), "w") as fh:
        parser.write(fh)


def _fingerprint(summary: dict, n_households: int) -> dict:
    """Pooled mean and variance and snapshot shape, at full precision."""
    return {"mean": summary["moments"]["mean"],
            "variance": summary["moments"]["variance"],
            "shape": [summary["snapshot_count"], n_households]}


def run_incomplete_markets(wealthsim, cfg) -> tuple[dict, dict]:
    summary = wealthsim.run_scenario(cfg, out_dir=OUT_DIR)
    metrics = summary["metrics"]
    alpha, alpha_hat = metrics["alpha_analytic"], metrics.get("alpha_hat")
    gap = None if alpha_hat is None else abs(alpha_hat / alpha - 1.0)
    checks = {"hill_within_15pct": {"passed": gap is not None and gap < HILL_TOLERANCE,
                                    "alpha_hat": alpha_hat, "alpha": alpha,
                                    "relative_gap": gap}}
    return checks, _fingerprint(summary, cfg.network_spec["n_households"])


def run_endogenous_growth(wealthsim, cfg) -> tuple[dict, dict]:
    summary = wealthsim.run_scenario(cfg, out_dir=OUT_DIR)
    metrics = summary["metrics"]
    ks = summary["ks_distance"]
    mean_gap = abs(metrics["mean_relative_wealth"] - 1.0)
    checks = {
        "ks_below_0.05": {"passed": ks is not None and ks < KS_LIMIT, "ks_distance": ks},
        "mean_within_3_stderr": {"passed": mean_gap <= MEAN_STDERRS * metrics["stderr_mean"],
                                 "mean": metrics["mean_relative_wealth"],
                                 "stderr": metrics["stderr_mean"]},
    }
    n_households = summary["moments"]["n"] // summary["snapshot_count"]
    return checks, _fingerprint(summary, n_households)


def run_file_network(wealthsim, cfg) -> tuple[dict, None]:
    from wealthsim import cli

    outputs = {}
    for command in (["regime"], ["validate"], ["simulate", "--out", OUT_DIR]):
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = cli.main([command[0], "--config", CONFIG] + command[1:])
        outputs[command[0]] = (code, text.getvalue())
    codes = {name: code for name, (code, _) in outputs.items()}
    regime_line = outputs["regime"][1].strip()
    try:
        validate_passed = json.loads(outputs["validate"][1])["passed"] is True
    except (ValueError, KeyError):
        validate_passed = False
    checks = {
        "exit_codes_zero": {"passed": all(c == 0 for c in codes.values()), "codes": codes},
        "validate_passed": {"passed": validate_passed},
        "regime_alpha": {"passed": REGIME_ALPHA in regime_line.split(", "),
                         "line": regime_line},
    }
    return checks, None


BODIES = {
    "incomplete_markets": run_incomplete_markets,
    "endogenous_growth": run_endogenous_growth,
    "file_network": run_file_network,
}
