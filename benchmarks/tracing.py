"""Spans around the calls into each ``wealthsim`` module, and the
per-layer metrics computed from them.

``install`` replaces module and class attributes at run time with
timing wrappers; no file of the package is changed.  A name bound with
``from ... import`` is a separate binding in the importing module, so it
is wrapped where it is looked up (``scenarios.run_absolute``,
``cli.run_scenario``, ...), not only where it is defined.

A span is ``[name, start, end, parent, meta]``: ``parent`` is the index
of the enclosing span or -1, ``meta`` a small dict of counts or None.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter

LAYERS = ("runconfig", "network", "market", "analytics", "simulate", "tails",
          "scenarios", "cli")
CLI_COMMANDS = ("regime", "validate", "simulate")


class Tracer:
    """Records spans in memory; ``dump`` writes them out at the end."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._open = Counter()

    def wrap(self, name, fn, meta=None, only_inside=None):
        """``fn`` timed as span ``name``.

        ``meta(args, result)`` attaches counts to the span.  With
        ``only_inside`` the call is timed only while a span of that name
        is open; elsewhere it runs untimed.
        """
        spans, stack, opened = self.spans, self._stack, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if only_inside is not None and not opened[only_inside]:
                return fn(*args, **kwargs)
            record = [name, time.perf_counter(), None, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            opened[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
                opened[name] -= 1
            if meta is not None:
                record[4] = meta(args, result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


class _CountingGenerator:
    """Per-step generator whose normal draws go through ``draw``, a traced call."""

    def __init__(self, gen, draw):
        self._gen = gen
        self._draw = draw

    def standard_normal(self, *args, **kwargs):
        return self._draw(self._gen, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def install(tracer: Tracer) -> None:
    """Wrap the calls into each layer of the imported ``wealthsim``."""
    import wealthsim
    from wealthsim import cli, market, network, params, runconfig, scenarios, simulate

    def patch(owner, attr, name, **kw):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), **kw))

    for owner in (wealthsim, runconfig, cli):
        patch(owner, "load_config", "runconfig.load")
    patch(runconfig, "load_network", "network.load")
    for owner in (runconfig, scenarios):
        patch(owner, "build_regular", "network.build")
    patch(network.AllocationNetwork, "overlaps", "network.overlaps",
          meta=lambda args, out: {"dense_bytes": 3 * 8 * args[0].n_households ** 2})
    patch(market, "classify_regime", "market.classify")
    patch(market, "clear", "market.clear")
    for attr in ("mean_field_coeffs", "stationary_density", "relative_wealth_density",
                 "write_density_table"):
        patch(scenarios, attr, "analytics.density")

    def run_meta(args, panel):
        steps = args[0].step_counts()[0]
        return {"steps": steps, "household_steps": steps * panel.snapshots.shape[1]}

    for attr in ("run_absolute", "run_relative_growth"):
        patch(scenarios, attr, "simulate.run", meta=run_meta)
    patch(scenarios, "empirical_noise_covariance", "simulate.noise_cov")
    draw = tracer.wrap("simulate.draw", lambda gen, *a, **k: gen.standard_normal(*a, **k),
                       meta=lambda args, out: {"normals": out.size})
    stream = simulate._stream
    simulate._stream = tracer.wrap(
        "simulate.draw", lambda seed, step: _CountingGenerator(stream(seed, step), draw))
    patch(simulate, "sample_firm_shocks", "simulate.draw")
    patch(simulate, "_firm_shock_increment", "simulate.increment")
    for cls in (params.CobbDouglas, params.CES):
        for attr in ("value", "derivative"):
            patch(cls, attr, "simulate.price", only_inside="simulate.run")

    patch(scenarios, "hill", "tails.hill", meta=lambda args, out: {"samples": len(args[0])})
    patch(scenarios, "ks_distance", "tails.ks")
    patch(scenarios, "moments", "tails.moments")
    patch(scenarios, "write_ccdf_table", "tails.ccdf")

    patch(simulate.WealthPanel, "to_csv", "scenarios.panel_csv",
          meta=lambda args, out: {"bytes": os.path.getsize(args[1])})
    for owner in (scenarios, cli):
        patch(owner, "write_summary", "scenarios.summary_json")
    for owner in (wealthsim, cli):
        patch(owner, "run_scenario", "scenarios.run")
    patch(cli, "validate_checks", "scenarios.validate")

    patch(cli, "main", "cli.main")
    for command in CLI_COMMANDS:
        patch(cli, f"cmd_{command}", f"cli.{command}")


def aggregate(spans: list) -> dict:
    """Per-layer metrics from one repetition's spans.

    ``<x>_s`` is the time inside outermost spans named ``x`` (a span
    nested in one of the same name is not counted twice); ``<layer>.self_s``
    sums span durations minus the time their direct children cover.
    """
    seconds, calls, meta = Counter(), Counter(), Counter()
    self_s = Counter()
    run_s = run_self_s = 0.0
    normals_in_run = 0
    # a parent is always recorded before its children, so one forward
    # pass can carry each span's ancestor names down to it
    lineage: list[frozenset] = []
    in_run: list[bool] = []
    child_time = [0.0] * len(spans)
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, parent, counts) in enumerate(spans):
        above = lineage[parent] if parent >= 0 else frozenset()
        lineage.append(above | {name})
        in_run.append(parent >= 0 and (in_run[parent] or spans[parent][0] == "simulate.run"))
        own = end - start - child_time[i]
        self_s[name.split(".")[0]] += own
        if name not in above:
            seconds[name] += end - start
            calls[name] += 1
            if name == "simulate.run":
                run_s += end - start
                run_self_s += own
        for key, value in (counts or {}).items():
            meta[name, key] += value
        if in_run[i] and counts and "normals" in counts:
            normals_in_run += counts["normals"]

    household_steps = meta["simulate.run", "household_steps"]
    csv_s = seconds["scenarios.panel_csv"]
    metrics = {
        "runconfig.load_s": seconds["runconfig.load"],
        "network.build_s": seconds["network.build"],
        "network.load_s": seconds["network.load"],
        "network.load_calls": calls["network.load"],
        "network.overlaps_s": seconds["network.overlaps"],
        "network.overlaps_calls": calls["network.overlaps"],
        "network.overlaps_dense_mb": meta["network.overlaps", "dense_bytes"] / 1e6,
        "market.classify_s": seconds["market.classify"],
        "market.classify_calls": calls["market.classify"],
        "analytics.density_s": seconds["analytics.density"],
        "simulate.run_s": run_s,
        "simulate.steps": meta["simulate.run", "steps"],
        "simulate.household_steps_per_s": household_steps / run_s if run_s else 0.0,
        "simulate.draw_s": seconds["simulate.draw"],
        "simulate.increment_s": seconds["simulate.increment"],
        "simulate.price_s": seconds["simulate.price"],
        "simulate.loop_self_s": run_self_s,
        "simulate.draw_useful_ratio":
            household_steps / normals_in_run if normals_in_run else 0.0,
        "simulate.noise_cov_s": seconds["simulate.noise_cov"],
        "tails.hill_s": seconds["tails.hill"],
        "tails.ks_s": seconds["tails.ks"],
        "tails.moments_s": seconds["tails.moments"],
        "tails.samples": meta["tails.hill", "samples"],
        "scenarios.panel_csv_s": csv_s,
        "scenarios.panel_csv_mb_per_s":
            meta["scenarios.panel_csv", "bytes"] / 1e6 / csv_s if csv_s else 0.0,
        "scenarios.summary_json_s": seconds["scenarios.summary_json"],
        "scenarios.validate_s": seconds["scenarios.validate"],
    }
    for command in CLI_COMMANDS:
        metrics[f"cli.{command}_s"] = seconds[f"cli.{command}"]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
    return metrics


# Metrics computed from one traced repetition's spans, in report order.
SPAN_METRICS = tuple(aggregate([]))
