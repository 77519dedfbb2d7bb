"""Sectioned key-value run configuration.

A run is described by a flat INI file, for example::

    [economy]
    s = 0.2
    tau_k = 0.2
    nu = 0.05
    delta = 700

    [production]
    kind = cobb_douglas
    eps = 0.3

    [network]
    n_households = 2000
    n_firms = 2000
    invest_spread = 2
    labor_spread = 10
    seed = 7

    [simulation]
    dt = 0.02
    t_end = 400
    burn_in = 200
    record_every = 4
    seed = 1

    [scenario]
    name = IncompleteMarkets

Notes on individual keys:

* ``[economy] delta_theta_product`` is an alternative to ``delta`` for
  sweep configs quoted as a noise-times-overlap product: the value is
  stored as ``delta`` and the overlap defaults to 1 unless a network
  section supplies one.  Giving both keys is an error.
* ``[network] file`` loads a saved network instead of building one.
* ``[simulation] initial`` is either a number (common starting wealth)
  or ``stationary`` (start at the stationary mean); ``initial_spread``
  adds seeded uniform relative jitter in ``(-spread, +spread)``.
* ``[sweep]`` takes ``parameter`` plus either ``values`` (whitespace or
  comma separated) or ``start``/``stop``/``count`` for a uniform grid.

Scenario names: CompleteMarkets, LaborOnlyRisk, IncompleteMarkets,
StaggeredWages, EndogenousGrowthRelative.  The first two pin the
corresponding allocation spread to the firm count (full
diversification), and StaggeredWages forces deterministic labor income.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainError
from .network import AllocationNetwork, build_regular, load_network
from .params import CES, CobbDouglas, EconomyParams, ProductionFunction, validate_params
from .simulate import SimulationConfig

__all__ = ["RunConfig", "load_config", "config_from_dict", "SCENARIOS", "SWEEPABLE"]

SCENARIOS = (
    "CompleteMarkets",
    "LaborOnlyRisk",
    "IncompleteMarkets",
    "StaggeredWages",
    "EndogenousGrowthRelative",
)
SWEEPABLE = ("nu", "s", "tau_k", "delta", "theta_bar")

_ECONOMY_KEYS = {"s", "tau_k", "tau_l", "chi", "nu", "a", "delta", "delta_theta_product"}
_NETWORK_KEYS = {"file", "n_households", "n_firms", "invest_spread", "labor_spread", "seed"}
_SIMULATION_KEYS = {"dt", "t_end", "burn_in", "record_every", "seed",
                    "labor_deterministic", "initial", "initial_spread"}


def _float(section, key, raw, default=None):
    if key not in raw:
        if default is None:
            raise ConfigError(f"[{section}] is missing required key {key!r}")
        return default
    try:
        return float(raw[key])
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw[key]!r} is not a number") from exc


def _int(section, key, raw, default=None):
    v = _float(section, key, raw, default)
    if v != int(v):
        raise ConfigError(f"[{section}] {key} = {raw[key]!r} is not an integer")
    return int(v)


def _bool(section, key, raw, default=False):
    if key not in raw:
        return default
    text = raw[key].strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"[{section}] {key} = {raw[key]!r} is not a boolean")


def _reject_unknown(section, raw, allowed):
    extra = set(raw) - allowed
    if extra:
        raise ConfigError(f"[{section}] has unknown keys: {', '.join(sorted(extra))}")


@dataclass(frozen=True)
class RunConfig:
    """Parsed and validated run description.

    ``raw`` keeps the literal section/key/value text so a config echoed
    into a summary can be reparsed into an equivalent RunConfig.
    """

    economy: EconomyParams
    production: ProductionFunction
    simulation: SimulationConfig
    scenario: str | None
    network_spec: dict | None
    sweep: tuple[str, np.ndarray] | None
    outputs: dict
    initial: str | float
    initial_spread: float
    theta_bar_default: float
    raw: dict = field(default_factory=dict, compare=False)

    def build_network(self) -> AllocationNetwork:
        """The configured network, built or loaded on first use only.

        Every later call on this config returns the same (immutable)
        network, so a network file is read once per config.
        """
        return self._network

    @cached_property
    def _network(self) -> AllocationNetwork:
        if self.network_spec is None:
            raise ConfigError("this run has no [network] section")
        spec = dict(self.network_spec)
        if "file" in spec:
            return load_network(spec["file"])
        return build_regular(**spec)

    def theta_bar(self) -> float:
        """Mean self-overlap of investment portfolios for analytic formulas.

        A regular network pins it to 1/invest_spread without being
        built; a network file is loaded once and measured; with no
        network the default (1, or whatever delta_theta_product implies)
        is used.
        """
        if self.network_spec is None:
            return self.theta_bar_default
        if "file" in self.network_spec:
            return self.build_network().overlap_means()[0]
        return 1.0 / self.network_spec["invest_spread"]

    def to_dict(self) -> dict:
        return {section: dict(keys) for section, keys in self.raw.items()}

    def with_seed(self, seed: int) -> "RunConfig":
        """Copy of this config with the simulation seed replaced.

        Goes back through the parser so the echoed raw text stays in
        step with the parsed value.
        """
        raw = {section: dict(keys) for section, keys in self.raw.items()}
        raw.setdefault("simulation", {})["seed"] = str(int(seed))
        return _build(raw)


def _parse_economy(raw) -> EconomyParams:
    _reject_unknown("economy", raw, _ECONOMY_KEYS)
    if "delta_theta_product" in raw and "delta" in raw:
        raise ConfigError("[economy] give either delta or delta_theta_product, not both")
    values = {
        "s": _float("economy", "s", raw),
        "tau_k": _float("economy", "tau_k", raw, 0.0),
        "tau_l": _float("economy", "tau_l", raw, 0.0),
        "chi": _float("economy", "chi", raw, 0.0),
        "nu": _float("economy", "nu", raw, 0.05),
        "a": _float("economy", "a", raw, 1.0),
    }
    if "delta_theta_product" in raw:
        values["delta"] = _float("economy", "delta_theta_product", raw)
    else:
        values["delta"] = _float("economy", "delta", raw, 1.0)
    problems = validate_params(**values)
    if problems:
        raise ConfigError("invalid [economy] values: " + "; ".join(problems))
    return EconomyParams(**values)


def _parse_production(raw) -> ProductionFunction:
    kind = raw.get("kind", "").strip().lower()
    if kind == "ces":
        _reject_unknown("production", raw, {"kind", "eps", "gam"})
        try:
            return CES(_float("production", "eps", raw), _float("production", "gam", raw))
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
    if kind in ("cobb_douglas", "cobbdouglas"):
        _reject_unknown("production", raw, {"kind", "eps"})
        try:
            return CobbDouglas(_float("production", "eps", raw))
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError(f"[production] kind must be ces or cobb_douglas, got {kind!r}")


def _parse_network(raw) -> dict | None:
    if raw is None:
        return None
    _reject_unknown("network", raw, _NETWORK_KEYS)
    if "file" in raw:
        path = raw["file"].strip()
        if not os.path.exists(path):
            raise ConfigError(f"[network] file {path!r} does not exist")
        return {"file": path}
    return {
        "n_households": _int("network", "n_households", raw),
        "n_firms": _int("network", "n_firms", raw),
        "invest_spread": _int("network", "invest_spread", raw),
        "labor_spread": _int("network", "labor_spread", raw),
        "seed": _int("network", "seed", raw, 0),
    }


def _parse_simulation(raw) -> tuple[SimulationConfig, str | float, float]:
    if raw is None:
        raw = {}
    _reject_unknown("simulation", raw, _SIMULATION_KEYS)
    sim = SimulationConfig(
        dt=_float("simulation", "dt", raw, 0.01),
        t_end=_float("simulation", "t_end", raw, 100.0),
        burn_in=_float("simulation", "burn_in", raw, 0.0),
        record_every=_float("simulation", "record_every", raw, 1.0),
        seed=_int("simulation", "seed", raw, 0),
        labor_deterministic=_bool("simulation", "labor_deterministic", raw),
    )
    initial_text = raw.get("initial", "stationary").strip()
    if initial_text == "stationary":
        initial = "stationary"
    else:
        try:
            initial = float(initial_text)
        except ValueError as exc:
            raise ConfigError(
                f"[simulation] initial must be a number or 'stationary', got {initial_text!r}"
            ) from exc
        if not initial > 0.0:
            raise ConfigError("[simulation] initial must be positive")
    spread = _float("simulation", "initial_spread", raw, 0.0)
    if not 0.0 <= spread < 1.0:
        raise ConfigError("[simulation] initial_spread must lie in [0, 1)")
    return sim, initial, spread


def _parse_sweep(raw) -> tuple[str, np.ndarray] | None:
    if raw is None:
        return None
    _reject_unknown("sweep", raw, {"parameter", "values", "start", "stop", "count"})
    parameter = raw.get("parameter", "").strip()
    if parameter not in SWEEPABLE:
        raise ConfigError(
            f"[sweep] parameter must be one of {', '.join(SWEEPABLE)}, got {parameter!r}")
    if "values" in raw:
        text = raw["values"].replace(",", " ").split()
        if not text:
            raise ConfigError("[sweep] values is empty")
        try:
            grid = np.array([float(v) for v in text])
        except ValueError as exc:
            raise ConfigError("[sweep] values must be numbers") from exc
    else:
        start = _float("sweep", "start", raw)
        stop = _float("sweep", "stop", raw)
        count = _int("sweep", "count", raw)
        if count < 1:
            raise ConfigError("[sweep] count must be at least 1")
        grid = np.linspace(start, stop, count)
    return parameter, grid


def _apply_scenario_constraints(scenario, network_spec, sim: SimulationConfig,
                                sim_raw) -> tuple[dict | None, SimulationConfig]:
    """Pin the network and stepping choices a scenario presupposes."""
    if scenario in ("CompleteMarkets", "LaborOnlyRisk") and network_spec is not None \
            and "file" not in network_spec:
        f = network_spec["n_firms"]
        pin = ("invest_spread",) if scenario == "LaborOnlyRisk" \
            else ("invest_spread", "labor_spread")
        for key in pin:
            if network_spec[key] != f:
                raise ConfigError(
                    f"{scenario} requires {key} = n_firms ({f}), got {network_spec[key]}")
    if scenario == "StaggeredWages" and not sim.labor_deterministic:
        if "labor_deterministic" in (sim_raw or {}):
            raise ConfigError(
                "StaggeredWages means deterministic labor income;"
                " remove labor_deterministic = false")
        sim = replace(sim, labor_deterministic=True)
    return network_spec, sim


def _build(raw_sections: dict) -> RunConfig:
    known = {"economy", "production", "network", "simulation",
             "scenario", "outputs", "sweep"}
    extra = set(raw_sections) - known
    if extra:
        raise ConfigError(f"unknown config sections: {', '.join(sorted(extra))}")
    if "economy" not in raw_sections:
        raise ConfigError("config needs an [economy] section")
    if "production" not in raw_sections:
        raise ConfigError("config needs a [production] section")

    economy = _parse_economy(raw_sections["economy"])
    production = _parse_production(raw_sections["production"])
    network_spec = _parse_network(raw_sections.get("network"))
    sim_raw = raw_sections.get("simulation")
    simulation, initial, spread = _parse_simulation(sim_raw)
    sweep = _parse_sweep(raw_sections.get("sweep"))

    scenario = None
    if "scenario" in raw_sections:
        _reject_unknown("scenario", raw_sections["scenario"], {"name"})
        name = raw_sections["scenario"].get("name", "").strip()
        canon = {s.lower(): s for s in SCENARIOS}
        scenario = canon.get(name.replace("_", "").lower())
        if scenario is None:
            raise ConfigError(
                f"[scenario] name must be one of {', '.join(SCENARIOS)}, got {name!r}")
        network_spec, simulation = _apply_scenario_constraints(
            scenario, network_spec, simulation, sim_raw)
        if scenario != "EndogenousGrowthRelative" and network_spec is None:
            raise ConfigError(f"scenario {scenario} needs a [network] section")

    outputs = dict(raw_sections.get("outputs") or {})
    _reject_unknown("outputs", outputs, {"directory", "format"})
    fmt = outputs.get("format", "csv").strip().lower()
    if fmt not in ("csv", "json"):
        raise ConfigError(f"[outputs] format must be csv or json, got {fmt!r}")
    outputs["format"] = fmt

    return RunConfig(
        economy=economy,
        production=production,
        simulation=simulation,
        scenario=scenario,
        network_spec=network_spec,
        sweep=sweep,
        outputs=outputs,
        initial=initial,
        initial_spread=spread,
        theta_bar_default=1.0,
        raw={k: dict(v) for k, v in raw_sections.items()},
    )


def load_config(path) -> RunConfig:
    """Read a sectioned key-value config file into a RunConfig."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path!r}: {exc}") from exc
    sections = {name: dict(parser[name]) for name in parser.sections()}
    return _build(sections)


def config_from_dict(sections: dict) -> RunConfig:
    """Rebuild a RunConfig from an echoed section/key/value mapping."""
    return _build({str(k): {str(a): str(b) for a, b in v.items()}
                   for k, v in sections.items()})
