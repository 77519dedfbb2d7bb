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

* ``[economy] delta`` scales the firm-shock variance.  Without a
  ``[network]`` the overlaps are (1, 0, 0), so ``delta`` is the whole
  noise-times-overlap product.
* ``[network] file`` loads a saved network instead of building one and
  takes none of the build keys.  Either way the network's mean
  self-overlaps are measured once per config (``overlap_means``).
* ``[simulation] initial`` is either a number (common starting wealth)
  or ``stationary`` (start at the stationary mean); ``initial_spread``
  adds seeded uniform relative jitter in ``(-spread, +spread)``.
  EndogenousGrowthRelative starts at relative wealth 1 and rejects
  ``initial``.
* ``[sweep]`` takes ``parameter`` plus either ``values`` (whitespace or
  comma separated) or ``start``/``stop``/``count`` for a uniform grid,
  not both.
* A numeric key must hold a finite number: ``nan`` and ``inf`` are
  config errors.

``[scenario] name`` picks one row of ``SCENARIOS`` (matched ignoring
case and underscores), and a run reads that row's three facts, never its
name.  A pinned side needs its spread equal to the firm count (full
diversification); a network file must hold every firm at weight 1/F to
1e-12 on it.  Deterministic labor income has no key of its own.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainError, NetworkBuildError
from .network import AllocationNetwork, _csr_kernels, build_regular, load_network
from .params import CES, CobbDouglas, EconomyParams, ProductionFunction
from .simulate import SimulationConfig

__all__ = ["RunConfig", "Scenario", "load_config", "config_from_dict", "SCENARIOS", "SWEEPABLE"]


@dataclass(frozen=True)
class Scenario:
    """What a named scenario fixes about a run, and nothing else.

    ``pinned``: the allocation sides spread over every firm;
    ``fixed_wages``: labor income is deterministic;
    ``relative``: wealth is followed over its growing mean.
    The record without a name fixes nothing: a config with no ``[scenario]``.
    """

    name: str | None = None
    pinned: tuple[str, ...] = ()
    fixed_wages: bool = False
    relative: bool = False


SCENARIOS = (
    Scenario("CompleteMarkets", pinned=("invest", "labor")),
    Scenario("LaborOnlyRisk", pinned=("invest",)),
    Scenario("IncompleteMarkets"),
    Scenario("StaggeredWages", fixed_wages=True),
    Scenario("EndogenousGrowthRelative", relative=True),
)
SWEEPABLE = ("nu", "s", "tau_k", "delta", "theta_bar")

_ECONOMY_KEYS = {"s", "tau_k", "tau_l", "chi", "nu", "a", "delta"}
_BUILD_KEYS = ("n_households", "n_firms", "invest_spread", "labor_spread", "seed")
_GRID_KEYS = ("start", "stop", "count")
_SIMULATION_KEYS = {"dt", "t_end", "burn_in", "record_every", "seed",
                    "initial", "initial_spread"}


def _float(section, key, raw, default=None):
    if key not in raw:
        if default is None:
            raise ConfigError(f"[{section}] is missing required key {key!r}")
        return default
    try:
        value = float(raw[key])
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw[key]!r} is not a number") from exc
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} = {raw[key]!r} is not finite")
    return value


def _int(section, key, raw, default=None):
    v = _float(section, key, raw, default)
    if v != int(v):
        raise ConfigError(f"[{section}] {key} = {raw[key]!r} is not an integer")
    return int(v)


def _reject_unknown(section, raw, allowed):
    extra = set(raw) - allowed
    if extra:
        raise ConfigError(f"[{section}] has unknown keys: {', '.join(sorted(extra))}")


def _reject_beside(section, raw, key, others):
    given = [k for k in others if k in raw]
    if key in raw and given:
        raise ConfigError(f"[{section}] give either {key} or {', '.join(given)}, not both")


@dataclass(frozen=True)
class RunConfig:
    """Parsed and validated run description.

    ``raw`` keeps the literal section/key/value text so a config echoed
    into a summary can be reparsed into an equivalent RunConfig.
    """

    economy: EconomyParams
    production: ProductionFunction
    simulation: SimulationConfig
    scenario: Scenario
    network_spec: dict | None
    sweep: tuple[str, np.ndarray] | None
    outputs: dict
    initial: str | float
    initial_spread: float
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
        if "file" not in spec:
            return build_regular(**spec)
        net = load_network(spec["file"])
        f = net.n_firms
        for side in self.scenario.pinned:
            if side not in net.full_sides:
                raise NetworkBuildError(
                    f"{self.scenario.name} requires every household to hold all {f} firms"
                    f" at weight 1/{f} on the {side} side; network file"
                    f" {spec['file']} does not")
        return net

    def overlap_means(self) -> tuple[float, float, float]:
        """Mean (invest, cross, labor) self-overlaps of the network.

        Measured once per config on the configured network, built or
        loaded for it; with no network they are (1, 0, 0), so ``delta``
        is the whole noise-times-overlap product.  The law reads them only
        through ``scenarios.scenario_economy``, which applies the pins.
        """
        return self._overlap_means

    @cached_property
    def _overlap_means(self) -> tuple[float, float, float]:
        if self.network_spec is None:
            return 1.0, 0.0, 0.0
        return self.build_network().overlap_means()

    def to_dict(self) -> dict:
        return {section: dict(keys) for section, keys in self.raw.items()}

    def with_raw(self, section: str, **values: str) -> "RunConfig":
        """Copy of this config with keys of one section replaced.

        Goes back through the parser so the echoed raw text stays in
        step with the parsed values.
        """
        raw = {name: dict(keys) for name, keys in self.raw.items()}
        raw.setdefault(section, {}).update(values)
        return _build(raw)


def _parse_economy(raw) -> EconomyParams:
    _reject_unknown("economy", raw, _ECONOMY_KEYS)
    values = {
        "s": _float("economy", "s", raw),
        "tau_k": _float("economy", "tau_k", raw, 0.0),
        "tau_l": _float("economy", "tau_l", raw, 0.0),
        "chi": _float("economy", "chi", raw, 0.0),
        "nu": _float("economy", "nu", raw, 0.05),
        "a": _float("economy", "a", raw, 1.0),
        "delta": _float("economy", "delta", raw, 1.0),
    }
    try:
        return EconomyParams(**values)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_production(raw) -> ProductionFunction:
    kind = raw.get("kind", "").strip().lower()
    if kind == "ces":
        _reject_unknown("production", raw, {"kind", "eps", "gam"})
        try:
            return CES(_float("production", "eps", raw), _float("production", "gam", raw))
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
    if kind == "cobb_douglas":
        _reject_unknown("production", raw, {"kind", "eps"})
        try:
            return CobbDouglas(_float("production", "eps", raw))
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError(f"[production] kind must be ces or cobb_douglas, got {kind!r}")


def _parse_network(raw) -> dict | None:
    if raw is None:
        return None
    # a run with a network loads scipy's compiled CSR kernels here, while
    # its config is read, so that the load counts in its set-up and not in
    # its first step; scipy.sparse itself is never imported
    _csr_kernels()
    _reject_unknown("network", raw, {"file", *_BUILD_KEYS})
    _reject_beside("network", raw, "file", _BUILD_KEYS)
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
        if not 0.0 < initial < math.inf:
            raise ConfigError("[simulation] initial must be positive and finite")
    spread = _float("simulation", "initial_spread", raw, 0.0)
    if not 0.0 <= spread < 1.0:
        raise ConfigError("[simulation] initial_spread must lie in [0, 1)")
    return sim, initial, spread


def _parse_sweep(raw) -> tuple[str, np.ndarray] | None:
    if raw is None:
        return None
    _reject_unknown("sweep", raw, {"parameter", "values", *_GRID_KEYS})
    _reject_beside("sweep", raw, "values", _GRID_KEYS)
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
        if not np.all(np.isfinite(grid)):
            raise ConfigError("[sweep] values must be finite")
    else:
        start = _float("sweep", "start", raw)
        stop = _float("sweep", "stop", raw)
        count = _int("sweep", "count", raw)
        if count < 1:
            raise ConfigError("[sweep] count must be at least 1")
        grid = np.linspace(start, stop, count)
    return parameter, grid


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
    simulation, initial, spread = _parse_simulation(raw_sections.get("simulation"))
    sweep = _parse_sweep(raw_sections.get("sweep"))

    scenario = Scenario()
    if "scenario" in raw_sections:
        _reject_unknown("scenario", raw_sections["scenario"], {"name"})
        name = raw_sections["scenario"].get("name", "").strip()
        scenario = next((s for s in SCENARIOS
                         if s.name.lower() == name.replace("_", "").lower()), None)
        if scenario is None:
            raise ConfigError(f"[scenario] name must be one of"
                              f" {', '.join(s.name for s in SCENARIOS)}, got {name!r}")
        if not scenario.relative and network_spec is None:
            raise ConfigError(f"scenario {scenario.name} needs a [network] section")
        if scenario.relative and "initial" in raw_sections.get("simulation", {}):
            raise ConfigError(f"{scenario.name} starts every household at relative"
                              " wealth 1; [simulation] initial does not apply")
    if network_spec is not None and "file" not in network_spec:
        # a network file is checked where it is loaded
        f = network_spec["n_firms"]
        for side in scenario.pinned:
            key = f"{side}_spread"
            if network_spec[key] != f:
                raise ConfigError(f"{scenario.name} requires {key} = n_firms ({f}),"
                                  f" got {network_spec[key]}")

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
