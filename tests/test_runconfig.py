"""Run-description files: parsing, defaults, scenario constraints."""

import textwrap
from pathlib import Path

import numpy as np
import pytest

from wealthsim import (
    CES,
    CobbDouglas,
    EconomyParams,
    SimulationConfig,
    build_regular,
    config_from_dict,
    load_config,
    save_network,
)
from wealthsim import runconfig
from wealthsim.errors import ConfigError

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _load(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(textwrap.dedent(text))
    return load_config(path)


MINIMAL = """\
    [economy]
    s = 0.2

    [production]
    kind = cobb_douglas
    eps = 0.3
    """


def test_minimal_config_defaults(tmp_path):
    cfg = _load(tmp_path, MINIMAL)
    assert cfg.economy == EconomyParams(s=0.2)
    assert cfg.production == CobbDouglas(0.3)
    assert cfg.simulation == SimulationConfig(dt=0.01, t_end=100.0)
    assert cfg.scenario is None
    assert cfg.network_spec is None
    assert cfg.sweep is None
    assert cfg.initial == "stationary"
    assert cfg.initial_spread == 0.0
    assert cfg.outputs["format"] == "csv"
    assert cfg.theta_bar() == 1.0


def test_inline_comments_and_types(tmp_path):
    cfg = _load(tmp_path, """\
        [economy]
        s = 0.25        # saving rate
        nu = 0.04       ; consumption rate
        delta = 700

        [production]
        kind = ces
        eps = 0.2
        gam = 0.7

        [simulation]
        dt = 0.1
        t_end = 50
        initial = 3.5
        initial_spread = 0.2
        labor_deterministic = yes
        """)
    assert cfg.economy.s == 0.25
    assert cfg.economy.nu == 0.04
    assert cfg.production == CES(0.2, 0.7)
    assert cfg.simulation.labor_deterministic is True
    assert cfg.initial == 3.5
    assert cfg.initial_spread == 0.2


def test_round_trip_through_dict_echo(tmp_path):
    cfg = load_config(CONFIG_DIR / "incomplete_markets.ini")
    back = config_from_dict(cfg.to_dict())
    assert back.economy == cfg.economy
    assert back.production == cfg.production
    assert back.simulation == cfg.simulation
    assert back.scenario == cfg.scenario
    assert back.network_spec == cfg.network_spec
    assert back.initial == cfg.initial
    assert back.initial_spread == cfg.initial_spread


def test_shipped_configs_all_parse():
    paths = sorted(CONFIG_DIR.glob("*.ini"))
    assert len(paths) >= 6
    for path in paths:
        cfg = load_config(path)
        assert cfg.economy.s > 0.0


def test_delta_theta_product(tmp_path):
    cfg = _load(tmp_path, """\
        [economy]
        s = 0.2
        tau_k = 0.2
        nu = 0.01
        delta_theta_product = 300

        [production]
        kind = ces
        eps = 0.2
        gam = 0.7
        """)
    assert cfg.economy.delta == 300.0
    assert cfg.theta_bar() == 1.0
    with pytest.raises(ConfigError):
        _load(tmp_path, """\
            [economy]
            s = 0.2
            delta = 1
            delta_theta_product = 300

            [production]
            kind = cobb_douglas
            eps = 0.3
            """)


def test_invalid_economy_values_are_collected(tmp_path):
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, """\
            [economy]
            s = 1.5
            nu = -0.1

            [production]
            kind = cobb_douglas
            eps = 0.3
            """)
    msg = str(err.value)
    assert "s=1.5" in msg and "nu=-0.1" in msg


def test_production_section_errors(tmp_path):
    base = """\
        [economy]
        s = 0.2

        [production]
        {lines}
        """
    for lines in ("kind = ces\neps = 0.2",          # missing gam
                  "kind = leontief\neps = 0.2",     # unknown kind
                  "kind = ces\neps = 1.2\ngam = 0.7",
                  "kind = cobb_douglas\neps = 0.3\ngam = 0.7"):  # stray key
        with pytest.raises(ConfigError):
            _load(tmp_path, base.format(lines=textwrap.indent(lines, " " * 8).lstrip()))


def test_unknown_keys_and_sections(tmp_path):
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, MINIMAL + "\n[economy2]\nx = 1\n")
    assert "economy2" in str(err.value)
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, MINIMAL + "\n[simulation]\ntimestep = 0.1\n")
    assert "timestep" in str(err.value)
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, MINIMAL + "\n[simulation]\nnoise_model = direct_covariance\n")
    assert "noise_model" in str(err.value)
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, MINIMAL + "\n[simulation]\nscheme = milstein\n")
    assert "scheme" in str(err.value)


def test_scenario_pins_network_spreads(tmp_path):
    base = """\
        [economy]
        s = 0.2

        [production]
        kind = cobb_douglas
        eps = 0.3

        [network]
        n_households = 100
        n_firms = 10
        invest_spread = {inv}
        labor_spread = {lab}

        [scenario]
        name = {name}
        """
    cfg = _load(tmp_path, base.format(inv=10, lab=10, name="CompleteMarkets"))
    assert cfg.scenario == "CompleteMarkets"
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, base.format(inv=2, lab=10, name="CompleteMarkets"))
    assert "invest_spread" in str(err.value)
    # labor-only risk pins investments but leaves labor free
    cfg = _load(tmp_path, base.format(inv=10, lab=2, name="LaborOnlyRisk"))
    assert cfg.scenario == "LaborOnlyRisk"
    with pytest.raises(ConfigError):
        _load(tmp_path, base.format(inv=5, lab=2, name="LaborOnlyRisk"))
    # names are matched ignoring case and underscores
    cfg = _load(tmp_path, base.format(inv=2, lab=2, name="incomplete_markets"))
    assert cfg.scenario == "IncompleteMarkets"
    with pytest.raises(ConfigError):
        _load(tmp_path, base.format(inv=2, lab=2, name="Autarky"))


def test_staggered_wages_forces_deterministic_labor(tmp_path):
    base = """\
        [economy]
        s = 0.2

        [production]
        kind = cobb_douglas
        eps = 0.3

        [network]
        n_households = 100
        n_firms = 10
        invest_spread = 2
        labor_spread = 2

        [scenario]
        name = StaggeredWages
        """
    cfg = _load(tmp_path, base)
    assert cfg.simulation.labor_deterministic is True
    with pytest.raises(ConfigError):
        _load(tmp_path, base + "\n[simulation]\nlabor_deterministic = false\n")


def test_sweep_values_and_grid(tmp_path):
    cfg = _load(tmp_path, MINIMAL + "\n[sweep]\nparameter = nu\nvalues = 0.01, 0.02 0.03\n")
    name, grid = cfg.sweep
    assert name == "nu"
    np.testing.assert_array_equal(grid, [0.01, 0.02, 0.03])
    cfg = _load(tmp_path, MINIMAL + "\n[sweep]\nparameter = s\nstart = 0.1\nstop = 0.5\ncount = 5\n")
    np.testing.assert_allclose(cfg.sweep[1], np.linspace(0.1, 0.5, 5))
    for tail in ("parameter = alpha\nvalues = 1 2",
                 "parameter = nu\nvalues =",
                 "parameter = nu\nstart = 0.1\nstop = 0.5\ncount = 0",
                 "parameter = nu\nvalues = a b"):
        with pytest.raises(ConfigError):
            _load(tmp_path, MINIMAL + "\n[sweep]\n" + tail + "\n")


def test_initial_parsing_errors(tmp_path):
    for line in ("initial = soup", "initial = -2", "initial_spread = 1.0"):
        with pytest.raises(ConfigError):
            _load(tmp_path, MINIMAL + "\n[simulation]\n" + line + "\n")


def test_with_seed_round_trips(tmp_path):
    cfg = _load(tmp_path, MINIMAL + "\n[simulation]\ndt = 0.5\nt_end = 10\nseed = 3\n")
    bumped = cfg.with_seed(99)
    assert bumped.simulation.seed == 99
    assert bumped.simulation.dt == 0.5
    assert cfg.simulation.seed == 3
    assert bumped.to_dict()["simulation"]["seed"] == "99"
    # reparse of the echoed text preserves the bump
    assert config_from_dict(bumped.to_dict()).simulation.seed == 99


def test_network_from_file(tmp_path):
    net = build_regular(6, 3, 3, 1, seed=0)
    net_path = tmp_path / "net.txt"
    save_network(net, net_path)
    cfg = _load(tmp_path, MINIMAL + f"\n[network]\nfile = {net_path}\n")
    loaded = cfg.build_network()
    assert loaded.n_households == 6
    assert loaded.n_firms == 3
    assert cfg.theta_bar() == pytest.approx(1.0 / 3.0, rel=1e-12)
    with pytest.raises(ConfigError):
        _load(tmp_path, MINIMAL + "\n[network]\nfile = /nonexistent/net.txt\n")


def test_network_file_is_loaded_once_per_config(tmp_path, monkeypatch):
    net_path = tmp_path / "net.txt"
    save_network(build_regular(6, 3, 3, 1, seed=0), net_path)
    calls = []

    def counting_load(path, load=runconfig.load_network):
        calls.append(path)
        return load(path)

    monkeypatch.setattr(runconfig, "load_network", counting_load)
    cfg = _load(tmp_path, MINIMAL + f"\n[network]\nfile = {net_path}\n")
    assert calls == []      # parsing the config does not load the network
    assert cfg.theta_bar() == cfg.theta_bar() == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert cfg.build_network() is cfg.build_network()
    assert len(calls) == 1


def test_build_network_from_spec(tmp_path):
    cfg = _load(tmp_path, MINIMAL + "\n[network]\n"
                "n_households = 40\nn_firms = 10\n"
                "invest_spread = 2\nlabor_spread = 5\nseed = 3\n")
    net = cfg.build_network()
    assert (net.n_households, net.n_firms) == (40, 10)
    assert cfg.theta_bar() == 0.5
    bare = _load(tmp_path, MINIMAL)
    with pytest.raises(ConfigError):
        bare.build_network()
