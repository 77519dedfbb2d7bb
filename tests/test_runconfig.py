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
    load_network,
    save_network,
)
from wealthsim import runconfig
from wealthsim.cli import main
from wealthsim.errors import ConfigError, NetworkBuildError
from wealthsim.scenarios import scenario_economy

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
    assert cfg.scenario.name is None
    assert cfg.network_spec is None
    assert cfg.sweep is None
    assert cfg.initial == "stationary"
    assert cfg.initial_spread == 0.0
    assert cfg.outputs["format"] == "csv"
    assert cfg.overlap_means()[0] == 1.0


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
        """)
    assert cfg.economy.s == 0.25
    assert cfg.economy.nu == 0.04
    assert cfg.production == CES(0.2, 0.7)
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


_PRODUCT_KEY = "[economy]\ns = 0.2\ndelta_theta_product = 300\n"
_COBB_DOUGLAS = "[production]\nkind = cobb_douglas\neps = 0.3\n"
REMOVED_SPELLINGS = {
    "delta_theta_product": (_PRODUCT_KEY + _COBB_DOUGLAS,
                            "[economy] has unknown keys: delta_theta_product"),
    "delta_theta_product_beside_network": (
        _PRODUCT_KEY + _COBB_DOUGLAS + "[network]\nn_households = 20\nn_firms = 20\n"
        "invest_spread = 2\nlabor_spread = 2\n",
        "[economy] has unknown keys: delta_theta_product"),
    "cobbdouglas": ("[economy]\ns = 0.2\n[production]\nkind = cobbdouglas\neps = 0.3\n",
                    "[production] kind must be ces or cobb_douglas, got 'cobbdouglas'"),
}


@pytest.mark.parametrize("command", ["regime", "validate", "simulate", "sweep"])
@pytest.mark.parametrize("spelling", sorted(REMOVED_SPELLINGS))
def test_removed_spellings_are_config_errors(tmp_path, capsys, command, spelling):
    # one name per setting: without a [network] the overlaps are (1, 0, 0),
    # so delta is already the noise-times-overlap product, and the
    # production kind is spelled cobb_douglas
    text, message = REMOVED_SPELLINGS[spelling]
    path = tmp_path / "run.ini"
    path.write_text(text)
    assert main([command, "--config", str(path)]) == 2
    assert message in capsys.readouterr().err


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
    # deterministic labor comes with StaggeredWages, not from a key
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, MINIMAL + "\n[simulation]\nlabor_deterministic = yes\n")
    assert "labor_deterministic" in str(err.value)


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
    assert cfg.scenario.name == "CompleteMarkets"
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, base.format(inv=2, lab=10, name="CompleteMarkets"))
    assert "invest_spread" in str(err.value)
    # labor-only risk pins investments but leaves labor free
    cfg = _load(tmp_path, base.format(inv=10, lab=2, name="LaborOnlyRisk"))
    assert cfg.scenario.name == "LaborOnlyRisk"
    with pytest.raises(ConfigError):
        _load(tmp_path, base.format(inv=5, lab=2, name="LaborOnlyRisk"))
    # names are matched ignoring case and underscores
    cfg = _load(tmp_path, base.format(inv=2, lab=2, name="incomplete_markets"))
    assert cfg.scenario.name == "IncompleteMarkets"
    with pytest.raises(ConfigError):
        _load(tmp_path, base.format(inv=2, lab=2, name="Autarky"))


def test_scenario_pins_hold_for_a_network_file(tmp_path):
    net_path = tmp_path / "net.txt"
    text = MINIMAL + f"\n[network]\nfile = {net_path}\n\n[scenario]\nname = {{}}\n"
    for inv, lab, name, loads in ((10, 10, "CompleteMarkets", True),
                                  (10, 2, "CompleteMarkets", False),
                                  (2, 10, "CompleteMarkets", False),
                                  (10, 2, "LaborOnlyRisk", True),
                                  (5, 10, "LaborOnlyRisk", False)):
        save_network(build_regular(100, 10, inv, lab, seed=1), net_path)
        cfg = _load(tmp_path, text.format(name))
        if loads:
            assert cfg.build_network().n_firms == 10
        else:
            with pytest.raises(NetworkBuildError, match="all 10 firms at weight 1/10"):
                cfg.build_network()
    # every firm held, but not at equal weights
    net_path.write_text("2 2 4 4\n0 0 0.75\n0 1 0.25\n1 0 0.5\n1 1 0.5\n"
                        "0 0 0.5\n0 1 0.5\n1 0 0.5\n1 1 0.5\n")
    with pytest.raises(NetworkBuildError, match="invest side"):
        _load(tmp_path, text.format("LaborOnlyRisk")).build_network()


@pytest.mark.parametrize("offset, full", [(0.0, True), (1e-13, True), (1e-11, False)])
def test_a_file_side_is_full_to_1e_12(tmp_path, offset, full):
    # two households over four firms: invest weights off 1/4 by +-offset,
    # labor rows over two firms each
    w = [0.25 + offset, 0.25 - offset, 0.25 + offset, 0.25 - offset]
    lines = ["2 4 8 4", "0 0 0.5", "0 1 0.5", "1 2 0.5", "1 3 0.5"]
    lines[1:1] = [f"{i} {j} {w[j]!r}" for i in range(2) for j in range(4)]
    net_path = tmp_path / "net.txt"
    net_path.write_text("\n".join(lines) + "\n")
    assert load_network(net_path).full_sides == ({"invest"} if full else frozenset())
    cfg = _load(tmp_path, MINIMAL + f"\n[network]\nfile = {net_path}\n\n"
                "[scenario]\nname = LaborOnlyRisk\n")
    if full:
        assert cfg.build_network().full_sides == {"invest"}
    else:
        with pytest.raises(NetworkBuildError, match="invest side"):
            cfg.build_network()


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
    # the scenario, not the time-stepping plan, carries it into the law
    assert cfg.scenario.fixed_wages is True
    assert not hasattr(cfg.simulation, "labor_deterministic")
    assert scenario_economy(cfg)[2][1:] == (0.0, 0.0)
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
                 "parameter = nu\nstart = 0.1\nstop = 0.5\ncount = nan",
                 "parameter = nu\nvalues = a b",
                 "parameter = theta_bar\nvalues = 1 inf",
                 # a grid key beside values would be ignored
                 "parameter = nu\nvalues = 0.01\nstart = 0.1",
                 "parameter = nu\nvalues = 0.01\ncount = 3"):
        with pytest.raises(ConfigError):
            _load(tmp_path, MINIMAL + "\n[sweep]\n" + tail + "\n")


def test_initial_parsing_errors(tmp_path):
    for line in ("initial = soup", "initial = -2", "initial = inf", "initial_spread = 1.0",
                 "seed = nan", "t_end = inf", "record_every = inf"):
        with pytest.raises(ConfigError):
            _load(tmp_path, MINIMAL + "\n[simulation]\n" + line + "\n")


def test_relative_growth_rejects_initial(tmp_path):
    # relative wealth starts at 1 by construction, so a starting level
    # would be silently ignored
    text = MINIMAL + "\n[scenario]\nname = EndogenousGrowthRelative\n[simulation]\n"
    cfg = _load(tmp_path, text + "initial_spread = 0.1\n")
    assert cfg.scenario.name == "EndogenousGrowthRelative" and cfg.initial_spread == 0.1
    for value in ("5000", "stationary"):
        with pytest.raises(ConfigError, match="initial does not apply"):
            _load(tmp_path, text + f"initial = {value}\n")
    assert main(["simulate", "--config", str(tmp_path / "run.ini")]) == 2

def test_with_seed_round_trips(tmp_path):
    cfg = _load(tmp_path, MINIMAL + "\n[simulation]\ndt = 0.5\nt_end = 10\nseed = 3\n")
    bumped = cfg.with_raw("simulation", seed="99")
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
    assert cfg.overlap_means()[0] == pytest.approx(1.0 / 3.0, rel=1e-12)
    with pytest.raises(ConfigError):
        _load(tmp_path, MINIMAL + "\n[network]\nfile = /nonexistent/net.txt\n")
    # a build key beside file would be ignored
    for line in ("invest_spread = 7", "n_households = 3", "seed = 1"):
        with pytest.raises(ConfigError, match="give either file or"):
            _load(tmp_path, MINIMAL + f"\n[network]\nfile = {net_path}\n{line}\n")


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
    assert cfg.overlap_means() == cfg.overlap_means()
    assert cfg.overlap_means()[0] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert cfg.build_network() is cfg.build_network()
    assert len(calls) == 1


def test_build_network_from_spec(tmp_path):
    cfg = _load(tmp_path, MINIMAL + "\n[network]\n"
                "n_households = 40\nn_firms = 10\n"
                "invest_spread = 2\nlabor_spread = 5\nseed = 3\n")
    net = cfg.build_network()
    assert (net.n_households, net.n_firms) == (40, 10)
    assert cfg.overlap_means()[0] == 0.5
    # the overlaps are the measured ones, to the last bit
    for name in ("complete_markets", "labor_only"):
        shipped = load_config(CONFIG_DIR / f"{name}.ini")
        measured = shipped.build_network().overlap_means()
        assert shipped.overlap_means() == measured
    bare = _load(tmp_path, MINIMAL)
    with pytest.raises(ConfigError):
        bare.build_network()
    for value in ("nan", "inf"):
        with pytest.raises(ConfigError):
            _load(tmp_path, MINIMAL + "\n[network]\n"
                  f"n_households = {value}\nn_firms = 10\n"
                  "invest_spread = 2\nlabor_spread = 5\n")
