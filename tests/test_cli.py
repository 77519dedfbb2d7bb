"""Command-line interface: output, exit codes, overrides."""

import csv
import io
import json
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import wealthsim.errors as errors_mod
from wealthsim import build_regular, config_from_dict, save_network
from wealthsim.cli import _build_parser, main
from wealthsim.errors import WealthsimError

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

SMALL_RUN = """\
    [economy]
    s = 0.2
    tau_k = 0.2
    tau_l = 0.1
    nu = 0.05
    delta = 700

    [production]
    kind = cobb_douglas
    eps = 0.3

    [network]
    n_households = 100
    n_firms = 100
    invest_spread = 2
    labor_spread = 10
    seed = 7

    [simulation]
    dt = 0.1
    t_end = 30
    burn_in = 10
    record_every = 5
    seed = 2
    initial = stationary
    initial_spread = 0.2

    [scenario]
    name = IncompleteMarkets
    """


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def test_regime_stationary_line(capsys):
    rc = main(["regime", "--config", str(CONFIG_DIR / "incomplete_markets.ini")])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("Stationary, ")
    assert "p_bar_star=7.24579" in out
    assert "rho_star=0.075" in out
    assert "omega_star=1.26801" in out
    assert "alpha=2.50794" in out


def test_regime_growth_line(capsys):
    rc = main(["regime", "--config", str(CONFIG_DIR / "endogenous_growth.ini")])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("EndogenousGrowth, ")
    assert "psi=0.0100679" in out
    assert "rho_star=0.100339" in out
    assert "alpha=4.11443" in out


def test_regime_writes_json(tmp_path, capsys):
    out_dir = tmp_path / "report"
    rc = main(["regime", "--config", str(CONFIG_DIR / "incomplete_markets.ini"),
               "--out", str(out_dir)])
    assert rc == 0
    capsys.readouterr()
    data = json.loads((out_dir / "regime.json").read_text())
    assert data["regime"]["regime"] == "stationary"
    assert data["config"]["economy"]["delta"] == "700"


def test_regime_reports_the_pooled_economy(tmp_path, capsys):
    # CompleteMarkets pools the firm noise away, so there is no Pareto tail
    out_dir = tmp_path / "report"
    rc = main(["regime", "--config", str(CONFIG_DIR / "complete_markets.ini"),
               "--out", str(out_dir)])
    assert rc == 0
    assert capsys.readouterr().out == (
        "Stationary, p_bar_star=7.24579, rho_star=0.075, omega_star=1.26801\n")
    data = json.loads((out_dir / "regime.json").read_text())
    assert data["regime"]["tail_exponent"] is None
    assert data["config"]["economy"]["delta"] == "1.0"


# the flags each command reads besides --config, and a value for every flag
COMMAND_FLAGS = {"regime": {"--out"}, "simulate": {"--out", "--seed", "--format", "--threads"},
                 "sweep": {"--out"}, "validate": set()}
FLAG_VALUES = {"--out": "o", "--seed": "5", "--format": "json", "--threads": "0"}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
@pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
def test_each_command_takes_only_the_flags_it_reads(command, flag, capsys):
    argv = [command, "--config", str(CONFIG_DIR / "nu_sweep.ini"), flag, FLAG_VALUES[flag]]
    if flag in COMMAND_FLAGS[command]:
        args = _build_parser().parse_args(argv)
        assert str(getattr(args, flag[2:])) == FLAG_VALUES[flag]
        return
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_help_lists_only_the_flags_a_command_reads(command, capsys):
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    shown = set(re.findall(r"--\w+", capsys.readouterr().out))
    assert shown == COMMAND_FLAGS[command] | {"--config", "--help"}


def test_simulate_writes_outputs(tmp_path, capsys):
    cfg = _write(tmp_path, SMALL_RUN)
    out_dir = tmp_path / "out"
    rc = main(["simulate", "--config", cfg, "--out", str(out_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("IncompleteMarkets: 5 snapshots")
    assert "alpha_analytic" in out
    assert "ks_distance" in out
    assert (out_dir / "summary.json").exists()
    assert (out_dir / "panel.csv").exists()
    assert (out_dir / "ccdf.csv").exists()


def test_simulate_format_override(tmp_path, capsys):
    cfg = _write(tmp_path, SMALL_RUN)
    out_dir = tmp_path / "out"
    rc = main(["simulate", "--config", cfg, "--out", str(out_dir),
               "--format", "json"])
    assert rc == 0
    capsys.readouterr()
    assert not (out_dir / "panel.csv").exists()
    # the echoed config carries the override
    echo = json.loads((out_dir / "summary.json").read_text())["config"]
    assert config_from_dict(echo).outputs["format"] == "json"


def test_sweep_stdout_matches_file(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    rc = main(["sweep", "--config", str(CONFIG_DIR / "nu_sweep.ini"),
               "--out", str(out_dir)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert stdout == (out_dir / "sweep.csv").read_text()

    lines = stdout.strip().splitlines()
    assert lines[0] == "parameter,value,regime,alpha,p_bar_star,psi_eg"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 10
    growth = [r for r in rows if r[2] == "endogenous_growth"]
    stationary = [r for r in rows if r[2] == "stationary"]
    assert len(growth) == 5 and len(stationary) == 5
    # the growth-side index does not move with the consumption rate
    assert {r[3] for r in growth} == {"1.1038143393561817"}
    assert all(r[5] and not r[4] for r in growth)
    assert all(r[4] and not r[5] for r in stationary)
    p_bars = [float(r[4]) for r in stationary]
    alphas = [float(r[3]) for r in stationary]
    assert p_bars == sorted(p_bars, reverse=True)
    assert alphas == sorted(alphas)


@pytest.mark.parametrize("name, parameter", [
    *(pytest.param("complete_markets", p, id=p) for p in ("nu", "delta")),
    *(pytest.param("labor_only", p, id=f"labor_only-{p}") for p in ("nu", "delta", "theta_bar")),
])
def test_sweep_evaluates_the_scenario_economy(tmp_path, name, parameter, capsys):
    # the grid value is set first, then the scenario's pins: CompleteMarkets
    # pools the firm noise away and LaborOnlyRisk's pinned invest side shuts
    # the capital noise (a swept theta_bar too), so neither has an alpha in
    # a sweep, as in regime
    value = {"nu": "0.05", "delta": "1.0", "theta_bar": "0.5"}[parameter]
    text = (CONFIG_DIR / f"{name}.ini").read_text()
    cfg = _write(tmp_path, text + f"\n[sweep]\nparameter = {parameter}\nvalues = {value}\n")
    assert main(["regime", "--config", cfg]) == 0
    assert "alpha" not in capsys.readouterr().out
    assert main(["sweep", "--config", cfg]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[2:] == ["stationary", "", "7.2457893141112528", ""]


def test_validate_passes(capsys):
    rc = main(["validate", "--config", str(CONFIG_DIR / "incomplete_markets.ini")])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert len(report["checks"]) == 7


@pytest.mark.parametrize("name", ["complete_markets", "labor_only"])
def test_validate_checks_a_saved_network_like_the_built_one(saved_network_config, name,
                                                            capsys):
    # the covariance probe takes its spreads from the network, not the INI keys
    assert main(["validate", "--config", str(CONFIG_DIR / f"{name}.ini")]) == 0
    built = capsys.readouterr().out
    assert main(["validate", "--config", str(saved_network_config(name))]) == 0
    assert capsys.readouterr().out == built


@pytest.mark.parametrize("name, labor_spread", [("LaborOnlyRisk", 2), ("CompleteMarkets", 10)])
def test_validate_continuity_without_capital_noise(tmp_path, name, labor_spread, capsys):
    # a growth-capable CES economy whose scenario pins the invest side: the
    # law has no capital noise, so there is no tail index to continue
    cfg = _write(tmp_path, f"""\
        [economy]
        s = 0.2
        tau_k = 0.2
        nu = 0.01
        delta = 300

        [production]
        kind = ces
        eps = 0.2
        gam = 0.7

        [network]
        n_households = 20
        n_firms = 10
        invest_spread = 10
        labor_spread = {labor_spread}
        seed = 1

        [scenario]
        name = {name}
        """)
    assert main(["validate", "--config", cfg]) == 0
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["transition_continuity"]["passed"]
    assert "no tail index to continue" in checks["transition_continuity"]["detail"]


def test_validate_failure_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(
        "wealthsim.cli.validate_checks",
        lambda cfg: [{"name": "euler_identity", "passed": False, "detail": "off"}])
    rc = main(["validate", "--config", str(CONFIG_DIR / "incomplete_markets.ini")])
    assert rc == 1
    captured = capsys.readouterr()
    assert "failing checks: euler_identity" in captured.err


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, SMALL_RUN.replace("s = 0.2", "s = 1.5"))
    rc = main(["regime", "--config", cfg])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "s=1.5" in err

    rc = main(["regime", "--config", str(tmp_path / "missing.ini")])
    assert rc == 2
    assert "cannot read config" in capsys.readouterr().err

    # a key the other form of the section would ignore
    net = tmp_path / "net.txt"
    save_network(build_regular(100, 100, 2, 10, seed=7), net)
    cfg = _write(tmp_path, SMALL_RUN.replace("seed = 7", f"seed = 7\n    file = {net}"))
    assert main(["regime", "--config", cfg]) == 2
    assert "give either file or" in capsys.readouterr().err
    cfg = _write(tmp_path, SWEEP_ECONOMY.format(parameter="nu") + "start = 0.01\n")
    assert main(["sweep", "--config", cfg]) == 2
    assert "give either values or start" in capsys.readouterr().err


def test_corrupt_network_file_exits_1(tmp_path, capsys):
    # a sweep fails as a whole, not with one error row per grid value
    net = tmp_path / "net.txt"
    cfg = _write(tmp_path, SMALL_RUN.replace(
        "n_households = 100\n    n_firms = 100\n    invest_spread = 2\n"
        "    labor_spread = 10\n    seed = 7\n", f"file = {net}\n")
        + "\n    [sweep]\n    parameter = nu\n    values = 0.04 0.05\n")
    for text in ("1 2 1 1\n0 0 nan\n0 1 1.0\n",     # non-finite weight
                 "1 2 1 1\n0 1.0 1.0\n0 1 1.0\n",   # non-integral index
                 "1 2 1 1\n# invest\n0 0 1.0\n0 1 1.0\n",
                 "1 2 2 1\n0 0 0.5\n0 0 0.5\n0 1 1.0\n",  # repeated triplet
                 "1 2 1 1\n0 0 1.0\n0 1 0.5\n"):  # labor row sums to 0.5
        net.write_text(text)
        for command in (["regime"], ["validate"], ["sweep"],
                        ["simulate", "--out", str(tmp_path / "o")]):
            assert main([command[0], "--config", cfg] + command[1:]) == 1, (text, command)
    assert "NetworkBuildError" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("seed", -1), ("n_households", -2000),
                                        ("n_households", 0)])
def test_unbuildable_network_keys_exit_1(tmp_path, key, value, capsys):
    line = {"seed": "seed = 7", "n_households": "n_households = 100"}[key]
    cfg = _write(tmp_path, SMALL_RUN.replace(line, f"{key} = {value}"))
    assert main(["regime", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: NetworkBuildError: ")


def test_pinned_scenarios_check_a_network_file(tmp_path, capsys):
    # CompleteMarkets and LaborOnlyRisk spread investments over every firm
    net = tmp_path / "net.txt"
    base = SMALL_RUN.replace(
        "n_households = 100\n    n_firms = 100\n    invest_spread = 2\n"
        "    labor_spread = 10\n    seed = 7\n", f"file = {net}\n")
    for scenario in ("CompleteMarkets", "LaborOnlyRisk"):
        cfg = _write(tmp_path, base.replace("IncompleteMarkets", scenario))
        for spread, code in ((2, 1), (10, 0)):
            save_network(build_regular(100, 10, spread, spread, seed=7), net)
            for command in (["regime"], ["validate"],
                            ["simulate", "--out", str(tmp_path / "o")]):
                rc = main([command[0], "--config", cfg] + command[1:])
                assert rc == code, (scenario, spread, command)
    assert "at weight 1/10" in capsys.readouterr().err


SWEEP_ECONOMY = """\
    [economy]
    s = 0.2
    tau_k = 0.2
    nu = 0.05
    delta = 300

    [production]
    kind = cobb_douglas
    eps = 0.3

    [sweep]
    parameter = {parameter}
    values = -1 0 0.5 2
"""


def test_sweep_out_of_range_values_give_error_rows(tmp_path, capsys):
    # theta_bar = sum_j w_ij**2 of a row-stochastic row lies in [1/F, 1],
    # so -1, 0 and 2 are as impossible as delta = -1
    rows = {}
    for parameter in ("delta", "theta_bar"):
        cfg = _write(tmp_path, SWEEP_ECONOMY.format(parameter=parameter))
        assert main(["sweep", "--config", cfg]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        rows[parameter] = [ln.split(",") for ln in lines]
    delta, theta = rows["delta"], rows["theta_bar"]
    assert delta[0][2].startswith("invalid economy parameters") and delta[0][3:] == ["", "", ""]
    assert [r[2] for r in delta[1:]] == ["stationary"] * 3
    for row in (theta[0], theta[1], theta[3]):
        assert row[2].endswith("must be > 0 and at most 1")
        assert row[3:] == ["", "", ""]
    assert theta[2][2] == "stationary" and float(theta[2][3]) > 1.0


def test_sweep_quotes_an_error_with_a_comma(tmp_path, capsys):
    text = SWEEP_ECONOMY.format(parameter="tau_k").replace("-1 0 0.5 2", "0 0.99 1")
    cfg = _write(tmp_path, text)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    printed = capsys.readouterr().out
    written = (tmp_path / "out" / "sweep.csv").read_text()
    assert printed == written
    assert '"invalid economy parameters: tau_k=1.0 must lie in [0, 1)"' in written
    rows = list(csv.reader(io.StringIO(written)))
    assert len(rows) == 4 and all(len(row) == 6 for row in rows)
    assert rows[3][2] == "invalid economy parameters: tau_k=1.0 must lie in [0, 1)"
    assert [row[2] for row in rows[1:3]] == ["stationary"] * 2


def test_knife_edge_exits_3(tmp_path, capsys):
    cfg = _write(tmp_path, """\
        [economy]
        s = 0.2
        tau_k = 0.2
        nu = 0.02006787642490816
        delta = 300

        [production]
        kind = ces
        eps = 0.2
        gam = 0.7
        """)
    rc = main(["regime", "--config", cfg])
    assert rc == 3
    assert capsys.readouterr().err.startswith("knife-edge:")


def test_bad_thread_count_fails_before_the_regime(tmp_path, capsys):
    # a knife-edge economy exits 3 once classified; a bad count is a config
    # error found before that
    cfg = _write(tmp_path, """\
        [economy]
        s = 0.2
        tau_k = 0.2
        nu = 0.02006787642490816
        delta = 300

        [production]
        kind = ces
        eps = 0.2
        gam = 0.7

        [network]
        n_households = 20
        n_firms = 20
        invest_spread = 2
        labor_spread = 2

        [simulation]
        dt = 0.1
        t_end = 30

        [scenario]
        name = IncompleteMarkets
        """)
    assert main(["simulate", "--config", cfg]) == 3
    assert main(["simulate", "--config", cfg, "--threads", "0"]) == 2
    assert "thread count must be positive" in capsys.readouterr().err


def test_seed_override_is_deterministic(tmp_path, capsys):
    cfg = _write(tmp_path, SMALL_RUN)
    panels = {}
    for label, seed in (("a", 1), ("b", 1), ("c", 2)):
        out_dir = tmp_path / label
        assert main(["simulate", "--config", cfg, "--out", str(out_dir),
                     "--seed", str(seed)]) == 0
        panels[label] = (out_dir / "panel.csv").read_bytes()
    capsys.readouterr()
    assert panels["a"] == panels["b"]
    assert panels["a"] != panels["c"]


def test_threads_hint_never_changes_results(tmp_path, capsys):
    cfg = _write(tmp_path, SMALL_RUN)
    outs = []
    for label, extra in (("t1", ["--threads", "1"]), ("t4", ["--threads", "4"])):
        out_dir = tmp_path / label
        assert main(["simulate", "--config", cfg, "--out", str(out_dir)] + extra) == 0
        outs.append((out_dir / "panel.csv").read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]

    assert main(["simulate", "--config", cfg, "--threads", "0"]) == 2
    assert "thread count" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "wealthsim", "regime",
         "--config", str(CONFIG_DIR / "incomplete_markets.ini")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("Stationary, ")


def test_every_error_is_a_wealthsim_error():
    for name in errors_mod.__all__:
        cls = getattr(errors_mod, name)
        assert issubclass(cls, WealthsimError)
    assert issubclass(WealthsimError, Exception)
