"""Shared benchmark economies and their hand-derived equilibria."""

import configparser
from pathlib import Path

import pytest

from wealthsim import CES, CobbDouglas, EconomyParams, load_config, save_network

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# Cobb-Douglas benchmark, stationary regime.  The aggregate balance
# s*a*p**0.3 = nu*p gives p_bar_star = (s*a/nu)**(1/0.7) = 4**(1/0.7),
# and the prices follow from the derivative at that point:
# rho_star = 0.3 * p_bar_star**(-0.7) = 0.3/4, omega_star = 0.7 * 4**(3/7).
P_BAR_STAR = 4.0 ** (1.0 / 0.7)        # 7.245789314111254
RHO_STAR = 0.075
OMEGA_STAR = 0.7 * 4.0 ** (3.0 / 7.0)  # 1.2680131299694692

# CES growth benchmark: the capital return saturates at
# a * eps**(1/gam) = 0.2**(1/0.7), and growth needs nu below s times that.
RHO_INF = 0.2 ** (1.0 / 0.7)           # 0.10033938212454079
NU_STAR = 0.2 * RHO_INF                # 0.02006787642490816

# the shipped scenario configs cut to a few hundred steps ([simulation] keys)
SHORT_RUNS = {
    "complete_markets": {"t_end": "50", "record_every": "10"},
    "labor_only": {"t_end": "60", "burn_in": "20", "record_every": "10"},
    "incomplete_markets": {"t_end": "40", "burn_in": "20", "record_every": "5"},
    "staggered_wages": {"t_end": "40", "burn_in": "20", "record_every": "5"},
    "endogenous_growth": {"t_end": "50", "burn_in": "40", "record_every": "2.5"},
}


@pytest.fixture(scope="session")
def cd_benchmark():
    params = EconomyParams(s=0.2, tau_k=0.2, tau_l=0.1, chi=0.0,
                           nu=0.05, a=1.0, delta=1.0)
    return params, CobbDouglas(0.3)


@pytest.fixture(scope="session")
def ces_growth():
    params = EconomyParams(s=0.2, tau_k=0.2, chi=0.0, nu=0.01, a=1.0, delta=300.0)
    return params, CES(0.2, 0.7)


@pytest.fixture(scope="session")
def saved_network_config(tmp_path_factory):
    """``name -> path`` of a copy of ``configs/<name>.ini`` whose ``[network]``
    is ``file =`` a saved copy of the network that config builds."""
    root = tmp_path_factory.mktemp("saved_networks")
    paths = {}

    def make(name):
        if name not in paths:
            source = CONFIG_DIR / f"{name}.ini"
            net = root / f"{name}.net"
            save_network(load_config(source).build_network(), net)
            ini = configparser.ConfigParser()
            ini.read(source)
            ini["network"] = {"file": str(net)}
            paths[name] = root / f"{name}.ini"
            with open(paths[name], "w") as fh:
                ini.write(fh)
        return paths[name]

    return make
