"""What importing the package, reading a config and building a target
load, and what the package exports."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import wealthsim

SRC = str(Path(wealthsim.__file__).resolve().parents[1])
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
UNUSED = ("scipy.special", "scipy.optimize", "scipy.interpolate")


def _printed_by(code):
    """The JSON value a fresh interpreter prints last when running ``code``."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def _loaded_after(code):
    """Modules a fresh interpreter holds after running ``code``."""
    return _printed_by(code + "\nimport json, sys; print(json.dumps(sorted(sys.modules)))")


def _scipy_extras(loaded):
    return [m for m in loaded if m.startswith(UNUSED)]


def _scipy(loaded):
    return [m for m in loaded if m == "scipy" or m.startswith("scipy.")]


def test_import_loads_no_scipy():
    # roots, the Pearson IV cdf and the incomplete gamma live in the
    # package, and the CSR kernels wait for the first network config
    loaded = _loaded_after("import wealthsim")
    assert "wealthsim" in loaded
    assert _scipy(loaded) == []


def test_pearson_target_loads_no_scipy_special():
    loaded = _loaded_after(
        "from wealthsim import load_config\n"
        "from wealthsim.scenarios import _closed_form\n"
        f"target = _closed_form(load_config({str(CONFIGS / 'incomplete_markets.ini')!r}))[2]\n"
        "assert type(target).__name__ == 'PearsonType4Density'\n"
        "target.cdf([1.0, 7.0]); target.quantile([0.1, 0.9])")
    assert _scipy_extras(loaded) == []


def test_gamma_and_gaussian_targets_load_no_scipy():
    loaded = _loaded_after(
        "from wealthsim import GaussianDensity, InverseGammaDensity, relative_wealth_density\n"
        "for d in (relative_wealth_density(2.5), InverseGammaDensity(1.5, 2.0, -1.0),\n"
        "          GaussianDensity(3.0, 0.25)):\n"
        "    d.cdf([0.5, 1.0, 3.0]); d.quantile([0.1, 0.5, 0.9])")
    assert _scipy(loaded) == []


# what scipy's array-API namespace clone pulls in, and scipy.sparse itself
NAMESPACE_CLONE = ("scipy.sparse", "numpy.ma", "numpy.f2py", "numpy.testing")


def test_network_runs_load_the_csr_kernels_and_no_scipy_sparse(tmp_path):
    # reading a network config loads the compiled kernels, so the load
    # counts in set-up; a shortened flagship run, its checks and its
    # regime line then load none of scipy.sparse's baggage
    config = str(CONFIGS / "incomplete_markets.ini")
    loaded = _printed_by(
        "import contextlib, io, json, sys\n"
        "from wealthsim import load_config, run_scenario\n"
        "from wealthsim.cli import main\n"
        "from wealthsim.scenarios import validate_checks\n"
        f"cfg = load_config({config!r})\n"
        "after_load = sorted(sys.modules)\n"
        "short = cfg.with_raw('simulation', t_end='40', burn_in='20', record_every='5')\n"
        f"run_scenario(short, out_dir={str(tmp_path / 'run')!r})\n"
        "validate_checks(cfg)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main(['regime', '--config', {config!r}])\n"
        "print(json.dumps({'after_load': after_load, 'after_run': sorted(sys.modules),\n"
        "                  'code': code}))")
    assert "wealthsim._sparsetools" in loaded["after_load"]
    assert loaded["code"] == 0
    assert _scipy(loaded["after_run"]) == []
    assert [m for m in loaded["after_run"]
            if any(m == p or m.startswith(p + ".") for p in NAMESPACE_CLONE)] == []
    assert (tmp_path / "run" / "panel.csv").stat().st_size > 0


def test_scipy_sparse_imports_after_the_kernels_and_gives_their_products():
    # the kernels loaded by path first, then the real package, which loads
    # its own copy of the extension
    same = _printed_by(
        "import json\n"
        "import numpy as np\n"
        "from wealthsim import build_regular\n"
        "from wealthsim.simulate import _flow_rows, _stream\n"
        "net = build_regular(60, 30, 3, 5, seed=4)\n"
        "draws = _stream(2, 0).standard_normal((4, 30))\n"
        "rows = np.empty((4, 121))\n"
        "_flow_rows(net, draws, True, rows)\n"
        "import scipy.sparse as sp\n"
        "m = sp.csr_matrix((net.flow_rows.data, net.flow_rows.indices, net.flow_rows.indptr),\n"
        "                  shape=net.flow_rows.shape)\n"
        "print(json.dumps([bool(np.array_equal(rows[:, :120], (m @ draws.T).T)),\n"
        "                  bool(np.array_equal(rows[0, :120], m @ draws[0]))]))")
    assert same == [True, True]


def test_a_network_without_scipy_names_what_it_searched():
    message = _printed_by(
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from wealthsim.network import _csr_kernels\n"
        "try:\n"
        "    _csr_kernels()\n"
        "except ImportError as exc:\n"
        "    print(json.dumps(str(exc)))")
    assert "scipy" in message and "searched" in message


def test_runs_without_a_network_need_no_scipy(tmp_path):
    # a shortened endogenous_growth scenario, its regime line and the
    # nu sweep, with every scipy import made to fail
    summary = _printed_by(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import contextlib, io, json\n"
        "from wealthsim import load_config, run_scenario\n"
        "from wealthsim.cli import main\n"
        f"cfg = load_config({str(CONFIGS / 'endogenous_growth.ini')!r}).with_raw(\n"
        "    'simulation', t_end='50', burn_in='40', record_every='5')\n"
        f"summary = run_scenario(cfg, out_dir={str(tmp_path / 'growth')!r})\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(['regime', '--config', {str(CONFIGS / 'endogenous_growth.ini')!r}]),\n"
        f"             main(['sweep', '--config', {str(CONFIGS / 'nu_sweep.ini')!r},\n"
        f"                   '--out', {str(tmp_path / 'sweep')!r}])]\n"
        "print(json.dumps({'codes': codes, 'ks': summary['ks_distance'],\n"
        "                  'scipy': [m for m in sys.modules if m.startswith('scipy.')],\n"
        "                  'numpy_ma': 'numpy.ma' in sys.modules}))")
    assert summary["codes"] == [0, 0]
    assert 0.0 < summary["ks"] < 1.0
    assert summary["scipy"] == []
    # nor numpy.ma, which scipy's namespace clone and np.unique import
    assert summary["numpy_ma"] is False
    assert {p.name for p in (tmp_path / "growth").iterdir()} >= {"density.csv", "summary.json"}
    assert (tmp_path / "sweep" / "sweep.csv").stat().st_size > 0


def test_package_exports_its_modules_lists():
    # every module with an __all__, in the alphabetical order that
    # __init__ imports them; cli and __main__ have none
    modules = [importlib.import_module(f"wealthsim.{info.name}")
               for info in pkgutil.iter_modules(wealthsim.__path__)
               if info.name != "__main__"]
    lists = [m.__all__ for m in modules if hasattr(m, "__all__")]
    assert len(lists) == 9
    assert wealthsim.__all__ == [name for names in lists for name in names]
    assert len(set(wealthsim.__all__)) == len(wealthsim.__all__)
    for name in wealthsim.__all__:
        assert getattr(wealthsim, name) is not None, name


def test_star_import_binds_exactly_all():
    bound = _printed_by("before = set(dir())\nfrom wealthsim import *\n"
                        "print(__import__('json').dumps(sorted(set(dir()) - before - {'before'})))")
    assert bound == sorted(wealthsim.__all__)
