"""What importing the package, and building a target, loads, and what
the package exports."""

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


def test_import_loads_no_scipy_optimize_or_interpolate():
    # roots and the Pearson IV cdf live in the package, and scipy.special
    # waits for a target that calls it
    loaded = _loaded_after("import wealthsim")
    assert "wealthsim" in loaded and "scipy.sparse" in loaded
    assert _scipy_extras(loaded) == []


def test_pearson_target_loads_no_scipy_special():
    loaded = _loaded_after(
        "from wealthsim import load_config\n"
        "from wealthsim.scenarios import _closed_form\n"
        f"target = _closed_form(load_config({str(CONFIGS / 'incomplete_markets.ini')!r}))[2]\n"
        "assert type(target).__name__ == 'PearsonType4Density'\n"
        "target.cdf([1.0, 7.0]); target.quantile([0.1, 0.9])")
    assert _scipy_extras(loaded) == []


def test_inverse_gamma_cdf_loads_scipy_special():
    loaded = _loaded_after(
        "from wealthsim import relative_wealth_density\n"
        "relative_wealth_density(2.5).cdf([0.5, 1.0])")
    assert "scipy.special" in loaded
    assert [m for m in _scipy_extras(loaded) if not m.startswith("scipy.special")] == []


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
