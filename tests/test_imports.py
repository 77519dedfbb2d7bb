"""What importing the package loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import wealthsim


def test_import_loads_no_scipy_optimize_or_interpolate():
    # Brent's method and PCHIP live in the package; only scipy.sparse and
    # scipy.special are needed, and the two heavy subpackages stay unloaded
    src = str(Path(wealthsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import json, sys, wealthsim; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    loaded = json.loads(out)
    assert "wealthsim" in loaded and "scipy.sparse" in loaded and "scipy.special" in loaded
    heavy = [m for m in loaded if m.startswith(("scipy.optimize", "scipy.interpolate"))]
    assert heavy == []
