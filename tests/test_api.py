import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest


@pytest.mark.parametrize("module", ["symcone", "params", "riccati", "moments", "pdmpsim", "library"])
def test_all_names_resolve(module):
    # a stale __all__ entry would otherwise fail only on `import *`
    mod = importlib.import_module(f"affinehs.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


_NUMPY_ONLY = """
import sys
import affinehs
from affinehs import library, moments, pdmpsim, riccati
from affinehs.params import truncate

sets = library.benchmark_sets()
for s in sets:
    p = truncate(s.params, 4)
    moments.laplace(p, s.x0, 1.0, s.u)
    moments.mean(p, s.x0, 1.0, s.u)
    moments.second_moment(p, s.x0, 1.0, s.u)
    pdmpsim.mc_summary(p, s.x0, 1.0, 100, 7, u=s.u, workers=1)
    if not s.params.is_finite_activity:
        riccati.solve_cascade(s.params, s.u, 0.5, t_eval=(0.0, 0.5))
print(sorted(name for name in sys.modules if name.startswith("scipy")))
"""


def test_the_package_and_every_workload_run_without_scipy():
    # scipy's import is most of the package's set-up time and memory, and a
    # lazy import that the first request reached would only move that cost
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", _NUMPY_ONLY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
