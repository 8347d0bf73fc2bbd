import importlib

import pytest


@pytest.mark.parametrize("module", ["symcone", "params", "riccati", "moments", "pdmpsim", "library"])
def test_all_names_resolve(module):
    # a stale __all__ entry would otherwise fail only on `import *`
    mod = importlib.import_module(f"affinehs.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
