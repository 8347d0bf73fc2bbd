import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from affinehs import library, pdmpsim
from affinehs.params import (
    OperatorJumpMeasure,
    ParameterSet,
    ScalarJumpMeasure,
    atom,
    build_admissible,
)
from affinehs.symcone import ZeroOperator


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def bench():
    return library.benchmark_sets()


@pytest.fixture
def empty_p2():
    """d = 2, no jumps, contracting Lyapunov drift."""
    return build_admissible(2, beta=-0.5 * np.eye(2), b_extra=np.eye(2))


@pytest.fixture
def atom_p1():
    """d = 1 with one m atom and one mu atom, both of norm 2 (no compensation)."""
    m = ScalarJumpMeasure(1, (atom(np.array([[2.0]]), 1.0),))
    mu = OperatorJumpMeasure(1, (atom(np.array([[2.0]]), np.array([[1.0]])),))
    return build_admissible(1, beta=np.array([[-0.5]]), m=m, mu=mu,
                            b_extra=np.array([[0.5]]))


@pytest.fixture
def pure_drift_p1():
    """d = 1, b only: B = 0 and no jumps."""
    return ParameterSet(1, np.array([[1.0]]), ZeroOperator(1),
                        ScalarJumpMeasure(1), OperatorJumpMeasure(1))


@pytest.fixture
def pools(monkeypatch):
    """Lockstep blocks of 128 paths, so that a few hundred paths fill a worker
    pool; the list of the max_workers of every pool started."""
    started = []

    class CountingPool(pdmpsim.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(pdmpsim, "_BLOCK", 128)
    monkeypatch.setattr(pdmpsim, "ProcessPoolExecutor", CountingPool)
    return started
