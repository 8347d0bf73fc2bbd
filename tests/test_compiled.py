"""Data compiled once per parameter set: the same outputs, read-only, freed with the set.

The Riccati fields, the derivative bundle and the path simulator depend on
the parameter set alone, so the package builds each once per set, on first
use, and keeps it only while the set lives.
"""

import dataclasses
import gc
import pickle
import weakref

import numpy as np
import pytest

from affinehs import library, moments, params, pdmpsim, riccati
from affinehs.params import truncate

NAMES = ["cascade-00", "mixed-d5-02", "mc2-00"]
T = 0.5


def _outputs(p, s):
    sol, diag = riccati.solve_cascade(p, s.u, T, t_eval=(0.0, T))
    v = np.eye(p.dim)
    est = pdmpsim.mc_summary(p, s.x0, T, 200, seed=3, u=s.u)["laplace"]
    return [sol.phi, sol.psi, diag.residuals, moments.laplace(p, s.x0, T, s.u),
            moments.mean(p, s.x0, T, v), moments.second_moment(p, s.x0, T, v),
            est.estimate, est.std_error]


def _assert_same(got, want):
    for a, b in zip(got, want):
        if isinstance(a, np.ndarray):
            np.testing.assert_array_equal(a, b)
        else:
            assert a == b


@pytest.mark.parametrize("name", NAMES)
def test_compiled_outputs_repeat_exactly(name):
    s = library.get(name)
    p = truncate(s.params, 4)
    first = _outputs(p, s)
    _assert_same(_outputs(p, s), first)
    # a copy has its own identity, so it compiles its own data
    _assert_same(_outputs(dataclasses.replace(p), s), first)


@pytest.mark.parametrize("name", NAMES)
def test_compiled_arrays_are_read_only(name):
    s = library.get(name)
    p = truncate(s.params, 4)
    moments.mean(p, s.x0, T, s.u)
    riccati.solve_cascade(p, s.u, T)
    field, _, rates = riccati._levels(p, (0.0,))
    assert riccati._levels(p, (0.0,))[0] is field
    bundle = moments._bundle(p)
    assert moments._bundle(p) is bundle
    cascade_field = riccati._levels(p, tuple(1.0 / k for k in riccati.RiccatiOptions().k_schedule))[0]
    arrays = [field.lin, field.node_dirs, field.node_out, field.member, field.node_small, rates,
              cascade_field.node_dirs, bundle.G]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0


@pytest.mark.parametrize("name", NAMES)
def test_compiled_data_is_freed_with_the_set(name):
    s = library.get(name)
    gc.collect()
    before = len(params._COMPILED)
    p = truncate(s.params, 4)
    _outputs(p, s)
    assert len(params._COMPILED) == before + 1
    ref = weakref.ref(p)
    del p
    gc.collect()
    assert ref() is None
    assert len(params._COMPILED) == before


@pytest.mark.parametrize("name", NAMES)
def test_pickled_set_carries_no_compiled_data(name):
    s = library.get(name)
    p = truncate(s.params, 4)
    size = len(pickle.dumps(p))
    _outputs(p, s)
    assert len(pickle.dumps(p)) == size
