"""Data compiled once per parameter set: the same outputs, read-only, freed with the set.

The Riccati fields, the derivative bundle (the generator G and its
eigendecomposition) and the path simulator depend on the parameter set
alone, so the package builds each once per set, on first use, and keeps it
only while the set lives.
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
    cascade_field = riccati._levels(p, tuple(1.0 / k for k in riccati._K_SCHEDULE))[0]
    arrays = [field.expand, field.collect, field.member, rates, cascade_field.expand,
              cascade_field.collect, bundle.G, bundle.exp._w, bundle.exp._vr, bundle.exp._vinv]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0


def _solves(p, u):
    grid = (0.0, 0.5 * T, T)
    one = riccati.solve_riccati(p, u, T, t_eval=grid)
    sol, diag = riccati.solve_cascade(p, u, T, t_eval=grid)
    return [one.phi, one.psi, one.min_eig, one.diagnostics,
            sol.phi, sol.psi, sol.min_eig, sol.diagnostics, diag.residuals]


@pytest.mark.parametrize("names", [("cascade-00", "cascade-03"), ("cascade-02", "mixed-d5-02")])
def test_solves_on_the_same_compiled_fields_do_not_interfere(names):
    # A, then B, then A at another u, then A again, against copies of A
    # solved alone: scratch space kept in the compiled field of a set would
    # carry one solve's state into the next, or change the results of the last
    (sa, pa), (sb, pb) = ((s, s.params) for s in map(library.get, names))
    alone = _solves(dataclasses.replace(pa), sa.u)
    alone_2u = _solves(dataclasses.replace(pa), 2.0 * sa.u)
    first = _solves(pa, sa.u)
    _solves(pb, sb.u)
    second = _solves(pa, 2.0 * sa.u)
    again = _solves(pa, sa.u)
    for got, want in ((first, alone), (second, alone_2u), (again, alone)):
        _assert_same(got, want)


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
