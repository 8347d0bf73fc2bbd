"""Data compiled once per parameter set: the same outputs, read-only, freed with the set.

The Riccati fields, the derivative bundle (the generator G and its
eigendecomposition) and the path simulator depend on the parameter set
alone, so the package builds each once per set, on first use, and keeps it
only while the set lives.
"""

import dataclasses
import gc
import os
import pickle
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from affinehs import library, moments, params, pdmpsim, riccati
from affinehs.exceptions import RiccatiSolverError
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


def _solves(p, u, grid=(0.0, 0.5 * T, T)):
    one = riccati.solve_riccati(p, u, T, t_eval=grid)
    sol, diag = riccati.solve_cascade(p, u, T, t_eval=grid)
    return [one.phi, one.psi, one.min_eig, one.diagnostics,
            sol.phi, sol.psi, sol.min_eig, sol.diagnostics, diag.residuals]


@pytest.mark.parametrize("names", [("cascade-00", "cascade-03"), ("cascade-02", "mixed-d5-02")])
def test_solves_on_the_same_compiled_fields_do_not_interfere(names):
    # A, then B on the default 33-point grid, then A at another u, then A
    # again, then B, against copies solved alone: the solver workspaces kept
    # in the compiled field of a set would carry one solve's state into the
    # next if a solve read a buffer before writing it
    (sa, pa), (sb, pb) = ((s, s.params) for s in map(library.get, names))
    alone = _solves(dataclasses.replace(pa), sa.u)
    alone_2u = _solves(dataclasses.replace(pa), 2.0 * sa.u)
    alone_b = _solves(dataclasses.replace(pb), sb.u, None)
    first = _solves(pa, sa.u)
    first_b = _solves(pb, sb.u, None)
    second = _solves(pa, 2.0 * sa.u)
    again = _solves(pa, sa.u)
    again_b = _solves(pb, sb.u, None)
    for got, want in ((first, alone), (second, alone_2u), (again, alone),
                      (first_b, alone_b), (again_b, alone_b)):
        _assert_same(got, want)


def _arrays(sol):
    """Every array of a RiccatiSolution, and its diagnostics."""
    return [sol.t, sol.phi, sol.psi, sol.min_eig, sol.step_size, sol.diagnostics]


# the solves of the test below, in a new process, as the hex of their bytes
_FRESH = """
import sys
import numpy as np
from affinehs import library, riccati
from affinehs.params import truncate
s, T = library.get(sys.argv[1]), float(sys.argv[2])
one = riccati.solve_riccati(truncate(s.params, 4), s.u, T)
sol, _ = riccati.solve_cascade(s.params, s.u, T)
print(np.concatenate([a.ravel() for sol in (one, sol) for a in (sol.phi, sol.psi)]).tobytes().hex())
"""


def test_a_solve_after_one_that_raised_matches_a_new_process(monkeypatch):
    # a solve that raises drops its workspace with whatever it wrote there;
    # the next solve of the same fields gives the bits of a new process
    name, T = "cascade-00", 0.7
    s = library.get(name)
    p = truncate(s.params, 4)
    riccati.solve_riccati(p, s.u, T)
    riccati.solve_cascade(s.params, s.u, T)
    fields = [riccati._levels(p, (0.0,))[0],
              riccati._levels(s.params, tuple(1.0 / k for k in riccati._K_SCHEDULE))[0]]
    assert [len(f.spare) for f in fields] == [1, 1]
    with monkeypatch.context() as m:
        m.setattr(riccati, "_GROWTH_FUDGE", -0.5)
        with pytest.raises(RiccatiSolverError, match="growth bound breached"):
            riccati.solve_riccati(p, 2.0 * s.u, T)
        with pytest.raises(RiccatiSolverError, match="growth bound breached"):
            riccati.solve_cascade(s.params, 2.0 * s.u, T)
    assert [len(f.spare) for f in fields] == [0, 0]
    one = riccati.solve_riccati(p, s.u, T)
    sol, _ = riccati.solve_cascade(s.params, s.u, T)
    got = np.concatenate([a.ravel() for sol in (one, sol) for a in (sol.phi, sol.psi)])
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", _FRESH, name, repr(T)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert got.tobytes().hex() == proc.stdout.strip()


def test_two_threads_solving_one_set_match_the_sequential_solves():
    # each thread takes a workspace of its own, so 50 solves in each of two
    # threads, switching every few microseconds, give the sequential bits
    s = library.get("mixed-d3-01")
    p = truncate(s.params, 4)
    cases = [(s.u * (0.5 + 0.03 * i), 0.25 + 0.02 * i) for i in range(100)]
    want = [_arrays(riccati.solve_riccati(p, u, T)) for u, T in cases]
    got = [None] * len(cases)
    start = threading.Barrier(2)

    def solve(part):
        start.wait()
        for i in range(part, len(cases), 2):
            got[i] = _arrays(riccati.solve_riccati(p, *cases[i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=solve, args=(part,)) for part in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    for arrays, ref in zip(got, want):
        _assert_same(arrays, ref)
    assert 1 <= len(riccati._levels(p, (0.0,))[0].spare) <= 2


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
