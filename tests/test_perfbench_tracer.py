"""perfbench's tracer must keep installing and uninstalling on the package.

The tracer patches the layers' public functions by attribute, and it looks
every target up when it installs; a refactor that drops one of the bindings
it reads breaks `perfbench/run.py --trace 1`.  Methods are looked up in
their class __dict__ (PathSimulator.__init__, FlowPropagator.flow_vec).
"""

import sys
from pathlib import Path

import numpy as np

import affinehs
from affinehs import library, moments, pdmpsim, riccati
from affinehs.params import truncate

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracer import Tracer, _targets  # noqa: E402


def test_tracer_records_spans_and_restores_the_package():
    bindings = [(owner, attr) for _, pairs, _ in _targets(affinehs) for owner, attr in pairs]
    originals = [owner.__dict__[attr] for owner, attr in bindings]

    tracer = Tracer(affinehs)
    tracer.install()
    try:
        s = library.get("cascade-00")
        sol, _ = riccati.solve_cascade(s.params, s.u, 0.5, t_eval=(0.0, 0.5))
        rayed = library.get("mc2-00")
        p = truncate(rayed.params, 4)
        assert p.m.rays or p.mu.rays
        value = moments.laplace(p, rayed.x0, 0.5, rayed.u)
        for _ in range(2):
            moments.mean(p, rayed.x0, 0.5, rayed.u)
            moments.second_moment(p, rayed.x0, 0.5, rayed.u)
    finally:
        tracer.uninstall()

    assert 0.0 < value <= 1.0
    totals = tracer.layer_totals()
    assert totals["riccati.solve_cascade"][0] == 1
    # the cascade steps its seven levels in one solve: only laplace calls solve_riccati
    assert totals["riccati.solve_riccati"][0] == 1
    assert totals["moments.laplace"][0] == 1
    # the bundle is compiled once per set, through the traced binding
    assert totals["moments.derivative_bundle"][0] == 1
    # each moment is one product with the factors of G
    assert totals["symcone.ExpPropagator.dot"][0] == 4
    assert tracer.counts["rk_steps"] > 0
    assert tracer.counts["cascade_levels"] == 7
    assert len(tracer.start) == sum(calls for calls, _ in totals.values())
    assert np.all(np.frombuffer(tracer.end, dtype=float) >= np.frombuffer(tracer.start, dtype=float))
    for (owner, attr), original in zip(bindings, originals):
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} left patched"
    separate = sum(riccati.solve_riccati(truncate(s.params, k), s.u, 0.5, t_eval=(0.0, 0.5))
                   .diagnostics["n_steps"] for k in riccati._K_SCHEDULE)
    assert 0 < sol.diagnostics["n_steps"] < separate


def test_tracer_records_simulation_spans_and_restores_the_package():
    bindings = [(owner, attr) for _, pairs, _ in _targets(affinehs) for owner, attr in pairs]
    originals = [owner.__dict__[attr] for owner, attr in bindings]
    assert "__init__" in pdmpsim.PathSimulator.__dict__
    assert "flow_vec" in pdmpsim.FlowPropagator.__dict__

    tracer = Tracer(affinehs)
    tracer.install()
    try:
        s = library.get("mc2-01")
        p = truncate(s.params, 4)
        est = pdmpsim.mc_summary(p, s.x0, 0.5, 200, seed=4, u=s.u)["laplace"]
        path = pdmpsim.PathSimulator(p).run(s.x0, 0.5, pdmpsim.CounterStream(4, 0))
    finally:
        tracer.uninstall()

    assert 0.0 < est.estimate <= 1.0
    assert path.terminal.shape == (p.dim, p.dim)
    totals = tracer.layer_totals()
    assert totals["pdmpsim.mc_summary"][0] == 1
    assert totals["pdmpsim.PathSimulator.init"][0] == 2
    assert len(tracer.start) == sum(calls for calls, _ in totals.values())
    for (owner, attr), original in zip(bindings, originals):
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} left patched"
