"""Span tracing of the affinehs layers from outside the package.

The tracer replaces public functions and methods with wrappers by setting
module and class attributes, so nothing under src/ changes.  Every binding
that is read at call time must be replaced, which is why some functions are
patched in more than one module (riccati imports radial_quad and truncate by
name).  Class methods are patched on the class, so instances created before
or after install() see the wrapper, and bound methods captured after
install() (PathSimulator._loop reads flowprop.flow_vec once per call) do too.

Spans are kept in memory in flat arrays, one entry per call: name id,
parent span index, request id, start and end.  Self time is a span's
duration minus the durations of its direct children; calls nest strictly
because the workloads run on one thread.
"""

from __future__ import annotations

import time
from array import array

import numpy as np


def _targets(affinehs):
    """(span name, [(owner, attribute), ...], on_return) for every traced call."""
    lib = affinehs.library
    par = affinehs.params
    ric = affinehs.riccati
    mom = affinehs.moments
    pdm = affinehs.pdmpsim
    sym = affinehs.symcone
    return [
        ("library.benchmark_sets", [(lib, "benchmark_sets")], None),
        ("params.radial_quad", [(par, "radial_quad"), (ric, "radial_quad")], None),
        ("params.truncate", [(par, "truncate"), (ric, "truncate")], None),
        ("riccati.solve_riccati", [(ric, "solve_riccati")], "riccati"),
        ("riccati.solve_cascade", [(ric, "solve_cascade")], "cascade"),
        ("moments.laplace", [(mom, "laplace")], None),
        ("moments.mean", [(mom, "mean")], None),
        ("moments.second_moment", [(mom, "second_moment")], None),
        ("moments.derivative_bundle", [(mom, "derivative_bundle")], None),
        ("symcone.ExpPropagator.dot", [(sym.ExpPropagator, "dot")], None),
        ("pdmpsim.mc_summary", [(pdm, "mc_summary")], None),
        ("pdmpsim.PathSimulator.init", [(pdm.PathSimulator, "__init__")], None),
        ("pdmpsim.FlowPropagator.flow_vec", [(pdm.FlowPropagator, "flow_vec")], None),
    ]


class Tracer:
    """Records spans around the traced calls while installed."""

    def __init__(self, affinehs):
        self._targets = _targets(affinehs)
        self.names = [name for name, _, _ in self._targets]
        self._saved = []
        self._stack = [-1]
        self.request = -1
        self.clear()

    def clear(self):
        self.name_id = array("i")
        self.parent = array("i")
        self.req = array("i")
        self.start = array("d")
        self.end = array("d")
        # counts read from return values: RiccatiSolution.diagnostics and
        # CascadeDiagnostics.ks
        self.counts = {"rk_steps": 0, "rk_rejected": 0, "riccati_solves": 0, "cascade_levels": 0}

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for nid, (_, bindings, on_return) in enumerate(self._targets):
            original = getattr(*bindings[0])
            wrapper = self._wrap(nid, original, on_return)
            for owner, attr in bindings:
                self._saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _wrap(self, nid, fn, on_return):
        clock = time.perf_counter
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1])
            tracer.req.append(tracer.request)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                stack.pop()
            if on_return == "riccati":
                diag = out.diagnostics
                tracer.counts["rk_steps"] += diag["n_steps"]
                tracer.counts["rk_rejected"] += diag["n_rejected_error"] + diag["n_rejected_cone"]
                tracer.counts["riccati_solves"] += 1
            elif on_return == "cascade":
                tracer.counts["cascade_levels"] += len(out[1].ks)
            return out

        return traced

    def layer_totals(self):
        """{span name: (calls, self seconds)} over the recorded spans."""
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        self_s = dur - covered
        calls = np.bincount(names, minlength=len(self.names))
        selfs = np.bincount(names, weights=self_s, minlength=len(self.names))
        return {n: (int(calls[i]), float(selfs[i])) for i, n in enumerate(self.names)}

    def save(self, path):
        """Write the spans as arrays to an .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.req, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )
