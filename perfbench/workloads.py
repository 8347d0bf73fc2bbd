"""Seeded request streams and the calls each request makes.

Every workload is a closed loop with one client: the next request is sent
when the previous one has returned.  A stream is built in rounds; each round
visits every set of the workload's pool once, in a seeded random order, with
freshly drawn horizon T and scale of u.  Drawing sets without replacement
keeps the request mix, and with it the per-run averages, nearly the same for
every seed, while each seed still gives a different request list.  For the
same reason the horizons and scales of a round are stratified (one draw in
each of pool-size equal slices of the range), and a montecarlo request's
path count is fixed by its set, so the round's mix of path counts is too.
The same seed always gives the same list.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

WORKLOADS = ("transform", "cascade", "montecarlo")

K_TRUNC = 4                      # truncation level of the finite-activity pools
SCALE_RANGE = (0.5, 2.0)         # u is rescaled by a factor log-uniform in this range
T_RANGE = {"transform": (0.25, 2.0), "cascade": (0.25, 1.0), "montecarlo": (0.25, 2.0)}
N_PATHS = (500, 1000, 2000)
_STREAM_TAG = {"transform": 1, "cascade": 2, "montecarlo": 3}


@dataclass(frozen=True)
class Request:
    index: int
    set_index: int               # position in the workload's pool
    T: float
    scale: float
    n_paths: int = 0             # montecarlo only
    mc_seed: int = 0             # montecarlo only


@dataclass(frozen=True)
class PoolEntry:
    name: str
    params: object               # ParameterSet the request runs on
    x0: np.ndarray
    u: np.ndarray
    rayed: bool                  # params carries at least one radial ray
    infinite: bool               # the library set is infinite-activity


def build_pool(affinehs, workload):
    """The library sets a workload draws from: the set-up every request waits for."""
    sets = affinehs.library.benchmark_sets()
    if workload == "cascade":
        chosen = [(s, s.params) for s in sets if not s.params.is_finite_activity]
    else:
        chosen = [(s, affinehs.params.truncate(s.params, K_TRUNC)) for s in sets]
    return [PoolEntry(s.name, p, s.x0, s.u, bool(p.m.rays or p.mu.rays),
                      not s.params.is_finite_activity) for s, p in chosen]


def _strata(rng, lo, hi, n):
    """n draws from [lo, hi], one in each of n equal slices, in random order."""
    return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n


def requests(workload, seed, pool_size):
    """Endless deterministic request stream for (workload, seed)."""
    rng = np.random.default_rng([seed, _STREAM_TAG[workload]])
    t_lo, t_hi = T_RANGE[workload]
    log_lo, log_hi = (math.log(x) for x in SCALE_RANGE)
    index = itertools.count()
    while True:
        order = rng.permutation(pool_size)
        horizons = _strata(rng, t_lo, t_hi, pool_size)
        scales = np.exp(_strata(rng, log_lo, log_hi, pool_size))
        for set_index, T, scale in zip(order, horizons, scales):
            req = Request(next(index), int(set_index), float(T), float(scale))
            if workload == "montecarlo":
                req = replace(req, n_paths=N_PATHS[set_index % len(N_PATHS)],
                              mc_seed=int(rng.integers(2 ** 62)))
            yield req


def run_request(affinehs, workload, entry, req):
    """One request through the public API; returns the outputs the checks read."""
    u = req.scale * entry.u
    if workload == "transform":
        mom = affinehs.moments
        return {
            "laplace": mom.laplace(entry.params, entry.x0, req.T, u),
            "mean": mom.mean(entry.params, entry.x0, req.T, u),
            "second": mom.second_moment(entry.params, entry.x0, req.T, u),
        }
    if workload == "cascade":
        sol, diag = affinehs.riccati.solve_cascade(entry.params, u, req.T, t_eval=(0.0, req.T))
        return {"laplace": laplace_value(entry.x0, sol), "residual": diag.final_residual}
    est = affinehs.pdmpsim.mc_summary(entry.params, entry.x0, req.T, req.n_paths, req.mc_seed,
                                      u=u, workers=1)["laplace"]
    return {"estimate": est.estimate, "std_error": est.std_error}


def laplace_value(x0, sol):
    """exp(-phi(T) - <x0, psi(T)>) from a RiccatiSolution."""
    return math.exp(-sol.phi_final - float(np.sum(x0 * sol.psi_final)))
