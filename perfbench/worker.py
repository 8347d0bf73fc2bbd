"""One workload run in a fresh process; started by run.py, not by hand.

Prints "READY" as soon as the first request could be sent (run.py times the
set-up by that line), then "RESULT <json>" at the end.  With --setup-only
it stops after READY.  The package is imported from the checkout's src/,
and a package found anywhere else is refused.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy

import checks
from calibrate import cal_seconds
from workloads import WORKLOADS, build_pool, requests, run_request

ROOT = Path(__file__).resolve().parent.parent
P90_MIN_REQUESTS = 100     # p90 is reported only with ten requests beyond it
PATH_SAMPLE = 16           # PathSimulator.run paths per montecarlo request for thinning counts
TRACE_DIR = ROOT / "perfbench" / "out"


def _import_affinehs():
    import affinehs
    src = (ROOT / "src").resolve()
    if src not in Path(affinehs.__file__).resolve().parents:
        raise ImportError(f"affinehs imported from {affinehs.__file__}, not from {src}")
    return affinehs


class Served(NamedTuple):
    req: object
    out: dict | None
    latency: float           # seconds
    cal: float               # calibration kernel seconds around the request
    error: str | None


def _serve(affinehs, workload, pool, reqs, stop=None, tracer=None):
    """Closed loop, one client, until stop(elapsed_s, n_done) or reqs run out.

    Calibration runs (calibrate.py) bracket every request, outside its
    latency.  A request's cal is the median of the five brackets nearest to
    it, which smooths the kernel's own jitter but follows the machine.
    """
    clock = time.perf_counter
    rows = []
    brackets = [cal_seconds()]
    t_start = clock()
    for req in reqs:
        if tracer is not None:
            tracer.request = req.index
        t0 = clock()
        try:
            out, err = run_request(affinehs, workload, pool[req.set_index], req), None
        except Exception as exc:  # a failed request is counted, the client keeps going
            out, err = None, f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        rows.append((req, out, clock() - t0, err))
        brackets.append(cal_seconds())
        if stop is not None and stop(clock() - t_start, len(rows)):
            break
    n = len(brackets)
    return [Served(req, out, lat, float(np.median(brackets[max(0, i - 2):min(n, i + 3)])), err)
            for i, (req, out, lat, err) in enumerate(rows)]


def _norm(done):
    """Latencies in cal: the machine's speed drift cancels."""
    return np.array([s.latency / s.cal for s in done])


def _check(affinehs, workload, pool, passes):
    """Count failures over every pass; references are computed once per request."""
    refs = {}
    failed = 0
    for done in passes:
        for req, out, _, _, err in done:
            if err is None and req.index not in refs:
                refs[req.index] = checks.reference(affinehs, workload, pool[req.set_index], req)
            bad = [err] if err else checks.failures(workload, out, refs[req.index])
            if bad:
                failed += 1
                print(f"request {req.index} ({pool[req.set_index].name}) failed: {bad}",
                      file=sys.stderr)
    first = next(((s.req, s.out) for s in passes[0] if s.error is None), None)
    caught = {}
    if first is not None:
        caught = checks.fault_injection(workload, first[1], refs[first[0].index])
    return failed, caught


def _mix(pool, done):
    n = len(done)
    return {
        "requests": n,
        "share_rayed": sum(pool[r.set_index].rayed for r, *_ in done) / n,
        "share_infinite_activity": sum(pool[r.set_index].infinite for r, *_ in done) / n,
    }


def _end_to_end(workload, done):
    """Metrics in cal (machine drift cancels) and in seconds (as the user sees them)."""
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    from scipy.stats.mstats import hdquantiles  # after READY and the RSS reading
    lat = np.array([s.latency for s in done])
    norm = _norm(done)
    probs = (0.5, 0.9) if len(done) >= P90_MIN_REQUESTS else (0.5,)
    # Harrell-Davis estimates: every order statistic contributes, so the
    # quantiles move less when one request more or less lands above them
    cal_q = hdquantiles(norm, prob=probs)
    ms_q = np.percentile(lat, [100 * p for p in probs]) * 1e3
    metrics = {
        "req_per_kcal": 1e3 * len(done) / norm.sum(),
        "req_per_s": len(done) / lat.sum(),
        "cal_ms": float(np.median([s.cal for s in done])) * 1e3,
        "peak_rss_mb": rss_mb,
    }
    for p, q_cal, q_ms in zip(("p50", "p90"), cal_q, ms_q):
        metrics[f"latency_{p}_cal"] = float(q_cal)
        metrics[f"latency_{p}_ms"] = float(q_ms)
    if workload == "montecarlo":
        metrics["mc_paths_per_s"] = sum(s.req.n_paths for s in done) / lat.sum()
    return metrics


def _thinning_counts(affinehs, pool, done):
    """Proposal, acceptance, breach and jump counts from PathSimulator.run samples."""
    props = acc = breaches = paths = 0
    for req, *_ in done:
        entry = pool[req.set_index]
        sim = affinehs.pdmpsim.PathSimulator(entry.params)
        for i in range(PATH_SAMPLE):
            path = sim.run(entry.x0, req.T, np.random.default_rng([req.mc_seed, i]))
            props += path.n_proposals
            acc += path.n_accepted
            breaches += path.n_breaches
            paths += 1
    return {
        "pdmpsim.proposals_per_path": props / paths,
        "pdmpsim.accept_ratio": acc / props if props else 1.0,
        "pdmpsim.breaches": float(breaches),
        "pdmpsim.jumps_per_path": acc / paths,
    }


def _per_layer(affinehs, workload, pool, tracer, setup_totals, untraced, traced):
    totals = tracer.layer_totals()
    out = {}
    for name, (calls, self_s) in totals.items():
        out[f"{name}.calls"] = float(calls)
        out[f"{name}.self_s"] = self_s
    # the library is built once, in set-up, before the timed region
    out["library.benchmark_sets.self_s"] = setup_totals["library.benchmark_sets"][1]
    steps, rejected = tracer.counts["rk_steps"], tracer.counts["rk_rejected"]
    out["riccati.rk_steps"] = float(steps)
    out["riccati.rk_rejected"] = float(rejected)
    out["riccati.step_accept_ratio"] = steps / (steps + rejected) if steps + rejected else 1.0
    # 1 + 6 (accepted + rejected) right-hand-side evaluations per solve: the
    # integrator's count with the default "reject" cone policy, computed here
    # rather than observed
    out["riccati.rhs_evals_computed"] = float(tracer.counts["riccati_solves"] + 6 * (steps + rejected))
    out["riccati.cascade_levels"] = float(tracer.counts["cascade_levels"])
    if workload == "montecarlo":
        out.update(_thinning_counts(affinehs, pool, traced))
    else:
        out.update({"pdmpsim.proposals_per_path": 0.0, "pdmpsim.accept_ratio": 0.0,
                    "pdmpsim.breaches": 0.0, "pdmpsim.jumps_per_path": 0.0})
    out["trace.overhead_frac"] = _norm(traced).sum() / _norm(untraced).sum() - 1.0
    traced_s = sum(s.latency for s in traced)
    shares = {n: round(s / traced_s, 4) for n, (_, s) in
              sorted(totals.items(), key=lambda kv: -kv[1][1]) if s > 0}
    return out, shares


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    affinehs = _import_affinehs()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(affinehs)
        tracer.install()
    pool = build_pool(affinehs, args.workload)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    stream = requests(args.workload, args.seed, len(pool))
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": args.seed,
        "pool_sets": len(pool),
    }
    if tracer is None:
        done = _serve(affinehs, args.workload, pool, stream, lambda el, n: el >= args.seconds)
        metrics = _end_to_end(args.workload, done)
        passes = [done]
        shares = None
    else:
        tracer.uninstall()
        setup_totals = tracer.layer_totals()
        tracer.clear()
        done, traced = [], []
        t_start = time.perf_counter()
        for req in stream:
            # each request runs untraced and traced, in alternating order, so
            # the overhead compares the same work at nearly the same moment
            for with_tracer in (False, True) if req.index % 2 == 0 else (True, False):
                if with_tracer:
                    tracer.install()
                    traced += _serve(affinehs, args.workload, pool, [req], tracer=tracer)
                    tracer.uninstall()
                else:
                    done += _serve(affinehs, args.workload, pool, [req])
            if time.perf_counter() - t_start >= args.seconds:
                break
        metrics, shares = _per_layer(affinehs, args.workload, pool, tracer, setup_totals,
                                     done, traced)
        passes = [done, traced]
        for i, (a, b) in enumerate(zip(done, traced)):
            if a.out != b.out:
                traced[i] = b._replace(error=f"traced output {b.out} differs from untraced {a.out}")
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        tracer.save(TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.npz")

    failed, caught = _check(affinehs, args.workload, pool, passes)
    attempted = sum(len(p) for p in passes)
    info.update(_mix(pool, passes[0]))
    result = {
        "attempted": attempted,
        "failed": failed,
        "fault_injection": caught,
        "metrics": metrics,
        "layer_self_share": shares,
        "info": info,
    }
    if not all(math.isfinite(v) for v in metrics.values()):
        raise ValueError(f"non-finite metric in {metrics}")
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
