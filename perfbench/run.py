"""affinehs benchmark: seeded closed-loop request streams against the public API.

    python3 perfbench/run.py --workload {transform,cascade,montecarlo}
                             --seed N --seconds S --trace {0,1}

Run from a checkout: the package is imported from its src/ and nothing is
installed.  Each run starts a fresh worker process (worker.py) with the
BLAS and OpenMP thread pools pinned to one thread, so set-up time and peak
memory are the workload's own and numpy adds no threads of its own.

--trace 0 reports the end-to-end metrics.  setup_s is the median over
SETUP_SAMPLES fresh processes of the time from process start until the
first request could be sent (package import, library.benchmark_sets() and
the params.truncate calls).  --trace 1 runs every request untraced and
with every layer wrapped and reports the per-layer metrics; see tracer.py.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 1 when any
request raised or failed its correctness check, or when a fault injected
into an output was not caught, and 2 when the checkout has no package.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3          # fresh processes timed for setup_s, the run's own worker included
WORKER_TIMEOUT_S = 160.0   # the whole run must end within 180 s

# printed for reading but not in the JSON line.  Wall-clock figures drift
# with the machine's speed (see calibrate.py); p90 exists only where a run has
# ten requests beyond it, and with ~100 montecarlo requests it is too noisy to
# bound; failed_frac is 0 on a correct run and is carried by "failed";
# mc_paths_per_s exists on montecarlo only.
REPORTED_ONLY = {
    "latency_p90_cal": "cal",
    "req_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "mc_paths_per_s": "1/s",
    "cal_ms": "ms",
    "failed_frac": "ratio",
}


def _worker_env():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_worker(args, extra, env):
    """Run worker.py to its end; returns (seconds until READY or None, rest of stdout, exit code)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra
    tic = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - tic if first.strip() == "READY" else None
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return ready, rest, proc.returncode


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("transform", "cascade", "montecarlo"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "affinehs" / "__init__.py").is_file():
        print(f"no affinehs package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = _worker_env()
    setup = []
    for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
        ready, _, code = _run_worker(args, ["--setup-only"], env)
        if ready is None or code != 0:
            print(f"set-up probe exited with {code}", file=sys.stderr)
            return 2
        setup.append(ready)
    ready, out, code = _run_worker(args, [], env)
    lines = [ln for ln in out.splitlines() if ln.startswith("RESULT ")]
    if ready is None or code != 0 or not lines:
        print(f"worker exited with {code} and no result", file=sys.stderr)
        return 2
    setup.append(ready)
    res = json.loads(lines[-1][len("RESULT "):])

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    measured = dict(res["metrics"])
    if not args.trace:
        measured["setup_s"] = statistics.median(setup)
    missing = sorted(set(units) - set(measured))
    if missing:
        print(f"worker did not report {missing}", file=sys.stderr)
        return 2
    caught = res["fault_injection"]
    correct = res["failed"] == 0 and bool(caught) and all(caught.values())
    measured["failed_frac"] = res["failed"] / res["attempted"]

    info = res["info"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} nproc={info['nproc']} "
          f"python={info['python']} numpy={info['numpy']} scipy={info['scipy']}")
    print(f"# closed loop, 1 client: {info['requests']} requests over {info['pool_sets']} sets; "
          f"share on rayed sets {info['share_rayed']:.3f}, "
          f"on infinite-activity sets {info['share_infinite_activity']:.3f}; "
          "queue wait is 0 by construction")
    print(f"# fault injection caught: {caught}")
    if args.trace:
        print(f"# self time as a share of the traced requests' latency: {res['layer_self_share']}")
    else:
        print(f"# setup_s samples: {[round(s, 4) for s in setup]}")
    for name, unit in list(units.items()) + list(REPORTED_ONLY.items()):
        if name in measured:
            print(f"{name} {measured[name]:.6g} {unit}")
    if not args.trace and "latency_p90_cal" not in measured:
        print(f"# latency_p90 not reported: {info['requests']} requests, fewer than 100")
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": measured[n], "unit": u} for n, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
