"""Command-line interface: validate | solve | moments | simulate | verify.

Exit codes: 0 success, 1 numeric or check failure, 2 input error.  All
file outputs are byte-reproducible for a fixed configuration and seed;
wall-clock timings go to stderr only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from .exceptions import AffineHSError, ParameterFileError
from . import moments as _moments
from . import pdmpsim as _pdmp
from . import riccati as _riccati
from .params import load_params, truncate, validate_admissibility
from .symcone import inner, sym_from_json

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


def _load_matrix(path, dim, default_scale):
    """Matrix from a {"dim","rows"} JSON file, or default_scale * identity."""
    if path is None:
        return default_scale * np.eye(dim)
    try:
        with open(path) as fh:
            obj = json.load(fh)
        mat = sym_from_json(obj)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        raise ParameterFileError(f"cannot read matrix file {path}: {exc}") from exc
    if mat.shape != (dim, dim):
        raise ParameterFileError(f"matrix in {path} has dim {mat.shape[0]}, expected {dim}")
    return mat


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_table(path, rows, columns):
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in columns) + "\n")


def _outpath(args, name):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _effective_workers(requested):
    cap = _pdmp.worker_cap()
    return min(requested, cap) if cap else requested


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args):
    p_set = load_params(args.params)
    report = validate_admissibility(p_set, tol=args.tol, n_pairs=args.n_pairs, seed=args.seed)
    if args.format == "csv":
        path = _outpath(args, "admissibility.csv")
        _write_table(path, [
            {"condition": c.condition, "passed": c.passed, "violation": c.violation,
             "detail": c.detail.replace(",", ";")}
            for c in report.conditions], ["condition", "passed", "violation", "detail"])
    else:
        path = _outpath(args, "admissibility.json")
        _write_json(path, report.to_json())
    print(f"admissibility report written to {path}; all_passed={report.all_passed}")
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def cmd_solve(args):
    p_set = load_params(args.params)
    u = _load_matrix(args.u, p_set.dim, 0.5)
    opts = _riccati.RiccatiOptions(cone_tol=args.tol) if args.tol is not None else _riccati.RiccatiOptions()
    grid = np.linspace(0.0, args.T, args.grid)
    if args.cascade:
        sol, diag = _riccati.solve_cascade(p_set, u, args.T, opts=opts, t_eval=grid)
        _write_json(_outpath(args, "cascade.json"), diag.to_json())
    else:
        sol = _riccati.solve_riccati(p_set, u, args.T, opts=opts, k=args.k, t_eval=grid)
    csv_path = _outpath(args, "riccati.csv")
    with open(csv_path, "w") as fh:
        _riccati.solution_to_csv(sol, fh)
    _write_json(_outpath(args, "solve_diagnostics.json"), {"k": sol.k, **sol.diagnostics})
    print(f"solution written to {csv_path} (k={sol.k})")
    return EXIT_OK


def cmd_moments(args):
    p_set = load_params(args.params)
    if args.k:
        p_set = truncate(p_set, args.k)
    x0 = _load_matrix(args.x0, p_set.dim, 1.0)
    v = _load_matrix(args.v, p_set.dim, 1.0)
    u = _load_matrix(args.u, p_set.dim, 0.5)
    ts = np.linspace(0.0, args.T, args.grid)
    rows = {"t": [], "mean": [], "second_moment": [], "variance": [], "laplace": []}
    for t in ts:
        mv = _moments.mean(p_set, x0, t, v)
        sv = _moments.second_moment(p_set, x0, t, v)
        rows["t"].append(float(t))
        rows["mean"].append(mv)
        rows["second_moment"].append(sv)
        rows["variance"].append(sv - mv * mv)
        rows["laplace"].append(_moments.laplace(p_set, x0, t, u))
    path = _outpath(args, "moments.json")
    _write_json(path, rows)
    print(f"moment table written to {path}")
    return EXIT_OK


def cmd_simulate(args):
    p_set = load_params(args.params)
    if args.k:
        p_set = truncate(p_set, args.k)
    x0 = _load_matrix(args.x0, p_set.dim, 1.0)
    sim = _pdmp.PathSimulator(p_set)
    iu = [(i, j) for i in range(p_set.dim) for j in range(i, p_set.dim)]
    names = [f"x_{i + 1}{j + 1}" for i, j in iu]
    path_csv = args.paths_out or _outpath(args, "paths.csv")
    tic = time.perf_counter()
    with open(path_csv, "w") as fh:
        fh.write(",".join(["path_id", "event_index", "time", "event_type"] + names) + "\n")

        def emit(pid, eidx, t, etype, state):
            vals = [state[i, j] for i, j in iu]
            fh.write(",".join([str(pid), str(eidx), f"{t:.17g}", etype]
                              + [f"{v:.17g}" for v in vals]) + "\n")

        paths = sim.events(x0, args.T, args.seed, args.n_paths)
        for pid, (times, states, terminal) in enumerate(paths):
            emit(pid, 0, 0.0, "flow-sample", np.asarray(x0, dtype=float))
            for j, (t, state) in enumerate(zip(times, states)):
                emit(pid, j + 1, t, "jump", state)
            emit(pid, len(times) + 1, args.T, "flow-sample", terminal)
    print(f"{args.n_paths} paths in {time.perf_counter() - tic:.2f}s", file=sys.stderr)
    print(f"paths written to {path_csv}")
    return EXIT_OK


def _zscore(analytic, est):
    diff = est.estimate - analytic
    # sample std of identical per-path values is ulp noise, not information
    noise_floor = 1e-14 * (1.0 + abs(est.estimate))
    if est.std_error > noise_floor:
        return diff / est.std_error
    return 0.0 if abs(diff) <= 1e-8 * (1.0 + abs(analytic)) else math.inf


def cmd_verify(args):
    """validate -> truncate -> solve -> moments -> simulate -> compare."""
    stage = "load"
    try:
        p_set = load_params(args.params)
        stage = "validate"
        report = validate_admissibility(p_set, tol=args.tol, n_pairs=args.n_pairs, seed=args.seed)
        if not report.all_passed:
            _write_json(_outpath(args, "verify.json"),
                        {"failed_stage": "validate", "report": report.to_json()})
            print("verify failed at stage: validate")
            return EXIT_CHECK_FAILED

        stage = "truncate"
        p_k = truncate(p_set, args.k)
        x0 = _load_matrix(args.x0, p_set.dim, 1.0)
        u = _load_matrix(args.u, p_set.dim, 0.5)
        v = _load_matrix(args.v, p_set.dim, 1.0)

        stage = "solve"
        sol = _riccati.solve_riccati(p_k, u, args.T, t_eval=(0.0, args.T))
        psi_T = sol.psi_final * (1.1 if args.fault_injection else 1.0)
        laplace_analytic = math.exp(-sol.phi_final - inner(x0, psi_T))

        stage = "moments"
        mean_analytic = _moments.mean(p_k, x0, args.T, v)
        second_analytic = _moments.second_moment(p_k, x0, args.T, v)
        if args.fault_injection:
            mean_analytic *= 1.1
            second_analytic *= 1.1

        stage = "simulate"
        workers = _effective_workers(args.workers)
        est = _pdmp.mc_summary(p_k, x0, args.T, args.n_paths, args.seed,
                               u=u, v=v, workers=workers)

        stage = "compare"
        checks = []
        for name, analytic, e in (
            ("laplace", laplace_analytic, est["laplace"]),
            ("mean", mean_analytic, est["mean"]),
            ("second_moment", second_analytic, est["second_moment"]),
        ):
            z = _zscore(analytic, e)
            checks.append({
                "check": name,
                "analytic": analytic,
                "estimate": e.estimate,
                "std_error": e.std_error,
                "z": z if math.isfinite(z) else 1e300,
                "passed": abs(z) <= 3.0,
            })
        all_passed = all(c["passed"] for c in checks)
        payload = {
            "params": os.path.basename(args.params),
            "k": args.k,
            "T": args.T,
            "n_paths": args.n_paths,
            "seed": args.seed,
            "fault_injection": bool(args.fault_injection),
            "checks": checks,
            "all_passed": all_passed,
        }
        if args.format == "csv":
            path = _outpath(args, "verify.csv")
            _write_table(path, checks,
                         ["check", "analytic", "estimate", "std_error", "z", "passed"])
        else:
            path = _outpath(args, "verify.json")
            _write_json(path, payload)
        for c in checks:
            status = "pass" if c["passed"] else "FAIL"
            print(f"{c['check']:>14s}: analytic={c['analytic']: .6e} "
                  f"mc={c['estimate']: .6e} se={c['std_error']:.2e} z={c['z']: .2f} {status}")
        print(f"verification report written to {path}; all_passed={all_passed}")
        return EXIT_OK if all_passed else EXIT_CHECK_FAILED
    except AffineHSError as exc:
        print(f"verify failed at stage {stage}: {exc}", file=sys.stderr)
        raise


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sp):
    sp.add_argument("--params", required=True, help="parameter JSON file")
    sp.add_argument("--out", default=".", help="output directory")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", type=float, default=None, help="cone tolerance override")
    sp.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser():
    parser = argparse.ArgumentParser(prog="affinehs",
                                     description="Affine jump processes on the PSD cone")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="admissibility report for a parameter file")
    _add_common(sp)
    sp.add_argument("--n-pairs", type=int, default=50)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("solve", help="solve the transform ODEs")
    _add_common(sp)
    sp.add_argument("--u", default=None, help="initial condition file (default 0.5*I)")
    sp.add_argument("--T", type=float, default=1.0)
    sp.add_argument("--k", type=int, default=None, help="truncation level")
    sp.add_argument("--cascade", action="store_true", help="run the k schedule")
    sp.add_argument("--grid", type=int, default=33)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("moments", help="moment and Laplace table over a time grid")
    _add_common(sp)
    sp.add_argument("--x0", default=None)
    sp.add_argument("--v", default=None)
    sp.add_argument("--u", default=None)
    sp.add_argument("--T", type=float, default=1.0)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--grid", type=int, default=11)
    sp.set_defaults(func=cmd_moments)

    sp = sub.add_parser("simulate", help="write simulated path events to CSV")
    _add_common(sp)
    sp.add_argument("--x0", default=None)
    sp.add_argument("--T", type=float, default=1.0)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--n-paths", type=int, default=100)
    sp.add_argument("--paths-out", default=None, help="override the paths.csv location")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("verify", help="end-to-end analytic vs Monte Carlo pipeline")
    _add_common(sp)
    sp.add_argument("--x0", default=None)
    sp.add_argument("--u", default=None)
    sp.add_argument("--v", default=None)
    sp.add_argument("--T", type=float, default=1.0)
    sp.add_argument("--k", type=int, default=4)
    sp.add_argument("--n-paths", type=int, default=20000)
    sp.add_argument("--n-pairs", type=int, default=50)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--fault-injection", action="store_true",
                    help="corrupt the analytic transform to exercise the failure path")
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParameterFileError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except AffineHSError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
