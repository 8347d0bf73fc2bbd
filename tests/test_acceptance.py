"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s or in the
captured output).  Criteria 3 and 4 share one Monte Carlo sweep over the
d = 2 finite-activity benchmark sets at truncation levels 4 and 16.
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg

from affinehs import library
from affinehs.cli import main as cli_main
from affinehs.moments import (
    derivative_bundle,
    generator_exp,
    laplace,
    mean,
    second_moment,
)
from affinehs.params import build_admissible, save_params, truncate
from affinehs.pdmpsim import mc_summary, terminal_statistics
from affinehs.params import PowerLawDensity, ScalarJumpMeasure, atom
from affinehs.riccati import solve_cascade, solve_riccati
from affinehs.symcone import frob_norm, inner, min_eigenvalue, random_psd

from oracle import affine_gradient, forcing_by_generator, growth_rate, rk4_scalar_batch


def _report(num, ok, detail):
    line = f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. d = 1 oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_1_scalar_oracle():
    sets = library.by_tag("scalar-oracle")[:10]
    tic = time.perf_counter()
    u0 = np.array([s.u[0, 0] for s in sets])
    phi_o, psi_o = rk4_scalar_batch([s.params for s in sets], u0, 1.0, 1e-5)
    worst = 0.0
    for i, s in enumerate(sets):
        sol = solve_riccati(s.params, s.u, 1.0, t_eval=(0.0, 1.0))
        rel = max(abs(sol.phi_final - phi_o[i]) / max(1e-12, abs(phi_o[i])),
                  abs(sol.psi_final[0, 0] - psi_o[i]) / abs(psi_o[i]))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - tic
    _report(1, worst <= 1e-7 and elapsed < 10.0,
            f"10 scalar sets vs dt=1e-5 RK4 oracle: worst rel err {worst:.2e} "
            f"(tol 1e-7), runtime {elapsed:.1f}s (< 10s)")


# ---------------------------------------------------------------------------
# 2. linear closed form
# ---------------------------------------------------------------------------

def test_criterion_2_linear_closed_form():
    rng = np.random.default_rng(21)
    worst = 0.0
    for d in (2, 3):
        beta = -0.4 * np.eye(d) + 0.3 * rng.standard_normal((d, d))
        p = build_admissible(d, beta=beta, b_extra=np.eye(d))
        u = random_psd(rng, d)
        grid = np.linspace(0.0, 2.0, 20)
        sol = solve_riccati(p, u, 2.0, t_eval=grid)
        for i, t in enumerate(grid):
            e_mat = scipy.linalg.expm(t * beta)
            worst = max(worst, frob_norm(sol.psi[i] - e_mat.T @ u @ e_mat) / frob_norm(u))
    _report(2, worst <= 1e-8,
            f"pure-Lyapunov transform vs closed form on 20-point grid, T=2: "
            f"worst err/||u|| = {worst:.2e} (tol 1e-8)")


# ---------------------------------------------------------------------------
# 3 + 4. Monte Carlo vs analytic Laplace and moments
# ---------------------------------------------------------------------------

_MC_COMBOS = [("mc2-00", 4), ("mc2-01", 16), ("mc2-02", 4),
              ("mc2-03", 16), ("mc2-04", 4), ("mc2-05", 16)]
_MC_PATHS = 200_000


@pytest.fixture(scope="module")
def mc_sweep():
    out = []
    for name, k in _MC_COMBOS:
        s = library.get(name)
        p_k = truncate(s.params, k)
        v = np.eye(2)
        tic = time.perf_counter()
        est = mc_summary(p_k, s.x0, s.T, _MC_PATHS, seed=2024, u=s.u, v=v, workers=2)
        mc_time = time.perf_counter() - tic
        analytic = {
            "laplace": laplace(p_k, s.x0, s.T, s.u),
            "mean": mean(p_k, s.x0, s.T, v),
            "second_moment": second_moment(p_k, s.x0, s.T, v),
        }
        total = time.perf_counter() - tic
        out.append((name, k, est, analytic, mc_time, total))
    return out


def test_criterion_3_exponential_affine(mc_sweep):
    worst_z = 0.0
    worst_time = 0.0
    for name, k, est, analytic, _, total in mc_sweep:
        z = (est["laplace"].estimate - analytic["laplace"]) / est["laplace"].std_error
        worst_z = max(worst_z, abs(z))
        worst_time = max(worst_time, total)
    _report(3, worst_z <= 3.0 and worst_time < 180.0,
            f"{len(mc_sweep)} sets x k in {{4,16}}, n={_MC_PATHS}: "
            f"worst |z| = {worst_z:.2f} (<= 3), worst per-set time {worst_time:.0f}s (< 180s)")


def test_criterion_4_moment_formulas(mc_sweep):
    worst_z = 0.0
    for name, k, est, analytic, _, _ in mc_sweep:
        for key in ("mean", "second_moment"):
            z = (est[key].estimate - analytic[key]) / est[key].std_error
            worst_z = max(worst_z, abs(z))
    _report(4, worst_z <= 3.0,
            f"MC mean/second moment vs derivative formulas: worst |z| = {worst_z:.2f} (<= 3)")


# ---------------------------------------------------------------------------
# 5. cascade monotonicity and convergence
# ---------------------------------------------------------------------------

def test_criterion_5_cascade():
    ok = True
    details = []
    for name in ("cascade-00", "cascade-01"):
        s = library.get(name)
        sol, diag = solve_cascade(s.params, s.u, s.T)
        res = diag.residuals
        ok = ok and diag.worst_monotonicity >= -1e-8 and res[64] < res[2]
        details.append(f"{name}: worst mono {diag.worst_monotonicity:.1e}, "
                       f"res(2)={res[2]:.2e} -> res(64)={res[64]:.2e}")
    _report(5, ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 6. cone and order invariants across the library
# ---------------------------------------------------------------------------

def test_criterion_6_library_invariants(bench):
    rng = np.random.default_rng(66)
    grid = (0.0, 0.35, 0.7, 1.0)
    worst_eig = 0.0
    worst_order = 0.0
    growth_ok = True
    for s in bench:
        p = s.params
        u = s.u
        scale = 1.0 + frob_norm(u)
        su = solve_riccati(p, u, 1.0, t_eval=grid)
        worst_eig = min(worst_eig, float(np.min(su.min_eig)) / scale)
        v = u + random_psd(rng, p.dim, scale=0.25)
        sv = solve_riccati(p, v, 1.0, t_eval=grid)
        for a, b in zip(su.psi, sv.psi):
            worst_order = min(worst_order, min_eigenvalue(b - a))
        rate = growth_rate(p)
        for t, psi in zip(su.t, su.psi):
            if frob_norm(psi) > math.exp(rate * t) * frob_norm(u) * (1.0 + 1e-6) + 1e-12:
                growth_ok = False
    ok = worst_eig >= -1e-9 and worst_order >= -1e-8 and growth_ok
    _report(6, ok,
            f"56-set library: min psi eig/scale {worst_eig:.1e} (>= -1e-9), "
            f"worst order gap {worst_order:.1e} (>= -1e-8), growth bound "
            f"{'held' if growth_ok else 'BREACHED'}")


# ---------------------------------------------------------------------------
# 7. generator identity
# ---------------------------------------------------------------------------

def test_criterion_7_generator_identity():
    slopes = []
    for name in ("mc2-00", "mc2-03"):
        s = library.get(name)
        p_k = truncate(s.params, 4)
        g = generator_exp(p_k, s.u, s.x0)
        base = math.exp(-inner(s.x0, s.u))
        hs = (1e-2, 1e-3, 1e-4)
        errs = [abs((laplace(p_k, s.x0, h, s.u) - base) / h - g) for h in hs]
        slopes.append(float(np.polyfit(np.log(hs), np.log(errs), 1)[0]))
    ok = all(abs(sl - 1.0) <= 0.2 for sl in slopes)
    _report(7, ok, f"laplace finite-difference error slopes {['%.3f' % s for s in slopes]} "
                   f"(target 1 +- 0.2)")


# ---------------------------------------------------------------------------
# 8. variational derivatives
# ---------------------------------------------------------------------------

def test_criterion_8_variational():
    rng = np.random.default_rng(88)
    s = library.get("mc2-02")
    p_k = truncate(s.params, 4)
    v = 0.4 * np.eye(2) + 0.15 * np.ones((2, 2))
    ref = affine_gradient(lambda x: mean(p_k, x, 1.0, v), 2)   # e^(t dR0) v
    thetas = (1e-2, 1e-3, 1e-4)
    errs = [frob_norm(solve_riccati(p_k, th * v, 1.0, t_eval=(0.0, 1.0)).psi_final / th - ref)
            for th in thetas]
    slope = float(np.polyfit(np.log(thetas), np.log(errs), 1)[0])
    sign_ok = True
    bundle = derivative_bundle(p_k)
    for _ in range(25):
        w = random_psd(rng, 2)
        d2f, d2r = forcing_by_generator(bundle, w, w)
        sign_ok = sign_ok and (-d2f >= 0.0)
        sign_ok = sign_ok and (min_eigenvalue(-d2r) >= -1e-12)
    ok = abs(slope - 1.0) <= 0.2 and sign_ok
    _report(8, ok, f"||psi(t, theta v)/theta - e^(t dR0) v|| decay slope {slope:.3f} "
                   f"(1 +- 0.2); second-derivative signs {'ok' if sign_ok else 'BAD'}")


# ---------------------------------------------------------------------------
# 9. simulation statistics
# ---------------------------------------------------------------------------

def test_criterion_9_simulation_statistics():
    rate, horizon, n = 2.0, 1.0, 10_000
    unit = np.eye(2) / math.sqrt(2.0)
    m = ScalarJumpMeasure(2, (atom(0.5 * unit, rate / 2), atom(1.5 * unit, rate / 2)))
    p = build_admissible(2, beta=-0.5 * np.eye(2), m=m, b_extra=np.eye(2))
    counts = terminal_statistics(p, np.eye(2), horizon, n, seed=99)[:, -1]
    lam = rate * horizon
    mean_dev = abs(counts.mean() - lam) / math.sqrt(lam / n)
    var_dev = abs(counts.var(ddof=1) - lam) / math.sqrt((lam + 2 * lam ** 2) / n)

    rng = np.random.default_rng(17)
    den = PowerLawDensity(0.8, 0.5, 0.25, 1.0)
    total = den.cdf_mass(den.rmax)
    draws = np.sort(den.inverse_cdf_mass(rng.random(n) * total))
    cdf = np.asarray(den.cdf_mass(draws)) / total
    ks = max(np.max(np.abs(np.arange(1, n + 1) / n - cdf)),
             np.max(np.abs(np.arange(0, n) / n - cdf)))
    ks_crit = 1.63 / math.sqrt(n)
    ok = mean_dev <= 3.0 and var_dev <= 3.0 and ks < ks_crit
    _report(9, ok,
            f"Poisson jump counts: |z_mean| = {mean_dev:.2f}, |z_var| = {var_dev:.2f} (<= 3); "
            f"radius KS = {ks:.4f} (< {ks_crit:.4f} at 1%)")


# ---------------------------------------------------------------------------
# 10. bitwise reproducibility of the verify pipeline
# ---------------------------------------------------------------------------

def test_criterion_10_verify_reproducibility(tmp_path, pools):
    s = library.get("mc2-00")
    pfile = tmp_path / "params.json"
    save_params(s.params, pfile)
    payloads = []
    for w in (1, 4, 8):
        out = tmp_path / f"workers{w}"
        code = cli_main(["verify", "--params", str(pfile), "--T", "1.0", "--k", "4",
                         "--n-paths", "2000", "--seed", "31", "--workers", str(w),
                         "--out", str(out)])
        assert code == 0
        payloads.append((out / "verify.json").read_bytes())
    ok = payloads[0] == payloads[1] == payloads[2] and pools == [4, 8]
    _report(10, ok, "verify.json bitwise identical across 1/4/8 workers (seed 31, 128-path blocks)")
