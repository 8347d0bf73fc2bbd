"""Generalized Riccati system on the PSD cone and its truncation cascade.

The transform pair (phi, psi) solves phi' = F(psi), psi' = R(psi) with
phi(0) = 0, psi(0) = u, where F and R are built from a parameter set
(b, B, m, mu).  R is quasi-monotone on the cone, so the exact flow never
leaves it; the integrator enforces the same property numerically by
rejecting, with half the step, every step whose state dips below the cone
tolerance.  Removing jumps of norm <= 1/k gives globally Lipschitz
right-hand sides whose solutions decrease monotonically (in the Loewner
order) to the untruncated solution as k grows; solve_cascade runs that
schedule and reports the convergence residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import roots_jacobi

from .exceptions import CascadeError, RiccatiSolverError
from . import symcone
from .symcone import VecBasis, frob_norm, min_eigenvalue
# radial_quad is not called here, but perfbench/tracer.py patches the
# binding riccati.radial_quad when it installs, so the import stays.
from .params import PointMass, PowerLawDensity, radial_quad, truncate  # noqa: F401

__all__ = [
    "RiccatiOptions",
    "RiccatiSolution",
    "CascadeDiagnostics",
    "eval_F",
    "eval_R",
    "eval_Fk",
    "eval_Rk",
    "growth_rate",
    "ray_rule",
    "rk_lipschitz_bound",
    "solve_riccati",
    "solve_cascade",
    "solution_to_csv",
]

_INF = math.inf


# step controller of the cone-aware integrator
_DT_INIT = 1e-3
_ABS_TOL = 1e-10
_REL_TOL = 1e-8
_MAX_T = 100.0
_N_GRID = 33           # output times when t_eval is omitted
_MAX_STEPS = 200_000
_GROWTH_FUDGE = 1e-6   # relative slack of the growth-bound check


@dataclass(frozen=True)
class RiccatiOptions:
    """Cone tolerance and cascade schedule of the cone-aware integrator."""

    cone_tol: float = 1e-9
    k_schedule: tuple = (1, 2, 4, 8, 16, 32, 64)

    def __post_init__(self):
        if self.cone_tol <= 0:
            raise ValueError("the cone tolerance must be positive")
        if any(k2 <= k1 for k1, k2 in zip(self.k_schedule, self.k_schedule[1:])):
            raise ValueError("k schedule must be strictly increasing")


@dataclass(eq=False)
class RiccatiSolution:
    """Transform values on a time grid plus integrator diagnostics."""

    t: np.ndarray
    phi: np.ndarray
    psi: np.ndarray  # (N, d, d)
    min_eig: np.ndarray
    step_size: np.ndarray
    k: int | None  # truncation level; None means the untruncated (limit) field
    diagnostics: dict = field(default_factory=dict)

    @property
    def psi_final(self):
        return self.psi[-1]

    @property
    def phi_final(self):
        return float(self.phi[-1])


@dataclass(eq=False)
class CascadeDiagnostics:
    ks: tuple
    residuals: dict  # k -> sup_t ||psi_k - psi_prev||
    worst_monotonicity: float  # most negative min eig of (psi_prev - psi_k) seen
    final_residual: float

    def to_json(self):
        return {
            "ks": list(self.ks),
            "residuals": {str(k): v for k, v in self.residuals.items()},
            "worst_monotonicity": self.worst_monotonicity,
            "final_residual": self.final_residual,
        }


# ---------------------------------------------------------------------------
# F and R
# ---------------------------------------------------------------------------

def eval_F(p_set, u, check_bound=True):
    """F(u) = <b,u> - integral of the compensated exponential bracket against m."""
    u = symcone.check_symmetric(u)
    field = _Field(p_set)
    val = float(field.rhs(field.basis.vec(u))[0])
    if check_bound:
        cap = (frob_norm(p_set.b) + p_set.m.second_moment()) * (1.0 + frob_norm(u) ** 2)
        if abs(val) > cap * (1.0 + 1e-9) + 1e-12:
            raise RiccatiSolverError(
                f"|F(u)| = {abs(val):.6g} exceeds its quadratic-growth cap {cap:.6g}")
    return val


def eval_R(p_set, u, check_bound=True):
    """R(u) = B*(u) - integral of the bracket against mu(dxi)/||xi||^2."""
    u = symcone.check_symmetric(u)
    field = _Field(p_set)
    out = field.basis.unvec(field.rhs(field.basis.vec(u))[1:])
    if check_bound:
        cap = (symcone.operator_norm(p_set.B) + frob_norm(p_set.mu.total_mass_matrix())) \
            * (1.0 + frob_norm(u) ** 2)
        if frob_norm(out) > cap * (1.0 + 1e-9) + 1e-12:
            raise RiccatiSolverError(
                f"||R(u)|| = {frob_norm(out):.6g} exceeds its quadratic-growth cap {cap:.6g}")
    return symcone.symmetrize(out)


def eval_Fk(p_set, k, u, check_bound=True):
    return eval_F(truncate(p_set, k), u, check_bound=check_bound)


def eval_Rk(p_set, k, u, check_bound=True):
    return eval_R(truncate(p_set, k), u, check_bound=check_bound)


def growth_rate(p_set):
    """||B|| + 2 ||mu total mass||: the exponential growth rate of ||psi||."""
    return symcone.operator_norm(p_set.B) + 2.0 * frob_norm(p_set.mu.total_mass_matrix())


def rk_lipschitz_bound(p_set, k):
    """Lipschitz constant of the level-k field: ||B|| + 2 k ||mu total mass||."""
    return symcone.operator_norm(p_set.B) + 2.0 * k * frob_norm(p_set.mu.total_mass_matrix())


# ---------------------------------------------------------------------------
# ray quadrature rules
# ---------------------------------------------------------------------------

RAY_NODES = 24  # Gauss nodes per panel of every ray rule
_LEG_X, _LEG_W = np.polynomial.legendre.leggauss(RAY_NODES)
_LOG_PANEL = math.log(64.0)  # widest panel in log r
_Y_EDGES = 10.0 ** -np.arange(9.0, -1.0, -1.0)  # decade panels 1e-9, ..., 1 in y


def _legendre(edges):
    """Composite Gauss-Legendre nodes and weights on consecutive panels."""
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)[:, None]
    return ((edges[:-1, None] + half) + half * _LEG_X).ravel(), (half * _LEG_W).ravel()


def _piece_rule(density, a, b):
    """Nodes r and weights W with sum W g(r) = integral of g(r) density(r) dr over [a, b].

    Power law reaching 0: Gauss-Jacobi with weight r^(1-alpha), which holds
    the r^(-1-alpha) r^2 behaviour of the bracket (alpha < 1 by admissibility).
    Power law on [a, b], a > 0: Gauss-Legendre in log r.  Power-law tail and
    every exponential piece: Gauss-Legendre on decade panels of a variable y
    in (0, 1] in which the jump mass is uniform (exponential: y = e^(-lam(r-a)))
    or the small-slope bracket is (power-law tail: y = (a/r)^(alpha-1)).
    """
    c = density.c
    if isinstance(density, PowerLawDensity) and b < _INF:
        alpha = density.alpha
        if a == 0.0:
            x, w = roots_jacobi(RAY_NODES, 0.0, 1.0 - alpha)
            r = 0.5 * b * (1.0 + x)
            return r, c * (0.5 * b) ** (2.0 - alpha) * w / (r * r)
        span = math.log(b / a)
        t, w = _legendre(math.log(a) + np.linspace(0.0, span, math.ceil(span / _LOG_PANEL) + 1))
        r = np.exp(t)
        return r, c * w * r ** -alpha
    if isinstance(density, PowerLawDensity):
        beta = 1.0 / (density.alpha - 1.0)
        y, w = _legendre(np.concatenate([[0.0], _Y_EDGES]))
        return a * y ** -beta, c * a ** -density.alpha * beta * w * y ** beta
    y_b = math.exp(-density.lam * (b - a))
    y, w = _legendre(np.concatenate([[y_b], _Y_EDGES[_Y_EDGES > y_b]]))
    return a - np.log(y) / density.lam, (c * math.exp(-density.lam * a) / density.lam) * w


def ray_rule(density):
    """(r, W, small) for one radial law: the jumps of norm <= 1 carry small = 1.

    sum W (expm1(-s r) + small s r) is the compensated bracket
    integral of (e^{-s r} - 1 + s r 1{r <= 1}) density(r) dr at slope s.
    A PointMass is its one node.
    """
    if isinstance(density, PointMass):
        return np.array([density.r0]), np.array([density.c]), np.array([float(density.r0 <= 1.0)])
    parts = []
    for lo, hi, small in ((density.rmin, min(density.rmax, 1.0), 1.0),
                          (max(density.rmin, 1.0), density.rmax, 0.0)):
        if hi > lo:
            r, w = _piece_rule(density, lo, hi)
            parts.append((r, w, np.full(r.shape, small)))
    return tuple(np.concatenate(col) for col in zip(*parts))


# ---------------------------------------------------------------------------
# vectorized right-hand side
# ---------------------------------------------------------------------------

class _Field:
    """Precompiled (F, R) evaluation in VecBasis coordinates.

    Every jump is the list of nodes of its ray_rule.  Node j jumps by
    node_dirs[j] and adds W_j (expm1(-x_j) + small_j x_j) times its output
    row to the field, where x_j = <node_dirs[j], psi>; column 0 of the
    output is F, the rest vec R.
    """

    def __init__(self, p_set):
        self.basis = basis = VecBasis(p_set.dim)
        n = basis.n
        self.lin = np.vstack([basis.vec(p_set.b), p_set.B.mat.T])

        jumps = p_set.m.jumps + p_set.mu.jumps
        nodes = [ray_rule(j.law) for j in jumps]
        sizes = [len(r) for r, _, _ in nodes]
        r, w, self.node_small = (np.concatenate([np.zeros(0)] + [nd[i] for nd in nodes])
                                 for i in range(3))
        dirs = np.array([basis.vec(j.direction) for j in jumps]).reshape(-1, n)
        outs = np.array([j.output_row(basis) for j in jumps]).reshape(-1, n + 1)
        self.node_dirs = r[:, None] * np.repeat(dirs, sizes, axis=0)
        self.node_out = w[:, None] * np.repeat(outs, sizes, axis=0)

    def rhs(self, psi_vec):
        """Returns (F(psi), vec R(psi)) as one vector."""
        x = self.node_dirs @ psi_vec
        return self.lin @ psi_vec - (np.expm1(-x) + self.node_small * x) @ self.node_out


# Dormand-Prince 4(5) tableau
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
_DP_ERR = _DP_B5 - _DP_B4


def solve_riccati(p_set, u, T, opts=None, k=None, t_eval=None):
    """Integrate the transform ODEs up to T with cone-aware step control.

    Parameters
    ----------
    p_set : ParameterSet
    u : initial condition for psi, PSD within the cone tolerance.
    T : horizon, t >= 0.
    opts : RiccatiOptions, defaults used when omitted.
    k : optional truncation level; jumps of norm <= 1/k are removed first.
    t_eval : output times; 0 and T are always included.  The controller
        lands on every output time exactly (no interpolation).

    Returns a RiccatiSolution whose grid values satisfy phi(0) = 0,
    psi(0) = u, cone positivity within opts.cone_tol, and the exponential
    growth bound of the field.
    """
    opts = opts or RiccatiOptions()
    if T < 0:
        raise ValueError("T must be >= 0")
    if T > _MAX_T:
        raise ValueError(f"T = {T} exceeds the horizon limit {_MAX_T}")
    work = truncate(p_set, k) if k is not None else p_set
    u = symcone.check_symmetric(u)
    u_norm = frob_norm(u)
    if min_eigenvalue(u) < -opts.cone_tol * (1.0 + u_norm):
        raise ValueError("initial condition u must lie in the PSD cone")

    field = _Field(work)
    basis = field.basis
    rate = growth_rate(work)
    bound_slack = 1e-12 * (1.0 + u_norm)

    if t_eval is None:
        grid = np.linspace(0.0, T, _N_GRID)
    else:
        grid = np.asarray(t_eval, dtype=float)
        grid = np.unique(np.concatenate([[0.0], grid[(grid >= 0) & (grid <= T)], [T]]))

    n = basis.n
    y = np.zeros(n + 1)
    y[1:] = basis.vec(u)

    out_phi = np.empty(len(grid))
    out_psi = np.empty((len(grid), p_set.dim, p_set.dim))
    out_me = np.empty(len(grid))
    out_h = np.empty(len(grid))

    def record(idx, yv, h_last):
        out_phi[idx] = yv[0]
        psi = symcone.symmetrize(basis.unvec(yv[1:]))
        out_psi[idx] = psi
        out_me[idx] = min_eigenvalue(psi)
        out_h[idx] = h_last

    record(0, y, 0.0)
    next_out = 1

    diag = {"n_steps": 0, "n_rejected_error": 0, "n_rejected_cone": 0,
            "n_rhs_evals": 0, "max_cone_violation": 0.0}

    if T == 0.0:
        return RiccatiSolution(grid, out_phi[:1], out_psi[:1], out_me[:1], out_h[:1],
                               k, diag)

    def f(yv):
        diag["n_rhs_evals"] += 1
        return field.rhs(yv[1:])

    t = 0.0
    h_ctrl = min(_DT_INIT, T)
    k1 = f(y)
    ks = np.empty((7, n + 1))
    h_floor = 1e-14 * T

    while next_out < len(grid):
        target = grid[next_out]
        h = min(h_ctrl, target - t)
        if h < h_floor:
            raise RiccatiSolverError(
                f"stiffness/cone breach: step size underflow at t = {t:.6g} (h = {h:.3e})")
        ks[0] = k1
        for i in range(1, 7):
            yi = y + h * (_DP_A[i] @ ks[:i])
            ks[i] = f(yi)
        y5 = y + h * (_DP_B5 @ ks)
        err = h * (_DP_ERR @ ks)
        scale = _ABS_TOL + _REL_TOL * np.maximum(np.abs(y), np.abs(y5))
        err_norm = float(np.sqrt(np.mean((err / scale) ** 2)))

        if err_norm > 1.0:
            diag["n_rejected_error"] += 1
            h_ctrl = h * max(0.2, 0.9 * err_norm ** -0.2)
            continue

        psi_new = symcone.symmetrize(basis.unvec(y5[1:]))
        me = min_eigenvalue(psi_new)
        if me < -opts.cone_tol:
            diag["n_rejected_cone"] += 1
            h_ctrl = 0.5 * h
            continue
        diag["max_cone_violation"] = max(diag["max_cone_violation"], max(0.0, -me))

        t_new = t + h
        cap = math.exp(rate * t_new) * u_norm * (1.0 + _GROWTH_FUDGE) + bound_slack
        if frob_norm(psi_new) > cap:
            raise RiccatiSolverError(
                f"growth bound breached at t = {t_new:.6g}: ||psi|| = {frob_norm(psi_new):.6g} > {cap:.6g}")

        t = t_new
        y = y5
        k1 = ks[6].copy()
        diag["n_steps"] += 1
        if diag["n_steps"] > _MAX_STEPS:
            raise RiccatiSolverError(f"exceeded max_steps = {_MAX_STEPS}")
        if abs(t - target) <= 1e-12 * max(1.0, T):
            t = target
            record(next_out, y, h)
            next_out += 1
        h_ctrl = h * min(5.0, max(0.2, 0.9 * (err_norm + 1e-16) ** -0.2))

    return RiccatiSolution(grid, out_phi, out_psi, out_me, out_h, k, diag)


def solve_cascade(p_set, u, T, opts=None, t_eval=None):
    """Solve the truncation levels of opts.k_schedule and check monotone decrease.

    Returns the largest-k solution together with per-level residuals
    sup_t ||psi_k - psi_prev||; a Loewner-monotonicity violation beyond the
    cone tolerance raises CascadeError (it flags an integrator or measure
    bug, not a modelling choice).
    """
    opts = opts or RiccatiOptions()
    if not opts.k_schedule:
        raise ValueError("k schedule must be nonempty")
    grid = t_eval if t_eval is not None else np.linspace(0.0, T, _N_GRID)

    residuals = {}
    worst = 0.0
    prev = None
    sol = None
    for k in opts.k_schedule:
        sol = solve_riccati(p_set, u, T, opts=opts, k=k, t_eval=grid)
        if prev is not None:
            gaps = prev.psi - sol.psi
            worst_here = min(min_eigenvalue(g) for g in gaps)
            worst = min(worst, worst_here)
            if worst_here < -opts.cone_tol:
                raise CascadeError(
                    f"cascade monotonicity violated between k={prev.k} and k={k}: "
                    f"min eig(psi_{prev.k} - psi_{k}) = {worst_here:.3e}")
            residuals[k] = float(max(frob_norm(g) for g in gaps))
        prev = sol

    final_res = residuals[opts.k_schedule[-1]] if len(opts.k_schedule) > 1 else 0.0
    diag = CascadeDiagnostics(tuple(opts.k_schedule), residuals, worst, final_res)
    sol.diagnostics["cascade_residual"] = final_res
    return sol, diag


# ---------------------------------------------------------------------------
# CSV interface
# ---------------------------------------------------------------------------

def solution_to_csv(sol, fh):
    """Write t, phi, the psi upper triangle, min_eig and step_size columns."""
    d = sol.psi.shape[1]
    names = [f"psi_{i + 1}{j + 1}" for i in range(d) for j in range(i, d)]
    fh.write(",".join(["t", "phi"] + names + ["min_eig", "step_size"]) + "\n")
    iu = [(i, j) for i in range(d) for j in range(i, d)]
    for idx in range(len(sol.t)):
        row = [sol.t[idx], sol.phi[idx]]
        row += [sol.psi[idx][i, j] for i, j in iu]
        row += [sol.min_eig[idx], sol.step_size[idx]]
        fh.write(",".join(f"{x:.17g}" for x in row) + "\n")
