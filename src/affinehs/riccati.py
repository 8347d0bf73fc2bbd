"""Generalized Riccati system on the PSD cone and its truncation cascade.

The transform pair (phi, psi) solves phi' = F(psi), psi' = R(psi) with
phi(0) = 0, psi(0) = u, where F and R are built from a parameter set
(b, B, m, mu).  R is quasi-monotone on the cone, so the exact flow never
leaves it.  The integrator, the Dormand-Prince 8(5,3) pair with a
starting-step estimate, enforces the same property numerically by
rejecting, with half the step, every step whose state dips below the cone
tolerance.  Removing jumps of norm <= 1/k gives globally Lipschitz
right-hand sides whose solutions decrease monotonically (in the Loewner
order) to the untruncated solution as k grows; solve_cascade runs that
schedule as one solve, all levels stepped together by one controller, and
reports the convergence residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import roots_jacobi

from .exceptions import CascadeError, RiccatiSolverError
from . import symcone
from .symcone import VecBasis, frob_norm, min_eigenvalue
from .params import PointMass, PowerLawDensity, compiled, jump_rows, truncation_cut
# radial_quad and truncate are not called here, but perfbench/tracer.py
# patches the bindings riccati.radial_quad and riccati.truncate when it
# installs, so both imports stay.
from .params import radial_quad, truncate  # noqa: F401

__all__ = [
    "RiccatiOptions",
    "RiccatiSolution",
    "CascadeDiagnostics",
    "eval_F",
    "eval_R",
    "ray_rule",
    "solve_riccati",
    "solve_cascade",
    "solution_to_csv",
]

_INF = math.inf


# step controller of the cone-aware integrator
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

def eval_F(p_set, u):
    """F(u) = <b,u> - integral of the compensated exponential bracket against m."""
    u = symcone.check_symmetric(u)
    field = _levels(p_set, (0.0,))[0]
    val = float(field.rhs(field.basis.vec(u))[0])
    cap = (frob_norm(p_set.b) + p_set.m.second_moment()) * (1.0 + frob_norm(u) ** 2)
    if abs(val) > cap * (1.0 + 1e-9) + 1e-12:
        raise RiccatiSolverError(
            f"|F(u)| = {abs(val):.6g} exceeds its quadratic-growth cap {cap:.6g}")
    return val


def eval_R(p_set, u):
    """R(u) = B*(u) - integral of the bracket against mu(dxi)/||xi||^2."""
    u = symcone.check_symmetric(u)
    field = _levels(p_set, (0.0,))[0]
    out = field.basis.unvec(field.rhs(field.basis.vec(u))[1:])
    cap = (symcone.operator_norm(p_set.B) + frob_norm(p_set.mu.total_mass_matrix())) \
        * (1.0 + frob_norm(u) ** 2)
    if frob_norm(out) > cap * (1.0 + 1e-9) + 1e-12:
        raise RiccatiSolverError(
            f"||R(u)|| = {frob_norm(out):.6g} exceeds its quadratic-growth cap {cap:.6g}")
    return symcone.symmetrize(out)


def _growth_rates(p_set, cuts):
    """||B|| + 2 ||mu total mass||, the exponential growth rate of ||psi||, of
    each truncation that keeps the jumps of norm > cut."""
    b_norm = symcone.operator_norm(p_set.B)
    return np.array([b_norm + 2.0 * frob_norm(p_set.mu.total_mass_matrix(cut)) for cut in cuts])


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
    A PointMass is its one node; no law (None) has no nodes.
    """
    if density is None:
        return (np.zeros(0),) * 3
    if isinstance(density, PointMass):
        return np.array([density.r0]), np.array([density.c]), np.array([float(density.r0 <= 1.0)])
    parts = []
    for lo, hi, small in ((density.rmin, min(density.rmax, 1.0), 1.0),
                          (max(density.rmin, 1.0), density.rmax, 0.0)):
        if hi > lo:
            r, w = _piece_rule(density, lo, hi)
            parts.append((r, w, np.full(r.shape, small)))
    return parts[0] if len(parts) == 1 else tuple(np.concatenate(col) for col in zip(*parts))


# ---------------------------------------------------------------------------
# vectorized right-hand side
# ---------------------------------------------------------------------------

class _Field:
    """Precompiled (F, R) evaluation of a stack of truncation levels.

    levels[l][i] is jump i's law on the norms in (cut_l, 1] at level l, None
    where that is empty; one level without a cut by default.  Every cut is
    at most 1, so the jumps of norm > 1 are the same at every level and
    their rules are built once.  The state is [phi_1..phi_L, vec psi_1..vec
    psi_L] in VecBasis coordinates, and rhs returns [F_1..F_L, vec R_1..vec
    R_L]; lin, node_dirs and node_out are block-diagonal over the levels,
    and column l of member picks level l's coordinates.  Every law is the
    list of nodes of its ray_rule.  Node j jumps by node_dirs[j] and adds
    W_j (expm1(-x_j) + small_j x_j) times its output row to the field, where
    x_j = <node_dirs[j], psi>.
    """

    def __init__(self, p_set, levels=None):
        self.basis = basis = VecBasis(p_set.dim)
        jumps, dirs, outs = jump_rows(p_set, basis)
        levels = levels or [[j.law.restricted(0.0, 1.0) for j in jumps]]
        n, n_lev = basis.n, len(levels)
        large = [ray_rule(j.law.restricted(1.0, _INF)) for j in jumps]
        blocks = []
        for laws in levels:
            pairs = [(ray_rule(law), hi) for law, hi in zip(laws, large)]
            sizes = [len(lo[0]) + len(hi[0]) for lo, hi in pairs]
            r, w, small = (np.concatenate([np.zeros(0)] + [p[c] for pair in pairs for p in pair])
                           for c in range(3))
            blocks.append((r[:, None] * np.repeat(dirs, sizes, axis=0),
                           w[:, None] * np.repeat(outs, sizes, axis=0), small))

        self.node_small = np.concatenate([small for _, _, small in blocks])
        self.lin = np.zeros((n_lev * (n + 1), n_lev * n))
        self.node_dirs = np.zeros((len(self.node_small), n_lev * n))
        self.node_out = np.zeros((len(self.node_small), n_lev * (n + 1)))
        self.member = np.zeros((n_lev * (n + 1), n_lev))
        b_vec, b_adj = basis.vec(p_set.b), p_set.B.mat.T
        start = 0
        for lvl, (node_dirs, node_out, _) in enumerate(blocks):
            cols = slice(lvl * n, (lvl + 1) * n)  # vec psi_l in the state, less the phis
            out = slice(n_lev + lvl * n, n_lev + (lvl + 1) * n)  # vec R_l in the field
            rows = slice(start, start + len(node_dirs))
            start = rows.stop
            self.lin[lvl, cols] = b_vec
            self.lin[out, cols] = b_adj
            self.node_dirs[rows, cols] = node_dirs
            self.node_out[rows, lvl] = node_out[:, 0]
            self.node_out[rows, out] = node_out[:, 1:]
            self.member[lvl, lvl] = 1.0
            self.member[out, lvl] = 1.0
        for arr in (self.node_small, self.lin, self.node_dirs, self.node_out, self.member):
            arr.setflags(write=False)

    def rhs(self, psi_vec):
        """Returns (F(psi), vec R(psi)) as one vector, stacked over the levels."""
        x = self.node_dirs @ psi_vec
        return self.lin @ psi_vec - (np.expm1(-x) + self.node_small * x) @ self.node_out


# Dormand-Prince 8(5,3) tableau (Hairer, Norsett & Wanner, Solving Ordinary
# Differential Equations I, 1993, II.5): stage i is the field at
# y + h (_A[i] @ stages[:i]), _B weighs the stages into the 8th-order step,
# and _E5, _E3 into its 5th- and 3rd-order error estimates.  The field is
# autonomous, so the stage times (the row sums of _A) are not needed.
_A = [
    np.array([]),
    np.array([0.05260015195876773]),
    np.array([0.0197250569845379, 0.0591751709536137]),
    np.array([0.02958758547680685, 0.0, 0.08876275643042054]),
    np.array([0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792]),
    np.array([0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242]),
    np.array([0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125]),
    np.array([0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
              -0.015319437748624402, 0.008273789163814023]),
    np.array([0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
              27.59209969944671, 20.154067550477894, -43.48988418106996]),
    np.array([0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
              21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627]),
    np.array([-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
              -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
              -3.0467644718982196]),
    np.array([2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
              -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
              12.360567175794303, 0.6433927460157636]),
]
_B = np.array([0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
               -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
               0.04471061572777259])
_E5 = np.array([0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
                -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
                0.3341791187130175, 0.08192320648511571, -0.022355307863886294])
_E3 = _B - np.array([0.2440944881889764, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.7338466882816118,
                     0.0, 0.0, 0.022058823529411766])


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
    return _solve_levels(p_set, u, T, opts or RiccatiOptions(), (k,), t_eval)[0]


def solve_cascade(p_set, u, T, opts=None, t_eval=None):
    """Solve the truncation levels of opts.k_schedule and check monotone decrease.

    All levels are integrated side by side under one step controller.
    Returns the largest-k solution together with per-level residuals
    sup_t ||psi_k - psi_prev||; a Loewner-monotonicity violation beyond the
    cone tolerance raises CascadeError (it flags an integrator or measure
    bug, not a modelling choice).
    """
    opts = opts or RiccatiOptions()
    ks = tuple(opts.k_schedule)
    if not ks:
        raise ValueError("k schedule must be nonempty")
    sols = _solve_levels(p_set, u, T, opts, ks, t_eval)

    residuals = {}
    worst = 0.0
    psi = np.array([s.psi for s in sols])
    gaps = psi[:-1] - psi[1:]
    gap_mins = min_eigenvalue(gaps).min(axis=1)
    gap_norms = np.linalg.norm(gaps, axis=(2, 3)).max(axis=1)
    for k_prev, k, gap_min, gap_norm in zip(ks, ks[1:], gap_mins, gap_norms):
        worst = min(worst, float(gap_min))
        if gap_min < -opts.cone_tol:
            raise CascadeError(
                f"cascade monotonicity violated between k={k_prev} and k={k}: "
                f"min eig(psi_{k_prev} - psi_{k}) = {gap_min:.3e}")
        residuals[k] = float(gap_norm)

    final_res = residuals.get(ks[-1], 0.0)
    diag = CascadeDiagnostics(ks, residuals, worst, final_res)
    sol = sols[-1]
    sol.diagnostics["cascade_residual"] = final_res
    return sol, diag


def _levels(p_set, cuts):
    """(field, slot, rates) of the truncation cuts, compiled once per set and cuts.

    Levels that keep the same laws solve the same equation, so the field
    stacks each distinct one once: slot[i] is the level of cuts[i] in it,
    and rates[l] is level l's growth rate.
    """
    def build():
        jumps = p_set.m.jumps + p_set.mu.jumps
        laws = [tuple(j.law.restricted(cut, 1.0) for j in jumps) for cut in cuts]
        distinct = list(dict.fromkeys(laws))
        rates = _growth_rates(p_set, [cuts[laws.index(key)] for key in distinct])
        rates.setflags(write=False)
        return _Field(p_set, distinct), tuple(distinct.index(key) for key in laws), rates

    return compiled(p_set, ("levels", cuts), build)


def _solve_levels(p_set, u, T, opts, ks, t_eval):
    """Integrate the truncation levels ks (None: untruncated) under one controller.

    The integrator is the Dormand-Prince 8(5,3) pair with Hairer's
    starting-step estimate.  The state stacks the levels (see _Field).  The
    error norm is the largest of the levels' combined 5th/3rd-order
    estimates; a step is rejected, with half the step, when any level dips
    below the cone tolerance; each level keeps its own growth bound.
    Returns one RiccatiSolution per level, each carrying the shared
    controller's diagnostics.
    """
    if T < 0:
        raise ValueError("T must be >= 0")
    if T > _MAX_T:
        raise ValueError(f"T = {T} exceeds the horizon limit {_MAX_T}")
    cuts = tuple(0.0 if k is None else truncation_cut(k) for k in ks)
    u = symcone.check_symmetric(u)
    u_norm = frob_norm(u)
    if min_eigenvalue(u) < -opts.cone_tol * (1.0 + u_norm):
        raise ValueError("initial condition u must lie in the PSD cone")

    field, slot, rates = _levels(p_set, cuts)
    d, n, levels = p_set.dim, field.basis.n, len(rates)
    bound_slack = 1e-12 * (1.0 + u_norm)
    emb_t = symcone._embedding(d).T

    def matrices(ys):
        """The psi matrices of stacked states, (len(ys), levels, d, d)."""
        return (ys[..., levels:].reshape(-1, levels, n) @ emb_t).reshape(-1, levels, d, d)

    grid = np.linspace(0.0, T, _N_GRID) if t_eval is None else np.asarray(t_eval, dtype=float)
    grid = np.unique(np.concatenate([[0.0], grid[(grid >= 0) & (grid <= T)], [T]]))

    y = np.concatenate([np.zeros(levels)] + [field.basis.vec(u)] * levels)
    out_y = [y]
    out_h = [0.0]
    diag = {"n_steps": 0, "n_rejected_error": 0, "n_rejected_cone": 0,
            "n_rhs_evals": 0, "max_cone_violation": 0.0}

    def f(yv):
        diag["n_rhs_evals"] += 1
        return field.rhs(yv[levels:])

    def level_norms(v, scale):
        """RMS norm of v / scale over each level's coordinates."""
        return np.sqrt((v / scale) ** 2 @ field.member / (n + 1))

    t = 0.0
    next_out = 1
    abs_y = np.abs(y)
    if T > 0.0:
        # starting step (Hairer, Norsett & Wanner, II.4): an Euler probe of
        # 1% of the state sizes the second derivative; the smallest over the levels
        k1 = f(y)
        scale = _ABS_TOL + _REL_TOL * abs_y
        d0, d1 = level_norms(y, scale), level_norms(k1, scale)
        h0 = min(T, np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6,
                             0.01 * d0 / np.maximum(d1, 1e-5)).min())
        d2 = np.maximum(d1, level_norms(f(y + h0 * k1) - k1, scale) / h0)
        h1 = np.where(d2 <= 1e-15, max(1e-6, 1e-3 * h0), (0.01 / np.maximum(d2, 1e-15)) ** 0.125)
        h_ctrl = min(100.0 * h0, h1.min(), T)
    stages = np.empty((12, y.size))
    h_cap = _INF   # after a rejection, the next step is no longer than the rejected one
    h_floor = 1e-14 * T
    while next_out < len(grid):
        target = grid[next_out]
        h = min(h_ctrl, target - t)
        if h < h_floor:
            raise RiccatiSolverError(
                f"stiffness/cone breach: step size underflow at t = {t:.6g} (h = {h:.3e})")
        stages[0] = k1
        for i in range(1, 12):
            stages[i] = f(y + h * (_A[i] @ stages[:i]))
        y_new = y + h * (_B @ stages)
        fsal = f(y_new)   # the first stage of the next step
        abs_new = np.abs(y_new)
        scale = _ABS_TOL + _REL_TOL * np.maximum(abs_y, abs_new)
        e5 = ((_E5 @ stages) / scale) ** 2 @ field.member
        e3 = ((_E3 @ stages) / scale) ** 2 @ field.member
        denom = np.sqrt((e5 + 0.01 * e3) * (n + 1))
        err_norm = h * np.divide(e5, denom, out=np.zeros(levels), where=denom > 0.0).max()

        if err_norm > 1.0:
            diag["n_rejected_error"] += 1
            h_ctrl, h_cap = h * max(0.2, 0.9 * err_norm ** -0.125), h
            continue

        me = float(min_eigenvalue(matrices(y_new)).min())
        if me < -opts.cone_tol:
            diag["n_rejected_cone"] += 1
            h_ctrl, h_cap = 0.5 * h, h
            continue
        diag["max_cone_violation"] = max(diag["max_cone_violation"], -me)

        t_new = t + h
        norms = np.sqrt(y_new[levels:] ** 2 @ field.member[levels:])
        caps = np.exp(rates * t_new) * u_norm * (1.0 + _GROWTH_FUDGE) + bound_slack
        if (norms > caps).any():
            lvl = int(np.argmax(norms - caps))
            raise RiccatiSolverError(
                f"growth bound breached at t = {t_new:.6g}, level k = {ks[slot.index(lvl)]}: "
                f"||psi|| = {norms[lvl]:.6g} > {caps[lvl]:.6g}")

        t = t_new
        y, abs_y = y_new, abs_new
        k1 = fsal
        diag["n_steps"] += 1
        if diag["n_steps"] > _MAX_STEPS:
            raise RiccatiSolverError(f"exceeded max_steps = {_MAX_STEPS}")
        if abs(t - target) <= 1e-12 * max(1.0, T):
            t = target
            out_y.append(y)
            out_h.append(h)
            next_out += 1
        # growing past a rejected step would only be rejected again; not
        # growing at all would aim every retry at the same rejected point
        grow = 10.0 if err_norm == 0.0 else min(10.0, 0.9 * err_norm ** -0.125)
        h_ctrl, h_cap = min(h * grow, h_cap), _INF

    ys = np.array(out_y)
    psi = matrices(ys).swapaxes(0, 1)  # (levels, N, d, d)
    min_eig = min_eigenvalue(psi)
    steps = np.array(out_h)
    return [RiccatiSolution(grid, ys[:, lvl], psi[lvl], min_eig[lvl], steps, k, dict(diag))
            for lvl, k in zip(slot, ks)]


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
