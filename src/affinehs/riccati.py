"""Generalized Riccati system on the PSD cone and its truncation cascade.

The transform pair (phi, psi) solves phi' = F(psi), psi' = R(psi) with
phi(0) = 0, psi(0) = u, where F and R are built from a parameter set
(b, B, m, mu).  R is quasi-monotone on the cone, so the exact flow never
leaves it.  The integrator, the Dormand-Prince 8(5,3) pair started at
five times Hairer's starting-step estimate, enforces the same property
numerically by rejecting, with half the step, every step whose state dips
below the cone tolerance _CONE_TOL.  Removing jumps of norm <= 1/k
(params.truncate) gives globally Lipschitz right-hand sides whose
solutions decrease monotonically (in the Loewner order) to the
untruncated solution as k grows; solve_cascade runs the schedule k in
_K_SCHEDULE as one solve, all levels stepped together by one controller,
and reports the convergence residuals.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .exceptions import CascadeError, RiccatiSolverError
from . import symcone
from .symcone import VecBasis, frob_norm, min_eigenvalue
from .params import PointMass, PowerLawDensity, compiled, jump_rows, truncation_cut
# radial_quad and truncate are not called here, but perfbench/tracer.py
# patches the bindings riccati.radial_quad and riccati.truncate when it
# installs, so both imports stay.
from .params import radial_quad, truncate  # noqa: F401

__all__ = [
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
_START_FACTOR = 5.0    # the first step is this multiple of Hairer's starting-step estimate
_LAND_SLACK = 1.05     # a step lands on the next output time when it is this close to it
_MAX_T = 100.0
_N_GRID = 33           # output times when t_eval is omitted
_MAX_STEPS = 200_000
_GROWTH_FUDGE = 1e-6   # relative slack of the growth-bound check
_CONE_TOL = 1e-9       # a state whose min eigenvalue is below -_CONE_TOL leaves the cone
_K_SCHEDULE = (1, 2, 4, 8, 16, 32, 64)   # truncation levels of solve_cascade


@dataclass(eq=False)
class RiccatiSolution:
    """Transform values on a time grid plus integrator diagnostics."""

    t: np.ndarray
    phi: np.ndarray
    psi: np.ndarray  # (N, d, d)
    min_eig: np.ndarray
    step_size: np.ndarray
    k: int | None  # the cascade level; None for a solve of the set as given
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


def _gauss_jacobi(beta):
    """RAY_NODES-point Gauss rule for the weight (1 + x)^beta on [-1, 1], beta > -1.

    Golub and Welsch (1969): the nodes are the eigenvalues of the symmetric
    tridiagonal Jacobi matrix of the monic Jacobi recurrence, and the
    weights are the total mass 2^(beta+1) / (beta+1) times the squared first
    components of the unit eigenvectors.
    """
    k = np.arange(1.0, RAY_NODES)
    two_k = 2.0 * k + beta
    diag = np.concatenate([[beta / (beta + 2.0)], beta * beta / (two_k * (two_k + 2.0))])
    off = 2.0 * k * (k + beta) / (two_k * np.sqrt(two_k * two_k - 1.0))
    x, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return x, 2.0 ** (beta + 1.0) / (beta + 1.0) * vecs[0] ** 2


def _piece_rule(density, a, b):
    """Nodes r and weights W with sum W g(r) = integral of g(r) density(r) dr over [a, b].

    Power law reaching 0: Gauss-Jacobi with weight r^(1-alpha), which holds
    the r^(-1-alpha) r^2 behaviour of the bracket (alpha < 1 by admissibility);
    its nodes and weights come from `_gauss_jacobi` by Golub-Welsch.
    Power law on [a, b], a > 0: Gauss-Legendre in log r.  Power-law tail and
    every exponential piece: Gauss-Legendre on decade panels of a variable y
    in (0, 1] in which the jump mass is uniform (exponential: y = e^(-lam(r-a)))
    or the small-slope bracket is (power-law tail: y = (a/r)^(alpha-1)).
    """
    c = density.c
    if isinstance(density, PowerLawDensity) and b < _INF:
        alpha = density.alpha
        if a == 0.0:
            x, w = _gauss_jacobi(1.0 - alpha)
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
    their rules are built once.  rhs maps [vec psi_1..vec psi_L], in VecBasis
    coordinates, to [F_1..F_L, vec R_1..vec R_L]; column l of member picks
    level l's coordinates of the latter.  Every law is the list of nodes of
    its ray_rule.  Node j jumps by dirs[j] and adds W_j (expm1(-x_j) +
    small_j x_j) times its output row out[j], where x_j = <dirs[j], psi>.
    The compensator small_j x_j is linear in psi, so it is folded once into
    the linear part (b and B*): lin_c = lin - out^T (small dirs).  A call is
    z = expand @ psi = (-x, lin_c psi), expm1 of the head of z in place, and
    collect @ z, where collect = [-out^T, I].  bind(work) returns that call
    as a stage function f(psi, out) that writes z into work and the result
    into out, so an integrator's stage allocates nothing; rhs allocates both.

    spare holds the solver workspaces (_workspace) that no solve is using.
    A solve takes one with pop() or builds one, and gives it back with
    append() when it returns; both are atomic under the GIL, so two threads
    never share one, and a solve that raises drops its workspace.  No solve
    reads a workspace buffer before writing it, so what a previous solve
    left there never reaches an output.
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

        small = np.concatenate([node_small for _, _, node_small in blocks])
        self.n_nodes = n_nodes = len(small)
        m = n_lev * (n + 1)
        self.expand = np.zeros((n_nodes + m, n_lev * n))
        self.collect = np.zeros((m, n_nodes + m))
        self.member = np.zeros((m, n_lev))
        neg_dirs, lin = self.expand[:n_nodes], self.expand[n_nodes:]
        neg_out = self.collect[:, :n_nodes].T
        b_vec, b_adj = basis.vec(p_set.b), p_set.B.mat.T
        start = 0
        for lvl, (node_dirs, node_out, _) in enumerate(blocks):
            cols = slice(lvl * n, (lvl + 1) * n)  # vec psi_l in the argument
            out = slice(n_lev + lvl * n, n_lev + (lvl + 1) * n)  # vec R_l in the field
            rows = slice(start, start + len(node_dirs))
            start = rows.stop
            lin[lvl, cols] = b_vec
            lin[out, cols] = b_adj
            neg_dirs[rows, cols] = -node_dirs
            neg_out[rows, lvl] = -node_out[:, 0]
            neg_out[rows, out] = -node_out[:, 1:]
            self.member[lvl, lvl] = 1.0
            self.member[out, lvl] = 1.0
        lin -= neg_out.T @ (small[:, None] * neg_dirs)   # the folded compensator
        self.collect[:, n_nodes:] = np.eye(m)
        for arr in (self.expand, self.collect, self.member):
            arr.setflags(write=False)
        self.spare = []

    def bind(self, work):
        """The field as a stage function f(psi_vec, out) that writes the node
        slopes z into work (len(expand) entries) and the result into out."""
        expand, collect, dot, expm1 = self.expand, self.collect, np.dot, np.expm1
        head = work[:self.n_nodes]

        def f(psi_vec, out):
            dot(expand, psi_vec, out=work)
            expm1(head, out=head)
            return dot(collect, work, out=out)
        return f

    def rhs(self, psi_vec, out=None, work=None):
        """(F(psi), vec R(psi)) as one vector, stacked over the levels, written into out if given;
        the node slopes z go into work (len(expand) entries) if given."""
        return self.bind(np.empty(len(self.expand)) if work is None else work)(psi_vec, out)


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
# The tableau over the extended stage array [y, k_1, ..., k_12] (see
# _solve_levels): rows 0 to 11 are the stages, rows 12 to 14 are _B, _E5
# and _E3.  A step scales it by h once, so that its last three rows give
# y_new - y and both error estimates, already times h.
_A_EXT = np.array([np.concatenate([[0.0], row, np.zeros(12 - len(row))]) for row in _A]
                  + [np.concatenate([[0.0], row]) for row in (_B, _E5, _E3)])
_LOG_MAX = math.log(sys.float_info.max)   # the largest x whose exp is finite


def solve_riccati(p_set, u, T, t_eval=None):
    """Integrate the transform ODEs of p_set up to T with cone-aware step control.

    Parameters
    ----------
    p_set : ParameterSet; truncate it first (params.truncate) to drop the
        jumps of norm <= 1/k.
    u : initial condition for psi, PSD within the cone tolerance.
    T : horizon, t >= 0.
    t_eval : output times; 0 and T are always included.  The controller
        lands on every output time exactly (no interpolation); a step
        within 5% of the distance left is stretched to land, so no sliver
        step follows it.

    Returns a RiccatiSolution whose grid values satisfy phi(0) = 0,
    psi(0) = u, cone positivity within _CONE_TOL, and the exponential
    growth bound of the field.  Solves of one set share its compiled field
    and reuse its workspaces (see _Field), one per solve in progress, so
    they may run in several threads and give the bits of a solve alone.
    """
    return _solve_levels(p_set, u, T, (None,), t_eval).solution(0)


def solve_cascade(p_set, u, T, t_eval=None):
    """Solve the truncation levels of _K_SCHEDULE and check monotone decrease.

    All levels are integrated side by side under one step controller.
    Returns the largest-k solution together with per-level residuals
    sup_t ||psi_k - psi_prev||; a Loewner-monotonicity violation beyond the
    cone tolerance raises CascadeError (it flags an integrator or measure
    bug, not a modelling choice).
    """
    ks = _K_SCHEDULE
    levels = _solve_levels(p_set, u, T, ks, t_eval)

    residuals = {}
    worst = 0.0
    gaps = levels.psi[:-1] - levels.psi[1:]
    gap_mins = min_eigenvalue(gaps).min(axis=1)
    gap_norms = np.linalg.norm(gaps, axis=(2, 3)).max(axis=1)
    for k_prev, k, gap_min, gap_norm in zip(ks, ks[1:], gap_mins, gap_norms):
        worst = min(worst, float(gap_min))
        if gap_min < -_CONE_TOL:
            raise CascadeError(
                f"cascade monotonicity violated between k={k_prev} and k={k}: "
                f"min eig(psi_{k_prev} - psi_{k}) = {gap_min:.3e}")
        residuals[k] = float(gap_norm)

    final_res = residuals.get(ks[-1], 0.0)
    diag = CascadeDiagnostics(ks, residuals, worst, final_res)
    sol = levels.solution(-1)
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


class _Levels(NamedTuple):
    """The output of _solve_levels, stacked over ks in their order: phi
    (levels, N), psi (levels, N, d, d) and min_eig (levels, N) on the grid t,
    with the step sizes and the diagnostics of the one controller."""

    ks: tuple
    t: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    min_eig: np.ndarray
    step_size: np.ndarray
    diagnostics: dict

    def solution(self, i):
        """The RiccatiSolution of level ks[i]; it holds the diagnostics dict itself."""
        return RiccatiSolution(self.t, self.phi[i], self.psi[i], self.min_eig[i],
                               self.step_size, self.ks[i], self.diagnostics)


def _workspace(field):
    """The buffers and views of one _solve_levels call on field, in this order:
    the extended stage array ext (the state y in row 0, stage i in row i + 1);
    the scaled tableau coef and its last three rows, which give comb (y_new
    and both error estimates, errs); y and y_new, their psi coordinates, and
    the same by level; the psi matrices of y_new, whole and by level; the
    stage argument, the error scale, |y|, |y_new| and the squared psi of
    y_new; the views of each stage's sum; the transposed embedding; and the
    field bound to its own work buffer."""
    levels, d, n = field.member.shape[1], field.basis.dim, field.basis.n
    size = len(field.collect)
    ext, coef, comb = np.empty((13, size)), np.empty(_A_EXT.shape), np.empty((3, size))
    y, y_new, mats = ext[0], comb[0], np.empty((levels, d, d))
    psi, psi_new = y[levels:], y_new[levels:]
    return (ext, coef, coef[12:], comb, comb[1:], y, y_new, psi, psi_new, psi.reshape(levels, n),
            psi_new.reshape(levels, n), mats, mats.reshape(levels, d * d), np.empty(size - levels),
            np.empty(size), np.empty(size), np.empty(size), np.empty(size - levels),
            [(coef[i, :i + 1], ext[:i + 1, levels:], ext[i + 1]) for i in range(1, 12)],
            symcone._embedding(d).T, field.bind(np.empty(len(field.expand))))


def _solve_levels(p_set, u, T, ks, t_eval):
    """Integrate the truncation levels ks (None: untruncated) under one controller.

    The integrator is the Dormand-Prince 8(5,3) pair.  Its first step is
    _START_FACTOR times Hairer's starting-step estimate, capped at T: the
    estimate is conservative by design, and a first step that is too long
    fails the error test and is resized like any other.  When the distance
    to the next output time is at most _LAND_SLACK times the controller's
    step, the step is that distance, so no sliver step is left; after a
    rejection no step is longer than the rejected one.  The state stacks the
    levels (see _Field).  The error norm is the largest of the levels'
    combined 5th/3rd-order estimates; a step is rejected, with half the
    step, when any level dips below the cone tolerance; each level keeps its
    own growth bound.  The per-level tests run on Python floats, each from
    one product with a member matrix.
    A step holds the state in row 0 of an extended stage array and stage i
    in row i + 1: stage i's argument is one product of [1, h _A[i]] with the
    rows before it, over the psi coordinates (the field does not read phi),
    and y_new with both error estimates is one product of the last three
    rows of h _A_EXT (with 1 for y in _B's row) with the whole array.  The
    buffers, their views and the bound field come from a workspace the
    field keeps between solves (_Field.spare); the starting-step estimate
    squares its scaled vectors in the error-estimate rows.  The first stage
    of the next step is evaluated after a step is accepted, unless it was
    the last, so a solve to T > 0 makes 1 + 11 attempts + n_steps field
    evaluations.  Each output time's row of the state, min_eig (the cone
    check of the step that landed on it) and step size is written as the
    step lands.  Returns the levels stacked in the order of ks (_Levels).
    """
    if T < 0:
        raise ValueError("T must be >= 0")
    if T > _MAX_T:
        raise ValueError(f"T = {T} exceeds the horizon limit {_MAX_T}")
    cuts = tuple(0.0 if k is None else truncation_cut(k) for k in ks)
    u, u_norm = symcone._check_symmetric_norm(u, name="u")
    u_min = min_eigenvalue(u)
    if u_min < -_CONE_TOL * (1.0 + u_norm):
        raise ValueError("initial condition u must lie in the PSD cone")

    field, slot, rates = _levels(p_set, cuts)
    d, n, levels = p_set.dim, field.basis.n, len(rates)
    member, psi_member = field.member, field.member[levels:]
    n1, rate_list, sqrt = n + 1, rates.tolist(), math.sqrt
    fudge = 1.0 + _GROWTH_FUDGE
    bound_slack = 1e-12 * (1.0 + u_norm)

    times = np.linspace(0.0, T, _N_GRID) if t_eval is None else np.asarray(t_eval, dtype=float)
    grid = sorted({0.0, T, *(x for x in times.ravel().tolist() if 0.0 <= x <= T)})

    try:   # pop() is atomic; a test of the list before it would race another thread
        ws = field.spare.pop()
    except IndexError:
        ws = _workspace(field)
    (ext, coef, step_rows, comb, errs, y, y_new, psi, psi_new, psi_rows, new_rows, mats,
     mat_rows, arg, scale, abs_y, abs_new, psi_sq, stage_sums, emb_t, f) = ws
    y[:levels] = 0.0
    psi_rows[:] = field.basis.vec(u)
    np.abs(y, out=abs_y)
    out_y, out_min, out_h = np.empty((len(grid), len(y))), np.empty((len(grid), levels)), np.zeros(len(grid))
    out_y[0], out_min[0] = y, u_min
    n_steps = n_rejected_error = n_rejected_cone = n_evals = 0
    max_violation = 0.0

    t = 0.0
    next_out = 1
    if T > 0.0:
        # starting step (Hairer, Norsett & Wanner, II.4): an Euler probe of
        # 1% of the state sizes the second derivative; the smallest over the
        # levels.  Each norm is the RMS of v / scale over a level's coordinates.
        f(psi, ext[1])
        np.multiply(_REL_TOL, abs_y, out=scale)
        scale += _ABS_TOL
        np.divide(ext[:2], scale, out=errs)
        np.square(errs, out=errs)
        d0, d1 = ([sqrt(x / n1) for x in row] for row in (errs @ member).tolist())
        h0 = min(T, *[1e-6 if a < 1e-5 or b < 1e-5 else 0.01 * a / max(b, 1e-5)
                      for a, b in zip(d0, d1)])
        np.multiply(h0, ext[1, levels:], out=arg)
        arg += psi
        probe = f(arg, ext[2])
        probe -= ext[1]
        np.divide(probe, scale, out=probe)
        np.square(probe, out=probe)
        n_evals = 2
        h1 = min([max(1e-6, 1e-3 * h0) if d2 <= 1e-15 else (0.01 / d2) ** 0.125
                  for d2 in [max(a, sqrt(x / n1) / h0) for a, x in zip(d1, (probe @ member).tolist())]])
        h_ctrl = min(_START_FACTOR * min(100.0 * h0, h1), T)
        h_land = _LAND_SLACK * h_ctrl   # the longest step that lands on an output time
    h_cap = _INF   # after a rejection, the next step is no longer than the rejected one
    h_floor = 1e-14 * T
    land_tol = 1e-12 * max(1.0, T)   # a step ending this close to an output time is on it
    while next_out < len(grid):
        target = grid[next_out]
        h = target - t
        if h > h_land:
            h = h_ctrl
        if h < h_floor:
            raise RiccatiSolverError(
                f"stiffness/cone breach: step size underflow at t = {t:.6g} (h = {h:.3e})")
        np.multiply(h, _A_EXT, out=coef)
        coef[:13, 0] = 1.0
        for row, prev, stage in stage_sums:
            np.dot(row, prev, out=arg)
            f(arg, stage)
        np.dot(step_rows, ext, out=comb)
        n_evals += 11   # stages 2 to 12
        np.abs(y_new, out=abs_new)
        np.maximum(abs_y, abs_new, out=scale)
        scale *= _REL_TOL
        scale += _ABS_TOL
        np.divide(errs, scale, out=errs)
        np.square(errs, out=errs)
        e5, e3 = (errs @ member).tolist()
        # a level whose 5th-order estimate vanishes has error 0
        err_norm = max([a / sqrt((a + 0.01 * b) * n1) if a else 0.0 for a, b in zip(e5, e3)])

        if err_norm > 1.0:
            n_rejected_error += 1
            h_ctrl, h_cap = h * max(0.2, 0.9 * err_norm ** -0.125), h
            h_land = _LAND_SLACK * h_ctrl
            continue

        np.matmul(new_rows, emb_t, out=mat_rows)
        mins = min_eigenvalue(mats).tolist()
        me = min(mins)
        if me < -_CONE_TOL:
            n_rejected_cone += 1
            h_ctrl, h_cap = 0.5 * h, h
            h_land = _LAND_SLACK * h_ctrl
            continue
        max_violation = max(max_violation, -me)

        t_new = t + h
        # the growth cap is +inf where its exponential would overflow
        np.square(psi_new, out=psi_sq)
        norms = [sqrt(x) for x in (psi_sq @ psi_member).tolist()]
        caps = [(math.exp(x) if x <= _LOG_MAX else _INF) * u_norm * fudge + bound_slack
                for x in [rate * t_new for rate in rate_list]]
        if any([a > b for a, b in zip(norms, caps)]):
            lvl = max(range(levels), key=lambda i: norms[i] - caps[i])
            raise RiccatiSolverError(
                f"growth bound breached at t = {t_new:.6g}, level k = {ks[slot.index(lvl)]}: "
                f"||psi|| = {norms[lvl]:.6g} > {caps[lvl]:.6g}")

        t = t_new
        y[:] = y_new
        abs_y, abs_new = abs_new, abs_y
        n_steps += 1
        if n_steps > _MAX_STEPS:
            raise RiccatiSolverError(f"exceeded max_steps = {_MAX_STEPS}")
        if abs(t - target) <= land_tol:
            t = target
            out_y[next_out], out_min[next_out], out_h[next_out] = y, mins, h
            next_out += 1
            if next_out == len(grid):
                break
        f(psi, ext[1])   # the first stage of the next step
        n_evals += 1
        # growing past a rejected step would only be rejected again; not
        # growing at all would aim every retry at the same rejected point
        grow = 10.0 if err_norm == 0.0 else min(10.0, 0.9 * err_norm ** -0.125)
        h_ctrl = min(h * grow, h_cap)
        h_land, h_cap = min(_LAND_SLACK * h_ctrl, h_cap), _INF

    field.spare.append(ws)
    diag = {"n_steps": n_steps, "n_rejected_error": n_rejected_error,
            "n_rejected_cone": n_rejected_cone, "n_rhs_evals": n_evals,
            "max_cone_violation": max_violation}
    psis = (out_y[:, levels:].reshape(-1, levels, n) @ emb_t).reshape(-1, levels, d, d).swapaxes(0, 1)
    phis, mins = out_y[:, :levels].T, out_min.T
    if slot != tuple(range(levels)):
        order = list(slot)
        phis, psis, mins = phis[order], psis[order], mins[order]
    return _Levels(tuple(ks), np.array(grid), phis, psis, mins, out_h, diag)


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
