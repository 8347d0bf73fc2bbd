"""Monte Carlo simulation of the finite-activity jump processes.

Between jumps the state follows the linear flow driven by the compensated
drift pair (btilde, Btilde); jumps arrive with the affine intensity
lambda(x) = m(total) + <kernel mass, x> and are drawn from the normalized
state-dependent kernel, with radii from the closed-form inverse CDFs of the
radial densities.  Jump times are drawn by inversion (Devroye 1986, VI.1):
the integrated intensity Lambda(s) along the flow has a closed form in the
eigen-coordinates of the flow, and a path with an Exp(1) draw E jumps at the
root of Lambda(s) = E, found by safeguarded Halley steps, or reaches the
horizon without a jump when Lambda stays below E.  The first guess of each
segment is itself one Halley step from s = 0, where Lambda, lambda and
lambda' are known without an exponential.

The paths of a block are simulated in lockstep: every step evaluates the
clock of all live paths at once (one batched exponential in the
eigen-coordinates of the augmented generator, over one eigenvalue of each
complex-conjugate pair), and a path that jumps in a step starts its next
segment in the same step.  Every random number comes from a counter-based
stream.  Draw j of path i is a pure function of (seed, i, j), and blocks of
_BLOCK paths have fixed boundaries, so results are bitwise identical for a
fixed (seed, n_paths) regardless of how many worker processes are used.  A
path reads the level of its first segment, then per jump one window of three
draws: the component, a ray's radius and the next level.  The stream
computes 8 draws per path at its first fill, which most paths never outrun,
and 32 at every refill.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .exceptions import SimulationError
from . import symcone
from .params import PointMass, compiled, jump_rows
from .symcone import ExpPropagator, RankOneSum, VecBasis, frob_norm, inner, min_eigenvalue

__all__ = [
    "DriftData",
    "drift_data",
    "FlowPropagator",
    "jump_intensity",
    "philox4x32",
    "CounterStream",
    "SimPath",
    "PathSimulator",
    "MCEstimate",
    "terminal_statistics",
    "mc_summary",
]

_U64 = np.uint64
_MASK64 = (1 << 64) - 1


# ---------------------------------------------------------------------------
# compensated drift and the deterministic flow
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DriftData:
    """Drift of the piecewise-deterministic motion: x' = btilde + Btilde(x)."""

    dim: int
    btilde: np.ndarray
    Btilde: symcone.SuperOperator


def drift_data(p_set):
    """Compensate the small jumps into the drift.

    btilde = b - integral_{||xi||<=1} xi m(dxi) stays PSD for admissible
    sets; Btilde subtracts the small-jump kernel compensator from B.
    """
    btilde = p_set.b - p_set.m.chi_integral()
    lam = min_eigenvalue(btilde)
    if lam < -1e-9 * (1.0 + frob_norm(btilde)):
        raise SimulationError(
            f"compensated drift btilde is not PSD (min eig = {lam:.3e}); parameter set inadmissible")
    comp = p_set.mu.chi_compensator_pairs()
    if comp:
        op = p_set.B + RankOneSum(tuple((mk, -kk) for mk, kk in comp))
    else:
        op = p_set.B
    return DriftData(p_set.dim, symcone.symmetrize(btilde), op)


class FlowPropagator:
    """Evaluates the closed-form flow e^{t Btilde} x + int_0^t e^{(t-s)Btilde} btilde ds
    and the jump clock along it.

    The affine flow is the linear flow of the augmented block matrix
    [[Btilde, btilde], [0, 0]] acting on (x, 1), which `_aug` exponentiates.
    `coords` maps states to anchors in the eigen-coordinates of that matrix,
    and `advance` moves any number of them, each by its own time, with one
    elementwise exponential and one product.  `clock` gives the integrated
    intensity of the jump rate m_total + <kappa, x> along the same flow.
    The matrix is real, so a complex eigenvalue comes with its conjugate,
    whose coordinate and terms are the conjugates of its own: the anchors
    keep one eigenvalue of each pair (the one with positive imaginary part)
    and count it twice, which takes the real part of the pair's sum.  A
    real spectrum keeps every coordinate.  A defective block matrix takes
    one dense exponential per anchor of the generator
    [[Btilde, btilde, 0], [0, 0, 0], [kappa, m_total, 0]], which maps
    (x, 1, 0) to (x(s), 1, Lambda(s)).
    """

    def __init__(self, drift, kappa=None, m_total=0.0):
        self.dim = drift.dim
        self.basis = VecBasis(drift.dim)
        n = self.basis.n
        aug = np.zeros((n + 1, n + 1))
        aug[:n, :n] = drift.Btilde.mat
        aug[:n, n] = self.basis.vec(drift.btilde)
        self._aug = ExpPropagator(aug)
        self._n = n
        # the intensity as a row on (x, 1)
        rate = np.append(np.zeros(n) if kappa is None else kappa, m_total)
        if self._aug.use_eig:
            # LAPACK returns each complex pair as exact conjugates, the eigenvectors too
            keep = np.flatnonzero(self._aug._w.imag >= 0)
            self._w = w = self._aug._w[keep]
            mult = np.where(w.imag > 0, 2.0, 1.0)
            self._to_coords = self._aug._vinv[keep, :n].T.copy()
            self._coords_of_one = self._aug._vinv[keep, n].copy()
            self._from_coords = np.ascontiguousarray(self._aug._vr[:n, keep].T * mult[:, None])
            # lambda(s) = Re sum_k c_k z_k e^{s w_k}; Lambda integrates each
            # term to c_k z_k (e^{s w_k} - 1) / w_k, or to c_k z_k s where w_k = 0
            c = (self._aug._vr.T @ rate)[keep] * mult
            inv_w = np.divide(1.0, w, out=np.zeros_like(w), where=w != 0)
            self._clock_w = np.stack([c * inv_w, c, c * w], axis=1)
            self._clock_w0 = np.stack([c * (w == 0), c, c * w], axis=1)
            for arr in (w, self._to_coords, self._coords_of_one, self._from_coords, self._clock_w0):
                arr.setflags(write=False)
        else:
            gen = np.zeros((n + 2, n + 2))
            gen[: n + 1, : n + 1] = aug
            gen[n + 1, : n + 1] = rate
            self._dense = ExpPropagator(gen)
            self._clock_w = np.stack([np.eye(n + 2)[n + 1], gen[n + 1], gen.T @ gen[n + 1]],
                                     axis=1)
        self._clock_w.setflags(write=False)

    def coords(self, x_vec):
        """States (..., n) as anchors for `advance` and `clock`."""
        x_vec = np.asarray(x_vec, dtype=float)
        if self._aug.use_eig:
            z = x_vec @ self._to_coords
            z += self._coords_of_one
            return z
        return np.concatenate([x_vec, np.broadcast_to([1.0, 0.0], x_vec.shape[:-1] + (2,))], axis=-1)

    def _dense_dot(self, z, t):
        flat = [self._dense.dot(ti, zi) for ti, zi in zip(np.broadcast_to(t, z.shape[:-1]).ravel(),
                                                          z.reshape(-1, z.shape[-1]))]
        return np.reshape(flat, z.shape)

    def advance(self, z, t):
        """States (..., n) reached from anchors z after times t (...)."""
        t = np.asarray(t, dtype=float)
        if self._aug.use_eig:
            e = np.exp(t[..., None] * self._w)
            e *= z
            return np.real(e @ self._from_coords)
        return self._dense_dot(z, t)[..., : self._n]

    def clock_base(self, z):
        """The s-free part of `clock` at anchors z (P, .), zeros on the dense route."""
        return (z @ self._clock_w0).real if self._aug.use_eig else np.zeros((len(z), 3))

    def clock(self, z, s, base=None):
        """Integrated intensity Lambda(s), intensity lambda(s) and its slope
        lambda'(s) along the flow from anchors z (P, .) after times s (P,).
        base is clock_base(z), computed here when not given."""
        if self._aug.use_eig:
            with np.errstate(over="ignore", invalid="ignore"):  # the caller checks finiteness
                g = np.expm1(np.multiply.outer(s, self._w))
                g *= z
                out = (g @ self._clock_w).real
            base = self.clock_base(z) if base is None else base
            out[:, 0] += base[:, 0] * s
            out[:, 1:] += base[:, 1:]
        else:
            out = self._dense_dot(z, s) @ self._clock_w
        return out[:, 0], out[:, 1], out[:, 2]

    def flow_vec(self, x_vec, t):
        return self.advance(self.coords(x_vec), t)


# ---------------------------------------------------------------------------
# jump intensity and jump sampling
# ---------------------------------------------------------------------------

def jump_intensity(p_set, x):
    """Total jump rate lambda(x) = m(total) + <kernel mass, x>; affine in x."""
    m_tot = p_set.m.total_mass()
    kappa = p_set.mu.kernel_total_matrix()
    if not math.isfinite(m_tot) or kappa is None:
        raise SimulationError("jump activity is infinite: truncate first")
    return float(m_tot + inner(kappa, x))


class _JumpTable:
    """Component masses and jump sizes of the state-dependent kernel.

    Component c is jump c of the parameter set.  It has mass const[c] +
    rows[c] @ x and jump size scale * directions[c], where scale is an atom's
    radius, taken without a draw, or a ray's radius drawn through the
    closed-form inverse CDF of laws[c].  mass[c], the law's total, scales
    both const[c] and rows[c] and the radius draws, so they share one value.
    The cumulative masses of components 0..c at x are cum_const[c] +
    x @ cum_rows[:, c], one product for every component at once.
    """

    def __init__(self, p_set, basis):
        jumps, self.size_vecs, outs = jump_rows(p_set, basis)
        self.mass = np.array([j.law.partial_moment(0) for j in jumps])
        if not np.all(np.isfinite(self.mass)):
            raise SimulationError("jump activity is infinite: truncate first")
        outs *= self.mass[:, None]
        self.const = outs[:, 0]
        self.rows = outs[:, 1:]
        self.directions = np.array([j.direction for j in jumps]).reshape(
            len(jumps), p_set.dim, p_set.dim)
        self.laws = [j.law for j in jumps]
        self.is_ray = np.array([not isinstance(law, PointMass) for law in self.laws], dtype=bool)
        self.ray_comps = np.flatnonzero(self.is_ray).tolist()
        self.atom_radius = np.array([1.0 if ray else law.r0 for law, ray in zip(self.laws, self.is_ray)])
        self.m_total = float(sum(self.const))
        self.kappa_vec = self.rows.sum(axis=0)
        self.cum_const = np.cumsum(self.const)
        self.cum_rows = np.cumsum(self.rows, axis=0).T
        for arr in (self.size_vecs, self.mass, self.const, self.rows, self.directions, self.is_ray,
                    self.atom_radius, self.kappa_vec, self.cum_const, self.cum_rows):
            arr.setflags(write=False)

    def choose(self, x_vecs, u):
        """Jump component at each state of x_vecs (J, n): the first whose
        cumulative mass reaches u times the total."""
        cum = x_vecs @ self.cum_rows
        cum += self.cum_const
        total = cum[:, -1]
        if not total.min() > 0.0:   # also false on NaN
            raise SimulationError("jump drawn at zero intensity")
        return np.minimum((cum < (u * total)[:, None]).sum(axis=1), len(self.const) - 1)

    def scales(self, comp, u):
        """Size factor of each jump of components comp: an atom's radius, and
        for a ray the radius whose cumulative mass is u times the ray's."""
        scale = self.atom_radius[comp]
        for c in self.ray_comps:
            sel = comp == c
            if sel.any():
                scale[sel] = self.laws[c].inverse_cdf_mass(u[sel] * self.mass[c])
        return scale


# ---------------------------------------------------------------------------
# counter-based random streams
# ---------------------------------------------------------------------------

_M32 = 0xFFFFFFFF
_PHILOX_M = (0xD2511F53, 0xCD9E8D57)
_PHILOX_W = (0x9E3779B9, 0xBB67AE85)


def philox4x32(counter, key):
    """Philox4x32-10 (Salmon et al., SC 2011) of many counters under one key.

    counter holds four arrays of 32-bit words (c0, c1, c2, c3) and key two
    32-bit words; returns the (4, N) output words as uint64.  Products of
    32-bit words are exact in uint64, so each round is a few array ops.
    """
    c0, c1, c2, c3 = (np.array(w, dtype=_U64) for w in counter)
    k0, k1 = int(key[0]), int(key[1])
    m0, m1 = _U64(_PHILOX_M[0]), _U64(_PHILOX_M[1])
    p0, p1 = np.empty_like(c0), np.empty_like(c0)
    for _ in range(10):
        # (c0, c1, c2, c3) <- (hi(p1) ^ c1 ^ k0, lo(p1), hi(p0) ^ c3 ^ k1, lo(p0)),
        # in place: c1 and c3 are read before they are overwritten
        np.multiply(c0, m0, out=p0)
        np.multiply(c2, m1, out=p1)
        np.right_shift(p1, 32, out=c0)
        c0 ^= c1
        c0 ^= k0
        np.bitwise_and(p1, _M32, out=c1)
        np.right_shift(p0, 32, out=c2)
        c2 ^= c3
        c2 ^= k1
        np.bitwise_and(p0, _M32, out=c3)
        k0 = (k0 + _PHILOX_W[0]) & _M32
        k1 = (k1 + _PHILOX_W[1]) & _M32
    return np.stack([c0, c1, c2, c3])


class CounterStream:
    """Uniforms of paths start, ..., start + count - 1 of one seed, by counter.

    Draw j of path i is a pure function of (seed, i, j): the Philox4x32-10
    block with key (seed mod 2^32, seed >> 32) and counter
    (j // 2, 0, i mod 2^32, i >> 32) holds draws j & ~1 and j | 1, made of
    its output word pairs (w0, w1) and (w2, w3) as
    (w_hi * 2^21 + floor(w_lo / 2^11)) / 2^53, a double in [0, 1).
    A path's draws therefore do not depend on the other paths of its block.
    Every path starts reading at `draw`, so CounterStream(seed, i, 1, j)
    resumes path i before its draw j.

    Draws are computed ahead into a buffer per path: FIRST at the stream's
    first fill, which most paths never outrun, and REFILL at every later one.
    """

    FIRST = 8                # draws per path of the first fill
    REFILL = 32              # draws per path of every later fill
    FILL_BLOCKS = 8192       # Philox blocks per call, which bounds its temporary arrays

    def __init__(self, seed, start=0, count=1, draw=0):
        self.seed = int(seed) & _MASK64
        self.start = int(start)
        self._key = (self.seed & _M32, self.seed >> 32)
        path = np.arange(self.start, self.start + count, dtype=_U64)
        self._path_words = (path & _M32, path >> 32)   # words 2 and 3 of a path's counters
        self._cursor = np.full(count, int(draw), dtype=np.int64)
        self._end = self._cursor & ~1   # a row's last columns buffer the draws before end
        self._width = self.FIRST
        self._buf = np.empty((count, self.REFILL))

    def _refill(self, rows):
        width, self._width = self._width, self.REFILL
        half = width // 2
        base = self._cursor[rows] & ~1
        self._end[rows] = base + width
        per_call = self.FILL_BLOCKS // half
        for lo in range(0, len(rows), per_call):
            part = rows[lo: lo + per_call]
            blocks = (base[lo: lo + per_call, None] // 2 + np.arange(half)).astype(_U64).ravel()
            out = philox4x32((blocks, np.zeros_like(blocks), self._path_words[0][part].repeat(half),
                              self._path_words[1][part].repeat(half)), self._key)
            words = (out[0::2] << 21) | (out[1::2] >> 11)
            self._buf[part, self.REFILL - width:] = words.T.reshape(len(part), width) * 2.0 ** -53

    def take(self, rows, width=None):
        """The next draw of each path in rows (positions within the stream),
        or with `width` (at most FIRST - 1) its next `width` consecutive
        draws as the columns of a (len(rows), width) array; each path's
        cursor moves past what it read.

        The paths of rows with fewer draws buffered than they read are
        refilled first, in one batch.
        """
        cur = self._cursor[rows]
        n = 1 if width is None else width
        short = self._end[rows] - cur < n
        if short.any():
            self._refill(rows[short])
        self._cursor[rows] = cur + n
        col = cur + self.REFILL - self._end[rows]
        window = self._buf[rows[:, None], col[:, None] + np.arange(n)]
        return window[:, 0] if width is None else window


# ---------------------------------------------------------------------------
# path simulation
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class SimPath:
    times: np.ndarray        # jump times
    sizes: np.ndarray        # (J, d, d) jump sizes
    states: np.ndarray       # (J, d, d) post-jump states
    terminal: np.ndarray     # X_T
    min_state_eig: float
    rng_states: tuple        # rng_states[j] resumes the path after jump j

    @property
    def n_jumps(self):
        return len(self.times)

    # the jump clock is exact, so every proposal is a jump and no bound is breached
    n_proposals = n_accepted = n_jumps
    n_breaches = 0


_BLOCK = 4096   # paths simulated in lockstep; fixed, so rows do not depend on workers


def _first_guess(level, rate, slope, hi):
    """First guess of the root of Lambda(s) = level, capped at hi: one Halley
    step from s = 0, where Lambda = 0, lambda = rate and lambda' = slope.

    Where that step or its denominator is not positive, the guess is the
    Newton step level / rate, which is hi at a zero rate.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        den = 2.0 * rate * rate + level * slope
        s = 2.0 * level * rate / den
        return np.fmin(np.where((den > 0.0) & (s > 0.0), s, level / rate), hi)


def _initial_state(x0):
    x0 = symcone.check_symmetric(x0)
    if min_eigenvalue(x0) < -1e-9 * (1.0 + frob_norm(x0)):
        raise SimulationError("initial state must be PSD")
    return x0


class PathSimulator:
    """Reusable per-parameter-set machinery for path simulation."""

    def __init__(self, p_set):
        if not p_set.is_finite_activity:
            raise SimulationError("jump activity is infinite: truncate first")
        self.dim = p_set.dim
        self.basis = VecBasis(p_set.dim)
        self.drift = drift_data(p_set)
        self.table = _JumpTable(p_set, self.basis)
        self.flowprop = FlowPropagator(self.drift, self.table.kappa_vec, self.table.m_total)

    def _lockstep(self, x_vecs, T, stream, record=None):
        """Simulate every path of a block at once.

        Path i starts at row i of x_vecs and reads its uniforms from
        stream.take: first the Exp(1) level E of its clock, then per jump one
        window of three draws, the component, a ray's radius and the next E;
        a jump without a ray gives the third draw back and reads E second.
        The flow from the last jump (the anchor) jumps at the root s of
        Lambda(s) = E, where Lambda is nondecreasing since the intensity is
        nonnegative on the cone.  A segment starts from `_first_guess`, one
        Halley step from s = 0 with the exact rate m_total + <kappa, x> and
        the slope of the clock base.  Each step evaluates the clock of every
        live path once and shrinks its bracket [lo, hi] of the root: a Halley
        step inside the bracket is taken, a step out of it goes to the horizon
        while the horizon is unevaluated and bisects after.  A path whose
        Lambda at the horizon is below E ends there; a path that jumps starts
        its next segment in the same step.  Returns the terminal states and
        the jump count of each path; with `record`, every step that jumps
        appends the arrays (path rows, times, components, radii, post-jump
        states, draw cursors after each jump's own draws) of its jumps.
        """
        fp, table = self.flowprop, self.table
        n_paths = len(x_vecs)
        jumps = np.zeros(n_paths, dtype=np.int64)
        if T == 0.0:
            return np.array(x_vecs, dtype=float), jumps
        # Halley steps converge cubically, so a step of 1e-6 ends the search
        step_tol, bracket_tol = 1e-6 * max(T, 1.0), 1e-14 * max(T, 1.0)
        terminal = np.empty((n_paths, self.basis.n))
        live = np.arange(n_paths)
        # states are held in C order: BLAS may sum a strided array's products in another order
        x = np.array(x_vecs, dtype=float, order="C")
        z = fp.coords(x)
        base = fp.clock_base(z)
        level = -np.log1p(-stream.take(live))
        t, lo, hi = np.zeros(n_paths), np.zeros(n_paths), np.full(n_paths, float(T))
        open_end = np.ones(n_paths, dtype=bool)   # hi is the horizon, not yet evaluated
        s = _first_guess(level, table.m_total + x @ table.kappa_vec, base[:, 2], hi)
        # Halley's denominator may be 0; the clock is checked
        with np.errstate(divide="ignore", invalid="ignore"):
            while live.size:
                lam_int, lam, dlam = fp.clock(z, s, base)
                finite = np.isfinite(lam_int) & np.isfinite(lam)
                if not finite.all():
                    r = np.flatnonzero(~finite)[0]
                    raise SimulationError(
                        f"jump clock is not finite (seed {stream.seed}, path {stream.start + live[r]}, "
                        f"t = {float(t[r] + s[r])!r}, Lambda = {lam_int[r]:g}, lambda = {lam[r]:g})")
                gap = lam_int - level
                below = gap < 0.0
                open_end &= below
                end = open_end & (s == hi)
                lo = np.where(below, s, lo)
                hi = np.where(below, hi, s)
                step = -2.0 * gap * lam / (2.0 * lam * lam - gap * dlam)
                s_new = s + step
                inside = (s_new > lo) & (s_new < hi)
                s_next = np.where(inside, s_new, np.where(open_end, hi, 0.5 * (lo + hi)))
                exact = gap == 0.0
                root = exact | (inside & (np.abs(step) <= step_tol)) | (
                    ~open_end & (hi - lo <= bracket_tol))
                s = np.where(exact, s, s_next)
                hit = np.flatnonzero(root & ~end)
                if hit.size:
                    rows, sh = live[hit], s[hit]
                    th = t[hit] + sh
                    xh = np.array(fp.advance(z.take(hit, axis=0), sh), order="C")   # from a strided view
                    u = stream.take(rows, 3)
                    comp = table.choose(xh, u[:, 0])
                    ray = table.is_ray[comp]
                    sizes = table.scales(comp, u[:, 1])
                    xh += sizes[:, None] * table.size_vecs[comp]
                    stream._cursor[rows] -= ~ray   # a jump without a ray gives its third draw back
                    jumps[rows] += 1
                    if record is not None:
                        record.append((rows, th, comp, sizes, xh, stream._cursor[rows] - 1))
                    # the next segment starts at the post-jump state, in this step
                    z[hit] = zh = fp.coords(xh)
                    base[hit] = bh = fp.clock_base(zh)
                    t[hit] = th
                    level[hit] = lh = -np.log1p(-np.where(ray, u[:, 2], u[:, 1]))
                    lo[hit], open_end[hit] = 0.0, True
                    hi[hit] = hh = T - th
                    s[hit] = _first_guess(lh, table.m_total + xh @ table.kappa_vec, bh[:, 2], hh)
                e = np.flatnonzero(end)
                if e.size:
                    terminal[live[e]] = fp.advance(z.take(e, axis=0), hi[e])
                    keep = np.flatnonzero(~end)
                    live, t, level, s, lo, hi, open_end = (
                        a[keep] for a in (live, t, level, s, lo, hi, open_end))
                    z, base = z.take(keep, axis=0), base.take(keep, axis=0)
        return terminal, jumps

    def run(self, x0, T, stream):
        """The path from x0 over [0, T] with its jump events.

        The path reads the first path of the CounterStream stream.  A numpy
        Generator is taken only as a seed source: the path then reads
        CounterStream(stream.integers(2**63)).  rng_states[j] is a one-path
        CounterStream that resumes the path after jump j.
        """
        x0 = _initial_state(x0)
        if T < 0:
            raise ValueError("T must be >= 0")
        if isinstance(stream, np.random.Generator):
            stream = CounterStream(stream.integers(2 ** 63))
        record = []
        term, jumps = self._lockstep(self.basis.vec(x0)[None], T, stream, record)
        (times, comp, radii, states, cursors), = self._by_path(record, jumps)
        term_mat = self.basis.unvec(term[0])
        worst_eig = float(min_eigenvalue(np.concatenate([[x0, term_mat], states])).min())
        return SimPath(times, radii[:, None, None] * self.table.directions[comp], states,
                       term_mat, worst_eig,
                       tuple(CounterStream(stream.seed, stream.start, 1, draw=c) for c in cursors))

    def _by_path(self, record, jumps):
        """The jumps a _lockstep record holds, per path: (times, components,
        radii, post-jump state matrices, draw cursors), in time order.

        jumps is the jump count of each path.  A stable sort by path keeps
        each path's jumps in the order of the steps that recorded them.
        """
        empty = (np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0, dtype=np.int64),
                 np.zeros(0), np.zeros((0, self.basis.n)), np.zeros(0, dtype=np.int64))
        rows, *cols = (np.concatenate(col) for col in zip(empty, *record))
        order = np.argsort(rows, kind="stable")
        cols = [col[order] for col in cols]
        cols[3] = self.basis.unvec(cols[3])
        ends = np.cumsum(jumps)
        return [[col[end - count: end] for col in cols] for count, end in zip(jumps, ends)]

    def events(self, x0, T, seed, n_paths):
        """The jumps of paths 0..n_paths-1 of the counter stream `seed`.

        Yields (jump times, post-jump states, terminal state) per path, in
        path order.  Each block of _BLOCK paths is one lockstep call; path i
        reads the draws that run(x0, T, CounterStream(seed, i)) reads.
        """
        x_vec = self.basis.vec(_initial_state(x0))
        if T < 0:
            raise ValueError("T must be >= 0")
        for lo in range(0, n_paths, _BLOCK):
            count = min(_BLOCK, n_paths - lo)
            record = []
            term, jumps = self._lockstep(np.broadcast_to(x_vec, (count, self.basis.n)), T,
                                         CounterStream(seed, lo, count), record)
            for (times, _, _, states, _), terminal in zip(self._by_path(record, jumps),
                                                          self.basis.unvec(term)):
                yield times, states, terminal


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MCEstimate:
    estimate: float
    std_error: float
    n_paths: int
    seed: int


def _chunk_rows(p_set, x0, T, seed, start, stop, block):
    """Rows start..stop-1 of terminal_statistics, in lockstep blocks of `block` paths."""
    sim = compiled(p_set, "simulator", lambda: PathSimulator(p_set))
    n = sim.basis.n
    x_vec = sim.basis.vec(_initial_state(x0))
    out = np.empty((stop - start, n + 1))
    for lo in range(start, stop, block):
        hi = min(lo + block, stop)
        term, jumps = sim._lockstep(np.broadcast_to(x_vec, (hi - lo, n)), T,
                                    CounterStream(seed, lo, hi - lo))
        out[lo - start: hi - start, :n] = term
        out[lo - start: hi - start, n] = jumps
    return start, out


def terminal_statistics(p_set, x0, T, n_paths, seed, workers=1):
    """Terminal states (vectorized) and jump counts, one row per path index.

    Row i is produced from the stream keyed by (seed, i) inside the block of
    _BLOCK paths that holds it; worker tasks are runs of whole blocks, so the
    output is independent of the worker count.
    """
    block = _BLOCK
    n_blocks = -(-n_paths // block)
    if workers <= 1 or n_blocks <= 1:
        return _chunk_rows(p_set, x0, T, seed, 0, n_paths, block)[1]
    span = block * -(-n_blocks // (workers * 4))
    ranges = [(s, min(s + span, n_paths)) for s in range(0, n_paths, span)]
    out = np.empty((n_paths, VecBasis(p_set.dim).n + 1))
    with ProcessPoolExecutor(max_workers=min(workers, len(ranges))) as pool:
        futures = [pool.submit(_chunk_rows, p_set, x0, T, seed, s, e, block)
                   for s, e in ranges]
        for fut in futures:
            start, rows = fut.result()
            out[start: start + len(rows)] = rows
    return out


def _reduce(values, n_paths, seed):
    est = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
    return MCEstimate(est, se, n_paths, seed)


def mc_summary(p_set, x0, T, n_paths, seed, u=None, v=None, w=None, workers=1):
    """Shared-paths Monte Carlo estimates.

    Returns a dict with keys among {"laplace", "mean", "second_moment",
    "jump_count"}: the Laplace functional at u, the linear functional at v,
    the mixed second moment at (v, w or v), and the raw jump count.
    """
    if n_paths < 100:
        raise ValueError("n_paths must be >= 100")
    basis = VecBasis(p_set.dim)
    stats = terminal_statistics(p_set, x0, T, n_paths, seed, workers=workers)

    term = stats[:, : basis.n]
    counts = stats[:, basis.n]
    out = {"jump_count": _reduce(counts, n_paths, seed)}
    if u is not None:
        vals = np.exp(-(term @ basis.vec(np.asarray(u, dtype=float))))
        out["laplace"] = _reduce(vals, n_paths, seed)
    if v is not None:
        pv = term @ basis.vec(np.asarray(v, dtype=float))
        out["mean"] = _reduce(pv, n_paths, seed)
        pw = pv if w is None else term @ basis.vec(np.asarray(w, dtype=float))
        out["second_moment"] = _reduce(pv * pw, n_paths, seed)
    return out


def worker_cap():
    """Worker limit from the AFFINEHS_THREADS environment variable (0 = no cap).

    Raises ValueError when the variable is set to something other than an integer.
    """
    raw = os.environ.get("AFFINEHS_THREADS", "").strip()
    if not raw:
        return 0
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(f"AFFINEHS_THREADS must be an integer, got {raw!r}") from None
