"""Jump-measure parameter sets on the PSD cone.

A parameter set is a tuple (b, B, m, mu): constant drift b, linear drift
operator B, a scalar-weighted jump measure m (state-independent jumps) and
an operator-weighted jump measure mu (state-dependent jumps).  Each measure
is a tuple of finitely many jumps, atoms and radial rays with parametric
densities (power law or exponential), which keeps every integral in closed
form or 1-D while still allowing infinite activity near zero.

Both measures enter the Riccati system through one compensated bracket,
integrated against m(dxi) for F and against mu(dxi)/||xi||^2 for R.  A
Jump is a unit direction, a radial law of that integrating mass (an
atom's law is a PointMass) and an output weight: the float 1 for m, a PSD
matrix for mu.  atom(xi, weight) and ray(direction, density, weight) are
the one place that maps the input data to jumps.  An m atom of weight w
has mass w; a mu atom of weight M has kernel mass 1/||xi||^2; a mu ray's
density is the kernel density g(r) of mu(dxi)/||xi||^2, so its mu-mass
density is r^2 g(r).  The rest of the package reads the jumps, and their
coordinate rows from jump_rows.

At a fixed matrix dimension, weak and strong small-jump first moments
coincide, so these measures can have infinite activity (power-law rays
reaching radius zero with exponent in (0, 1)) but never infinite
variation; the small-jump first-moment invariant enforces this.
"""

from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass, replace

import numpy as np
import scipy.integrate

from .exceptions import (
    DimensionMismatchError,
    MeasureError,
    ParameterFileError,
    QuadratureError,
)
from . import symcone
from .symcone import (
    CongruenceSum,
    DenseOperator,
    LyapunovOperator,
    OperatorSum,
    RankOneSum,
    SuperOperator,
    ZeroOperator,
    check_symmetric,
    frob_norm,
    inner,
    min_eigenvalue,
    sym_from_json,
    sym_to_json,
)

__all__ = [
    "PowerLawDensity",
    "ExponentialDensity",
    "PointMass",
    "radial_quad",
    "Jump",
    "atom",
    "ray",
    "ScalarJumpMeasure",
    "OperatorJumpMeasure",
    "ParameterSet",
    "compiled",
    "jump_rows",
    "truncation_cut",
    "truncate",
    "orthogonal_psd_pair",
    "ConditionResult",
    "AdmissibilityReport",
    "validate_admissibility",
    "build_admissible",
    "params_to_json",
    "params_from_json",
    "load_params",
    "save_params",
]

_INF = math.inf


# ---------------------------------------------------------------------------
# radial densities
# ---------------------------------------------------------------------------

class _RadialRange:
    """The restriction of a density on [rmin, rmax] to a range of radii."""

    def restricted(self, lo, hi):
        a = max(lo, self.rmin)
        b = min(hi, self.rmax)
        if b <= a:
            return None
        return self if (a, b) == (self.rmin, self.rmax) else replace(self, rmin=a, rmax=b)


@dataclass(frozen=True)
class PowerLawDensity(_RadialRange):
    """rho(r) = c * r^(-1-alpha) on [rmin, rmax]."""

    c: float
    alpha: float
    rmin: float = 0.0
    rmax: float = _INF

    def __post_init__(self):
        if self.c <= 0:
            raise MeasureError(f"power-law constant must be positive, got {self.c}")
        if self.rmin < 0 or self.rmax <= self.rmin:
            raise MeasureError(f"invalid radial range [{self.rmin}, {self.rmax}]")

    def pdf(self, r):
        r = np.asarray(r, dtype=float)
        out = self.c * r ** (-1.0 - self.alpha)
        return np.where((r >= self.rmin) & (r <= self.rmax), out, 0.0)

    def partial_moment(self, p, lo=0.0, hi=_INF):
        """integral of r^p rho(r) dr over [lo, hi] within the support; may be inf."""
        a = max(lo, self.rmin)
        b = min(hi, self.rmax)
        if b <= a:
            return 0.0
        q = p - self.alpha
        if a == 0.0 and q <= 0.0:
            return _INF
        if b == _INF:
            if q >= 0.0:
                return _INF
            return -self.c * a ** q / q
        if abs(q) < 1e-13:
            if a == 0.0:
                return _INF
            return self.c * math.log(b / a)
        ga = 0.0 if a == 0.0 else a ** q
        return self.c * (b ** q - ga) / q

    def cdf_mass(self, r):
        """Vectorized integral of rho over [rmin, r]."""
        r = np.minimum(np.asarray(r, dtype=float), self.rmax)
        q = -self.alpha
        if self.rmin == 0.0:
            out = self.c * np.maximum(r, 0.0) ** q / q
        else:
            # c (r^q - rmin^q) / q through expm1, without cancellation near rmin
            lr = np.log(np.maximum(r, self.rmin) / self.rmin)
            out = self.c * lr if abs(q) < 1e-13 else self.c * self.rmin ** q * np.expm1(q * lr) / q
        return np.where(r <= self.rmin, 0.0, out)

    def inverse_cdf_mass(self, m):
        """Vectorized radius r with cdf_mass(r) = m, for m in [0, total mass].

        r = (rmin^q + q m / c)^(1/q) with q = -alpha, written through log1p so
        that it keeps its precision at both ends; r = rmin e^(m/c) at alpha = 0.
        """
        m = np.asarray(m, dtype=float)
        q = -self.alpha
        if abs(q) < 1e-13:
            r = self.rmin * np.exp(m / self.c)
        elif self.rmin > 0.0:
            with np.errstate(divide="ignore"):  # m = total mass with rmax = inf gives r = inf
                r = self.rmin * np.exp(np.log1p(np.maximum(q * m / (self.c * self.rmin ** q), -1.0)) / q)
        else:
            r = (q * m / self.c) ** (1.0 / q)
        return np.minimum(r, self.rmax)


@dataclass(frozen=True)
class ExponentialDensity(_RadialRange):
    """rho(r) = c * exp(-lam * r) on [rmin, rmax] (rmax may be inf)."""

    c: float
    lam: float
    rmin: float = 0.0
    rmax: float = _INF

    def __post_init__(self):
        if self.c <= 0 or self.lam <= 0:
            raise MeasureError(f"exponential density needs c > 0, lam > 0; got c={self.c}, lam={self.lam}")
        if self.rmin < 0 or self.rmax <= self.rmin:
            raise MeasureError(f"invalid radial range [{self.rmin}, {self.rmax}]")

    def pdf(self, r):
        r = np.asarray(r, dtype=float)
        out = self.c * np.exp(-self.lam * r)
        return np.where((r >= self.rmin) & (r <= self.rmax), out, 0.0)

    def partial_moment(self, p, lo=0.0, hi=_INF):
        from scipy.special import gammaincc, gamma

        a = max(lo, self.rmin)
        b = min(hi, self.rmax)
        if b <= a:
            return 0.0
        s = p + 1.0
        scale = self.c * self.lam ** (-s) * gamma(s)
        upper_a = gammaincc(s, self.lam * a)
        upper_b = 0.0 if b == _INF else gammaincc(s, self.lam * b)
        return float(scale * (upper_a - upper_b))

    def cdf_mass(self, r):
        r = np.minimum(np.asarray(r, dtype=float), self.rmax)
        out = -(self.c / self.lam) * math.exp(-self.lam * self.rmin) * np.expm1(
            -self.lam * (np.maximum(r, self.rmin) - self.rmin))
        return np.where(r <= self.rmin, 0.0, out)

    def inverse_cdf_mass(self, m):
        """Vectorized radius r with cdf_mass(r) = m: rmin - log1p(-lam m e^(lam rmin) / c) / lam."""
        m = np.asarray(m, dtype=float)
        y = np.maximum(-self.lam * m * math.exp(self.lam * self.rmin) / self.c, -1.0)
        with np.errstate(divide="ignore"):  # m = total mass with rmax = inf gives r = inf
            r = self.rmin - np.log1p(y) / self.lam
        return np.minimum(r, self.rmax)


@dataclass(frozen=True)
class PointMass:
    """Mass c > 0 at the one radius r0 > 0: the radial law of an atom.

    Like an atom under truncation, it lies in (lo, hi] when lo < r0 <= hi.
    """

    c: float
    r0: float

    def partial_moment(self, p, lo=0.0, hi=_INF):
        return self.c * self.r0 ** p if lo < self.r0 <= hi else 0.0

    def cdf_mass(self, r):
        return np.where(np.asarray(r, dtype=float) >= self.r0, self.c, 0.0)

    def inverse_cdf_mass(self, m):
        return np.full(np.shape(m), self.r0)

    def restricted(self, lo, hi):
        return self if lo < self.r0 <= hi else None


def radial_quad(density, fn, lo=0.0, hi=_INF, abs_tol=1e-10, rel_tol=1e-8, ray_index=None):
    """Adaptive quadrature of fn(r) * density(r) over [lo, hi] within the support.

    Power-law densities with a singular endpoint at r = 0 and alpha in (0, 1)
    are regularized by the substitution r = s^(1/(1-alpha)); the caller must
    ensure fn decays fast enough at 0 for the product to be integrable.
    """
    a = max(lo, density.rmin)
    b = min(hi, density.rmax)
    if b <= a:
        return 0.0
    singular = (
        isinstance(density, PowerLawDensity)
        and a == 0.0
        and 0.0 < density.alpha < 1.0
    )
    if singular:
        beta = 1.0 / (1.0 - density.alpha)
        cb = density.c * beta

        def g(s):
            return cb * fn(s ** beta) * s ** (-beta)

        lo_t, hi_t = 0.0, b ** (1.0 - density.alpha)
    else:
        def g(r):
            return fn(r) * float(density.pdf(r))

        lo_t, hi_t = a, b
    out = scipy.integrate.quad(g, lo_t, hi_t, epsabs=abs_tol, epsrel=rel_tol, limit=200, full_output=1)
    if len(out) > 3 or not math.isfinite(out[0]):
        raise QuadratureError(
            f"radial quadrature failed on [{lo_t}, {hi_t}]: "
            f"{out[3] if len(out) > 3 else 'non-finite result'}",
            ray_index=ray_index,
        )
    return float(out[0])


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

def _check_direction(d_mat):
    d_mat = check_symmetric(d_mat)
    nrm = frob_norm(d_mat)
    if abs(nrm - 1.0) > 1e-12:
        raise MeasureError(f"ray direction must have unit Frobenius norm, got {nrm}")
    if min_eigenvalue(d_mat) < -1e-12 * (1.0 + nrm):
        raise MeasureError("ray direction must be PSD")
    return _read_only(d_mat)


def _check_psd(mat, what):
    mat = check_symmetric(mat)
    if min_eigenvalue(mat) < -1e-12 * (1.0 + frob_norm(mat)):
        raise MeasureError(f"{what} must be PSD")
    return _read_only(mat)


def _read_only(a):
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Jump:
    """One atom or ray in unit form: jumps r D along a unit PSD direction D.

    law(dr) is the mass of radii in dr that the compensated bracket is
    integrated against: the m-mass for m, the kernel mu(dxi)/||xi||^2 for
    mu.  weight is where the bracket goes: the float 1 into F for m, a PSD
    matrix into R for mu.  xi is an atom's location as given (None for a
    ray), kept so that a parameter file is written back as it was read.
    """

    direction: np.ndarray
    law: PointMass | PowerLawDensity | ExponentialDensity
    weight: float | np.ndarray
    xi: np.ndarray | None = None

    def output_row(self, basis):
        """Coefficients (F, vec R) of one unit of this jump's bracket."""
        if np.ndim(self.weight) == 0:
            return np.concatenate([[self.weight], np.zeros(basis.n)])
        return np.concatenate([[0.0], basis.vec(self.weight)])


def atom(xi, weight):
    """The jump of an atom at xi: a point mass at r0 = ||xi|| along xi / ||xi||.

    A positive float weight w makes an m atom: mass w, output weight 1.  A
    PSD matrix weight M makes a mu atom: kernel mass 1/||xi||^2, output
    weight M.
    """
    xi = _check_psd(xi, "atom location")
    kernel = np.ndim(weight) != 0
    if kernel:
        weight = _check_psd(weight, "atom operator weight")
    norm = frob_norm(xi)
    if norm == 0.0:
        raise MeasureError("atoms must sit away from the origin")
    if not kernel and weight <= 0:
        raise MeasureError(f"atom weight must be positive, got {weight}")
    direction = _read_only(xi / norm)
    if kernel:
        return Jump(direction, PointMass(1.0 / norm ** 2, norm), weight, xi)
    return Jump(direction, PointMass(weight, norm), 1.0, xi)


def ray(direction, density, weight=1.0):
    """The jump of a ray along a unit PSD direction with a radial density.

    The float weight 1 makes an m ray, whose density is the m-mass density.
    A PSD matrix weight M makes a mu ray, whose density is the kernel
    density g(r) of mu(dxi)/||xi||^2, so that its mu-mass density is
    r^2 g(r) M.
    """
    direction = _check_direction(direction)
    if np.ndim(weight) != 0:
        weight = _check_psd(weight, "ray operator weight")
    elif weight != 1.0:
        raise MeasureError(f"an m ray has weight 1, got {weight}; scale its density instead")
    return Jump(direction, density, weight)


@dataclass(frozen=True, eq=False)
class _JumpMeasure:
    """The jumps of one measure, in the order given; atom and ray build them."""

    dim: int
    jumps: tuple = ()

    _kernel = False  # mu: laws are kernel masses and the bracket goes into R

    def __post_init__(self):
        object.__setattr__(self, "jumps", tuple(self.jumps))
        name = "mu" if self._kernel else "m"
        shape = (self.dim, self.dim)
        for jump in self.jumps:
            if (np.ndim(jump.weight) != 0) != self._kernel:
                raise MeasureError(f"{name} refuses a jump of the other measure: "
                                   "m jumps weigh a float, mu jumps a PSD matrix")
            if jump.direction.shape != shape or np.shape(jump.weight) not in ((), shape):
                raise DimensionMismatchError("atom or ray dimension does not match the measure")
        laws = (jump.law for jump in self.jumps if not isinstance(jump.law, PointMass))
        for j, law in enumerate(laws):
            if law.partial_moment(2) == _INF:
                raise MeasureError(f"{name}-ray {j}: second radial moment is infinite")
            if law.partial_moment(1, 0.0, 1.0) == _INF:
                raise MeasureError(f"{name}-ray {j}: small-jump first radial moment is infinite")

    @property
    def rays(self):
        """The jumps whose law is a radial density, not an atom's PointMass."""
        return tuple(j for j in self.jumps if not isinstance(j.law, PointMass))

    @property
    def is_finite_activity(self):
        return all(c < _INF for c, _ in self._radial(0))

    def _radial(self, p, lo=0.0, hi=_INF):
        """(integral of r^p law(dr) over (lo, hi], jump) for every jump."""
        return [(j.law.partial_moment(p, lo, hi), j) for j in self.jumps]

    def _matrix(self, terms):
        return sum(terms, np.zeros((self.dim, self.dim)))

    def restricted(self, lo=0.0, hi=_INF):
        """The measure on jump norms in (lo, hi]: the jumps with their laws restricted."""
        return type(self)(self.dim, tuple(replace(j, law=law) for j in self.jumps
                                          if (law := j.law.restricted(lo, hi)) is not None))


class ScalarJumpMeasure(_JumpMeasure):
    """The measure m: jumps of float weight 1 whose laws are m-masses."""

    def total_mass(self):
        """Total activity; may be inf for power-law rays reaching r = 0."""
        return float(sum(c for c, _ in self._radial(0)))

    def second_moment(self):
        return float(sum(c for c, _ in self._radial(2)))

    def chi_integral(self):
        """integral of chi(xi) m(dxi): the small-jump mean, a symmetric matrix."""
        return self._matrix(c * j.direction for c, j in self._radial(1, 0.0, 1.0))

    def tail_first_moment_matrix(self):
        """integral of xi over ||xi|| > 1 against m."""
        return self._matrix(c * j.direction for c, j in self._radial(1, 1.0, _INF))


class OperatorJumpMeasure(_JumpMeasure):
    """The measure mu: jumps of PSD matrix weight whose laws are kernel masses.

    A law is the radial mass of mu(dxi)/||xi||^2, so a ray of kernel
    density g(r) and weight M has the mu-mass density r^2 g(r) M.
    """

    _kernel = True

    def total_mass_matrix(self, lo=0.0):
        """mu of the jumps of norm > lo: atom weights plus ray masses; finite PSD."""
        return self._matrix(c * j.weight for c, j in self._radial(2, lo))

    def kernel_total_matrix(self):
        """integral of mu(dxi)/||xi||^2; None when the activity is infinite."""
        return self._matrix(c * j.weight for c, j in self._radial(0)) if self.is_finite_activity else None

    def chi_compensator_pairs(self):
        """Rank-one data for x -> integral chi(xi) <mu(dxi), x>/||xi||^2.

        Returns pairs (M, K) so the map is x -> sum <M, x> K.
        """
        return tuple((j.weight, c * j.direction) for c, j in self._radial(1, 0.0, 1.0) if c > 0.0)

    def tail_pairs(self):
        """Rank-one data for v -> integral_{||xi||>1} <xi, v> mu(dxi)/||xi||^2."""
        return tuple((j.direction, c * j.weight) for c, j in self._radial(1, 1.0, _INF) if c > 0.0)


# ---------------------------------------------------------------------------
# parameter sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ParameterSet:
    dim: int
    b: np.ndarray
    B: SuperOperator
    m: ScalarJumpMeasure
    mu: OperatorJumpMeasure

    def __post_init__(self):
        b = check_symmetric(self.b)
        b.setflags(write=False)
        object.__setattr__(self, "b", b)
        if b.shape != (self.dim, self.dim):
            raise DimensionMismatchError("drift b has the wrong dimension")
        if self.B.dim != self.dim or self.m.dim != self.dim or self.mu.dim != self.dim:
            raise DimensionMismatchError("parameter-set components disagree on the dimension")

    @property
    def is_finite_activity(self):
        return self.m.is_finite_activity and self.mu.is_finite_activity


_COMPILED = weakref.WeakKeyDictionary()   # parameter set -> {key: compiled data}


def compiled(p_set, key, build):
    """build(), called on the first request for (p_set, key) and kept while p_set lives.

    For data that depend on the parameter set alone, never on u, x, T or a
    seed.  Sets hash by identity and are immutable, so an entry cannot go
    stale; it is freed with its set, a truncated set or a copy compiles its
    own, and a pickled set carries none.  The store holds its values
    strongly: a value that refers to p_set would keep the set alive.
    """
    entries = _COMPILED.setdefault(p_set, {})
    if key not in entries:
        entries[key] = build()
    return entries[key]


def jump_rows(p_set, basis):
    """The jumps of m and then of mu, with their directions (J, n) and
    output rows (J, 1 + n) in the coordinates of basis."""
    jumps = p_set.m.jumps + p_set.mu.jumps
    dirs = np.array([basis.vec(j.direction) for j in jumps]).reshape(len(jumps), basis.n)
    outs = np.array([j.output_row(basis) for j in jumps]).reshape(len(jumps), basis.n + 1)
    return jumps, dirs, outs


def truncation_cut(k):
    """The norm 1/k at or below which truncation level k removes the jumps."""
    if k < 1:
        raise ValueError(f"truncation level must be >= 1, got {k}")
    return 1.0 / float(k)


def truncate(p_set, k):
    """Drop all jumps of norm <= 1/k; drift terms are unchanged."""
    cut = truncation_cut(k)
    return ParameterSet(
        p_set.dim,
        p_set.b,
        p_set.B,
        p_set.m.restricted(lo=cut),
        p_set.mu.restricted(lo=cut),
    )


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

def orthogonal_psd_pair(rng, dim):
    """Random PSD pair (u, x) with <u, x> = 0, from a split orthonormal frame."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    if dim == 1:
        u = rng.uniform(0.5, 1.5) * np.outer(q[:, 0], q[:, 0])
        return u, np.zeros((1, 1))
    split = int(rng.integers(1, dim))
    coeff_u = rng.uniform(0.5, 1.5, split)
    coeff_x = rng.uniform(0.5, 1.5, dim - split)
    vu = q[:, :split]
    vx = q[:, split:]
    u = (vu * coeff_u) @ vu.T
    x = (vx * coeff_x) @ vx.T
    return symcone.symmetrize(u), symcone.symmetrize(x)


@dataclass(frozen=True)
class ConditionResult:
    condition: str
    passed: bool
    detail: str
    violation: float = 0.0
    witness: dict | None = None


@dataclass(frozen=True)
class AdmissibilityReport:
    dim: int
    seed: int
    n_pairs: int
    conditions: tuple

    @property
    def all_passed(self):
        return all(c.passed for c in self.conditions)

    def condition(self, name):
        for c in self.conditions:
            if c.condition == name:
                return c
        raise KeyError(name)

    def to_json(self):
        return {
            "dim": self.dim,
            "seed": self.seed,
            "n_pairs": self.n_pairs,
            "all_passed": self.all_passed,
            "conditions": [
                {
                    "condition": c.condition,
                    "passed": c.passed,
                    "detail": c.detail,
                    "violation": c.violation,
                    "witness": c.witness,
                }
                for c in self.conditions
            ],
        }


def _compensator_value(mu, u, x):
    """integral <chi(xi), u> <mu(dxi), x> / ||xi||^2 in closed form."""
    return float(sum(inner(mk, x) * inner(kk, u) for mk, kk in mu.chi_compensator_pairs()))


def validate_admissibility(p_set, tol=None, n_pairs=50, seed=0):
    """Check the four admissibility conditions, randomized where quantified.

    Conditions over all orthogonal cone pairs (u, x) are sampled at n_pairs
    seeded draws; the report records the worst witness.  The default cone
    tolerance is 1e-9 * (1 + ||operand||).
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    rng = np.random.default_rng(seed)
    results = []

    second = p_set.m.second_moment()
    results.append(ConditionResult(
        "i_a", second < _INF, f"m second moment = {second}", 0.0 if second < _INF else _INF))

    # the measure constructors refuse rays with an infinite small-jump first
    # moment, so I_m and the kernel compensator of condition iii always exist
    i_m = p_set.m.chi_integral()
    results.append(ConditionResult(
        "i_b", True, f"I_m exists, ||I_m|| = {frob_norm(i_m):.6g}"))

    gap = p_set.b - i_m
    lam = min_eigenvalue(gap)
    tol_ii = tol if tol is not None else 1e-9 * (1.0 + frob_norm(gap))
    witness = None
    if lam < -tol_ii:
        w, v = np.linalg.eigh(gap)
        vec = v[:, 0]
        witness = {"v": sym_to_json(np.outer(vec, vec))}
    results.append(ConditionResult(
        "ii", lam >= -tol_ii, f"min eig(b - I_m) = {lam:.6g}", max(0.0, -lam), witness))

    pairs = [orthogonal_psd_pair(rng, p_set.dim) for _ in range(n_pairs)]
    comp_vals = [_compensator_value(p_set.mu, u, x) for u, x in pairs]
    max_comp = max((abs(v) for v in comp_vals), default=0.0)
    results.append(ConditionResult(
        "iii", all(math.isfinite(v) for v in comp_vals),
        f"kernel small-jump moments finite; max sampled compensator = {max_comp:.6g}"))

    basis = symcone.VecBasis(p_set.dim)
    worst = _INF
    worst_pair = None
    for (u, x), comp in zip(pairs, comp_vals):
        q = float(basis.vec(u) @ p_set.B.mat @ basis.vec(x)) - comp
        if q < worst:
            worst = q
            worst_pair = (u, x)
    tol_iv = tol if tol is not None else 1e-9 * (1.0 + symcone.operator_norm(p_set.B))
    witness = None
    if worst < -tol_iv and worst_pair is not None:
        witness = {"u": sym_to_json(worst_pair[0]), "x": sym_to_json(worst_pair[1])}
    # build_admissible sets reach 0 up to rounding: show that as 0
    shown = 0.0 if abs(worst) <= tol_iv else worst
    results.append(ConditionResult(
        "iv", worst >= -tol_iv,
        f"min over {n_pairs} orthogonal pairs of <B*(u),x> - compensator = {shown:.6g}",
        max(0.0, -worst), witness))

    return AdmissibilityReport(p_set.dim, seed, n_pairs, tuple(results))


def build_admissible(dim, beta=None, gs=(), mu=None, m=None, b_extra=None):
    """Assemble a parameter set that is admissible by construction.

    B is the Lyapunov part plus congruences plus the exact small-jump
    compensator of mu, so the cone-compatibility inequality holds with
    nonnegative slack; b is b_extra plus the small-jump mean of m, so the
    drift inequality holds with slack min eig(b_extra).
    """
    m = m if m is not None else ScalarJumpMeasure(dim)
    mu = mu if mu is not None else OperatorJumpMeasure(dim)
    if b_extra is None:
        b_extra = np.zeros((dim, dim))
    b_extra = check_symmetric(b_extra)
    if min_eigenvalue(b_extra) < -1e-12 * (1.0 + frob_norm(b_extra)):
        raise MeasureError("b_extra must be PSD")

    terms = []
    if beta is not None:
        terms.append(LyapunovOperator(beta))
    if gs:
        terms.append(CongruenceSum(tuple(gs)))
    comp_pairs = mu.chi_compensator_pairs()
    if comp_pairs:
        terms.append(RankOneSum(comp_pairs))
    b = b_extra + m.chi_integral()
    return ParameterSet(dim, b, _operator(dim, terms), m, mu)


def _operator(dim, terms):
    """The sum of terms: ZeroOperator for none, the term itself for one."""
    if not terms:
        return ZeroOperator(dim)
    return terms[0] if len(terms) == 1 else OperatorSum(tuple(terms))


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def _density_to_json(den):
    if isinstance(den, PowerLawDensity):
        return {"type": "power", "c": den.c, "alpha": den.alpha,
                "rmin": den.rmin, "rmax": None if den.rmax == _INF else den.rmax}
    return {"type": "exponential", "c": den.c, "lam": den.lam,
            "rmin": den.rmin, "rmax": None if den.rmax == _INF else den.rmax}


def _density_from_json(obj):
    try:
        kind = obj["type"]
        rmin = float(obj.get("rmin", 0.0))
        rmax_raw = obj.get("rmax")
        rmax = _INF if rmax_raw is None else float(rmax_raw)
        if kind == "power":
            return PowerLawDensity(float(obj["c"]), float(obj["alpha"]), rmin, rmax)
        if kind == "exponential":
            return ExponentialDensity(float(obj["c"]), float(obj["lam"]), rmin, rmax)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParameterFileError(f"malformed density object {obj!r}: {exc}") from exc
    raise ParameterFileError(f"unknown density type {kind!r}")


def _plain_matrix(a):
    return [[float(x) for x in row] for row in np.asarray(a, dtype=float)]


def params_to_json(p_set):
    """JSON object of a parameter set; the terms of B of one kind merge into one entry."""
    b_obj = {}
    terms = p_set.B.terms if isinstance(p_set.B, OperatorSum) else (p_set.B,)
    comp_pairs = p_set.mu.chi_compensator_pairs()
    for t in terms:
        if isinstance(t, LyapunovOperator):
            b_obj["lyapunov"] = b_obj["lyapunov"] + t.beta if "lyapunov" in b_obj else t.beta
        elif isinstance(t, CongruenceSum):
            b_obj["conjugations"] = b_obj.get("conjugations", []) + [_plain_matrix(g) for g in t.gs]
        elif (isinstance(t, RankOneSum) and "compensate_mu" not in b_obj
              and _pairs_match(t.pairs, comp_pairs)):
            b_obj["compensate_mu"] = True
        elif not isinstance(t, ZeroOperator):
            b_obj["dense"] = b_obj["dense"] + t.mat if "dense" in b_obj else t.mat
    for key in ("lyapunov", "dense"):
        if key in b_obj:
            b_obj[key] = _plain_matrix(b_obj[key])
    return {
        "dim": p_set.dim,
        "b": sym_to_json(p_set.b),
        "B": b_obj,
        "m": _measure_to_json(p_set.m),
        "mu": _measure_to_json(p_set.mu),
    }


def _measure_to_json(measure):
    """The atoms, at the xi they were given, and the rays; mu jumps carry their weight "M"."""
    atoms, rays = [], []
    for j in measure.jumps:
        weight = {"M": sym_to_json(j.weight)} if measure._kernel else {}
        if isinstance(j.law, PointMass):
            weight = weight or {"w": j.law.c}   # an m atom's weight is its mass
            atoms.append({"xi": sym_to_json(j.xi), **weight})
        else:
            rays.append({"D": sym_to_json(j.direction), **weight, "density": _density_to_json(j.law)})
    return {"atoms": atoms, "rays": rays}


def _pairs_match(p1, p2):
    if len(p1) != len(p2):
        return False
    return all(np.allclose(a1, a2) and np.allclose(c1, c2)
               for (a1, c1), (a2, c2) in zip(p1, p2))


def params_from_json(obj):
    try:
        dim = int(obj["dim"])
        b = sym_from_json(obj["b"])
        m_obj, mu_obj, b_obj = (obj.get(key, {}) for key in ("m", "mu", "B"))
    except (KeyError, TypeError, ValueError, AttributeError, DimensionMismatchError) as exc:
        raise ParameterFileError(f"malformed parameter file: {exc}") from exc

    try:
        for key, section in (("m", m_obj), ("mu", mu_obj), ("B", b_obj)):
            if not isinstance(section, dict):
                raise TypeError(f"section {key!r} must be an object, got {section!r}")
        m = ScalarJumpMeasure(dim, tuple(
            [atom(sym_from_json(a["xi"]), float(a["w"])) for a in m_obj.get("atoms", [])]
            + [ray(sym_from_json(r["D"]), _density_from_json(r["density"])) for r in m_obj.get("rays", [])]))
        mu = OperatorJumpMeasure(dim, tuple(
            [atom(sym_from_json(a["xi"]), sym_from_json(a["M"])) for a in mu_obj.get("atoms", [])]
            + [ray(sym_from_json(r["D"]), _density_from_json(r["density"]), sym_from_json(r["M"]))
               for r in mu_obj.get("rays", [])]))
        terms = []
        if b_obj.get("lyapunov") is not None:
            terms.append(LyapunovOperator(np.asarray(b_obj["lyapunov"], dtype=float)))
        if b_obj.get("conjugations"):
            terms.append(CongruenceSum(tuple(np.asarray(g, dtype=float) for g in b_obj["conjugations"])))
        if b_obj.get("compensate_mu"):
            comp_pairs = mu.chi_compensator_pairs()
            if comp_pairs:
                terms.append(RankOneSum(comp_pairs))
        if b_obj.get("dense") is not None:
            terms.append(DenseOperator(dim, np.asarray(b_obj["dense"], dtype=float)))
        return ParameterSet(dim, b, _operator(dim, terms), m, mu)
    except (KeyError, TypeError, ValueError, MeasureError, DimensionMismatchError) as exc:
        raise ParameterFileError(f"malformed parameter file: {exc}") from exc


def load_params(path):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ParameterFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParameterFileError(
            f"invalid JSON in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    return params_from_json(obj)


def save_params(p_set, path):
    with open(path, "w") as fh:
        json.dump(params_to_json(p_set), fh, indent=2)
        fh.write("\n")
