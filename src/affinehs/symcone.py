"""Symmetric-matrix algebra on the PSD cone.

Real symmetric d x d matrices with the Frobenius pairing are the state
space everywhere in this package.  This module provides the cone tests,
the small-jump cutoff map, an orthonormal coordinate chart for the
n = d(d+1)/2 dimensional symmetric-matrix space, and structured linear
operators on that space (Lyapunov, congruence sums, rank-one sums, dense),
each held as its coordinate matrix, together with their exponentials.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    EigenSolverError,
    OperatorExpError,
)

__all__ = [
    "symmetrize",
    "check_symmetric",
    "inner",
    "frob_norm",
    "min_eigenvalue",
    "cone_leq",
    "chi",
    "VecBasis",
    "SuperOperator",
    "ZeroOperator",
    "LyapunovOperator",
    "CongruenceSum",
    "RankOneSum",
    "DenseOperator",
    "OperatorSum",
    "operator_norm",
    "expm_action",
    "ExpPropagator",
    "random_psd",
    "sym_to_json",
    "sym_from_json",
]


# ---------------------------------------------------------------------------
# elementary matrix helpers
# ---------------------------------------------------------------------------

def symmetrize(a):
    """Exactly symmetric part (a + a.T)/2 as a float array."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + a.T)


def check_symmetric(a, rel_tol=1e-12, name="matrix"):
    """Validate that `a` is square, finite and symmetric within a relative tolerance.

    Returns the symmetrized array.  Raises DimensionMismatchError on
    non-square input, ValueError naming the argument (`name`) when an entry
    is not finite, and ValueError when the asymmetry exceeds
    rel_tol * (1 + ||a||).
    """
    return _check_symmetric_norm(a, rel_tol, name)[0]


def _check_symmetric_norm(a, rel_tol=1e-12, name="matrix"):
    """check_symmetric(a, rel_tol, name) and the Frobenius norm ||a|| its test computed.

    The norm is sqrt(a . a) over the entries in memory order, as
    np.linalg.norm computes it.  It is finite unless an entry is not or the
    sum overflows, so a finite norm needs no test of the entries.  a - a.T
    is antisymmetric, so its largest entry is its largest |entry|.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    flat = a.ravel(order="K")
    norm = math.sqrt(flat.dot(flat))
    if not norm < math.inf:
        _require_finite(**{name: a})
    at = a.T
    asym = (a - at).max()
    if asym > rel_tol * (1.0 + norm):
        raise ValueError(f"matrix is asymmetric: max |a - a.T| = {asym:.3e} exceeds {rel_tol:.1e}*(1+||a||)")
    out = a + at
    out *= 0.5
    return out, norm


def _require_finite(**arrays):
    """Raise ValueError naming the first of the keyword arrays with a non-finite entry.

    Callers test their inputs only where a norm or a result already came
    out non-finite, so finite inputs pay nothing.
    """
    for name, a in arrays.items():
        if not np.isfinite(a).all():
            raise ValueError(f"{name} has non-finite entries")


def _check_same_dim(a, b):
    if a.shape != b.shape:
        raise DimensionMismatchError(f"dimension mismatch: {a.shape} vs {b.shape}")


def inner(a, b):
    """Frobenius pairing <a, b> = sum_ij a_ij b_ij."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_same_dim(a, b)
    return float(np.dot(a.ravel(), b.ravel()))


def frob_norm(a):
    return float(np.linalg.norm(np.asarray(a, dtype=float)))


def min_eigenvalue(a):
    """Smallest eigenvalue of a symmetric matrix, or of each matrix of a stack.

    Dimensions 1 and 2 use the closed form; larger matrices go through the
    LAPACK symmetric eigensolver, which reads one triangle only, so the
    input must be exactly symmetric (the package passes check_symmetric
    output, psi matrices from the isometry, VecBasis.unvec states, and
    differences of these).
    Its non-convergence is reported as EigenSolverError with the solver
    diagnostics attached.  A stack (..., d, d) gives an array of shape
    (...); one matrix gives a float.
    """
    a = np.asarray(a, dtype=float)
    d = a.shape[-1]
    at = a.T  # at[i, j] is entry (j, i) of every matrix, with the stack axes reversed
    if d == 1:
        out = at[0, 0].T
    elif d == 2:
        half_tr = 0.5 * (at[0, 0] + at[1, 1])
        off = 0.5 * (at[0, 1] + at[1, 0])
        gap = 0.5 * (at[0, 0] - at[1, 1])
        out = (half_tr - np.hypot(gap, off)).T
    else:
        try:
            out = np.linalg.eigvalsh(a)[..., 0]
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails at desk scale
            raise EigenSolverError(f"symmetric eigensolver did not converge: {exc}") from exc
    return float(out) if a.ndim == 2 else out


def cone_leq(a, b, tol=0.0):
    """Loewner order test a <= b, i.e. min eig(b - a) >= -tol."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_same_dim(a, b)
    return min_eigenvalue(b - a) >= -tol


def chi(xi):
    """Small-jump cutoff: xi itself when ||xi|| <= 1 (boundary included), else 0."""
    xi = np.asarray(xi, dtype=float)
    if frob_norm(xi) <= 1.0:
        return xi.copy()
    return np.zeros_like(xi)


# ---------------------------------------------------------------------------
# orthonormal coordinates for symmetric matrices
# ---------------------------------------------------------------------------

_SQRT2 = np.sqrt(2.0)


@functools.cache
def _indices(dim):
    """The index tables of VecBasis(dim), built once per dimension (read-only):
    the diagonal and strict upper-triangle index pairs, the flat indices of
    the coordinates' entries in C order, and their weights (1, then sqrt 2)."""
    di, iu = np.diag_indices(dim), np.triu_indices(dim, k=1)
    flat = np.concatenate([di[0] * (dim + 1), iu[0] * dim + iu[1]])
    weights = np.concatenate([np.ones(dim), np.full(iu[0].size, _SQRT2)])
    for arr in (*di, *iu, flat, weights):
        arr.setflags(write=False)
    return di, iu, flat, weights


class VecBasis:
    """Orthonormal coordinates for d x d symmetric matrices.

    Basis: the diagonal units E_ii followed by (E_ij + E_ji)/sqrt(2) for
    i < j, so that vec/unvec are mutually inverse isometries:
    <A, B> = dot(vec(A), vec(B)).
    """

    def __init__(self, dim):
        if dim < 1:
            raise DimensionMismatchError(f"dimension must be positive, got {dim}")
        self.dim = int(dim)
        self.n = self.dim * (self.dim + 1) // 2
        self._di, self._iu, self._flat, self._weights = _indices(self.dim)

    def vec(self, a):
        """The coordinates a[i, i], then sqrt(2) a[i, j] for i < j: one gather and one product."""
        a = np.asarray(a, dtype=float)
        if a.shape != (self.dim, self.dim):
            raise DimensionMismatchError(f"expected shape {(self.dim, self.dim)}, got {a.shape}")
        out = a.take(self._flat)
        out *= self._weights
        return out

    def unvec(self, v):
        """The symmetric matrix of coordinates v, or the matrices of a stack (..., n)."""
        v = np.asarray(v, dtype=float)
        if v.shape[-1:] != (self.n,):
            raise DimensionMismatchError(f"expected shape (..., {self.n}), got {v.shape}")
        a = np.zeros(v.shape[:-1] + (self.dim, self.dim))
        a[(..., *self._iu)] = v[..., self.dim:] / _SQRT2
        a += a.swapaxes(-1, -2)
        a[(..., *self._di)] = v[..., : self.dim]
        return a


@functools.cache
def _embedding(dim):
    """d^2 x n isometry P with P vec(a) = a.ravel() for symmetric a (read-only)."""
    basis = VecBasis(dim)
    p = np.zeros((dim, dim, basis.n))
    p[basis._di + (np.arange(dim),)] = 1.0
    i, j = basis._iu
    cols = np.arange(dim, basis.n)
    p[i, j, cols] = p[j, i, cols] = 1.0 / _SQRT2
    return _freeze(p.reshape(dim * dim, basis.n))


def _kron_coordinates(dim, factors):
    """n x n matrix P^T (sum of a (x) b over the pairs (a, b) in `factors`) P.

    (a (x) b) x.ravel() = (a @ x @ b.T).ravel(), so each term multiplies the
    columns of P, reshaped to d x d matrices, from both sides; the
    d^2 x d^2 Kronecker product is never formed.
    """
    p = _embedding(dim)
    n = p.shape[1]
    full_p = sum(b @ (a @ p.reshape(dim, dim * n)).reshape(dim, dim, n) for a, b in factors)
    return _freeze(p.T @ full_p.reshape(dim * dim, n))


# ---------------------------------------------------------------------------
# linear operators, each held as its n x n coordinate matrix
# ---------------------------------------------------------------------------

class SuperOperator:
    """Linear map on symmetric matrices.

    Every kind builds `mat`, its n x n matrix in VecBasis coordinates, once
    and in closed form when it is constructed; the action, the adjoint and
    sums all go through `mat`.  Because VecBasis is an isometry, the adjoint
    with respect to the Frobenius pairing is `mat.T`.
    """

    dim: int
    mat: np.ndarray

    def apply(self, x):
        basis = VecBasis(self.dim)
        return basis.unvec(self.mat @ basis.vec(x))

    def apply_adjoint(self, x):
        basis = VecBasis(self.dim)
        return basis.unvec(self.mat.T @ basis.vec(x))

    def adjoint(self):
        return DenseOperator(self.dim, self.mat.T)

    def __add__(self, other):
        if not isinstance(other, SuperOperator):
            return NotImplemented
        if other.dim != self.dim:
            raise DimensionMismatchError("cannot add operators at different dimensions")
        terms = []
        for op in (self, other):
            terms.extend(op.terms if isinstance(op, OperatorSum) else [op])
        return OperatorSum(tuple(terms))


def _freeze(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ZeroOperator(SuperOperator):
    dim: int

    def __post_init__(self):
        n = VecBasis(self.dim).n
        object.__setattr__(self, "mat", _freeze(np.zeros((n, n))))


@dataclass(frozen=True, eq=False)
class LyapunovOperator(SuperOperator):
    """x -> beta x + x beta^T for a (not necessarily symmetric) d x d beta."""

    beta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "beta", _freeze(self.beta))
        if self.beta.ndim != 2 or self.beta.shape[0] != self.beta.shape[1]:
            raise DimensionMismatchError(f"beta must be square, got {self.beta.shape}")
        eye = np.eye(self.dim)
        object.__setattr__(self, "mat", _kron_coordinates(self.dim, [(self.beta, eye), (eye, self.beta)]))

    @property
    def dim(self):
        return self.beta.shape[0]


@dataclass(frozen=True, eq=False)
class CongruenceSum(SuperOperator):
    """x -> sum_j G_j x G_j^T; completely positive for any G_j."""

    gs: tuple

    def __post_init__(self):
        object.__setattr__(self, "gs", tuple(_freeze(g) for g in self.gs))
        if not self.gs:
            raise ValueError("CongruenceSum needs at least one factor; use ZeroOperator instead")
        d = self.gs[0].shape[0] if self.gs[0].ndim else 0
        if any(g.shape != (d, d) for g in self.gs):
            raise DimensionMismatchError("congruence factors must share one square shape")
        object.__setattr__(self, "mat", _kron_coordinates(d, [(g, g) for g in self.gs]))

    @property
    def dim(self):
        return self.gs[0].shape[0]


@dataclass(frozen=True, eq=False)
class RankOneSum(SuperOperator):
    """x -> sum_i <A_i, x> C_i with symmetric coefficient/output pairs."""

    pairs: tuple  # of (A_i, C_i)

    def __post_init__(self):
        frozen = tuple((_freeze(a), _freeze(c)) for a, c in self.pairs)
        object.__setattr__(self, "pairs", frozen)
        if not frozen:
            raise ValueError("RankOneSum needs at least one pair; use ZeroOperator instead")
        d = frozen[0][0].shape[0]
        for a, c in frozen:
            if a.shape != (d, d) or c.shape != (d, d):
                raise DimensionMismatchError("rank-one pairs must share one square shape")
        # rows vec(A_i) and vec(C_i); the matrix is sum_i vec(C_i) vec(A_i)^T
        a_vecs, c_vecs = (np.reshape(side, (len(frozen), d * d)) @ _embedding(d)
                          for side in zip(*frozen))
        object.__setattr__(self, "mat", _freeze(c_vecs.T @ a_vecs))

    @property
    def dim(self):
        return self.pairs[0][0].shape[0]


@dataclass(frozen=True, eq=False)
class DenseOperator(SuperOperator):
    """Operator given by its n x n matrix in VecBasis coordinates."""

    dim: int
    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", _freeze(self.mat))
        n = VecBasis(self.dim).n
        if self.mat.shape != (n, n):
            raise DimensionMismatchError(
                f"expected a {n} x {n} coordinate matrix for dim {self.dim}, got {self.mat.shape}")


@dataclass(frozen=True, eq=False)
class OperatorSum(SuperOperator):
    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise ValueError("OperatorSum needs at least one term")
        d = self.terms[0].dim
        for t in self.terms:
            if t.dim != d:
                raise DimensionMismatchError("operator sum terms must share the dimension")
        object.__setattr__(self, "mat", _freeze(sum(t.mat for t in self.terms)))

    @property
    def dim(self):
        return self.terms[0].dim


def operator_norm(op):
    """Operator norm of a SuperOperator w.r.t. the Frobenius pairing.

    Equals the spectral norm of the coordinate matrix because VecBasis is an
    isometry.
    """
    return float(np.linalg.norm(op.mat, 2))


# ---------------------------------------------------------------------------
# operator exponentials
# ---------------------------------------------------------------------------

_EIG_COND_LIMIT = 1e7  # eigenbases worse conditioned than this count as defective


class ExpPropagator:
    """Repeated evaluation of e^{tM} y for one square matrix M and many t.

    Diagonalizes M once and keeps the factors, read-only; falls back to
    dense scaling-and-squaring (scipy.linalg.expm) when M is numerically
    defective.  That route and params.radial_quad are the package's only
    uses of scipy, each imported where it runs; no library set is defective.
    Results agree with scipy.linalg.expm to ~1e-12 on well-conditioned
    eigenbases.  Either route raises OperatorExpError when e^{tM} y is not
    finite, or ValueError when y itself is not.
    """

    def __init__(self, mat):
        self.mat = np.asarray(mat, dtype=float)
        n = self.mat.shape[0]
        if self.mat.shape != (n, n):
            raise DimensionMismatchError(f"expected a square matrix, got {self.mat.shape}")
        try:
            w, vr = np.linalg.eig(self.mat)
            cond = np.linalg.cond(vr)
        except np.linalg.LinAlgError:  # pragma: no cover
            cond = np.inf
        self.use_eig = bool(np.isfinite(cond) and cond < _EIG_COND_LIMIT)
        if self.use_eig:
            self._w = w
            self._vr = vr
            self._vinv = np.linalg.inv(vr)
            for arr in (self._w, self._vr, self._vinv):
                arr.setflags(write=False)

    def dot(self, t, y, lead=None):
        """e^{tM} y without forming the dense exponential when diagonalized.

        With lead, M must leave the span of the first lead coordinates
        invariant (M[lead:, :lead] == 0, as in a block upper-triangular M):
        y then holds those lead coordinates, and the result is
        e^{t M[:lead, :lead]} y, the leading block of e^{tM} applied to y.
        The eigen route reads only the leading blocks of its factors; the
        dense route exponentiates only the leading block of M.
        """
        if t == 0:
            return np.array(y, dtype=float)   # e^{0M} = I exactly, on either route
        with np.errstate(invalid="ignore", over="ignore"):
            if self.use_eig:
                out = (self._vr[:lead] @ (np.exp(t * self._w) * (self._vinv[:, :lead] @ y))).real
            else:
                import scipy.linalg
                out = scipy.linalg.expm(t * self.mat[:lead, :lead]) @ np.asarray(y, dtype=float)
        if not np.isfinite(out).all():
            _require_finite(y=y)
            raise OperatorExpError(
                f"e^(tL) overflowed for t={t} and ||L||={np.linalg.norm(self.mat, 2):.3e}")
        return out


def expm_action(op, t, v):
    """e^{t op} v via the coordinate matrix and `ExpPropagator`; requires t >= 0."""
    if t < 0:
        raise ValueError(f"expm_action requires t >= 0, got {t}")
    basis = VecBasis(op.dim)
    out = ExpPropagator(op.mat).dot(t, basis.vec(np.asarray(v, dtype=float)))
    return symmetrize(basis.unvec(out))


# ---------------------------------------------------------------------------
# random elements (testing and randomized admissibility checks)
# ---------------------------------------------------------------------------

def random_psd(rng, dim, scale=1.0):
    a = rng.standard_normal((dim, dim))
    return scale * (a @ a.T) / dim


# ---------------------------------------------------------------------------
# JSON encoding of symmetric matrices
# ---------------------------------------------------------------------------

def sym_to_json(a):
    a = np.asarray(a, dtype=float)
    return {"dim": int(a.shape[0]), "rows": [[float(x) for x in row] for row in a]}


def sym_from_json(obj, rel_tol=1e-12):
    """Read the {"dim", "rows"} encoding, rejecting asymmetry beyond rel_tol."""
    try:
        dim = int(obj["dim"])
        rows = np.asarray(obj["rows"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed symmetric-matrix object: {exc}") from exc
    if rows.shape != (dim, dim):
        raise DimensionMismatchError(f"declared dim {dim} but rows have shape {rows.shape}")
    if not np.all(np.isfinite(rows)):
        raise ValueError("symmetric-matrix object has non-finite entries")
    return check_symmetric(rows, rel_tol=rel_tol)
