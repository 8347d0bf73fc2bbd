"""Closed-form moments and the Laplace transform of the jump process.

Affine processes are polynomial processes: the generator maps the
polynomials of degree <= 2 in x into themselves, so E[p(X_t) | X_0 = x] is
the polynomial e^{tG} p evaluated at x, where G is the generator's matrix on
the coefficients of the monomials (1, x_k, x_i x_j for i <= j) in VecBasis
coordinates.  G carries the derivative data of (F, R) at the origin: the
linear functional dF0, the linear operator dR0 and the negative-definite
bilinear tails d2F0 and d2R0.  Means and second moments are read off
e^{tG}.  G depends on the parameter set alone, so each set builds it and
diagonalizes it once, on first use; each moment is then one product with
the factors, and a defective G takes the dense exponential instead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import symcone
from .params import compiled, jump_rows
from .symcone import ExpPropagator, RankOneSum, VecBasis, inner
from . import riccati as _riccati

__all__ = [
    "DerivativeBundle",
    "derivative_bundle",
    "mean",
    "second_moment",
    "laplace",
    "generator_exp",
]


@dataclass(frozen=True, eq=False)
class DerivativeBundle:
    """The generator G of one parameter set on the coefficients of the
    monomials (1, x_k, x_i x_j for i <= j) in basis coordinates; read-only.

    With n = basis.n, G[0, 1:n+1] is dF0, G[1:n+1, 1:n+1] is dR0, and
    G[:n+1, n+1:] is the forcing of (F, R) by the jumps' second moments,
    -(d2F0, d2R0) on the quadratic monomials.  exp evaluates e^{tG} c from
    one eigendecomposition of G.
    """

    basis: VecBasis
    G: np.ndarray
    exp: ExpPropagator


@functools.cache
def _triu(n):
    """Index arrays (i, j), i <= j, of the quadratic monomials of n variables,
    and the weight of each in a fold (0.5 where i == j, else 1); read-only."""
    iu, ju = np.triu_indices(n)
    half = np.where(iu == ju, 0.5, 1.0)
    for arr in (iu, ju, half):
        arr.setflags(write=False)
    return iu, ju, half


def _monomials(y):
    """Quadratic monomials y_i y_j, i <= j, of the rows of y (..., n)."""
    iu, ju, _ = _triu(y.shape[-1])
    return y.take(iu, axis=-1) * y.take(ju, axis=-1)


def _fold(mat):
    """Coefficients on the monomials x_i x_j, i <= j, of x^T mat x, for a stack (..., n, n)."""
    iu, ju, half = _triu(mat.shape[-1])
    return (mat[..., iu, ju] + mat[..., ju, iu]) * half


def _transport(bundle, t, coefs, lead=None):
    """e^{tG} coefs: the coefficients of x -> E[p(X_t) | X_0 = x].

    With lead, coefs and the result are the leading lead coefficients: G is
    block upper-triangular, so a polynomial of degree <= 1 (lead = 1 + n)
    stays one under e^{tG}.  Raises OperatorExpError when the exponential
    is not finite.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    return bundle.exp.dot(t, coefs, lead)


def _at(x_vec, coefs):
    """A polynomial with coefficients coefs on (1, x_k, x_i x_j) evaluated at
    x; a degree-1 polynomial (1 + n coefficients) reads only (1, x)."""
    n = len(x_vec)
    z = np.empty(len(coefs))
    z[0] = 1.0
    z[1:n + 1] = x_vec
    if len(z) > n + 1:
        z[n + 1:] = _monomials(x_vec)
    return float(z @ coefs)


def _product(basis, v, w):
    """Coefficients of <x, v><x, w> on (1, x_k, x_i x_j): the fold of the
    outer product of vec v and vec w, without forming it."""
    a = basis.vec(v)
    b = a if w is v else basis.vec(w)
    iu, ju, half = _triu(basis.n)
    terms = a.take(iu) * b.take(ju)
    if b is a:
        terms += terms   # a_j a_i = a_i a_j
    else:
        terms += a.take(ju) * b.take(iu)
    out = np.zeros(1 + basis.n + iu.size)
    np.multiply(terms, half, out=out[1 + basis.n:])
    return out


def derivative_bundle(p_set):
    """Assemble the generator G from the parameter set.

    A<x, v> = dF0(v) + <x, dR0 v>, and A(<x, v><x, w>) =
    -d2F0(v, w) - <x, d2R0(v, w)> + A<x, v> <x, w> + A<x, w> <x, v>.  At
    the origin the exponential equals one, so only jumps of norm > 1 enter
    dF0 and dR0; d2F0 and d2R0 integrate the full measures.  Over the jumps
    j of both measures, (d2F0(v, w), vec d2R0(v, w)) =
    -sum_j m2_j <D_j, v> <D_j, w> out_j, with m2_j the second radial moment
    of the jump's law, D_j its unit direction and out_j its output row
    (F, vec R).
    """
    basis = VecBasis(p_set.dim)
    n = basis.n
    tail_pairs = p_set.mu.tail_pairs()
    dr0 = p_set.B.adjoint()
    if tail_pairs:
        dr0 = dr0 + RankOneSum(tail_pairs)
    dr0 = dr0.mat
    df0 = basis.vec(p_set.b + p_set.m.tail_first_moment_matrix())
    jumps, dirs, outs = jump_rows(p_set, basis)
    coefs = np.array([j.law.partial_moment(2) for j in jumps])

    iu, ju, _ = _triu(n)
    cols = np.arange(iu.size)
    sym = np.zeros((n, n, iu.size))   # x_i x_j = x^T sym[:, :, p] x for p = (i, j)
    sym[iu, ju, cols] = 0.5
    sym[ju, iu, cols] += 0.5
    lin, quad = slice(1, n + 1), slice(n + 1, None)
    gen = np.zeros((1 + n + iu.size,) * 2)
    gen[lin, lin] = dr0
    # x^T Q x -> x^T (dR0 Q + Q dR0^T) x
    gen[quad, quad] = _fold(2.0 * np.einsum("ka,alp->pkl", dr0, sym)).T
    # the quadratic forcing of F (row 0) and R by the jumps' second moments
    gen[: n + 1, quad] = outs.T @ (coefs[:, None] * _monomials(dirs))
    gen[0, lin] = df0
    gen[lin, quad] += 2.0 * np.einsum("klp,l->kp", sym, df0)
    gen.setflags(write=False)
    return DerivativeBundle(basis, gen, ExpPropagator(gen))


def _bundle(p_set):
    """The set's DerivativeBundle, built by derivative_bundle on first use."""
    return compiled(p_set, "bundle", lambda: derivative_bundle(p_set))


def _expectation(p_set, x, t, coefs_of, **inputs):
    """E[p(X_t) | X_0 = x] for the polynomial p with coefficients coefs_of(basis).

    Its leading len(coefs) coefficients are transported, so a polynomial of
    degree <= 1 (1 + n coefficients) reads only the leading blocks of
    e^{tG}.  x and the keyword inputs are tested for non-finite entries only
    where the value came out non-finite or the transport raised
    (ExpPropagator.dot refuses a non-finite y, and under warnings as errors
    a product with an infinite entry raises RuntimeWarning), so a finite
    input pays nothing for the test; a non-finite one raises ValueError
    naming it.
    """
    bundle = _bundle(p_set)
    try:
        coefs = coefs_of(bundle.basis)
        value = _at(bundle.basis.vec(x), _transport(bundle, t, coefs, len(coefs)))
    except (ValueError, RuntimeWarning):
        symcone._require_finite(x=x, **inputs)
        raise
    if not math.isfinite(value):
        symcone._require_finite(x=x, **inputs)
    return value


def mean(p_set, x, t, v):
    """E[<X_t, v> | X_0 = x]: <x, v> transported by e^{tG}, evaluated at x.

    G maps the polynomials of degree <= 1 into themselves, so <x, v> is
    transported by the leading (1 + n) block of e^{tG} alone.  A non-finite
    x or v raises ValueError naming it.
    """
    return _expectation(p_set, x, t, lambda basis: np.concatenate([[0.0], basis.vec(v)]), v=v)


def second_moment(p_set, x, t, v, w=None):
    """E[<X_t, v><X_t, w> | X_0 = x]: <x, v><x, w> transported by e^{tG}, evaluated at x.

    A non-finite x, v or w raises ValueError naming it.
    """
    w = v if w is None else w
    return _expectation(p_set, x, t, lambda basis: _product(basis, v, w), v=v, w=w)


def laplace(p_set, x, t, u):
    """E[e^{-<X_t, u>} | X_0 = x] = exp(-phi(t,u) - <x, psi(t,u)>), in (0, 1].

    Solves the transform ODEs directly, also for infinite-activity sets:
    the ray rules absorb the singular endpoint r = 0.  At t = 0 the solve
    takes no step, but it still refuses a u outside the PSD cone.  A
    non-finite x or u raises ValueError naming it.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    x = symcone.check_symmetric(x, name="x")
    sol = _riccati.solve_riccati(p_set, u, t, t_eval=(0.0, t))
    # <x, psi(t)> as symcone.inner computes it; both are d x d
    return math.exp(-sol.phi_final - float(np.dot(x.ravel(), sol.psi_final.ravel())))


def generator_exp(p_set, u, x):
    """Generator applied to e^{-<., u>} at x: (-F(u) - <x, R(u)>) e^{-<x,u>}."""
    f_val = _riccati.eval_F(p_set, u)
    r_val = _riccati.eval_R(p_set, u)
    return (-f_val - inner(x, r_val)) * math.exp(-inner(x, u))
