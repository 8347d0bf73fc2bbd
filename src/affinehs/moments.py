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
    """Index arrays (i, j), i <= j, of the quadratic monomials of n variables (read-only)."""
    iu, ju = np.triu_indices(n)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


def _monomials(y):
    """Quadratic monomials y_i y_j, i <= j, of the rows of y (..., n)."""
    iu, ju = _triu(y.shape[-1])
    return y[..., iu] * y[..., ju]


def _fold(mat):
    """Coefficients on the monomials x_i x_j, i <= j, of x^T mat x, for a stack (..., n, n)."""
    iu, ju = _triu(mat.shape[-1])
    return (mat[..., iu, ju] + mat[..., ju, iu]) * np.where(iu == ju, 0.5, 1.0)


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
    parts = [[1.0], x_vec]
    if len(coefs) > 1 + len(x_vec):
        parts.append(_monomials(x_vec))
    return float(np.concatenate(parts) @ coefs)


def _product(basis, v, w):
    """Coefficients of <x, v><x, w> on (1, x_k, x_i x_j)."""
    return np.concatenate([np.zeros(1 + basis.n), _fold(np.outer(basis.vec(v), basis.vec(w)))])


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

    iu, ju = _triu(n)
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


def mean(p_set, x, t, v):
    """E[<X_t, v> | X_0 = x]: <x, v> transported by e^{tG}, evaluated at x.

    G maps the polynomials of degree <= 1 into themselves, so <x, v> is
    transported by the leading (1 + n) block of e^{tG} alone.
    """
    bundle = _bundle(p_set)
    basis = bundle.basis
    coefs = np.zeros(basis.n + 1)
    coefs[1:] = basis.vec(v)
    return _at(basis.vec(x), _transport(bundle, t, coefs, lead=basis.n + 1))


def second_moment(p_set, x, t, v, w=None):
    """E[<X_t, v><X_t, w> | X_0 = x]: <x, v><x, w> transported by e^{tG}, evaluated at x."""
    bundle = _bundle(p_set)
    coefs = _transport(bundle, t, _product(bundle.basis, v, v if w is None else w))
    return _at(bundle.basis.vec(x), coefs)


def laplace(p_set, x, t, u):
    """E[e^{-<X_t, u>} | X_0 = x] = exp(-phi(t,u) - <x, psi(t,u)>), in (0, 1].

    Solves the transform ODEs directly, also for infinite-activity sets:
    the ray rules absorb the singular endpoint r = 0.  At t = 0 the solve
    takes no step, but it still refuses a u outside the PSD cone.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    x = symcone.check_symmetric(x)
    sol = _riccati.solve_riccati(p_set, u, t, t_eval=(0.0, t))
    return math.exp(-sol.phi_final - inner(x, sol.psi_final))


def generator_exp(p_set, u, x):
    """Generator applied to e^{-<., u>} at x: (-F(u) - <x, R(u)>) e^{-<x,u>}."""
    f_val = _riccati.eval_F(p_set, u)
    r_val = _riccati.eval_R(p_set, u)
    return (-f_val - inner(x, r_val)) * math.exp(-inner(x, u))
