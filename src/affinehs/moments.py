"""Closed-form moments and the Laplace transform of the jump process.

Everything here is driven by the derivative data of (F, R) at the origin:
a linear operator dR0, a linear functional dF0 (stored through its Riesz
representative matrix), and the negative-definite bilinear tails d2R0 and
d2F0.  Affine processes are polynomial processes: the generator maps the
polynomials of degree <= 2 in x into themselves, so E[p(X_t) | X_0 = x] is
the polynomial e^{tG} p evaluated at x, where G is the generator's matrix on
the coefficients of the monomials (1, x_k, x_i x_j for i <= j) in VecBasis
coordinates.  Means, second moments and the derivatives of psi at 0 are all
read off one matrix exponential of G.  The derivative data depend on the
parameter set alone, so each set builds them once, on first use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import symcone
from .params import compiled, jump_rows
from .symcone import RankOneSum, VecBasis, expm_checked, inner
from . import riccati as _riccati

__all__ = [
    "DerivativeBundle",
    "derivative_bundle",
    "dpsi0",
    "d2psi0",
    "mean",
    "second_moment",
    "laplace",
    "generator_exp",
]


@dataclass(eq=False)
class DerivativeBundle:
    """Derivative data of (F, R) at u = 0 for one parameter set.

    Over the jumps j of both measures, (d2F0(v, w), vec d2R0(v, w)) =
    -sum_j coefs[j] <D_j, v> <D_j, w> outs[j], with vec D_j = dirs[j]; it is
    symmetric in (v, w) and negative on the cone.  G is the generator on
    polynomial coefficients.  Its arrays are read-only.
    """

    dim: int
    basis: VecBasis
    dR0: symcone.SuperOperator
    dR0_mat: np.ndarray
    dF0_mat: np.ndarray
    coefs: np.ndarray   # (J,) second radial moments of the jumps' laws
    dirs: np.ndarray    # (J, n) vec'd unit directions
    outs: np.ndarray    # (J, 1 + n) output rows (F, vec R)
    dF0_vec: np.ndarray = field(init=False)
    G: np.ndarray = field(init=False)

    def __post_init__(self):
        self.dF0_vec = self.basis.vec(self.dF0_mat)
        self.G = self._generator(drift=True)
        for arr in (self.dF0_mat, self.coefs, self.dirs, self.outs, self.dF0_vec, self.G):
            arr.setflags(write=False)

    def dF0(self, v):
        return float(inner(self.dF0_mat, v))

    def _d2(self, v, w):
        """(d2F0(v, w), vec d2R0(v, w)) as one row."""
        vv, wv = (self.dirs @ self.basis.vec(np.asarray(a, dtype=float)) for a in (v, w))
        return -((self.coefs * vv * wv) @ self.outs)

    def d2R0(self, v, w):
        return self.basis.unvec(self._d2(v, w)[1:])

    def d2F0(self, v, w):
        return float(self._d2(v, w)[0])

    def _generator(self, drift):
        """Matrix of the generator on the coefficients of (1, x_k, x_i x_j for i <= j).

        A<x, v> = dF0(v) + <x, dR0 v>, and A(<x, v><x, w>) =
        -d2F0(v, w) - <x, d2R0(v, w)> + A<x, v> <x, w> + A<x, w> <x, v>.
        drift=False leaves out the dF0 and d2F0 terms, so that e^{tG} moves
        the coefficients by psi alone.
        """
        n = self.basis.n
        iu, ju = _triu(n)
        cols = np.arange(iu.size)
        sym = np.zeros((n, n, iu.size))   # x_i x_j = x^T sym[:, :, p] x for p = (i, j)
        sym[iu, ju, cols] = 0.5
        sym[ju, iu, cols] += 0.5
        lin, quad = slice(1, n + 1), slice(n + 1, None)
        gen = np.zeros((1 + n + iu.size,) * 2)
        gen[lin, lin] = self.dR0_mat
        # x^T Q x -> x^T (dR0 Q + Q dR0^T) x
        gen[quad, quad] = _fold(2.0 * np.einsum("ka,alp->pkl", self.dR0_mat, sym)).T
        # the quadratic forcing of F (row 0) and R by the jumps' second moments
        gen[: n + 1, quad] = self.outs.T @ (self.coefs[:, None] * _monomials(self.dirs))
        if drift:
            gen[0, lin] = self.dF0_vec
            gen[lin, quad] += 2.0 * np.einsum("klp,l->kp", sym, self.dF0_vec)
        else:
            gen[0, quad] = 0.0
        return gen


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


def _transport(gen, t, coefs):
    """e^{t gen} coefs: the coefficients of x -> E[p(X_t) | X_0 = x].

    A coefficient vector of length 1 + n (a polynomial of degree <= 1) uses
    the leading block of gen, which the generator maps into itself.  Raises
    OperatorExpError when the exponential is not finite.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    k = len(coefs)
    return expm_checked(gen[:k, :k], t) @ coefs


def _at(x_vec, coefs):
    """A polynomial with coefficients coefs on (1, x_k, x_i x_j) evaluated at x."""
    mono = np.concatenate([[1.0], x_vec, _monomials(x_vec)])
    return float(mono[: len(coefs)] @ coefs)


def _product(bundle, v, w):
    """Coefficients of <x, v><x, w> on (1, x_k, x_i x_j)."""
    basis = bundle.basis
    return np.concatenate([np.zeros(1 + basis.n), _fold(np.outer(basis.vec(v), basis.vec(w)))])


def derivative_bundle(p_set):
    """Assemble dR0, dF0, d2R0, d2F0 from the parameter set.

    At the origin the exponential equals one, so only jumps of norm > 1
    contribute to the first derivatives; the second derivatives integrate
    the full measures.
    """
    basis = VecBasis(p_set.dim)
    tail_pairs = p_set.mu.tail_pairs()
    dr0 = p_set.B.adjoint()
    if tail_pairs:
        dr0 = dr0 + RankOneSum(tail_pairs)
    dr0_mat = dr0.mat

    df0_mat = p_set.b + p_set.m.tail_first_moment_matrix()

    jumps, dirs, outs = jump_rows(p_set, basis)
    return DerivativeBundle(p_set.dim, basis, dr0, dr0_mat, df0_mat,
                            np.array([j.law.partial_moment(2) for j in jumps]), dirs, outs)


def _bundle(p_set):
    """The set's DerivativeBundle, built by derivative_bundle on first use."""
    return compiled(p_set, "bundle", lambda: derivative_bundle(p_set))


def dpsi0(p_set, t, v):
    """Directional derivative of psi(t, .) at 0: e^{t dR0} v; PSD for PSD v."""
    bundle = _bundle(p_set)
    out = _transport(bundle.G, t, np.concatenate([[0.0], bundle.basis.vec(v)]))[1:]
    return symcone.symmetrize(bundle.basis.unvec(out))


def d2psi0(p_set, t, v, w):
    """Second directional derivative of psi(t, .) at 0 along (v, w).

    Transported by the generator without the dF0 and d2F0 terms,
    <x, v><x, w> becomes <x, dpsi0(v)><x, dpsi0(w)> - <x, d2psi0(v, w)>, so
    d2psi0 is minus the linear block; symmetric in (v, w) by construction.
    """
    bundle = _bundle(p_set)
    n = bundle.basis.n
    out = _transport(bundle._generator(drift=False), t, _product(bundle, v, w))
    return symcone.symmetrize(bundle.basis.unvec(-out[1: n + 1]))


def mean(p_set, x, t, v):
    """E[<X_t, v> | X_0 = x]: <x, v> transported by e^{tG}, evaluated at x."""
    bundle = _bundle(p_set)
    basis = bundle.basis
    coefs = _transport(bundle.G, t, np.concatenate([[0.0], basis.vec(v)]))
    return _at(basis.vec(x), coefs)


def second_moment(p_set, x, t, v, w=None):
    """E[<X_t, v><X_t, w> | X_0 = x]: <x, v><x, w> transported by e^{tG}, evaluated at x."""
    bundle = _bundle(p_set)
    coefs = _transport(bundle.G, t, _product(bundle, v, v if w is None else w))
    return _at(bundle.basis.vec(x), coefs)


def laplace(p_set, x, t, u, opts=None):
    """E[e^{-<X_t, u>} | X_0 = x] = exp(-phi(t,u) - <x, psi(t,u)>), in (0, 1].

    Solves the transform ODEs directly, also for infinite-activity sets:
    the ray rules absorb the singular endpoint r = 0.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    x = symcone.check_symmetric(x)
    if t == 0.0:
        return math.exp(-inner(x, u))
    sol = _riccati.solve_riccati(p_set, u, t, opts=opts, t_eval=(0.0, t))
    return math.exp(-sol.phi_final - inner(x, sol.psi_final))


def generator_exp(p_set, u, x):
    """Generator applied to e^{-<., u>} at x: (-F(u) - <x, R(u)>) e^{-<x,u>}."""
    f_val = _riccati.eval_F(p_set, u)
    r_val = _riccati.eval_R(p_set, u)
    return (-f_val - inner(x, r_val)) * math.exp(-inner(x, u))
