"""Independent brute-force oracles used by the tests.

The scalar fixed-step RK4 oracle rebuilds F and R directly from the raw
atom data of a d = 1 parameter set (no code shared with the production
right-hand side) and integrates with the classic fourth-order scheme.  It
is vectorized across parameter sets so a dt = 1e-5 run over a batch stays
fast.

The moment oracle evaluates the derivative formulas for the first and
second moments (derivatives of the Laplace transform at u = 0) by
composite Gauss-Legendre quadrature, without the polynomial generator that
the production code exponentiates.

The operator oracle applies each linear-operator kind by its defining
formula (beta x + x beta^T, sum g x g^T, sum <A, x> C) and assembles the
coordinate matrix column by column from the n basis matrices, the way the
package did before it built the matrices in closed form.
"""

import numpy as np

from affinehs.symcone import (
    CongruenceSum,
    DenseOperator,
    LyapunovOperator,
    OperatorSum,
    RankOneSum,
    VecBasis,
    ZeroOperator,
)


def structured_apply(op, x, adjoint=False):
    """op(x), or its adjoint at x, from the defining formula of each operator kind."""
    if isinstance(op, OperatorSum):
        return sum(structured_apply(t, x, adjoint) for t in op.terms)
    if isinstance(op, ZeroOperator):
        return np.zeros_like(x)
    if isinstance(op, LyapunovOperator):
        beta = op.beta.T if adjoint else op.beta
        return beta @ x + x @ beta.T
    if isinstance(op, CongruenceSum):
        return sum(g.T @ x @ g if adjoint else g @ x @ g.T for g in op.gs)
    if isinstance(op, RankOneSum):
        pairs = [(c, a) if adjoint else (a, c) for a, c in op.pairs]
        return sum(np.tensordot(a, x) * c for a, c in pairs)
    if isinstance(op, DenseOperator):
        basis = VecBasis(op.dim)
        return basis.unvec((op.mat.T if adjoint else op.mat) @ basis.vec(x))
    raise TypeError(f"no structured formula for {type(op).__name__}")


def matrix_by_basis_loop(op, adjoint=False):
    """Coordinate matrix of op (or its adjoint): structured_apply on each basis matrix."""
    basis = VecBasis(op.dim)
    return np.column_stack([basis.vec(structured_apply(op, basis.unvec(e), adjoint))
                            for e in np.eye(basis.n)])


def scalar_atom_arrays(p_sets):
    """Pad the atom data of d = 1 sets into rectangular arrays."""
    n_sets = len(p_sets)
    a_m = max((len(p.m.atoms) for p in p_sets), default=0)
    a_mu = max((len(p.mu.atoms) for p in p_sets), default=0)
    m_xi = np.ones((n_sets, max(a_m, 1)))
    m_w = np.zeros((n_sets, max(a_m, 1)))
    mu_xi = np.ones((n_sets, max(a_mu, 1)))
    mu_m = np.zeros((n_sets, max(a_mu, 1)))
    b = np.empty(n_sets)
    bstar = np.empty(n_sets)
    one = np.eye(1)
    for i, p in enumerate(p_sets):
        assert p.dim == 1
        assert not p.m.rays and not p.mu.rays, "scalar oracle handles atoms only"
        b[i] = p.b[0, 0]
        bstar[i] = structured_apply(p.B, one, adjoint=True)[0, 0]
        for j, a in enumerate(p.m.atoms):
            m_xi[i, j] = a.xi[0, 0]
            m_w[i, j] = a.weight
        for j, a in enumerate(p.mu.atoms):
            mu_xi[i, j] = a.xi[0, 0]
            mu_m[i, j] = a.weight[0, 0]
    return b, bstar, (m_xi, m_w, m_xi <= 1.0), (mu_xi, mu_m, mu_xi <= 1.0)


def rk4_scalar_batch(p_sets, u0, T, dt):
    """Fixed-step RK4 for a batch of d = 1 atom-only sets.

    Returns (phi, psi) arrays at time T, one entry per set.  The state is
    carried as one (2, n_sets) array of (phi, psi), and the m and mu atoms
    sit side by side so each stage makes one expm1 call.
    """
    b, bstar, (m_xi, m_w, m_chi), (mu_xi, mu_m, mu_chi) = scalar_atom_arrays(p_sets)
    xi = np.concatenate([m_xi, mu_xi], axis=1)
    chi = np.concatenate([m_chi, mu_chi], axis=1).astype(float)
    # coef[0] weighs the m atoms into F, coef[1] the mu atoms into R
    coef = np.zeros((2,) + xi.shape)
    coef[0, :, :m_xi.shape[1]] = m_w
    coef[1, :, m_xi.shape[1]:] = mu_m / mu_xi ** 2
    lin = np.stack([b, bstar])

    def field(u):
        x = xi * u[:, None]
        return lin * u - (coef * (np.expm1(-x) + chi * x)).sum(axis=2)

    n_steps = int(round(T / dt))
    y = np.zeros((2, len(u0)))
    y[1] = u0
    half = 0.5 * dt
    for _ in range(n_steps):
        k1 = field(y[1])
        k2 = field(y[1] + half * k1[1])
        k3 = field(y[1] + half * k2[1])
        k4 = field(y[1] + dt * k3[1])
        y += dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y[0], y[1]


_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)


def composite_gauss_legendre(panels):
    """Nodes and weights of 8-point Gauss-Legendre on `panels` equal panels of [0, 1]."""
    edges = np.linspace(0.0, 1.0, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return (mid + half * _GL_X).ravel(), (half * _GL_W).ravel()


def moments_by_quadrature(bundle, x, t, v, w):
    """Moments of X_t from the five-term derivative formula, by quadrature.

    With E(s) = e^{s dR0} and g(r) = d2R0(E(r) v, E(r) w):

        dpsi0(t, v)     = E(t) v
        d2psi0(t, v, w) = int_0^t E(t - r) g(r) dr
        mean_v          = int_0^t dF0(E(s) v) ds + <x, E(t) v>
        second          = -int_0^t d2F0(E(s) v, E(s) w) ds
                          - int_0^t dF0(d2psi0(s, v, w)) ds
                          - <x, d2psi0(t, v, w)> + mean_v mean_w

    E(s) goes through the eigenvectors of dR0, which must be well
    conditioned.  The integrands grow at most like e^{3 rho s}, rho the
    spectral radius of dR0, so every integral, the nested one in both
    variables, uses composite 8-point Gauss-Legendre on panels no wider than
    1 / (3 rho).  Returns (mean_v, mean_w, second, dpsi0(t, v), d2psi0(t, v, w)),
    the last two in VecBasis coordinates.
    """
    basis = bundle.basis
    x, v, w = (basis.vec(np.asarray(a, dtype=float)) for a in (x, v, w))
    lam, vr = np.linalg.eig(bundle.dR0_mat)
    assert np.linalg.cond(vr) < 1e4, "the oracle needs a well-conditioned eigenbasis of dR0"
    vinv_t, vr_t = np.linalg.inv(vr).T, vr.T

    def prop(s, y):
        """E(s) y for times s (...) and vectors y (..., n)."""
        return np.real((np.exp(np.asarray(s)[..., None] * lam) * (y @ vinv_t)) @ vr_t)

    def d2r(y, z):
        a = bundle.d2r_a.T
        return -((y @ a) * (z @ a) * bundle.d2r_coefs) @ bundle.d2r_w

    def d2f(y, z):
        a = bundle.d2f_a.T
        return -((y @ a) * (z @ a)) @ bundle.d2f_coefs

    nodes, weights = composite_gauss_legendre(int(np.ceil(3.0 * np.abs(lam).max() * t)) + 1)

    def d2psi(tau):
        """d2psi0(tau_i, v, w) for the times tau (S,) as rows (S, n)."""
        r = tau[:, None] * nodes
        g = d2r(prop(r, v), prop(r, w))
        return np.einsum("su,sun->sn", tau[:, None] * weights, prop(tau[:, None] - r, g))

    s, ws = t * nodes, t * weights
    ev, ew = prop(s, v), prop(s, w)
    df0 = bundle.dF0_vec
    mean_v = ws @ (ev @ df0) + x @ prop(t, v)
    mean_w = ws @ (ew @ df0) + x @ prop(t, w)
    d2psi_t = d2psi(np.array([t]))[0]
    second = -(ws @ d2f(ev, ew)) - ws @ (d2psi(s) @ df0) - x @ d2psi_t + mean_v * mean_w
    return mean_v, mean_w, second, prop(t, v), d2psi_t
