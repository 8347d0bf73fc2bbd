"""Independent brute-force oracles used by the tests.

The scalar fixed-step RK4 oracle rebuilds F and R directly from the raw
atom data of a d = 1 parameter set (no code shared with the production
right-hand side) and integrates with the classic fourth-order scheme.  It
is vectorized across parameter sets so a dt = 1e-5 run over a batch stays
fast.
"""

import numpy as np


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
        bstar[i] = p.B.apply_adjoint(one)[0, 0]
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
