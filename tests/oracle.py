"""Independent brute-force oracles used by the tests.

The fixed-step RK4 oracle integrates an autonomous field with the classic
fourth-order scheme and no step control, a reference for the solver's
step controller.  Its scalar batch rebuilds F and R directly from the raw
atom data of d = 1 parameter sets (no code shared with the production
right-hand side), vectorized across the sets so a dt = 1e-5 run over a
batch stays fast.

The moment oracle evaluates the derivative formulas for the first and
second moments (derivatives of the Laplace transform at u = 0) by
composite Gauss-Legendre quadrature, without the polynomial generator that
the production code exponentiates.

The per-kind sums rebuild what the package derives from its jumps (the
measure helpers, the Riccati field, the simulator's jump table and the
second-derivative tables of the moments) from the raw atoms and rays of
each measure, with each kind's own rule: an m atom weighs w, a mu atom
weighs its operator weight over ||xi||^2.

The operator oracle applies each linear-operator kind by its defining
formula (beta x + x beta^T, sum g x g^T, sum <A, x> C) and assembles the
coordinate matrix column by column from the n basis matrices, the way the
package did before it built the matrices in closed form.

The measure integrals integrate a function of the jump against m, mu or
mu/||xi||^2 over a region of jump norms: atoms exactly, rays by the
package's adaptive radial quadrature.

The growth rate of ||psi|| is ||B|| + 2 ||mu total mass||, and the
Lipschitz bound of the truncated field R_k is the paper's constant
||B|| + 2k ||mu total mass||.
"""

import math
from collections import namedtuple

import numpy as np

from affinehs.params import OperatorJumpMeasure, radial_quad
from affinehs.riccati import ray_rule
from affinehs.symcone import (
    CongruenceSum,
    DenseOperator,
    LyapunovOperator,
    OperatorSum,
    RankOneSum,
    VecBasis,
    ZeroOperator,
    frob_norm,
    operator_norm,
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
    a_m = max((len(atoms(p.m)) for p in p_sets), default=0)
    a_mu = max((len(atoms(p.mu)) for p in p_sets), default=0)
    m_xi = np.ones((n_sets, max(a_m, 1)))
    m_w = np.zeros((n_sets, max(a_m, 1)))
    mu_xi = np.ones((n_sets, max(a_mu, 1)))
    mu_m = np.zeros((n_sets, max(a_mu, 1)))
    b = np.empty(n_sets)
    bstar = np.empty(n_sets)
    one = np.eye(1)
    for i, p in enumerate(p_sets):
        assert p.dim == 1
        assert not rays(p.m) and not rays(p.mu), "scalar oracle handles atoms only"
        b[i] = p.b[0, 0]
        bstar[i] = structured_apply(p.B, one, adjoint=True)[0, 0]
        for j, a in enumerate(atoms(p.m)):
            m_xi[i, j] = a.xi[0, 0]
            m_w[i, j] = a.weight
        for j, a in enumerate(atoms(p.mu)):
            mu_xi[i, j] = a.xi[0, 0]
            mu_m[i, j] = a.weight[0, 0]
    return b, bstar, (m_xi, m_w, m_xi <= 1.0), (mu_xi, mu_m, mu_xi <= 1.0)


def rk4(field, y0, T, n_steps):
    """y(T) for y' = field(y), y(0) = y0, by n_steps classic RK4 steps."""
    y = np.array(y0, dtype=float)
    h = T / n_steps
    for _ in range(n_steps):
        k1 = field(y)
        k2 = field(y + 0.5 * h * k1)
        k3 = field(y + 0.5 * h * k2)
        k4 = field(y + h * k3)
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


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
    # the compensator sum of coef chi xi psi is linear in psi, so it is
    # folded into the linear part once; a field call is then six array
    # operations: lin psi - sum of coef expm1(-xi psi)
    lin = np.stack([b, bstar]) - (coef * (chi * xi)).sum(axis=2)
    neg_xi = -xi

    def field(y):
        return lin * y[1] - (coef * np.expm1(neg_xi * y[1][:, None])).sum(axis=2)

    y0 = np.zeros((2, len(u0)))
    y0[1] = u0
    return tuple(rk4(field, y0, T, int(round(T / dt))))


_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)


def composite_gauss_legendre(panels):
    """Nodes and weights of 8-point Gauss-Legendre on `panels` equal panels of [0, 1]."""
    edges = np.linspace(0.0, 1.0, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return (mid + half * _GL_X).ravel(), (half * _GL_W).ravel()


def moments_by_quadrature(p_set, xs, t, v, w):
    """Moments of X_t from the five-term derivative formula, by quadrature.

    With E(s) = e^{s dR0} and g(r) = d2R0(E(r) v, E(r) w):

        dpsi0(t, v)     = E(t) v
        d2psi0(t, v, w) = int_0^t E(t - r) g(r) dr
        mean_v          = int_0^t dF0(E(s) v) ds + <x, E(t) v>
        second          = -int_0^t d2F0(E(s) v, E(s) w) ds
                          - int_0^t dF0(d2psi0(s, v, w)) ds
                          - <x, d2psi0(t, v, w)> + mean_v mean_w

    dR0 = B* + the tail pairs and dF0 = b + the tail first moment come from
    the defining formulas and measure_helpers_by_kind, the second
    derivatives from d2_tables_by_kind.  E(s) goes through the eigenvectors
    of dR0, which must be well conditioned.  The integrands grow at most
    like e^{3 rho s}, rho the spectral radius of dR0, so every integral, the
    nested one in both variables, uses composite 8-point Gauss-Legendre on
    panels no wider than 1 / (3 rho).  The quadrature does not depend on x,
    so one call serves the whole stack xs (X, d, d).  Returns (mean_v,
    mean_w, second), each of shape (X,).
    """
    basis = VecBasis(p_set.dim)
    xs = np.array([basis.vec(np.asarray(x, dtype=float)) for x in xs])
    v, w = (basis.vec(np.asarray(a, dtype=float)) for a in (v, w))
    helpers = measure_helpers_by_kind(p_set)
    tail = helpers["tail_pairs"]   # sum a (x) c, acting as v -> sum <a, v> c
    dr0 = matrix_by_basis_loop(p_set.B, adjoint=True) + np.column_stack(
        [basis.vec(np.tensordot(basis.unvec(e), tail)) for e in np.eye(basis.n)])
    df0 = basis.vec(p_set.b + helpers["tail_first_moment_matrix"])
    lam, vr = np.linalg.eig(dr0)
    assert np.linalg.cond(vr) < 1e4, "the oracle needs a well-conditioned eigenbasis of dR0"
    vinv_t, vr_t = np.linalg.inv(vr).T, vr.T

    def prop(s, y):
        """E(s) y for times s (...) and vectors y (..., n)."""
        return np.real((np.exp(np.asarray(s)[..., None] * lam) * (y @ vinv_t)) @ vr_t)

    (f_coefs, f_a), (r_coefs, r_a, r_w) = d2_tables_by_kind(p_set, basis)

    def d2r(y, z):
        return -((y @ r_a.T) * (z @ r_a.T) * r_coefs) @ r_w

    def d2f(y, z):
        return -((y @ f_a.T) * (z @ f_a.T)) @ f_coefs

    nodes, weights = composite_gauss_legendre(int(np.ceil(3.0 * np.abs(lam).max() * t)) + 1)

    def d2psi(tau):
        """d2psi0(tau_i, v, w) for the times tau (S,) as rows (S, n)."""
        r = tau[:, None] * nodes
        g = d2r(prop(r, v), prop(r, w))
        return np.einsum("su,sun->sn", tau[:, None] * weights, prop(tau[:, None] - r, g))

    s, ws = t * nodes, t * weights
    ev, ew = prop(s, v), prop(s, w)
    mean_v = ws @ (ev @ df0) + xs @ prop(t, v)
    mean_w = ws @ (ew @ df0) + xs @ prop(t, w)
    d2psi_t = d2psi(np.array([t]))[0]
    second = -(ws @ d2f(ev, ew)) - ws @ (d2psi(s) @ df0) - xs @ d2psi_t + mean_v * mean_w
    return mean_v, mean_w, second


def affine_gradient(f, dim):
    """The gradient g of an affine function f(x) = c + <x, g> of symmetric x,
    from f at 0 and at the VecBasis basis matrices (an orthonormal basis)."""
    basis = VecBasis(dim)
    f0 = f(np.zeros((dim, dim)))
    return basis.unvec(np.array([f(basis.unvec(e)) - f0 for e in np.eye(basis.n)]))


def forcing_block(bundle):
    """The jumps' second-moment forcing in the generator: G[:n+1, n+1:] less the drift.

    On the monomial x_i x_j (i <= j, numpy's triu order) the degree <= 1
    part of the generator is the forcing -(d2F0, vec d2R0) on that monomial
    plus the drift dF0_j x_i + dF0_i x_j, with dF0 = G[0, 1:n+1].
    """
    n = bundle.basis.n
    df0 = bundle.G[0, 1: n + 1]
    iu, ju = np.triu_indices(n)
    cols = np.arange(iu.size)
    block = np.array(bundle.G[: n + 1, n + 1:])
    block[1 + iu, cols] -= df0[ju]
    block[1 + ju, cols] -= df0[iu]
    return block


def forcing_by_generator(bundle, v, w):
    """(d2F0(v, w), d2R0(v, w)) read from the generator's forcing block."""
    basis = bundle.basis
    iu, ju = np.triu_indices(basis.n)
    prod = np.outer(basis.vec(v), basis.vec(w))
    row = -(forcing_block(bundle) @ np.where(iu == ju, prod[iu, ju], prod[iu, ju] + prod[ju, iu]))
    return float(row[0]), basis.unvec(row[1:])


Atom = namedtuple("Atom", "xi norm weight")
Ray = namedtuple("Ray", "direction density weight")


def atoms(measure):
    """Each atom as its input data: xi as given, ||xi|| and the weight w (m) or M (mu).

    An m atom's w is the mass of its law; a mu atom's M is its output
    weight, and its law's mass 1/||xi||^2 is not read.
    """
    kernel = isinstance(measure, OperatorJumpMeasure)
    return [Atom(j.xi, frob_norm(j.xi), j.weight if kernel else j.law.c)
            for j in measure.jumps if j.xi is not None]


def rays(measure):
    """Each ray as its input data: direction, density and weight."""
    return [Ray(j.direction, j.law, j.weight) for j in measure.jumps if j.xi is None]


def _moment(ray, p, lo=0.0, hi=math.inf):
    return ray.density.partial_moment(p, lo, hi)


def measure_helpers_by_kind(p_set):
    """The eight measure helpers as sums over the atoms and the rays of each kind.

    The rank-one pair lists are returned as the operators they define,
    sum_k a_k (x) c_k, since atoms and jumps scale their two sides differently.
    """
    m, mu, d = p_set.m, p_set.mu, p_set.dim

    def mat(terms):
        return sum(terms, np.zeros((d, d)))

    def rank_one(pairs):
        return sum((np.multiply.outer(a, c) for a, c in pairs), np.zeros((d,) * 4))

    kernel = [a.weight / a.norm ** 2 for a in atoms(mu)] + [_moment(r, 0) * r.weight for r in rays(mu)]
    return {
        "total_mass": sum(a.weight for a in atoms(m)) + sum(_moment(r, 0) for r in rays(m)),
        "second_moment": sum(a.weight * a.norm ** 2 for a in atoms(m)) + sum(_moment(r, 2) for r in rays(m)),
        "chi_integral": mat([a.weight * a.xi for a in atoms(m) if a.norm <= 1.0]
                            + [_moment(r, 1, 0.0, 1.0) * r.direction for r in rays(m)]),
        "tail_first_moment_matrix": mat([a.weight * a.xi for a in atoms(m) if a.norm > 1.0]
                                        + [_moment(r, 1, 1.0) * r.direction for r in rays(m)]),
        "total_mass_matrix": mat([a.weight for a in atoms(mu)]
                                 + [_moment(r, 2) * r.weight for r in rays(mu)]),
        "kernel_total_matrix": mat(kernel) if all(np.isfinite(k).all() for k in kernel) else None,
        "chi_compensator_pairs": rank_one([(a.weight, a.xi / a.norm ** 2) for a in atoms(mu) if a.norm <= 1.0]
                                          + [(r.weight, _moment(r, 1, 0.0, 1.0) * r.direction)
                                             for r in rays(mu)]),
        "tail_pairs": rank_one([(a.xi, a.weight / a.norm ** 2) for a in atoms(mu) if a.norm > 1.0]
                               + [(r.direction, _moment(r, 1, 1.0) * r.weight) for r in rays(mu)]),
    }


def field_by_kind(p_set, psi):
    """(F(psi), R(psi)): each atom's exact bracket and each ray's ray_rule bracket, by kind.

    Returns the value and the sum of the magnitudes of its terms, the scale
    that rounding errors are relative to.
    """
    m, mu = p_set.m, p_set.mu

    def bracket(x, small):
        return np.expm1(-x) + small * x

    def ray_bracket(ray):
        r, w, small = ray_rule(ray.density)
        return float(w @ bracket(r * np.tensordot(ray.direction, psi), small))

    f_terms = [np.tensordot(p_set.b, psi)]
    f_terms += [-a.weight * bracket(np.tensordot(a.xi, psi), a.norm <= 1.0) for a in atoms(m)]
    f_terms += [-ray_bracket(r) for r in rays(m)]
    r_terms = [structured_apply(p_set.B, psi, adjoint=True)]
    r_terms += [-bracket(np.tensordot(a.xi, psi), a.norm <= 1.0) / a.norm ** 2 * a.weight for a in atoms(mu)]
    r_terms += [-ray_bracket(r) * r.weight for r in rays(mu)]
    return ((sum(f_terms), sum(r_terms)),
            (sum(map(abs, f_terms)), sum(np.abs(t) for t in r_terms)))


def jump_table_by_kind(p_set, basis):
    """(const, rows, sizes) of the simulator's components, by kind.

    Components are the m atoms, m rays, mu atoms and mu rays in that order;
    a component's mass at x is const + rows @ vec x, and its size is the
    atom's location or the ray's direction in VecBasis coordinates.
    """
    m, mu, vec = p_set.m, p_set.mu, basis.vec
    zero = np.zeros(basis.n)
    comps = [(a.weight, zero, vec(a.xi)) for a in atoms(m)]
    comps += [(_moment(r, 0), zero, vec(r.direction)) for r in rays(m)]
    comps += [(0.0, vec(a.weight) / a.norm ** 2, vec(a.xi)) for a in atoms(mu)]
    comps += [(0.0, _moment(r, 0) * vec(r.weight), vec(r.direction)) for r in rays(mu)]
    const, rows, sizes = zip(*comps) if comps else ((), (), ())
    return (np.array(const), np.array(rows).reshape(len(comps), basis.n),
            np.array(sizes).reshape(len(comps), basis.n))


def d2_tables_by_kind(p_set, basis):
    """((coefs, a) of d2F0, (coefs, a, w) of d2R0) from the atoms and rays.

    d2F0(v, w) = -sum coefs <A, v> <A, w> over the m atoms (coefficient w,
    A = xi) and rays (second moment, A = direction); d2R0 likewise over the
    mu atoms (1 / ||xi||^2) and rays, times the output weight.
    """
    m, mu, vec, n = p_set.m, p_set.mu, basis.vec, basis.n
    f_coefs = [a.weight for a in atoms(m)] + [_moment(r, 2) for r in rays(m)]
    f_a = [vec(a.xi) for a in atoms(m)] + [vec(r.direction) for r in rays(m)]
    r_coefs = [1.0 / a.norm ** 2 for a in atoms(mu)] + [_moment(r, 2) for r in rays(mu)]
    r_a = [vec(a.xi) for a in atoms(mu)] + [vec(r.direction) for r in rays(mu)]
    r_w = [vec(a.weight) for a in atoms(mu)] + [vec(r.weight) for r in rays(mu)]
    return ((np.array(f_coefs), np.reshape(f_a, (len(f_a), n))),
            (np.array(r_coefs), np.reshape(r_a, (len(r_a), n)), np.reshape(r_w, (len(r_w), n))))


# ---------------------------------------------------------------------------
# integration against the measures
# ---------------------------------------------------------------------------

ALL = ("all", 0.0)


def norm_gt(c):
    return ("gt", float(c))


def norm_leq(c):
    return ("leq", float(c))


def _region_bounds(region):
    kind, c = region
    if kind == "all":
        return 0.0, math.inf
    if kind == "gt":
        return c, math.inf
    if kind == "leq":
        return 0.0, c
    raise ValueError(f"unknown region {region!r}")


def _atom_in_region(norm, region):
    kind, c = region
    if kind == "all":
        return True
    return norm > c if kind == "gt" else norm <= c


def integrate_scalar(m, f, region=ALL):
    """integral of f(xi) m(dxi) over the region, atoms exactly, rays by quadrature."""
    lo, hi = _region_bounds(region)
    total = sum(a.weight * f(a.xi) for a in atoms(m) if _atom_in_region(a.norm, region))
    for j, r in enumerate(rays(m)):
        d_mat = r.direction
        total += radial_quad(r.density, lambda s: f(s * d_mat), lo, hi, ray_index=j)
    return float(total)


def integrate_operator(mu, f, region=ALL):
    """integral of f(xi) mu(dxi) over the region; returns a symmetric matrix."""
    lo, hi = _region_bounds(region)
    out = np.zeros((mu.dim, mu.dim))
    for a in atoms(mu):
        if _atom_in_region(a.norm, region):
            out += f(a.xi) * a.weight
    for j, r in enumerate(rays(mu)):
        d_mat = r.direction
        val = radial_quad(r.density, lambda s: f(s * d_mat) * s * s, lo, hi, ray_index=j)
        out += val * r.weight
    return out


def integrate_kernel(mu, f, region=ALL):
    """integral of f(xi) mu(dxi)/||xi||^2 over the region."""
    lo, hi = _region_bounds(region)
    out = np.zeros((mu.dim, mu.dim))
    for a in atoms(mu):
        if _atom_in_region(a.norm, region):
            out += f(a.xi) * a.weight / a.norm ** 2
    for j, r in enumerate(rays(mu)):
        d_mat = r.direction
        val = radial_quad(r.density, lambda s: f(s * d_mat), lo, hi, ray_index=j)
        out += val * r.weight
    return out


def growth_rate(p_set):
    """Exponential growth rate of ||psi||: ||B|| + 2 ||mu total mass||."""
    return operator_norm(p_set.B) + 2.0 * frob_norm(p_set.mu.total_mass_matrix())


def truncated_lipschitz_bound(p_set, k):
    """Lipschitz constant of the level-k field R_k: ||B|| + 2k ||mu total mass||."""
    return operator_norm(p_set.B) + 2.0 * k * frob_norm(p_set.mu.total_mass_matrix())
