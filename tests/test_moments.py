import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from oracle import (
    affine_gradient,
    forcing_block,
    forcing_by_generator,
    integrate_kernel,
    integrate_scalar,
    moments_by_quadrature,
    norm_gt,
)
from strategies import admissible_cases

from affinehs import library
from affinehs.exceptions import OperatorExpError
from affinehs.moments import (
    derivative_bundle,
    generator_exp,
    laplace,
    mean,
    second_moment,
)
from affinehs.params import (
    OperatorJumpMeasure,
    ParameterSet,
    ScalarJumpMeasure,
    atom,
    build_admissible,
    truncate,
)
from affinehs.riccati import solve_cascade, solve_riccati
from affinehs.symcone import (
    LyapunovOperator,
    VecBasis,
    frob_norm,
    inner,
    min_eigenvalue,
    random_psd,
)

E11 = np.array([[1.0, 0.0], [0.0, 0.0]])
E22 = np.array([[0.0, 0.0], [0.0, 1.0]])


@pytest.fixture(scope="module")
def mc_truncated():
    s = library.get("mc2-01")
    return truncate(s.params, 4), s.x0, s.u


# ---------------------------------------------------------------------------
# the generator's blocks: dF0 = G[0, 1:n+1], dR0 = G[1:n+1, 1:n+1], and the
# jumps' second-moment forcing in G[:n+1, n+1:]
# ---------------------------------------------------------------------------

def dr0_apply(bundle, v):
    n = bundle.basis.n
    return bundle.basis.unvec(bundle.G[1: n + 1, 1: n + 1] @ bundle.basis.vec(v))


def df0_matrix(bundle):
    return bundle.basis.unvec(bundle.G[0, 1: bundle.basis.n + 1])


def mean_gradient(p, t, v):
    """dpsi0(t, v) = e^{t dR0} v: the x-gradient of the mean."""
    return affine_gradient(lambda x: mean(p, x, t, v), p.dim)


def test_bundle_empty_measures(empty_p2, rng):
    bundle = derivative_bundle(empty_p2)
    v = random_psd(rng, 2)
    np.testing.assert_allclose(dr0_apply(bundle, v), empty_p2.B.apply_adjoint(v),
                               rtol=1e-13, atol=1e-14)
    np.testing.assert_allclose(df0_matrix(bundle), empty_p2.b)
    np.testing.assert_allclose(forcing_block(bundle), 0.0, rtol=0, atol=0)


def test_bundle_small_atom():
    # one mu atom inside the ball: no tail, but a second derivative
    xi = 0.5 * E11
    mu = OperatorJumpMeasure(2, (atom(xi, E22),))
    p = ParameterSet(2, np.eye(2), LyapunovOperator(-np.eye(2)),
                     ScalarJumpMeasure(2), mu)
    bundle = derivative_bundle(p)
    v = np.array([[2.0, 0.3], [0.3, 1.0]])
    w = np.array([[1.0, -0.2], [-0.2, 3.0]])
    np.testing.assert_allclose(dr0_apply(bundle, v), p.B.apply_adjoint(v), rtol=1e-13, atol=1e-14)
    expected = -inner(xi, v) * inner(xi, w) * E22 / inner(xi, xi)
    d2f_vw, d2r_vw = forcing_by_generator(bundle, v, w)
    d2f_wv, d2r_wv = forcing_by_generator(bundle, w, v)
    np.testing.assert_allclose(d2r_vw, expected, rtol=1e-13, atol=1e-15)
    assert d2f_vw == 0.0
    np.testing.assert_allclose(d2r_vw, d2r_wv, rtol=0, atol=0)


def test_bundle_tail_matches_quadrature(bench, rng):
    for s in bench[12:17]:
        p = s.params
        bundle = derivative_bundle(p)
        for _ in range(3):
            v = random_psd(rng, p.dim)
            tail = integrate_kernel(p.mu, lambda x: inner(x, v), norm_gt(1.0))
            got = dr0_apply(bundle, v) - p.B.apply_adjoint(v)
            np.testing.assert_allclose(got, tail, rtol=1e-7, atol=1e-10)
            # norm estimate: the tail is bounded by the total kernel mass
            assert frob_norm(got) <= frob_norm(p.mu.total_mass_matrix()) * frob_norm(v) * (1 + 1e-9)
            df_tail = integrate_scalar(p.m, lambda x: inner(x, v), norm_gt(1.0))
            assert inner(df0_matrix(bundle) - p.b, v) == pytest.approx(df_tail, rel=1e-7, abs=1e-10)


def test_d2_closed_forms_match_quadrature(bench, rng):
    # the forcing comes from closed-form radial moments; the adaptive
    # quadrature against the raw measures is the independent route
    for s in (library.get("mc2-00"), library.get("cascade-00")):
        p = s.params
        bundle = derivative_bundle(p)
        for _ in range(3):
            v = random_psd(rng, p.dim)
            w = random_psd(rng, p.dim)
            d2f, d2r = forcing_by_generator(bundle, v, w)
            ref_f = -integrate_scalar(p.m, lambda x: inner(x, v) * inner(x, w))
            assert d2f == pytest.approx(ref_f, rel=1e-7, abs=1e-10)
            ref_r = -integrate_kernel(p.mu, lambda x: inner(x, v) * inner(x, w))
            np.testing.assert_allclose(d2r, ref_r, rtol=1e-7, atol=1e-10)


def test_d2_signs(bench, rng):
    for s in bench[:8]:
        bundle = derivative_bundle(s.params)
        for _ in range(5):
            v = random_psd(rng, s.params.dim)
            d2f, d2r = forcing_by_generator(bundle, v, v)
            assert -d2f >= 0.0
            assert min_eigenvalue(-d2r) >= -1e-12


# ---------------------------------------------------------------------------
# variational solutions, read off the moments: dpsi0(t, v) is the x-gradient
# of the mean, and d2psi0(t, v, w) minus that of the covariance
# ---------------------------------------------------------------------------

def test_dpsi0_examples(mc_truncated, rng):
    p, _, _ = mc_truncated
    v = random_psd(rng, 2)
    np.testing.assert_allclose(mean_gradient(p, 0.0, v), v, rtol=0, atol=1e-14)
    assert min_eigenvalue(mean_gradient(p, 1.0, v)) >= -1e-9
    # pure Lyapunov: closed form
    import scipy.linalg
    beta = -0.3 * np.eye(2) + 0.2 * rng.standard_normal((2, 2))
    p_lin = build_admissible(2, beta=beta, b_extra=np.eye(2))
    e_mat = scipy.linalg.expm(0.8 * beta)
    np.testing.assert_allclose(mean_gradient(p_lin, 0.8, v), e_mat.T @ v @ e_mat,
                               rtol=1e-10, atol=1e-12)


def test_dpsi0_first_order_against_solver(mc_truncated):
    p, _, _ = mc_truncated
    v = 0.4 * np.eye(2) + 0.2 * np.ones((2, 2))
    ref = mean_gradient(p, 1.0, v)
    errs = []
    for theta in (1e-2, 1e-3, 1e-4):
        sol = solve_riccati(p, theta * v, 1.0, t_eval=(0.0, 1.0))
        errs.append(frob_norm(sol.psi_final / theta - ref))
    slope = np.polyfit(np.log([1e-2, 1e-3, 1e-4]), np.log(errs), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.2)


def test_d2psi0_basics(mc_truncated, rng):
    # d2psi0 is 0 at t = 0 and symmetric in (v, w); on a set without jumps the
    # forcing is exactly 0 (test_bundle_empty_measures)
    p, x, _ = mc_truncated
    v = random_psd(rng, 2)
    w = random_psd(rng, 2)
    assert second_moment(p, x, 0.0, v, w) == pytest.approx(inner(x, v) * inner(x, w), rel=1e-13)
    assert second_moment(p, x, 0.7, v, w) == second_moment(p, x, 0.7, w, v)


def test_variational_ode_residual(mc_truncated, rng):
    # d/dt dpsi0 = dR0(dpsi0), checked by central differences
    p, _, _ = mc_truncated
    bundle = derivative_bundle(p)
    v = random_psd(rng, 2)
    t, h = 0.6, 1e-5
    lhs = (mean_gradient(p, t + h, v) - mean_gradient(p, t - h, v)) / (2 * h)
    rhs = dr0_apply(bundle, mean_gradient(p, t, v))
    assert frob_norm(lhs - rhs) <= 1e-6 * max(1.0, frob_norm(rhs))


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_mean_examples(pure_drift_p1):
    # no drift operator, no jumps: <x,v> + t <b,v>
    x = np.array([[2.0]])
    v = np.array([[1.5]])
    assert mean(pure_drift_p1, x, 2.0, v) == pytest.approx(
        inner(x, v) + 2.0 * inner(pure_drift_p1.b, v), rel=1e-10)
    assert mean(pure_drift_p1, x, 0.0, v) == pytest.approx(inner(x, v))


def test_mean_scalar_closed_form():
    # d = 1, B = -1 (multiplication), b = 1, no jumps:
    # E[<X_t, v>] = v (1 - e^{-t}) + x v e^{-t}
    from affinehs.symcone import DenseOperator
    p = ParameterSet(1, np.array([[1.0]]), DenseOperator(1, np.array([[-1.0]])),
                     ScalarJumpMeasure(1), OperatorJumpMeasure(1))
    got = mean(p, np.array([[2.0]]), 1.0, np.array([[1.0]]))
    assert got == pytest.approx((1.0 - math.exp(-1.0)) + 2.0 * math.exp(-1.0), rel=1e-9)


def test_mean_invariant_under_truncation(bench):
    # the first moment does not depend on the truncation level
    s = library.get("cascade-00")
    v = np.eye(s.params.dim)
    m_full = mean(s.params, s.x0, 1.0, v)
    for k in (2, 8, 32):
        assert mean(truncate(s.params, k), s.x0, 1.0, v) == pytest.approx(m_full, rel=1e-9)


def test_second_moment_examples(empty_p2, rng):
    x = random_psd(rng, 2)
    v = random_psd(rng, 2)
    w = random_psd(rng, 2)
    # no jumps: deterministic, so second moment factorizes
    sm = second_moment(empty_p2, x, 1.0, v, w)
    assert sm == pytest.approx(mean(empty_p2, x, 1.0, v) * mean(empty_p2, x, 1.0, w), rel=1e-9)
    assert second_moment(empty_p2, x, 0.0, v, w) == pytest.approx(inner(x, v) * inner(x, w))


def test_variance_nonnegative(bench):
    for s in bench[:10]:
        p = s.params if s.params.is_finite_activity else truncate(s.params, 8)
        v = np.eye(p.dim)
        sm = second_moment(p, s.x0, 1.0, v)
        mv = mean(p, s.x0, 1.0, v)
        assert sm - mv * mv >= -1e-8


def test_laplace_examples(mc_truncated):
    p, x, u = mc_truncated
    assert laplace(p, x, 0.0, u) == pytest.approx(math.exp(-inner(x, u)), rel=1e-14)
    assert laplace(p, x, 1.0, np.zeros((2, 2))) == pytest.approx(1.0, abs=1e-12)
    val = laplace(p, x, 1.0, u)
    assert 0.0 < val <= 1.0
    # monotone nonincreasing along rays in u
    vals = [laplace(p, x, 1.0, theta * u) for theta in (0.5, 1.0, 2.0)]
    assert vals[0] >= vals[1] >= vals[2]


def test_laplace_solves_infinite_activity_directly():
    s = library.get("cascade-02")
    val = laplace(s.params, s.x0, 0.5, s.u)
    sol = solve_riccati(s.params, s.u, 0.5, t_eval=(0.0, 0.5))
    assert val == math.exp(-sol.phi_final - inner(s.x0, sol.psi_final))
    # the cascade's k = 64 level lies above the limit in the Loewner order
    sol64, diag = solve_cascade(s.params, s.u, 0.5, t_eval=(0.0, 0.5))
    assert val >= math.exp(-sol64.phi_final - inner(s.x0, sol64.psi_final))
    gap = sol64.psi_final - sol.psi_final
    assert min_eigenvalue(gap) >= -1e-9
    assert frob_norm(gap) <= 2.0 * diag.final_residual


def test_generator_exp(mc_truncated, empty_p2, rng):
    p, x, u = mc_truncated
    assert generator_exp(p, np.zeros((2, 2)), x) == 0.0
    # no jumps: (-<b,u> - <x, B*(u)>) e^{-<x,u>}
    u2 = random_psd(rng, 2)
    x2 = random_psd(rng, 2)
    expected = (-inner(empty_p2.b, u2) - inner(x2, empty_p2.B.apply_adjoint(u2))) \
        * math.exp(-inner(x2, u2))
    assert generator_exp(empty_p2, u2, x2) == pytest.approx(expected, rel=1e-12)
    # finite-difference slope of the Laplace transform at t = 0
    g = generator_exp(p, u, x)
    hs = (1e-2, 1e-3, 1e-4)
    errs = [abs((laplace(p, x, h, u) - math.exp(-inner(x, u))) / h - g) for h in hs]
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.2)


def generator_linear(p_set, v, x):
    """The generator applied to <., v> at x: dF0(v) + <x, dR0 v>."""
    bundle = derivative_bundle(p_set)
    return inner(df0_matrix(bundle), v) + inner(x, dr0_apply(bundle, v))


def test_generator_linear(mc_truncated, rng):
    p, x, _ = mc_truncated
    v = random_psd(rng, 2)
    # x = 0 and empty m: <b, v>
    p0 = build_admissible(2, beta=-np.eye(2), b_extra=np.eye(2))
    assert generator_linear(p0, v, np.zeros((2, 2))) == pytest.approx(inner(p0.b, v), rel=1e-12)
    # all jumps below norm 1: <b + B(x), v>
    mu = OperatorJumpMeasure(2, (atom(0.5 * E11, E22),))
    p_small = build_admissible(2, beta=-np.eye(2), mu=mu, b_extra=np.eye(2))
    x2 = random_psd(rng, 2)
    assert generator_linear(p_small, v, x2) == pytest.approx(
        inner(p_small.b + p_small.B.apply(x2), v), rel=1e-11)
    # the generator is d/dt of the mean at t = 0
    g = generator_linear(p, v, x)
    hs = (1e-2, 1e-3, 1e-4)
    errs = [abs((mean(p, x, h, v) - inner(x, v)) / h - g) for h in hs]
    assert errs[2] < errs[0]
    assert errs[2] <= 1e-3 * max(1.0, abs(g))


def test_moments_overflow_raises_operator_exp_error():
    # e^{tG} is not finite: the error names t and ||G||
    p = build_admissible(2, beta=20.0 * np.eye(2), b_extra=np.eye(2))
    x = v = np.eye(2)
    with pytest.raises(OperatorExpError, match=r"t=50\b.*\|\|L\|\|="):
        mean(p, x, 50.0, v)
    with pytest.raises(OperatorExpError, match=r"t=50\b"):
        second_moment(p, x, 50.0, v)


def test_moments_reject_negative_t(mc_truncated):
    # e^{tG} from the factors of G is finite at t < 0 too, so t is checked first
    p, x, u = mc_truncated
    with pytest.raises(ValueError):
        mean(p, x, -0.5, u)
    with pytest.raises(ValueError):
        second_moment(p, x, -0.5, u)


# ---------------------------------------------------------------------------
# e^{tG} c from the factors of G against scipy's dense expm
# ---------------------------------------------------------------------------

def assert_factored_matches_expm(p, rng, rel=1e-10):
    """bundle.exp.dot(t, c) against scipy.linalg.expm(t G) @ c in the max-norm,
    for a polynomial of degree <= 1 (what mean transports) and a random one
    of degree <= 2."""
    bundle = derivative_bundle(p)
    size, n = len(bundle.G), bundle.basis.n
    lin = np.zeros(size)
    lin[1: n + 1] = rng.standard_normal(n)
    for t in (0.1, 1.0, 2.0):
        e_mat = scipy.linalg.expm(t * bundle.G)
        for c in (lin, rng.standard_normal(size)):
            ref = e_mat @ c
            err = np.abs(bundle.exp.dot(t, c) - ref).max()
            assert err <= rel * np.abs(ref).max(), (t, err)


def test_factored_exponential_matches_expm_on_library_sets(bench, rng):
    for s in bench:
        for p in (s.params, truncate(s.params, 4)):
            assert derivative_bundle(p).exp.use_eig
            assert_factored_matches_expm(p, rng)


@settings(derandomize=True, max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(admissible_cases())
def test_factored_exponential_matches_expm_on_random_admissible_sets(case):
    assert_factored_matches_expm(case[0], np.random.default_rng(0))


def test_defective_generator_takes_the_dense_route(rng):
    # B = 0 and no operator jumps: G lowers the degree of every monomial, so
    # it is nilpotent and has no eigenbasis
    xi = np.array([[0.8, 0.1], [0.1, 0.6]])
    m = ScalarJumpMeasure(2, (atom(1.5 * xi / frob_norm(xi), 0.7), atom(0.5 * E11, 0.4)))
    p = build_admissible(2, m=m, b_extra=np.eye(2))
    bundle = derivative_bundle(p)
    assert np.count_nonzero(np.linalg.matrix_power(bundle.G, 3)) == 0
    assert np.count_nonzero(bundle.G[0, bundle.basis.n + 1:]) > 0   # the jumps' forcing
    assert not bundle.exp.use_eig
    for t in (0.25, 1.0, 2.0):
        assert_matches_oracle(p, random_psd(rng, 2), t, random_psd(rng, 2), random_psd(rng, 2))


# ---------------------------------------------------------------------------
# generator route against the quadrature of the derivative formulas
# ---------------------------------------------------------------------------

def assert_matches_oracle(p, x, t, v, w, rel=1e-9):
    """mean and second_moment against the quadrature oracle at x and at each
    basis matrix, which pins the x-gradients dpsi0 and d2psi0 as well."""
    basis = VecBasis(p.dim)
    xs = [x] + [basis.unvec(e) for e in np.eye(basis.n)]
    ref = moments_by_quadrature(p, xs, t, v, w)
    got = ([mean(p, y, t, v) for y in xs], [mean(p, y, t, w) for y in xs],
           [second_moment(p, y, t, v, w) for y in xs])
    for name, a, b in zip(("mean_v", "mean_w", "second"), got, ref):
        err = np.linalg.norm(np.asarray(a) - b)
        assert err <= rel * np.linalg.norm(b), (name, t, err, np.linalg.norm(b))


def test_generator_route_matches_quadrature_oracle(bench, rng):
    for s in bench:
        p = truncate(s.params, 4)
        w = random_psd(rng, p.dim)
        for t in (0.25, 1.0, 2.0):
            assert_matches_oracle(p, s.x0, t, s.u, w)


@settings(derandomize=True, max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(admissible_cases())
def test_generator_route_on_random_admissible_sets(case):
    p, x, u, w, t = case
    assert_matches_oracle(p, x, t, u, w)
    mv = mean(p, x, t, u)
    assert second_moment(p, x, t, u) - mv * mv >= -1e-12 * (1.0 + mv * mv)
    # Jensen's bound and the quadratic bound, on the set and on its
    # finite-activity truncation
    for q in (p, truncate(p, 4)):
        mv, sm = mean(q, x, t, u), second_moment(q, x, t, u)
        lap = laplace(q, x, t, u)
        assert math.exp(-mv) <= lap * (1.0 + 1e-7)
        assert lap <= 1.0 - mv + 0.5 * sm + 1e-7
