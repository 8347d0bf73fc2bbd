import io
import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import HealthCheck, given, settings

from affinehs import library, riccati
from affinehs.exceptions import RiccatiSolverError
from affinehs.params import (
    ExponentialDensity,
    OperatorJumpMeasure,
    ParameterSet,
    PowerLawDensity,
    ScalarJumpMeasure,
    atom,
    build_admissible,
    orthogonal_psd_pair,
    radial_quad,
    ray,
    truncate,
    truncation_cut,
)
from affinehs.riccati import (
    _Field,
    _solve_levels,
    eval_F,
    eval_R,
    ray_rule,
    solution_to_csv,
    solve_cascade,
    solve_riccati,
)
from affinehs.symcone import ZeroOperator, frob_norm, inner, min_eigenvalue, random_psd

from oracle import field_by_kind, growth_rate, rk4, rk4_scalar_batch, truncated_lipschitz_bound
from strategies import admissible_cases


def level_solutions(p_set, u, T, ks, t_eval):
    """One RiccatiSolution per level of a stacked solve, in the order of ks."""
    levels = _solve_levels(p_set, u, T, ks, t_eval)
    return [levels.solution(i) for i in range(len(ks))]


def unit_dir(d=2):
    a = np.eye(d) + 0.2 * np.ones((d, d))
    return a / frob_norm(a)


# ---------------------------------------------------------------------------
# F and R evaluation
# ---------------------------------------------------------------------------

def test_eval_f_examples(atom_p1, bench):
    for s in bench[:6]:
        assert eval_F(s.params, np.zeros((s.params.dim,) * 2)) == 0.0
    # empty m: F(u) = <b, u>
    p = build_admissible(2, beta=-np.eye(2), b_extra=np.eye(2))
    u = 0.5 * np.eye(2)
    assert eval_F(p, u) == pytest.approx(inner(p.b, u), rel=1e-14)
    # one atom at xi = 2 with weight 1, u = 0.5, b = 0
    from affinehs.params import ParameterSet
    from affinehs.symcone import ZeroOperator
    m = ScalarJumpMeasure(1, (atom(np.array([[2.0]]), 1.0),))
    p1 = ParameterSet(1, np.zeros((1, 1)), ZeroOperator(1), m, OperatorJumpMeasure(1))
    assert eval_F(p1, np.array([[0.5]])) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)


def test_eval_r_examples(atom_p1):
    p = atom_p1
    np.testing.assert_allclose(eval_R(p, np.zeros((1, 1))), np.zeros((1, 1)), atol=0.0)
    # empty mu: R = B*
    p2 = build_admissible(2, beta=-np.eye(2), b_extra=np.eye(2))
    u = random_psd(np.random.default_rng(0), 2)
    np.testing.assert_allclose(eval_R(p2, u), p2.B.apply_adjoint(u), rtol=1e-14)
    # one mu atom at xi = 2 with M = 1, B = 0, u = 0.5: (1 - e^{-1})/4
    from affinehs.params import ParameterSet
    from affinehs.symcone import ZeroOperator
    mu = OperatorJumpMeasure(1, (atom(np.array([[2.0]]), np.array([[1.0]])),))
    p3 = ParameterSet(1, np.zeros((1, 1)), ZeroOperator(1), ScalarJumpMeasure(1), mu)
    got = eval_R(p3, np.array([[0.5]]))
    assert got[0, 0] == pytest.approx((1.0 - math.exp(-1.0)) / 4.0, rel=1e-14)


def test_eval_quadratic_growth_bounds(bench, rng):
    for s in bench[:8]:
        p = s.params
        f_cap = frob_norm(p.b) + p.m.second_moment()
        r_cap = frob_norm(p.B.mat) + frob_norm(p.mu.total_mass_matrix())
        for _ in range(5):
            u = random_psd(rng, p.dim, scale=2.0)
            assert abs(eval_F(p, u)) <= f_cap * (1.0 + frob_norm(u) ** 2) * (1 + 1e-9)
            assert frob_norm(eval_R(p, u)) <= r_cap * (1.0 + frob_norm(u) ** 2) * (1 + 1e-9)


def test_eval_k_truncations(atom_p1, rng):
    p = atom_p1  # all atoms at norm 2 > 1/k for any k: truncation changes nothing
    u = np.array([[0.8]])
    assert eval_F(truncate(p, 3), u) == eval_F(p, u)
    np.testing.assert_array_equal(eval_R(truncate(p, 3), u), eval_R(p, u))
    assert eval_F(truncate(p, 5), np.zeros((1, 1))) == 0.0

    # Lipschitz diagnostic on the truncated field
    k = 4
    p_k = truncate(p, k)
    bound = truncated_lipschitz_bound(p, k)
    for _ in range(20):
        u1 = random_psd(rng, 1, scale=2.0)
        u2 = random_psd(rng, 1, scale=2.0)
        gap = frob_norm(eval_R(p_k, u1) - eval_R(p_k, u2))
        assert gap <= bound * frob_norm(u1 - u2) * (1 + 1e-9) + 1e-12


def test_rk_to_r_tail_bound(rng):
    # || R_k(u) - R(u) || <= || mu({||xi|| <= 1/k}) || * ||u||^2 for ray measures
    weight = np.array([[0.5, 0.1], [0.1, 0.4]])
    mu = OperatorJumpMeasure(2, (ray(unit_dir(), PowerLawDensity(0.7, 0.5, 0.0, 1.0), weight),))
    p = build_admissible(2, beta=-np.eye(2), mu=mu, b_extra=np.eye(2))
    for k in (2, 4, 16):
        tail = p.mu.restricted(0.0, 1.0 / k).total_mass_matrix()
        for _ in range(5):
            u = random_psd(rng, 2)
            gap = frob_norm(eval_R(truncate(p, k), u) - eval_R(p, u))
            assert gap <= frob_norm(tail) * frob_norm(u) ** 2 * (1 + 1e-6) + 1e-12


# ---------------------------------------------------------------------------
# ray quadrature rules
# ---------------------------------------------------------------------------

SLOPES = np.geomspace(1e-4, 4.0, 42)


def rule_bracket(density, slopes):
    """integral of (e^{-s r} - 1 + s r 1{r <= 1}) density(r) dr by the ray's rule."""
    r, w, small = ray_rule(density)
    x = np.outer(slopes, r)
    return (np.expm1(-x) + small * x) @ w


def exp_bracket_closed_form(den, s):
    """The exponential ray's bracket in closed form, evaluated at 30 digits."""
    c, lam, s = mpmath.mpf(den.c), mpmath.mpf(den.lam), mpmath.mpf(s)

    def mass(rate, a, b):  # integral of e^{-rate r} over [a, b]
        return (mpmath.exp(-rate * a) - (0 if b == math.inf else mpmath.exp(-rate * b))) / rate

    def first(a, b):  # integral of r e^{-lam r} over [a, b]
        def prim(r):
            return 0 if r == math.inf else -(r / lam + 1 / lam ** 2) * mpmath.exp(-lam * r)
        return prim(b) - prim(a)

    total = mpmath.mpf(0)
    for a, b, small in ((den.rmin, min(den.rmax, 1.0), True), (max(den.rmin, 1.0), den.rmax, False)):
        if b > a:
            total += c * (mass(lam + s, a, b) - mass(lam, a, b) + (s * first(a, b) if small else 0))
    return float(total)


def power_bracket_series(den, s):
    """Termwise power series of a finite power-law ray's bracket, at 30 digits.

    On [a, b] the term n is (-s)^n c (b^(n-alpha) - a^(n-alpha)) / (n! (n-alpha)),
    summed from n = 2 on the compensated piece r <= 1 and from n = 1 above it.
    """
    c, alpha, s = mpmath.mpf(den.c), mpmath.mpf(den.alpha), mpmath.mpf(s)
    total = mpmath.mpf(0)
    for a, b, n0 in ((den.rmin, min(den.rmax, 1.0), 2), (max(den.rmin, 1.0), den.rmax, 1)):
        if b <= a:
            continue
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        for n in range(n0, 200):
            term = (-s) ** n * c * (b ** (n - alpha) - a ** (n - alpha)) \
                / (mpmath.factorial(n) * (n - alpha))
            total += term
            if abs(term) < mpmath.mpf(10) ** -40 * abs(total):
                break
    return float(total)


def test_ray_rule_exponential_closed_form():
    with mpmath.workdps(30):
        for den in (ExponentialDensity(0.7, 2.3),
                    ExponentialDensity(0.4, 1.0, 1.0 / 64, 1.0),
                    ExponentialDensity(0.9, 3.0, 0.25, 2.5),
                    ExponentialDensity(0.5, 0.3, 1.0 / 8),
                    ExponentialDensity(1.2, 40.0, 0.0, 7.0)):
            got = rule_bracket(den, SLOPES)
            ref = np.array([exp_bracket_closed_form(den, s) for s in SLOPES])
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=0.0, err_msg=str(den))


def test_field_assembles_ray_brackets(rng):
    # F and R of one m ray and one mu ray against the closed form at the
    # slope <direction, u>: checks how the field places the rule's nodes
    from affinehs.symcone import ZeroOperator
    den = ExponentialDensity(0.8, 1.7, 0.0, 3.0)
    direction, weight = unit_dir(), np.array([[0.5, 0.1], [0.1, 0.4]])
    p = ParameterSet(2, np.zeros((2, 2)), ZeroOperator(2),
                     ScalarJumpMeasure(2, (ray(direction, den),)),
                     OperatorJumpMeasure(2, (ray(direction, den, weight),)))
    with mpmath.workdps(30):
        for _ in range(5):
            u = random_psd(rng, 2, scale=2.0)
            bracket = exp_bracket_closed_form(den, inner(direction, u))
            assert eval_F(p, u) == pytest.approx(-bracket, rel=1e-10)
            np.testing.assert_allclose(eval_R(p, u), -bracket * weight, rtol=1e-10)


FOLD_SLOPES = (1.0, 1e-3, 1e-6, 0.0)


def test_folded_compensator_matches_closed_forms_at_small_slopes():
    # the field holds the compensator small_j x_j in its linear part and
    # expm1(-x_j) in its node part; at small slopes they cancel to O(s^2),
    # which the 30-digit closed forms resolve
    direction, weight = unit_dir(), np.array([[0.5, 0.1], [0.1, 0.4]])
    den = ExponentialDensity(0.8, 1.7, 0.25, 3.0)   # rmin < 1 < rmax: both pieces

    def atom_bracket(r0, s):  # expm1(-s r0) + 1{r0 <= 1} s r0
        x = mpmath.mpf(s) * r0
        return float(mpmath.expm1(-x) + (x if r0 <= 1.0 else 0))

    # (m jump, mu jump, F per unit bracket, R per unit bracket, bracket)
    cases = [(atom(r0 * direction, 0.7), atom(r0 * direction, weight), 0.7, weight / r0 ** 2,
              lambda s, r0=r0: atom_bracket(r0, s)) for r0 in (0.6, 1.7)]
    cases.append((ray(direction, den), ray(direction, den, weight), 1.0, weight,
                  lambda s: exp_bracket_closed_form(den, s)))
    with mpmath.workdps(30):
        for m_jump, mu_jump, f_unit, r_unit, bracket in cases:
            field = _Field(ParameterSet(2, np.zeros((2, 2)), ZeroOperator(2),
                                        ScalarJumpMeasure(2, (m_jump,)),
                                        OperatorJumpMeasure(2, (mu_jump,))))
            for s in FOLD_SLOPES:
                out = field.rhs(field.basis.vec(s * direction))
                ref = bracket(s)
                assert out[0] == pytest.approx(-f_unit * ref, rel=1e-12, abs=1e-15), (m_jump, s)
                np.testing.assert_allclose(field.basis.unvec(out[1:]), -ref * r_unit,
                                           rtol=1e-12, atol=1e-15, err_msg=f"{mu_jump} {s}")


def test_folded_compensator_matches_the_termwise_sum_on_library(bench):
    # every library set, untruncated and at k = 4, and the seven-level
    # cascade field of the infinite-activity sets, against oracle.field_by_kind,
    # which adds expm1(-x_j) + small_j x_j node by node, at psi = s u
    ks = riccati._K_SCHEDULE
    for st in bench:
        stacks = [(st.params, (None,)), (truncate(st.params, 4), (None,))]
        if not st.params.is_finite_activity:
            stacks.append((st.params, ks))
        for p, levels in stacks:
            cuts = tuple(0.0 if k is None else truncation_cut(k) for k in levels)
            field, slot, rates = riccati._levels(p, cuts)
            n_lev, n = len(rates), field.basis.n
            for s in FOLD_SLOPES:
                psi = s * st.u
                out = field.rhs(np.tile(field.basis.vec(psi), n_lev))
                for k, lvl in zip(levels, slot):
                    (f, r), _ = field_by_kind(p if k is None else truncate(p, k), psi)
                    got = np.concatenate([[out[lvl]], out[n_lev + lvl * n:n_lev + (lvl + 1) * n]])
                    want = np.concatenate([[f], field.basis.vec(r)])
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15,
                                               err_msg=f"{st.name} k={k} s={s}")


def test_ray_rule_power_law_series():
    with mpmath.workdps(30):
        for den in (PowerLawDensity(0.5, 0.5, 0.0, 1.0),
                    PowerLawDensity(0.3, 0.3, 0.0, 1.5),
                    PowerLawDensity(0.6, 0.7, 1.0 / 64, 1.0),
                    PowerLawDensity(0.4, -1.5, 0.0, 1.5),
                    PowerLawDensity(0.4, -1.5, 1.0 / 16, 1.5),
                    PowerLawDensity(0.8, 0.9, 0.2, 1.3)):
            got = rule_bracket(den, SLOPES)
            ref = np.array([power_bracket_series(den, s) for s in SLOPES])
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=0.0, err_msg=str(den))


def test_ray_rule_power_law_tail_to_infinity():
    # alpha > 2 keeps the second moment finite; the library has no such ray
    with mpmath.workdps(30):
        for den in (PowerLawDensity(0.7, 2.2, 1.0 / 16, math.inf),
                    PowerLawDensity(0.5, 3.5, 1.0, math.inf),
                    PowerLawDensity(0.3, 2.05, 2.0, math.inf)):
            for s in SLOPES[::4]:
                def integrand(r, s=s):
                    chi = s * r if r <= 1 else 0
                    return (mpmath.expm1(-s * r) + chi) * den.c * r ** (-1 - den.alpha)
                a = den.rmin
                knots = sorted({a, max(a, 1.0), 2 * max(a, 1.0), max(a, 1.0, 1 / s), max(a, 1.0, 10 / s)})
                ref = float(mpmath.quad(integrand, knots + [mpmath.inf]))
                got = rule_bracket(den, np.array([s]))[0]
                assert got == pytest.approx(ref, rel=1e-10, abs=0.0), (den, s)


def test_gauss_jacobi_rule_matches_scipy_roots_jacobi():
    # Golub-Welsch against scipy's rule for the weight (1 + x)^(1 - alpha)
    # over the power laws the admissibility condition allows
    from scipy.special import roots_jacobi
    for alpha in np.linspace(-1.5, 0.99, 12):
        x, w = riccati._gauss_jacobi(1.0 - alpha)
        x_ref, w_ref = roots_jacobi(riccati.RAY_NODES, 0.0, 1.0 - alpha)
        np.testing.assert_allclose(x, x_ref, rtol=0.0, atol=1e-14, err_msg=f"alpha={alpha}")
        np.testing.assert_allclose(w, w_ref, rtol=1e-12, atol=0.0, err_msg=f"alpha={alpha}")


def test_ray_rules_match_radial_quad_on_library_rays(bench):
    densities = {}
    for s in bench:
        for k in (None, 1, 2, 4, 8, 16, 32, 64):
            p = truncate(s.params, k) if k else s.params
            densities.update((r.law, None) for r in p.m.rays + p.mu.rays)
    worst = 0.0
    for den in densities:
        got = rule_bracket(den, SLOPES)
        for s, g in zip(SLOPES, got):
            ref = radial_quad(den, lambda r: math.expm1(-s * r) + s * r, 0.0, 1.0) \
                + radial_quad(den, lambda r: math.expm1(-s * r), 1.0, math.inf)
            worst = max(worst, abs(g - ref) / abs(ref))
    assert worst <= 5e-8


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

def test_solve_zero_initial(atom_p1):
    sol = solve_riccati(atom_p1, np.zeros((1, 1)), 2.0)
    assert np.all(sol.phi == 0.0)
    assert np.all(sol.psi == 0.0)


def test_solve_linear_closed_form(rng):
    d = 2
    beta = -0.4 * np.eye(d) + 0.3 * rng.standard_normal((d, d))
    p = build_admissible(d, beta=beta, b_extra=np.eye(d))
    u = random_psd(rng, d)
    grid = np.linspace(0.0, 2.0, 9)
    sol = solve_riccati(p, u, 2.0, t_eval=grid)
    for i, t in enumerate(grid):
        e_mat = scipy.linalg.expm(t * beta)
        np.testing.assert_allclose(sol.psi[i], e_mat.T @ u @ e_mat,
                                   atol=1e-8 * frob_norm(u))
    # phi(t) = integral of <b, psi(s)> ds
    ref = scipy.integrate.quad(
        lambda s: inner(p.b, scipy.linalg.expm(s * beta).T @ u @ scipy.linalg.expm(s * beta)),
        0.0, 2.0, epsabs=1e-12)[0]
    assert sol.phi_final == pytest.approx(ref, abs=1e-8)


def test_solve_matches_rk4_oracle_one_atom(atom_p1):
    u0 = np.array([[0.7]])
    phi_o, psi_o = rk4_scalar_batch([atom_p1], np.array([0.7]), 1.0, 1e-5)
    sol = solve_riccati(atom_p1, u0, 1.0, t_eval=(0.0, 1.0))
    assert sol.psi_final[0, 0] == pytest.approx(psi_o[0], rel=1e-7)
    assert sol.phi_final == pytest.approx(phi_o[0], rel=1e-7)


def test_solution_invariants_on_library(bench, rng):
    for s in bench[:12]:
        p = s.params
        u = s.u
        sol = solve_riccati(p, u, 1.0, t_eval=(0.0, 0.5, 1.0))
        scale = 1.0 + frob_norm(u)
        assert sol.phi[0] == 0.0
        np.testing.assert_array_equal(sol.psi[0], u)
        assert np.all(sol.min_eig >= -1e-9 * scale)
        rate = growth_rate(p)
        for t, psi in zip(sol.t, sol.psi):
            assert frob_norm(psi) <= math.exp(rate * t) * frob_norm(u) * (1 + 1e-6) + 1e-12
        # phi is nonneg and nondecreasing (F >= 0 on the cone for admissible sets)
        assert np.all(sol.phi >= -1e-12)
        assert np.all(np.diff(sol.phi) >= -1e-10)


def test_order_preservation(bench, rng):
    for s in bench[12:16]:
        p = s.params
        u = s.u
        v = u + random_psd(rng, p.dim, scale=0.3)
        grid = (0.0, 0.3, 0.7, 1.0)
        su = solve_riccati(p, u, 1.0, t_eval=grid)
        sv = solve_riccati(p, v, 1.0, t_eval=grid)
        for a, b in zip(su.psi, sv.psi):
            assert min_eigenvalue(b - a) >= -1e-8


def test_truncated_solution_lipschitz_in_initial_condition(rng):
    # || psi_k(t,u) - psi_k(t,v) || <= exp((||B|| + 2k||mu||) t) ||u - v||
    s = library.get("cascade-00")
    p = s.params
    grid = (0.0, 0.5, 1.0)
    for k in (2, 8):
        cap_rate = truncated_lipschitz_bound(p, k)
        for _ in range(3):
            u = random_psd(rng, p.dim)
            v = random_psd(rng, p.dim)
            su = solve_riccati(truncate(p, k), u, 1.0, t_eval=grid)
            sv = solve_riccati(truncate(p, k), v, 1.0, t_eval=grid)
            for t, a, b in zip(grid, su.psi, sv.psi):
                cap = math.exp(cap_rate * t) * frob_norm(u - v) * (1 + 1e-6) + 1e-12
                assert frob_norm(a - b) <= cap


def test_flow_property(atom_p1):
    u = np.array([[0.9]])
    s, t = 0.4, 0.6
    full = solve_riccati(atom_p1, u, s + t, t_eval=(0.0, s + t))
    first = solve_riccati(atom_p1, u, s, t_eval=(0.0, s))
    second = solve_riccati(atom_p1, first.psi_final, t, t_eval=(0.0, t))
    gap = frob_norm(full.psi_final - second.psi_final)
    assert gap <= 1e-7 * (1.0 + frob_norm(u))


def test_quasi_monotonicity_spot_check(bench, rng):
    for s in bench[:6]:
        p = s.params
        for _ in range(10):
            delta, w = orthogonal_psd_pair(rng, p.dim)
            u = random_psd(rng, p.dim)
            v = u + delta
            gap = inner(eval_R(p, v) - eval_R(p, u), w)
            assert gap >= -1e-9


def test_solver_rejects_non_cone_start(atom_p1):
    with pytest.raises(ValueError):
        solve_riccati(atom_p1, np.array([[-1.0]]), 1.0)


def test_growth_bound_tight_linear_case():
    # pure expansion saturates the growth envelope exactly; the guard's
    # (1 + 1e-6) fudge must still admit it
    from affinehs.params import ParameterSet
    from affinehs.symcone import DenseOperator
    p = ParameterSet(1, np.zeros((1, 1)), DenseOperator(1, np.array([[3.0]])),
                     ScalarJumpMeasure(1), OperatorJumpMeasure(1))
    sol = solve_riccati(p, np.array([[1.0]]), 1.0)
    assert sol.psi_final[0, 0] == pytest.approx(math.exp(3.0), rel=1e-8)


def test_growth_bound_at_a_long_horizon_does_not_overflow():
    # growth rate 10 up to T = 100: e^(rate t) is not finite past t = 70.98,
    # where the growth cap is +inf; the solve raises no overflow warning
    p = build_admissible(2, beta=-5.0 * np.eye(2))
    assert riccati._growth_rates(p, [0.0]).tolist() == [10.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_riccati(p, np.eye(2), 100.0)
    assert sol.t[-1] == 100.0
    assert sol.min_eig.min() >= -riccati._CONE_TOL


def test_extended_product_gives_the_step_and_both_error_estimates():
    # the last three rows of h _A_EXT, with 1 for y in _B's row, times the
    # extended stage array [y, k_1, ..., k_12] give y + h (_B @ k), h (_E5 @ k)
    # and h (_E3 @ k): every entry to 1e-14 of the sum of its terms'
    # magnitudes, on a one-level transform field and a seven-level cascade field
    cascade = library.get("cascade-04")
    d5 = library.get("mixed-d5-02")
    cases = [(truncate(d5.params, 4), (None,), d5.u),
             (cascade.params, riccati._K_SCHEDULE, cascade.u)]
    for p, ks, u in cases:
        cuts = tuple(0.0 if k is None else truncation_cut(k) for k in ks)
        field, _, rates = riccati._levels(p, cuts)
        levels = len(rates)
        assert levels == len(ks)
        y = np.concatenate([np.zeros(levels), np.tile(field.basis.vec(u), levels)])
        for h in (0.05, 0.4):
            stages = np.zeros((12, y.size))
            for i, row in enumerate(riccati._A):
                stages[i] = field.rhs(y[levels:] + h * (row @ stages[:i, levels:]))
            ext = np.vstack([y, stages])
            coef = h * np.asarray(riccati._A_EXT)
            coef[:13, 0] = 1.0
            got = coef[12:] @ ext
            terms = np.abs(coef[12:]) @ np.abs(ext)
            want = (y + h * (riccati._B @ stages), h * (riccati._E5 @ stages),
                    h * (riccati._E3 @ stages))
            for name, g, w, size in zip(("y_new", "e5", "e3"), got, want, terms):
                assert np.all(np.abs(g - w) <= 1e-14 * size), (ks, h, name)


def test_rhs_into_a_work_buffer_is_bit_identical(bench):
    # every library field untruncated and at k = 4 (one level), and the
    # seven-level cascade field of the infinite-activity sets
    cascade_cuts = tuple(truncation_cut(k) for k in riccati._K_SCHEDULE)
    for st in bench:
        fields = [riccati._levels(p, (0.0,))[0] for p in (st.params, truncate(st.params, 4))]
        if not st.params.is_finite_activity:
            fields.append(riccati._levels(st.params, cascade_cuts)[0])
            assert fields[-1].member.shape[1] == 7
        for field in fields:
            n_lev = field.member.shape[1]
            work, out = np.empty(len(field.expand)), np.empty(len(field.collect))
            for s in FOLD_SLOPES:
                psi = np.tile(field.basis.vec(s * st.u), n_lev)
                want = field.rhs(psi)
                got = field.rhs(psi, out=out, work=work)
                assert got is out
                assert np.array_equal(got, want), (st.name, n_lev, s)
                assert np.array_equal(field.rhs(psi, work=work), want)


def test_rhs_eval_count(monkeypatch):
    # a u on the cone's boundary and a vanishing cone tolerance make the
    # rounding of the step land outside the cone now and then
    monkeypatch.setattr(riccati, "_CONE_TOL", 1e-300)
    rejected = 0
    for name in ("cascade-00", "mc2-01", "mixed-d2-01"):
        s = library.get(name)
        u = np.zeros((s.params.dim,) * 2)
        u[0, 0] = 1.0
        diag = solve_riccati(truncate(s.params, 4), u, 1.0).diagnostics
        attempts = diag["n_steps"] + diag["n_rejected_error"] + diag["n_rejected_cone"]
        assert diag["n_rhs_evals"] == 2 + 12 * attempts
        rejected += diag["n_rejected_cone"]
    assert rejected > 0
    assert solve_riccati(library.get("mc2-01").params, np.eye(2), 0.0).diagnostics["n_rhs_evals"] == 0


# ---------------------------------------------------------------------------
# cascade
# ---------------------------------------------------------------------------

def test_cascade_trivial_when_mass_above_one(atom_p1, monkeypatch):
    monkeypatch.setattr(riccati, "_K_SCHEDULE", (1, 2, 4))
    sol, diag = solve_cascade(atom_p1, np.array([[0.5]]), 1.0)
    assert diag.ks == (1, 2, 4)
    assert all(v == 0.0 for v in diag.residuals.values())
    sol0, diag0 = solve_cascade(atom_p1, np.zeros((1, 1)), 1.0)
    assert np.all(sol0.psi == 0.0)


def test_cascade_converges_to_direct_limit_solve():
    # the deepest level must sit within its own residual scale of the
    # directly integrated limit equation (singular ray handled by quadrature)
    s = library.get("cascade-00")
    grid = (0.0, 0.5, 1.0)
    direct = solve_riccati(s.params, s.u, 1.0, t_eval=grid)
    deep, diag = solve_cascade(s.params, s.u, 1.0, t_eval=grid)
    assert diag.ks == (1, 2, 4, 8, 16, 32, 64)
    gap = max(frob_norm(a - b) for a, b in zip(direct.psi, deep.psi))
    assert gap <= 2.0 * diag.final_residual + 1e-9
    # and every level bounds the limit from above in the cone order
    assert all(min_eigenvalue(a - b) >= -1e-8 for a, b in zip(deep.psi, direct.psi))


def test_cascade_residuals_decrease():
    s = library.get("cascade-01")
    sol, diag = solve_cascade(s.params, s.u, 1.0)
    ks = sorted(diag.residuals)
    vals = [diag.residuals[k] for k in ks]
    assert vals[-1] < vals[0]
    assert diag.worst_monotonicity >= -1e-8
    assert sol.k == max(ks)
    assert "cascade_residual" in sol.diagnostics
    payload = diag.to_json()
    assert set(payload) == {"ks", "residuals", "worst_monotonicity", "final_residual"}


def test_cascade_levels_match_dop853():
    # a second integrator on each level's own field: scipy's DOP853 at
    # rtol 1e-12 against every level of the stacked solve
    ks = riccati._K_SCHEDULE
    for s in library.benchmark_sets():
        if s.params.is_finite_activity:
            continue
        levels = level_solutions(s.params, s.u, 1.0, ks, (0.0, 1.0))
        for k, sol in zip(ks, levels):
            field = _Field(truncate(s.params, k))
            y0 = np.concatenate([[0.0], field.basis.vec(s.u)])
            ref = scipy.integrate.solve_ivp(lambda t, y: field.rhs(y[1:]), (0.0, 1.0), y0,
                                            method="DOP853", rtol=1e-12, atol=1e-14)
            assert ref.success
            phi, psi = ref.y[0, -1], field.basis.unvec(ref.y[1:, -1])
            assert abs(sol.phi_final - phi) <= 5e-8 * abs(phi), (s.name, k)
            assert frob_norm(sol.psi_final - psi) <= 5e-8 * frob_norm(psi), (s.name, k)


def test_dop853_tableau_matches_published_coefficients():
    # the transcribed tableau against scipy's copy of Hairer's coefficients;
    # the extra stage's weights are zero in both error estimates
    from scipy.integrate._ivp import dop853_coefficients as ref

    from affinehs.riccati import _A, _B, _E3, _E5
    assert len(_A) == ref.N_STAGES
    for i, row in enumerate(_A):
        np.testing.assert_allclose(row, ref.A[i, :i], rtol=0.0, atol=1e-15)
        # the stage times are the row sums, to the rounding of the row's entries
        assert math.fsum(row) == pytest.approx(ref.C[i], abs=1e-15 * np.abs(row).sum())
    np.testing.assert_allclose(_B, ref.B, rtol=0.0, atol=1e-15)
    assert math.fsum(_B) == pytest.approx(1.0, abs=1e-15)
    assert ref.E3[-1] == ref.E5[-1] == 0.0
    np.testing.assert_allclose(_E3, ref.E3[:-1], rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(_E5, ref.E5[:-1], rtol=0.0, atol=1e-15)


@pytest.fixture(scope="module")
def library_solves_k4():
    """(solution, scipy DOP853 reference) for every library set at k = 4 and T in {0.25, 1, 2}."""
    out = []
    for s in library.benchmark_sets():
        p = truncate(s.params, 4)
        field = _Field(p)
        y0 = np.concatenate([[0.0], field.basis.vec(s.u)])
        for T in (0.25, 1.0, 2.0):
            sol = solve_riccati(p, s.u, T, t_eval=(0.0, T))
            ref = scipy.integrate.solve_ivp(lambda t, y: field.rhs(y[1:]), (0.0, T), y0,
                                            method="DOP853", rtol=1e-13, atol=1e-15)
            assert ref.success
            out.append((s.name, T, sol, ref.y[0, -1], field.basis.unvec(ref.y[1:, -1])))
    return out


def test_transform_solves_match_dop853_at_tight_tolerance(library_solves_k4):
    # a second integrator 5 decades tighter than the solver's own tolerance;
    # the error is relative to the size of the state (phi, psi), since psi
    # decays to about 1% of ||u|| on some sets, where the 1e-10 absolute
    # tolerance governs its last digits
    for name, T, sol, phi, psi in library_solves_k4:
        err = max(abs(sol.phi_final - phi), frob_norm(sol.psi_final - psi))
        assert err <= 1e-9 * max(abs(phi), frob_norm(psi)), (name, T)


def test_transform_solves_take_few_steps(library_solves_k4):
    # the eighth-order pair takes about 4.15 steps per solve here; a
    # fifth-order pair at the same tolerance takes about 20
    steps = [sol.diagnostics["n_steps"] for _, _, sol, _, _ in library_solves_k4]
    assert len(steps) == 3 * len(library.benchmark_sets())
    assert np.mean(steps) <= 4.3


def test_cascade_solves_take_few_steps(bench):
    # the seven stacked levels of the 14 infinite-activity sets take about
    # 3.07 steps per solve, and no attempt is rejected
    diags = [solve_cascade(s.params, s.u, T, t_eval=(0.0, T))[0].diagnostics
             for s in bench if not s.params.is_finite_activity for T in (0.25, 0.5, 1.0)]
    assert len(diags) == 3 * 14
    assert np.mean([d["n_steps"] for d in diags]) <= 3.2
    assert sum(d["n_rejected_error"] + d["n_rejected_cone"] for d in diags) == 0


def test_solves_from_the_long_first_step_match_rk4_on_random_admissible_sets():
    # the first step is five times Hairer's estimate; a start too long for
    # the error test costs a rejected attempt, never accuracy.  Against 1000
    # classic RK4 steps on the same field (whose own error is below 1e-12
    # here), the (0, t) solve agrees to 1e-9 of the state's size, and
    # rejections stay at most 5% of all attempts
    attempts, rejected = [], []

    @settings(derandomize=True, max_examples=60, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(admissible_cases())
    def check(case):
        p, _, u, _, t = case
        sol = solve_riccati(p, u, t, t_eval=(0.0, t))
        diag = sol.diagnostics
        rejected.append(diag["n_rejected_error"] + diag["n_rejected_cone"])
        attempts.append(diag["n_steps"] + rejected[-1])
        field = _Field(p)
        ref = rk4(lambda y: field.rhs(y[1:]), np.concatenate([[0.0], field.basis.vec(u)]), t, 1000)
        got = np.concatenate([[sol.phi_final], field.basis.vec(sol.psi_final)])
        assert np.abs(got - ref).max() <= 1e-9 * max(1.0, np.abs(ref).max())

    check()
    assert len(attempts) >= 60
    assert sum(rejected) <= 0.05 * sum(attempts)


@pytest.fixture
def attempt_steps(monkeypatch):
    """The step h of every attempt the solver makes, in order: each attempt
    scales the tableau _A_EXT by its h once, and this view of it logs that h."""
    steps = []

    class Logged(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            steps.append(float(inputs[0]))
            return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)

    monkeypatch.setattr(riccati, "_A_EXT", riccati._A_EXT.view(Logged))
    return steps


def reject_first_cone_check(monkeypatch):
    """Make the solver's first cone check fail: its first min_eigenvalue call
    checks u, the second checks the state after the first step."""
    calls = []

    def spy(a):
        calls.append(a)
        return min_eigenvalue(a) - (1.0 if len(calls) == 2 else 0.0)

    monkeypatch.setattr(riccati, "min_eigenvalue", spy)


def test_a_step_within_5_percent_of_the_output_time_lands_on_it(attempt_steps, monkeypatch):
    p, u = truncate(library.get("mc2-01").params, 4), library.get("mc2-01").u
    solve_riccati(p, u, 2.0, t_eval=(0.0, 2.0))
    h1 = attempt_steps[0]
    assert h1 < 1.0
    # the first step does not depend on T once T exceeds it
    for stretch, steps in ((1.04, [1.04 * h1]), (1.06, [h1, 1.06 * h1 - h1])):
        attempt_steps.clear()
        sol = solve_riccati(p, u, stretch * h1, t_eval=(0.0, stretch * h1))
        assert attempt_steps == pytest.approx(steps, rel=1e-12)
        assert sol.diagnostics["n_steps"] == len(steps)
        assert sol.t[-1] == stretch * h1
    # the landing step still passes the growth and the cone checks
    T = 1.04 * h1
    with monkeypatch.context() as m:
        m.setattr(riccati, "_GROWTH_FUDGE", -0.5)
        with pytest.raises(RiccatiSolverError, match=f"growth bound breached at t = {T:.6g},"):
            solve_riccati(p, u, T, t_eval=(0.0, T))
    attempt_steps.clear()
    reject_first_cone_check(monkeypatch)
    sol = solve_riccati(p, u, T, t_eval=(0.0, T))
    assert sol.diagnostics["n_rejected_cone"] == 1
    assert attempt_steps[:2] == [T, 0.5 * T]


def test_no_step_after_a_rejection_is_longer_than_the_rejected_one(attempt_steps, monkeypatch):
    p, u = truncate(library.get("mc2-01").params, 4), library.get("mc2-01").u
    reject_first_cone_check(monkeypatch)
    solve_riccati(p, u, 2.0, t_eval=(0.0, 2.0))
    h_r = attempt_steps[0]
    # after the rejected h_r and the accepted retry h_r / 2, the controller
    # would grow to h_r or beyond, and the distance left, 1.03 h_r, is within
    # 5% of it; landing there would go past the rejected step
    T = 1.53 * h_r
    attempt_steps.clear()
    reject_first_cone_check(monkeypatch)
    sol = solve_riccati(p, u, T, t_eval=(0.0, T))
    assert attempt_steps[:3] == [h_r, 0.5 * h_r, h_r]
    assert max(attempt_steps) == h_r
    assert sol.diagnostics["n_steps"] == 3
    assert sol.t[-1] == T


def test_psi_matrices_are_exactly_symmetric(library_solves_k4, bench):
    # the cone check hands these matrices to eigvalsh, which reads one triangle
    sols = [sol for _, _, sol, _, _ in library_solves_k4]
    sols += [riccati.solve_cascade(s.params, s.u, 1.0)[0] for s in bench if not s.params.is_finite_activity]
    for sol in sols:
        assert np.array_equal(sol.psi, sol.psi.swapaxes(-1, -2))


@settings(derandomize=True, max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(admissible_cases())
def test_cascade_levels_on_random_admissible_sets(case):
    p, _, u, _, t = case
    ks = riccati._K_SCHEDULE
    grid = (0.0, 0.5 * t, t)
    levels = level_solutions(p, u, t, ks, grid)
    for i, (k, sol) in enumerate(zip(ks, levels)):
        assert sol.min_eig.min() >= -1e-9
        for deeper in levels[i + 1:]:
            assert all(min_eigenvalue(a - b) >= -1e-9 for a, b in zip(sol.psi, deeper.psi))
        alone = solve_riccati(truncate(p, k), u, t, t_eval=grid)
        assert np.abs(sol.psi - alone.psi).max() <= 1e-8 * max(1.0, np.abs(alone.psi).max())
        assert np.abs(sol.phi - alone.phi).max() <= 1e-8 * max(1.0, np.abs(alone.phi).max())


def test_stacked_levels_do_not_depend_on_their_order():
    # B carries the compensator of the small jumps, which only the deeper
    # level's jumps offset, so level k = 1 sets the step size; the error norm
    # is the largest over the levels, so the controller and every level's
    # values are the same whichever level comes first
    mu = OperatorJumpMeasure(1, (ray(np.eye(1), PowerLawDensity(1.0, 0.9, 0.0, 1.0), np.eye(1)),))
    p = build_admissible(1, beta=-0.5 * np.eye(1), mu=mu, b_extra=0.5 * np.eye(1))
    grid = (0.0, 0.5, 1.0)
    first = level_solutions(p, np.eye(1), 1.0, (1, 64), grid)
    last = level_solutions(p, np.eye(1), 1.0, (64, 1), grid)
    assert first[0].diagnostics["n_steps"] == last[0].diagnostics["n_steps"]
    for a, b in zip(first, last[::-1]):
        assert np.abs(a.psi - b.psi).max() <= 1e-12 * np.abs(a.psi).max()
        assert np.abs(a.phi - b.phi).max() <= 1e-12 * np.abs(a.phi).max()


def test_stacked_step_rejected_when_any_level_leaves_the_cone():
    # jumps of norm in (0.5, 1] along e1 that feed R only through e2, with
    # no compensating drift (not admissible): from u = e1, psi leaves the
    # cone at once where they are kept (k = 4) and stays put where the
    # cut removes them (k = 1)
    e1, e2 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    mu = OperatorJumpMeasure(2, (ray(e1, PowerLawDensity(1.0, 0.5, 0.5, 1.0), e2),))
    p = ParameterSet(2, np.zeros((2, 2)), ZeroOperator(2), ScalarJumpMeasure(2), mu)
    assert solve_riccati(truncate(p, 1), e1, 1.0).min_eig.min() == 0.0
    for ks in ((4,), (1, 4), (4, 1)):
        with pytest.raises(RiccatiSolverError, match="cone breach"):
            _solve_levels(p, e1, 1.0, ks, None)


# ---------------------------------------------------------------------------
# CSV interface
# ---------------------------------------------------------------------------

def test_solution_csv_layout(atom_p1):
    sol = solve_riccati(atom_p1, np.array([[0.5]]), 1.0, t_eval=np.linspace(0, 1, 5))
    buf = io.StringIO()
    solution_to_csv(sol, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,phi,psi_11,min_eig,step_size"
    assert len(lines) == 6
    row0 = [float(x) for x in lines[1].split(",")]
    assert row0[0] == 0.0 and row0[1] == 0.0 and row0[2] == 0.5

    s2 = library.get("mc2-00")
    sol2 = solve_riccati(truncate(s2.params, 4), s2.u, 0.5, t_eval=(0.0, 0.5))
    buf2 = io.StringIO()
    solution_to_csv(sol2, buf2)
    header = buf2.getvalue().split("\n")[0].split(",")
    assert header == ["t", "phi", "psi_11", "psi_12", "psi_22", "min_eig", "step_size"]


@settings(derandomize=True, max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(admissible_cases())
def test_psi_stays_in_cone_and_is_loewner_monotone_in_u(case):
    # psi(t) is PSD, and u <= u + w in the Loewner order gives psi_u(t) <= psi_{u+w}(t)
    p, _, u, w, t = case
    grid = (0.0, 0.5 * t, t)
    low = solve_riccati(p, u, t, t_eval=grid)
    high = solve_riccati(p, u + w, t, t_eval=grid)
    tol = 1e-9 * max(1.0, np.abs(high.psi).max())
    assert min_eigenvalue(low.psi).min() >= -tol
    assert min_eigenvalue(high.psi - low.psi).min() >= -tol
