import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from oracle import (
    ALL,
    field_by_kind,
    integrate_kernel,
    integrate_operator,
    integrate_scalar,
    jump_table_by_kind,
    measure_helpers_by_kind,
    norm_gt,
    norm_leq,
)
from strategies import admissible_cases, random_symmetric

import affinehs
from affinehs.exceptions import MeasureError, ParameterFileError
from affinehs.params import (
    ExponentialDensity,
    OperatorJumpMeasure,
    ParameterSet,
    PointMass,
    PowerLawDensity,
    ScalarJumpMeasure,
    atom,
    build_admissible,
    load_params,
    orthogonal_psd_pair,
    params_from_json,
    params_to_json,
    radial_quad,
    ray,
    save_params,
    truncate,
    validate_admissibility,
)
from affinehs.pdmpsim import _JumpTable
from affinehs.riccati import _Field
from affinehs.symcone import (
    CongruenceSum,
    LyapunovOperator,
    VecBasis,
    chi,
    frob_norm,
    inner,
    min_eigenvalue,
    random_psd,
)

E11 = np.array([[1.0, 0.0], [0.0, 0.0]])
E22 = np.array([[0.0, 0.0], [0.0, 1.0]])


def unit_dir(d=2):
    a = np.eye(d) + 0.2 * np.ones((d, d))
    return a / frob_norm(a)


# ---------------------------------------------------------------------------
# radial densities and quadrature
# ---------------------------------------------------------------------------

def test_power_law_moments_closed_form():
    den = PowerLawDensity(c=1.0, alpha=0.5, rmin=0.0, rmax=1.0)
    # integral of r^2 * r^{-1.5} over (0,1] = 2/3
    assert den.partial_moment(2) == pytest.approx(2.0 / 3.0, rel=1e-14)
    # activity is infinite, first moment is finite
    assert den.partial_moment(0) == math.inf
    assert den.partial_moment(1) == pytest.approx(2.0, rel=1e-14)
    # truncated activity: integral over (1/k, 1] of r^{-1.5} = 2(sqrt(k)-1)
    assert den.partial_moment(0, 0.25, 1.0) == pytest.approx(2.0, rel=1e-14)
    assert den.partial_moment(0, 1.0 / 16.0, 1.0) == pytest.approx(6.0, rel=1e-14)


def test_exponential_moments_match_quadrature():
    import scipy.integrate
    den = ExponentialDensity(c=0.7, lam=2.3, rmin=0.1)
    for p in (0, 1, 2):
        ref = scipy.integrate.quad(lambda r: 0.7 * r ** p * np.exp(-2.3 * r), 0.1, np.inf)[0]
        assert den.partial_moment(p) == pytest.approx(ref, rel=1e-10)
    ref = scipy.integrate.quad(lambda r: 0.7 * r * np.exp(-2.3 * r), 0.5, 2.0)[0]
    assert den.partial_moment(1, 0.5, 2.0) == pytest.approx(ref, rel=1e-10)


def test_exponential_moments_match_mpmath_on_library_laws(bench):
    # the closed-form upper incomplete gamma at integer s against mpmath's
    # gammainc at 30 digits, on every library exponential law, as given and
    # truncated, over the ranges the measures integrate and one finite range
    import mpmath
    laws = set()
    for s in bench:
        for k in (None, 1, 2, 4, 8, 16, 32, 64):
            p = truncate(s.params, k) if k else s.params
            laws.update(j.law for j in p.m.jumps + p.mu.jumps if isinstance(j.law, ExponentialDensity))
    assert len(laws) > 50
    with mpmath.workdps(30):
        for law in laws:
            for p in (0, 1, 2):
                for lo, hi in ((0.0, math.inf), (0.0, 1.0), (1.0, math.inf), (0.5, 2.0)):
                    a, b = max(lo, law.rmin), min(hi, law.rmax)
                    ref = law.c * mpmath.mpf(law.lam) ** -(p + 1) \
                        * mpmath.gammainc(p + 1, law.lam * a, law.lam * b)
                    assert law.partial_moment(p, lo, hi) == pytest.approx(float(ref), rel=1e-13, abs=0.0), \
                        (law, p, lo, hi)


def test_exponential_moments_refuse_non_integer_orders():
    den = ExponentialDensity(c=0.7, lam=2.3)
    for p in (1.5, -1, 0.25):
        with pytest.raises(MeasureError, match=f"p = {p}"):
            den.partial_moment(p)
    assert den.partial_moment(2.0) == den.partial_moment(2)


def test_radial_quad_singular_substitution():
    den = PowerLawDensity(c=1.0, alpha=0.5, rmin=0.0, rmax=1.0)
    # integrand r^2 against r^{-1.5}: exactly 2/3
    got = radial_quad(den, lambda r: r * r)
    assert got == pytest.approx(2.0 / 3.0, rel=1e-8)
    # a transcendental one, cross-checked against the exact moment expansion
    got = radial_quad(den, lambda r: np.expm1(-r) + r)
    ref = sum((-1.0) ** k / math.factorial(k) * den.partial_moment(k) for k in range(2, 30))
    assert got == pytest.approx(ref, rel=1e-8)


def test_radial_quad_failure_carries_ray_index():
    from affinehs.exceptions import QuadratureError
    m = ScalarJumpMeasure(2, (ray(unit_dir(), ExponentialDensity(1.0, 1.0)),))
    with pytest.raises(QuadratureError) as err:
        integrate_scalar(m, lambda x: float("nan"))
    assert err.value.ray_index == 0


def test_cdf_mass_consistency():
    for den in (PowerLawDensity(1.0, 0.5, 0.25, 1.0),
                PowerLawDensity(0.8, -1.5, 0.0, 1.5),
                ExponentialDensity(0.7, 2.0, 0.0)):
        rs = np.linspace(den.rmin, min(den.rmax, 4.0), 7)[1:]
        for r in rs:
            assert den.cdf_mass(r) == pytest.approx(den.partial_moment(0, den.rmin, r), rel=1e-12)


def test_point_mass_follows_the_atom_convention():
    law = PointMass(0.7, 0.5)   # lies in (lo, hi] when lo < 0.5 <= hi
    assert law.partial_moment(2) == 0.7 * 0.25
    assert law.partial_moment(1, 0.25, 0.5) == 0.35
    assert law.partial_moment(1, 0.5, 1.0) == 0.0
    assert law.restricted(0.25, 0.5) is law
    assert law.restricted(0.5, 1.0) is None
    np.testing.assert_array_equal(law.cdf_mass([0.25, 0.5, 2.0]), [0.0, 0.7, 0.7])
    np.testing.assert_array_equal(law.inverse_cdf_mass([0.0, 0.35, 0.7]), [0.5, 0.5, 0.5])


# ---------------------------------------------------------------------------
# measures and integration
# ---------------------------------------------------------------------------

def _rel_err(got, want):
    if want is None or np.ndim(want) == 0 and math.isinf(want):
        return 0.0 if got == want else math.inf
    scale = np.linalg.norm(want)
    return np.linalg.norm(np.asarray(got) - want) / scale if scale else np.linalg.norm(got)


def assert_jumps_match_kinds(p, rng):
    """Helpers, field and jump table, all read from the jumps, against the per-kind sums."""
    d = p.dim
    want = measure_helpers_by_kind(p)
    for name, ref in want.items():
        got = getattr(p.m if hasattr(p.m, name) else p.mu, name)()
        if name.endswith("pairs"):
            got = sum((np.multiply.outer(a, c) for a, c in got), np.zeros((d,) * 4))
        assert _rel_err(got, ref) <= 1e-14, (name, got, ref)
    field = _Field(p)
    for _ in range(3):
        psi = random_psd(rng, d)
        (f_ref, r_ref), (f_scale, r_scale) = field_by_kind(p, psi)
        out = field.rhs(field.basis.vec(psi))
        assert abs(out[0] - f_ref) <= 1e-14 * f_scale
        assert np.linalg.norm(field.basis.unvec(out[1:]) - r_ref) <= 1e-14 * np.linalg.norm(r_scale)
    q = truncate(p, 4)
    basis = VecBasis(d)
    table = _JumpTable(q, basis)
    const, rows, sizes = jump_table_by_kind(q, basis)
    assert _rel_err(table.const, const) <= 1e-14
    assert _rel_err(table.rows, rows) <= 1e-14
    assert _rel_err(table.atom_radius[:, None] * table.size_vecs, sizes) <= 1e-14


def test_jumps_match_per_kind_sums_on_library(bench, rng):
    for s in bench:
        assert_jumps_match_kinds(s.params, rng)


@settings(derandomize=True, max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(admissible_cases())
def test_jumps_match_per_kind_sums_on_random_admissible_sets(case):
    assert_jumps_match_kinds(case[0], np.random.default_rng(0))


def test_only_params_maps_atoms_and_rays():
    # a measure holds its jumps alone; rays is a derived view that no module of the package reads
    src = Path(affinehs.__file__).parent
    readers = sorted(f.name for f in src.glob("*.py") if re.search(r"\.(atoms|rays)\b", f.read_text()))
    assert readers == []
    for s in affinehs.library.benchmark_sets():
        for measure in (s.params.m, s.params.mu):
            assert [f.name for f in dataclasses.fields(measure)] == ["dim", "jumps"]
            assert not hasattr(measure, "atoms")
            assert measure.rays == tuple(j for j in measure.jumps if not isinstance(j.law, PointMass))


def test_atom_and_ray_jumps_by_hand():
    xi = np.array([[1.2, 0.0], [0.0, 1.6]])         # ||xi|| = 2
    d_mat = np.array([[0.6, 0.0], [0.0, 0.8]])      # xi / ||xi||, a unit direction
    den = ExponentialDensity(0.5, 2.0)
    cases = (
        # m atom: mass w at r0 = ||xi||, output weight 1
        (atom(xi, 0.7), d_mat, PointMass(0.7, 2.0), 1.0, xi),
        # mu atom: kernel mass 1/||xi||^2, output weight M
        (atom(xi, E22), d_mat, PointMass(0.25, 2.0), E22, xi),
        # rays keep their direction and density; m weighs 1, mu weighs M
        (ray(d_mat, den), d_mat, den, 1.0, None),
        (ray(d_mat, den, E22), d_mat, den, E22, None),
    )
    for jump, direction, law, weight, xi_given in cases:
        np.testing.assert_array_equal(jump.direction, direction)
        assert jump.law == law
        np.testing.assert_array_equal(jump.weight, weight)
        assert type(jump.weight) is type(weight)
        if xi_given is None:
            assert jump.xi is None
        else:
            np.testing.assert_array_equal(jump.xi, xi_given)
        assert not jump.direction.flags.writeable
    m_atom, mu_atom, m_ray, mu_ray = (c[0] for c in cases)
    assert ScalarJumpMeasure(2, (m_atom, m_ray)).jumps == (m_atom, m_ray)
    assert OperatorJumpMeasure(2, (mu_ray, mu_atom)).jumps == (mu_ray, mu_atom)   # in the order given
    for jump in (mu_atom, mu_ray):
        with pytest.raises(MeasureError):
            ScalarJumpMeasure(2, (m_atom, jump))
    for jump in (m_atom, m_ray):
        with pytest.raises(MeasureError):
            OperatorJumpMeasure(2, (mu_atom, jump))
    with pytest.raises(MeasureError):   # an m ray weighs 1; its density carries the mass
        ray(d_mat, den, 2.0)


def test_integrate_scalar_examples():
    xi0 = 0.8 * unit_dir()
    m = ScalarJumpMeasure(2, (atom(xi0, 3.0),))
    assert integrate_scalar(m, lambda x: frob_norm(x) ** 2) == pytest.approx(
        3.0 * frob_norm(xi0) ** 2, rel=1e-12)
    empty = ScalarJumpMeasure(2)
    assert integrate_scalar(empty, lambda x: 1.0) == 0.0
    # m-mass density r^{0.5} on (0,1] (the r^2 g form of g = r^{-1.5}): total mass 2/3
    m2 = ScalarJumpMeasure(2, (ray(unit_dir(), PowerLawDensity(c=1.0, alpha=-1.5, rmin=0.0, rmax=1.0)),))
    assert integrate_scalar(m2, lambda x: 1.0) == pytest.approx(2.0 / 3.0, rel=1e-8)


def test_integrate_operator_examples():
    xi0 = 0.8 * unit_dir()
    weight = np.array([[0.5, 0.1], [0.1, 0.4]])
    mu = OperatorJumpMeasure(2, (atom(xi0, weight),))
    np.testing.assert_allclose(integrate_operator(mu, lambda x: 1.0), weight, rtol=1e-12)
    np.testing.assert_allclose(integrate_operator(mu, lambda x: 0.0), np.zeros((2, 2)), atol=0.0)
    # ray in kernel form g = r^{-1.5} on (0,1]: mu-mass density r^2 g
    mu2 = OperatorJumpMeasure(2, (ray(unit_dir(), PowerLawDensity(c=1.0, alpha=0.5, rmin=0.0, rmax=1.0),
                                      weight),))
    # total mass: integral of r^2 g = integral of r^{0.5} = 2/3
    np.testing.assert_allclose(integrate_operator(mu2, lambda x: 1.0),
                               (2.0 / 3.0) * weight, rtol=1e-8)
    # against the mass, f = ||xi||^2 weighs r^4 g = r^{2.5}: 2/7
    np.testing.assert_allclose(integrate_operator(mu2, lambda x: frob_norm(x) ** 2),
                               (2.0 / 7.0) * weight, rtol=1e-8)
    # against the kernel mu/||xi||^2 the same f recovers the 2/3 mass constant
    np.testing.assert_allclose(integrate_kernel(mu2, lambda x: frob_norm(x) ** 2),
                               (2.0 / 3.0) * weight, rtol=1e-8)


def test_integrate_regions():
    atoms = (atom(0.5 * unit_dir(), 1.0), atom(2.0 * unit_dir(), 10.0))
    m = ScalarJumpMeasure(2, atoms)
    assert integrate_scalar(m, lambda x: 1.0, norm_leq(1.0)) == pytest.approx(1.0)
    assert integrate_scalar(m, lambda x: 1.0, norm_gt(1.0)) == pytest.approx(10.0)
    assert integrate_scalar(m, lambda x: 1.0, ALL) == pytest.approx(11.0)


def test_measure_invariant_violations():
    with pytest.raises(MeasureError):  # second moment diverges at infinity
        ScalarJumpMeasure(2, (ray(unit_dir(), PowerLawDensity(1.0, 1.5, 1.0, math.inf)),))
    with pytest.raises(MeasureError):  # small-jump first moment diverges
        ScalarJumpMeasure(2, (ray(unit_dir(), PowerLawDensity(1.0, 1.2, 0.0, 1.0)),))
    with pytest.raises(MeasureError):  # atom at the origin
        ScalarJumpMeasure(2, (atom(np.zeros((2, 2)), 1.0),))
    with pytest.raises(MeasureError):  # non-unit ray direction
        ray(2.0 * unit_dir(), ExponentialDensity(1.0, 1.0))
    with pytest.raises(MeasureError):  # negative weight
        atom(unit_dir(), -1.0)
    with pytest.raises(MeasureError):  # non-PSD operator weight
        atom(unit_dir(), np.array([[1.0, 0.0], [0.0, -0.5]]))


def test_chi_integral_linearity(rng):
    m = ScalarJumpMeasure(2, (atom(0.5 * unit_dir(), 2.0), atom(3.0 * unit_dir(), 1.0),
                              ray(unit_dir(), ExponentialDensity(0.6, 2.0))))
    i_m = m.chi_integral()
    for _ in range(10):
        h = random_symmetric(rng, 2)
        lhs = inner(i_m, h)
        rhs = integrate_scalar(m, lambda x: inner(chi(x), h))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_measure_monotonicity_in_regions():
    weight = np.array([[0.5, 0.1], [0.1, 0.4]])
    mu = OperatorJumpMeasure(2, (atom(0.5 * unit_dir(), weight),
                                 ray(unit_dir(), PowerLawDensity(1.0, 0.5, 0.0, 1.0), weight)))
    cuts = [math.inf, 2.0, 1.0, 0.5, 0.25]
    masses = [frob_norm(mu.restricted(0.0, c).total_mass_matrix()) for c in cuts]
    for bigger, smaller in zip(masses, masses[1:]):
        assert smaller <= bigger + 1e-12


def test_truncate_examples():
    big = ScalarJumpMeasure(2, (atom(2.0 * unit_dir(), 1.0),))
    p_big = build_admissible(2, beta=-np.eye(2), m=big, b_extra=np.eye(2))
    t1 = truncate(p_big, 1)
    assert len(t1.m.jumps) == 1  # all mass above norm 1: unchanged

    mu_ray = ray(unit_dir(), PowerLawDensity(1.0, 0.5, 0.0, 1.0), np.eye(2) / math.sqrt(2.0))
    p_ray = build_admissible(2, beta=-np.eye(2),
                             mu=OperatorJumpMeasure(2, (mu_ray,)), b_extra=np.eye(2))
    t4 = truncate(p_ray, 4)
    den = t4.mu.jumps[0].law
    assert den.rmin == pytest.approx(0.25)
    assert den.rmax == pytest.approx(1.0)
    # truncated activity for g = r^{-1.5} on (1/k, 1]: 2(sqrt(k) - 1)
    assert den.partial_moment(0) == pytest.approx(2.0, rel=1e-12)
    # idempotent at fixed k
    t4b = truncate(t4, 4)
    assert t4b.mu.jumps[0].law.rmin == pytest.approx(0.25)
    # kernel mass grows with k in the Loewner order
    m4 = t4.mu.kernel_total_matrix()
    m8 = truncate(p_ray, 8).mu.kernel_total_matrix()
    assert min_eigenvalue(m8 - m4) >= -1e-12


def test_restricted_measure_equals_fresh_construction():
    d1, d2 = unit_dir(), np.array([[0.8, 0.0], [0.0, 0.6]])
    d2 = d2 / frob_norm(d2)
    dens = (PowerLawDensity(1.0, 0.5, 0.0, 2.0), ExponentialDensity(0.5, 2.0), PowerLawDensity(0.3, -1.5, 0.1, 0.2))
    cut = 0.25
    for kind, weight, atom_weights in (
            (ScalarJumpMeasure, 1.0, (1.0, 0.5)),
            (OperatorJumpMeasure, 0.4 * d2, (d2, 0.5 * d1))):
        atoms = tuple(atom(a * dn, w) for a, dn, w in zip((0.2, 1.5), (d1, d2), atom_weights))
        rays = tuple(ray(dn, den, weight) for dn, den in zip((d1, d2, d1), dens))
        got = kind(2, atoms + rays).restricted(cut)
        kept = tuple(ray(r.direction, r.law.restricted(cut, math.inf), weight) for r in rays[:2])
        fresh = kind(2, atoms[1:] + kept)
        assert len(got.jumps) == len(fresh.jumps) == 3
        for a, b in zip(got.jumps, fresh.jumps):
            assert np.array_equal(a.direction, b.direction)
            assert a.law == b.law
            assert np.array_equal(a.weight, b.weight)
            assert (a.xi is None) == (b.xi is None) and (a.xi is None or np.array_equal(a.xi, b.xi))
        assert [r.law for r in got.rays] == [r.law for r in fresh.rays]
        assert not got.rays[0].direction.flags.writeable
    # construction still validates the rays that restriction copies
    with pytest.raises(MeasureError):
        ray(np.array([[1.0, 0.0], [0.0, -1.0]]) / math.sqrt(2.0), dens[0])
    with pytest.raises(MeasureError):
        ray(d1, dens[0], np.array([[1.0, 0.0], [0.0, -0.5]]))


def test_atoms_on_cut_boundary_dropped():
    m = ScalarJumpMeasure(2, (atom(0.25 * unit_dir(), 1.0),))
    p = build_admissible(2, beta=-np.eye(2), m=m, b_extra=np.eye(2))
    assert len(truncate(p, 4).m.jumps) == 0  # norm == 1/k is removed
    assert len(truncate(p, 5).m.jumps) == 1


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

def test_orthogonal_pairs(rng):
    for d in (1, 2, 3, 5):
        for _ in range(20):
            u, x = orthogonal_psd_pair(rng, d)
            assert min_eigenvalue(u) >= -1e-12
            assert min_eigenvalue(x) >= -1e-12
            assert abs(inner(u, x)) <= 1e-12


def test_validate_trivial_pass():
    from affinehs.params import ParameterSet
    p = ParameterSet(2, np.eye(2), LyapunovOperator(-np.eye(2)),
                     ScalarJumpMeasure(2), OperatorJumpMeasure(2))
    report = validate_admissibility(p, n_pairs=25, seed=3)
    assert report.all_passed


def test_validate_drift_failure_witness():
    from affinehs.params import ParameterSet
    from affinehs.symcone import ZeroOperator
    p = ParameterSet(2, -E11, ZeroOperator(2),
                     ScalarJumpMeasure(2), OperatorJumpMeasure(2))
    report = validate_admissibility(p, n_pairs=10, seed=0)
    assert not report.all_passed
    cond = report.condition("ii")
    assert not cond.passed
    v = np.asarray(cond.witness["v"]["rows"])
    assert inner(-E11, v) < 0  # witness direction sees the violation


def test_validate_shows_no_rounding_noise(bench):
    # condition (iv) is 0 up to rounding on build_admissible sets
    for s in bench:
        detail = validate_admissibility(s.params).condition("iv").detail
        assert "= -" not in detail, (s.name, detail)


def test_validate_determinism(atom_p1):
    r1 = validate_admissibility(atom_p1, n_pairs=30, seed=11)
    r2 = validate_admissibility(atom_p1, n_pairs=30, seed=11)
    assert json.dumps(r1.to_json(), sort_keys=True) == json.dumps(r2.to_json(), sort_keys=True)


def test_builder_examples():
    p = build_admissible(1, beta=np.array([[-1.0]]), b_extra=np.array([[1.0]]))
    assert p.b[0, 0] == pytest.approx(1.0)
    np.testing.assert_allclose(p.B.apply(np.array([[1.0]])), [[-2.0]])
    # empty mu: B* = B for symmetric beta
    x = np.array([[0.7]])
    np.testing.assert_allclose(p.B.apply_adjoint(x), p.B.apply(x))

    # a mu atom beyond norm 1 contributes no compensator
    mu = OperatorJumpMeasure(2, (atom(2.0 * E11, E22),))
    p2 = build_admissible(2, beta=-np.eye(2), mu=mu, b_extra=np.eye(2))
    np.testing.assert_allclose(p2.B.apply(np.eye(2)), -2.0 * np.eye(2))

    with pytest.raises(MeasureError):
        build_admissible(1, beta=np.array([[-1.0]]), b_extra=np.array([[-1.0]]))


def test_builder_compensator_hand_value():
    # atom inside the ball: compensator x -> <M, x> xi / ||xi||^2
    xi = 0.5 * E11
    mu = OperatorJumpMeasure(2, (atom(xi, E22),))
    p = build_admissible(2, beta=-np.eye(2), mu=mu, b_extra=np.eye(2))
    x = np.array([[0.3, 0.0], [0.0, 2.0]])
    expected = -2.0 * x + inner(E22, x) * xi / 0.25
    np.testing.assert_allclose(p.B.apply(x), expected, rtol=1e-12)


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def assert_same_set(back, src):
    """back, read back from the file of src, is src to the last bit: file text, drift and jumps."""
    assert json.dumps(params_to_json(back)) == json.dumps(params_to_json(src))
    assert back.dim == src.dim
    np.testing.assert_array_equal(back.b, src.b)
    np.testing.assert_array_equal(back.B.mat, src.B.mat)
    for got, want in ((back.m, src.m), (back.mu, src.mu)):
        assert len(got.jumps) == len(want.jumps)
        for a, b in zip(got.jumps, want.jumps):
            np.testing.assert_array_equal(a.direction, b.direction)
            assert a.law == b.law
            np.testing.assert_array_equal(a.weight, b.weight)


def test_params_json_roundtrip(tmp_path, bench):
    # an atom is written back with the xi it was given: written as r0 D instead,
    # the m atom 0 of mixed-d3-04 would come back with another direction
    for s in bench:
        path = tmp_path / f"{s.name}.json"
        save_params(s.params, path)
        assert_same_set(load_params(path), s.params)


def json_roundtrip(p_set):
    return params_from_json(json.loads(json.dumps(params_to_json(p_set))))


def test_params_json_merges_repeated_operator_kinds(rng):
    # both terms of one kind must survive the round trip
    d = 2
    empty = (ScalarJumpMeasure(d), OperatorJumpMeasure(d))
    lyap = LyapunovOperator(rng.standard_normal((d, d))) + LyapunovOperator(rng.standard_normal((d, d)))
    cong = (CongruenceSum((rng.standard_normal((d, d)),))
            + CongruenceSum(tuple(rng.standard_normal((d, d)) for _ in range(2))))
    for op in (lyap, cong, lyap + cong):
        src = ParameterSet(d, np.eye(d), op, *empty)
        back = json_roundtrip(src)
        np.testing.assert_allclose(back.B.mat, src.B.mat, rtol=0, atol=1e-14 * np.abs(src.B.mat).max())


@settings(derandomize=True, max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(admissible_cases())
def test_params_json_roundtrip_is_exact(case):
    src = case[0]
    back = json_roundtrip(src)
    assert_same_set(back, src)
    for got, want in zip(back.m.jumps + back.mu.jumps, src.m.jumps + src.mu.jumps):
        assert (got.xi is None) == (want.xi is None)
        if got.xi is not None:
            np.testing.assert_array_equal(got.xi, want.xi)


def test_params_json_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(ParameterFileError, match="line"):
        load_params(bad)
    with pytest.raises(ParameterFileError):
        params_from_json({"dim": 2})  # missing b
    with pytest.raises(ParameterFileError):
        params_from_json({"dim": 2, "b": {"dim": 2, "rows": [[0.0, 1e-3], [0.0, 0.0]]}})


def test_params_json_density_errors():
    obj = {"dim": 2, "b": {"dim": 2, "rows": [[1.0, 0.0], [0.0, 1.0]]},
           "m": {"rays": [{"D": {"dim": 2, "rows": [[1.0, 0.0], [0.0, 0.0]]},
                           "density": {"type": "weird"}}]}}
    with pytest.raises(ParameterFileError):
        params_from_json(obj)


SECTION_MUTATIONS = [
    ("B", []), ("m", []), ("mu", "x"),
    ("B", {"conjugations": [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]]}),
    ("B", {"dense": [[1.0, 0.0], [0.0, 1.0]]}),
    ("B", {"lyapunov": "abc"}),
]


def section_mutant(key, value):
    obj = params_to_json(affinehs.library.get("mc2-00").params)
    obj[key] = value
    return obj


@pytest.mark.parametrize("key, value", SECTION_MUTATIONS)
def test_params_json_malformed_section_raises_parameter_file_error(key, value):
    with pytest.raises(ParameterFileError):
        params_from_json(section_mutant(key, value))


def test_params_json_any_mutation_raises_only_parameter_file_error():
    # every value of the file, at any depth, replaced by junk: the file
    # parses or raises ParameterFileError, never another exception
    base = json.loads(json.dumps(params_to_json(affinehs.library.get("mixed-d2-00").params)))
    base["B"]["dense"] = np.zeros((3, 3)).tolist()
    junk = [[], "x", 5, None, {}, [[1.0]], [[1.0, 2.0, 3.0]], [[[1.0]]], float("nan"),
            {"dim": 3, "rows": np.eye(3).tolist()}]

    def key_paths(node, prefix=()):
        yield prefix
        children = node.items() if isinstance(node, dict) else (
            enumerate(node[:2]) if isinstance(node, list) else ())
        for k, v in children:
            yield from key_paths(v, prefix + (k,))

    n_parsed = n_rejected = 0
    for path in list(key_paths(base))[1:]:
        for value in junk:
            obj = json.loads(json.dumps(base))
            parent = obj
            for k in path[:-1]:
                parent = parent[k]
            parent[path[-1]] = value
            try:
                params_from_json(obj)
                n_parsed += 1
            except ParameterFileError:
                n_rejected += 1
    assert n_rejected > 100 and n_parsed > 0
