import numpy as np
import pytest
import scipy.linalg
from oracle import matrix_by_basis_loop, structured_apply
from strategies import random_symmetric

from affinehs import library
from affinehs.exceptions import DimensionMismatchError, OperatorExpError
from affinehs.symcone import (
    CongruenceSum,
    DenseOperator,
    ExpPropagator,
    LyapunovOperator,
    OperatorSum,
    RankOneSum,
    VecBasis,
    ZeroOperator,
    _check_symmetric_norm,
    check_symmetric,
    chi,
    cone_leq,
    expm_action,
    frob_norm,
    inner,
    min_eigenvalue,
    operator_norm,
    random_psd,
    sym_from_json,
    sym_to_json,
)

E11 = np.array([[1.0, 0.0], [0.0, 0.0]])
E22 = np.array([[0.0, 0.0], [0.0, 1.0]])


def test_inner_examples():
    assert inner(np.eye(2), np.eye(2)) == 2.0
    assert inner(np.array([[1.0, 2.0], [2.0, 3.0]]), np.zeros((2, 2))) == 0.0
    assert inner(E11, E22) == 0.0


def test_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        inner(np.eye(2), np.eye(3))


def test_min_eigenvalue_examples(rng):
    assert min_eigenvalue(np.eye(2)) == pytest.approx(1.0)
    assert min_eigenvalue(np.diag([1.0, -3.0])) == pytest.approx(-3.0)
    v = rng.standard_normal(3)
    assert min_eigenvalue(np.outer(v, v)) == pytest.approx(0.0, abs=1e-12)


def test_min_eigenvalue_closed_forms_match_lapack(rng):
    for d in (1, 2):
        for _ in range(200):
            a = random_symmetric(rng, d)
            assert min_eigenvalue(a) == pytest.approx(
                float(np.linalg.eigvalsh(a)[0]), rel=1e-12, abs=1e-12)
    # a stack (..., d, d) gives one value per matrix
    for d in (1, 2, 3, 5):
        stack = np.array([[random_symmetric(rng, d) for _ in range(3)] for _ in range(4)])
        got = min_eigenvalue(stack)
        assert got.shape == (4, 3)
        np.testing.assert_allclose(got, np.linalg.eigvalsh(stack)[..., 0], rtol=1e-12, atol=1e-12)
        assert got[2, 1] == min_eigenvalue(stack[2, 1])


def test_min_eigenvalue_reads_exactly_symmetric_stacks_as_they_are(rng):
    # eigvalsh of a symmetric input equals eigvalsh of its symmetrized copy bit for bit
    for d in (3, 4, 5):
        a = rng.standard_normal((6, 4, d, d))
        a = a + a.swapaxes(-1, -2)
        assert np.array_equal(min_eigenvalue(a), np.linalg.eigvalsh(0.5 * (a + a.swapaxes(-1, -2)))[..., 0])
        assert min_eigenvalue(a[2, 3]) == np.linalg.eigvalsh(a[2, 3])[0]


def test_cone_leq_examples():
    assert cone_leq(np.zeros((2, 2)), np.eye(2), 0.0)
    assert not cone_leq(np.eye(2), np.zeros((2, 2)), 1e-12)
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    assert cone_leq(a, a, 0.0)


def test_chi_cutoff():
    np.testing.assert_array_equal(chi(0.5 * E11), 0.5 * E11)
    np.testing.assert_array_equal(chi(2.0 * E11), np.zeros((2, 2)))
    # the boundary ||xi|| = 1 keeps the jump
    np.testing.assert_array_equal(chi(E11), E11)


def test_vec_isometry(rng):
    for d in (1, 2, 3, 5):
        basis = VecBasis(d)
        for _ in range(100):
            a = random_symmetric(rng, d)
            b = random_symmetric(rng, d)
            lhs = inner(a, b)
            rhs = float(basis.vec(a) @ basis.vec(b))
            assert abs(lhs - rhs) <= 1e-13 * max(1.0, frob_norm(a) * frob_norm(b))
            np.testing.assert_allclose(basis.unvec(basis.vec(a)), a, atol=0.0)


def library_and_random_matrices(rng):
    """Every library set's u and x0, and random matrices of d = 1..5: symmetric,
    not symmetric, transposed, strided and Fortran-ordered."""
    mats = [m for s in library.benchmark_sets() for m in (s.u, s.x0)]
    for d in range(1, 6):
        for _ in range(20):
            a = rng.standard_normal((d, d)) * 10.0 ** rng.integers(-3, 4)
            wide = rng.standard_normal((d, 2 * d))
            mats += [a, a + a.T, a.T, wide[:, ::2], np.asfortranarray(a + a.T)]
    return mats


def test_vec_is_the_per_entry_formula_bit_for_bit(rng):
    # one gather of precomputed flat indices and one product: a[i, i], then
    # sqrt(2) a[i, j] for i < j, each exactly as the per-entry formula
    for a in library_and_random_matrices(rng):
        d = a.shape[0]
        want = [a[i, i] for i in range(d)] + [np.sqrt(2.0) * a[i, j]
                                              for i in range(d) for j in range(i + 1, d)]
        got = VecBasis(d).vec(a)
        assert got.tolist() == want
        assert VecBasis(d).vec(a).tolist() == want   # the index table is shared


def test_check_symmetric_norm_is_numpys_norm_bit_for_bit(rng):
    # sqrt(a . a) over the entries in memory order is what np.linalg.norm
    # computes, and the symmetrized copy is 0.5 (a + a.T); an infinite
    # tolerance lets the asymmetric matrices through to compare their norms
    for a in library_and_random_matrices(rng):
        got, norm = _check_symmetric_norm(a, rel_tol=np.inf)
        assert norm == float(np.linalg.norm(a))
        assert got.tolist() == (0.5 * (a + a.T)).tolist()
        if not np.array_equal(a, a.T):
            with pytest.raises(ValueError, match="asymmetric"):
                check_symmetric(a)


def test_cone_monotonicity(rng):
    # self-duality proxy: 0 <= x <= y implies ||x|| <= ||y||
    for _ in range(100):
        x = random_psd(rng, 3)
        y = x + random_psd(rng, 3)
        assert frob_norm(x) <= frob_norm(y) + 1e-10


def _operators(rng, d):
    beta = rng.standard_normal((d, d))
    gs = tuple(rng.standard_normal((d, d)) for _ in range(2))
    pairs = tuple((random_symmetric(rng, d), random_symmetric(rng, d)) for _ in range(2))
    basis = VecBasis(d)
    dense = DenseOperator(d, rng.standard_normal((basis.n, basis.n)))
    ops = [ZeroOperator(d), LyapunovOperator(beta), CongruenceSum(gs), RankOneSum(pairs), dense]
    ops.append(OperatorSum((ops[1], ops[3])))
    return ops


def test_adjoint_consistency(rng):
    for d in (1, 2, 4):
        for op in _operators(rng, d):
            for _ in range(100):
                x = random_symmetric(rng, d)
                y = random_symmetric(rng, d)
                lhs = inner(op.apply(x), y)
                rhs = inner(x, op.apply_adjoint(y))
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, frob_norm(x) * frob_norm(y) * (1 + operator_norm(op)))
                np.testing.assert_allclose(op.adjoint().apply(y), op.apply_adjoint(y),
                                           rtol=1e-13, atol=1e-13)


def test_operator_linearity(rng):
    for op in _operators(rng, 3):
        x = random_symmetric(rng, 3)
        y = random_symmetric(rng, 3)
        np.testing.assert_allclose(
            op.apply(2.0 * x - 0.5 * y), 2.0 * op.apply(x) - 0.5 * op.apply(y),
            rtol=1e-12, atol=1e-12)


def assert_matches_basis_loop(op, rel=1e-14):
    for adjoint, mat in ((False, op.mat), (True, op.adjoint().mat)):
        ref = matrix_by_basis_loop(op, adjoint)
        assert np.linalg.norm(mat - ref) <= rel * np.linalg.norm(ref), (op, adjoint)


def test_closed_form_matrices_match_structured_oracle(rng):
    for d in (1, 2, 4):
        for op in _operators(rng, d):
            assert_matches_basis_loop(op)
            x = random_symmetric(rng, d)
            np.testing.assert_allclose(op.apply(x), structured_apply(op, x), rtol=1e-13, atol=1e-13)


def test_library_operators_match_structured_oracle(bench):
    for s in bench:
        assert_matches_basis_loop(s.params.B)


def test_expm_action_zero_and_scalar(rng):
    v = random_symmetric(rng, 2)
    np.testing.assert_allclose(expm_action(ZeroOperator(2), 3.0, v), v, rtol=0, atol=1e-14)
    c = -0.7
    v1 = np.array([[2.0]])
    out = expm_action(DenseOperator(1, np.array([[c]])), 1.5, v1)
    assert out[0, 0] == pytest.approx(2.0 * np.exp(1.5 * c), rel=1e-12)


def test_expm_action_lyapunov_closed_form(rng):
    beta = rng.standard_normal((3, 3))
    v = random_psd(rng, 3)
    for t in (0.1, 0.8, 2.0):
        e_mat = scipy.linalg.expm(t * beta)
        expected = e_mat @ v @ e_mat.T
        got = expm_action(LyapunovOperator(beta), t, v)
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-10)


def test_expm_action_semigroup_and_positivity(rng):
    beta = -0.4 * np.eye(2) + 0.3 * rng.standard_normal((2, 2))
    op = LyapunovOperator(beta)
    v = random_psd(rng, 2)
    s, t = 0.7, 1.1
    lhs = expm_action(op, s + t, v)
    rhs = expm_action(op, s, expm_action(op, t, v))
    assert frob_norm(lhs - rhs) <= 1e-8 * frob_norm(v)
    for tt in (0.2, 1.0, 4.0):
        assert min_eigenvalue(expm_action(op, tt, v)) >= -1e-10


def test_expm_action_rejects_negative_t_and_overflow():
    op = LyapunovOperator(400.0 * np.eye(2))
    with pytest.raises(ValueError):
        expm_action(op, -1.0, np.eye(2))
    with pytest.raises(OperatorExpError):
        expm_action(op, 50.0, np.eye(2))


def test_exp_propagator_matches_expm(rng):
    mats = [rng.standard_normal((4, 4)), np.array([[0.0, 1.0], [0.0, 0.0]])]
    for mat in mats:
        prop = ExpPropagator(mat)
        y = rng.standard_normal(mat.shape[0])
        np.testing.assert_array_equal(prop.dot(0.0, y), y)
        for t in (0.0, 0.3, 1.7):
            np.testing.assert_allclose(prop.dot(t, y), scipy.linalg.expm(t * mat) @ y,
                                       rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("use_eig", [True, False])
def test_exp_propagator_leading_block(rng, use_eig):
    # a block upper-triangular M leaves the span of its leading coordinates
    # invariant, so dot(t, y, lead) is the leading block of e^{tM} applied to
    # y; a Jordan block in the leading block takes the dense route
    lead_block = rng.standard_normal((3, 3)) if use_eig else np.diag([1.0, 1.0], 1)
    mat = np.zeros((5, 5))
    mat[:3, :3] = lead_block
    mat[:3, 3:] = rng.standard_normal((3, 2))
    mat[3:, 3:] = rng.standard_normal((2, 2))
    prop = ExpPropagator(mat)
    assert prop.use_eig is use_eig
    y = rng.standard_normal(3)
    np.testing.assert_array_equal(prop.dot(0.0, y, 3), y)
    for t in (0.3, 1.7):
        got = prop.dot(t, y, 3)
        assert got.shape == (3,)
        np.testing.assert_allclose(got, scipy.linalg.expm(t * mat)[:3, :3] @ y, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(got, prop.dot(t, np.concatenate([y, [0.0, 0.0]]))[:3],
                                   rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("mat, use_eig", [
    (20.0 * np.eye(2), True),
    (np.array([[20.0, 1.0], [0.0, 20.0]]), False),   # a Jordan block: the dense route
])
def test_exp_propagator_overflow_raises_on_both_routes(mat, use_eig):
    prop = ExpPropagator(mat)
    assert prop.use_eig is use_eig
    np.testing.assert_allclose(prop.dot(0.1, np.ones(2)), scipy.linalg.expm(0.1 * mat) @ np.ones(2),
                               rtol=1e-12)
    with pytest.raises(OperatorExpError, match=r"t=50\b.*\|\|L\|\|="):
        prop.dot(50.0, np.ones(2))


def test_sym_json_roundtrip(rng):
    a = random_symmetric(rng, 3)
    b = sym_from_json(sym_to_json(a))
    np.testing.assert_array_equal(a, b)
    bad = sym_to_json(a)
    bad["rows"][0][1] += 1e-6
    with pytest.raises(ValueError):
        sym_from_json(bad)
