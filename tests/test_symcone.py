import numpy as np
import pytest
import scipy.linalg
from oracle import matrix_by_basis_loop, structured_apply
from strategies import random_symmetric

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
        for t in (0.0, 0.3, 1.7):
            np.testing.assert_allclose(prop.dot(t, y), scipy.linalg.expm(t * mat) @ y,
                                       rtol=1e-10, atol=1e-12)


def test_sym_json_roundtrip(rng):
    a = random_symmetric(rng, 3)
    b = sym_from_json(sym_to_json(a))
    np.testing.assert_array_equal(a, b)
    bad = sym_to_json(a)
    bad["rows"][0][1] += 1e-6
    with pytest.raises(ValueError):
        sym_from_json(bad)
