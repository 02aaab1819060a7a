"""Core operator algebra: representation, composition, adjoints, norms."""

import numpy as np
import pytest

from randops import crandn, op_maxdiff, random_antilinear, random_operator, random_unit_vector
from rlspec import (
    DimensionMismatch,
    RealLinearOperator,
    ValidationError,
    add,
    adjoint,
    apply,
    charpoly_eval,
    complexify,
    compose,
    conjugation,
    identity,
    min_modulus,
    operator_norm,
    parts_from_action,
    poly_apply,
    realify,
    scalar_operator,
    scale,
    schatten_norm,
)
from rlspec.operators import _real_block


def test_apply_identity_and_conjugation():
    z = np.array([1j, 2.0, -3.0 + 0.5j])
    assert np.allclose(apply(identity(3), z), z)
    assert np.allclose(apply(conjugation(3), z), z.conj())
    # conjugation on (i, 2)
    assert np.allclose(apply(conjugation(2), [1j, 2.0]), [-1j, 2.0])


def test_apply_scalar_operator():
    R = scalar_operator(1.0, 2.0)
    assert np.allclose(apply(R, [1j]), [1j + 2 * (-1j)])
    assert np.allclose(apply(R, [1j]), [-1j])


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        apply(identity(2), [1.0, 2.0, 3.0])


def test_real_linearity_of_apply():
    rng = np.random.default_rng(7)
    R = random_operator(rng, 4)
    z, w = crandn(rng, 4), crandn(rng, 4)
    r = float(rng.standard_normal())
    assert np.allclose(apply(R, z + w), apply(R, z) + apply(R, w), atol=1e-12)
    assert np.allclose(apply(R, r * z), r * apply(R, z), atol=1e-12)


def test_parts_from_action_trivial():
    got = parts_from_action(lambda z: z.conj(), 3)
    assert op_maxdiff(got, conjugation(3)) < 1e-14
    got = parts_from_action(lambda z: 2.0 * z, 3)
    assert op_maxdiff(got, scale(2.0, identity(3))) < 1e-14


def test_parts_from_action_round_trip():
    rng = np.random.default_rng(11)
    for n in range(1, 9):
        R = random_operator(rng, n)
        got = parts_from_action(lambda z: apply(R, z), n)
        assert op_maxdiff(got, R) < 1e-12


def test_parts_from_action_rejects_nonlinear_map():
    with pytest.raises(ValidationError):
        parts_from_action(lambda z: z * np.linalg.norm(z), 2)


def test_compose_conjugation_squares_to_identity():
    tau = conjugation(2)
    assert op_maxdiff(compose(tau, tau), identity(2)) == 0.0


def test_compose_noncommutativity():
    iI = scale(1j, identity(2))
    tau = conjugation(2)
    left = compose(iI, tau)
    right = compose(tau, iI)
    assert np.allclose(left.B, 1j * np.eye(2))
    assert np.allclose(left.C, 0)
    assert np.allclose(right.B, -1j * np.eye(2))


def test_compose_matches_pointwise_application():
    rng = np.random.default_rng(21)
    for n in (1, 3, 5):
        R1, R2 = random_operator(rng, n), random_operator(rng, n)
        R = compose(R1, R2)
        for _ in range(20):
            z = crandn(rng, n)
            assert np.linalg.norm(apply(R, z) - apply(R1, apply(R2, z))) < 1e-12 * (
                1 + np.linalg.norm(z)
            )


def test_compose_associative():
    rng = np.random.default_rng(22)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        A, B, C = (random_operator(rng, n) for _ in range(3))
        assert op_maxdiff(compose(compose(A, B), C), compose(A, compose(B, C))) < 1e-10


def test_adjoint_transposes_antilinear_part():
    R = RealLinearOperator(np.zeros((2, 2)), [[0.0, 1.0], [0.0, 0.0]])
    got = adjoint(R)
    assert np.allclose(got.B, [[0.0, 0.0], [1.0, 0.0]])
    assert np.allclose(got.C, 0)


def test_adjoint_fixes_real_symmetric_hankel():
    # self-adjoint antilinear operator: B real symmetric, C = 0
    B = np.array([[1.0, 0.5], [0.5, 0.25]])
    R = RealLinearOperator(np.zeros((2, 2)), B)
    assert op_maxdiff(adjoint(R), R) == 0.0


def test_adjoint_real_pairing_identity():
    rng = np.random.default_rng(31)
    for n in (1, 2, 5):
        R = random_operator(rng, n)
        Rs = adjoint(R)
        for _ in range(20):
            x, y = crandn(rng, n), crandn(rng, n)
            lhs = np.real(np.vdot(y, apply(R, x)))
            rhs = np.real(np.vdot(apply(Rs, y), x))
            assert abs(lhs - rhs) < 1e-12 * (1 + abs(lhs))


def test_adjoint_involution_and_product_rule():
    rng = np.random.default_rng(32)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        R1, R2 = random_operator(rng, n), random_operator(rng, n)
        assert op_maxdiff(adjoint(adjoint(R1)), R1) < 1e-14
        assert op_maxdiff(adjoint(compose(R1, R2)), compose(adjoint(R2), adjoint(R1))) < 1e-10


def test_complexify_block_layout():
    assert np.allclose(complexify(conjugation(1)), [[0, 1], [1, 0]])
    assert np.allclose(complexify(identity(2)), np.eye(4))


def test_complexify_swap_conjugation_symmetry():
    rng = np.random.default_rng(33)
    R = random_operator(rng, 3)
    M = complexify(R)
    J = np.block(
        [[np.zeros((3, 3)), np.eye(3)], [np.eye(3), np.zeros((3, 3))]]
    )
    assert np.allclose(J @ M @ J, M.conj())


def test_complexify_determinant_matches_charpoly_at_zero():
    rng = np.random.default_rng(34)
    for n in (1, 2, 4):
        R = random_operator(rng, n)
        det = np.linalg.det(complexify(R))
        assert abs(det.imag) < 1e-10 * (1 + abs(det))
        assert abs(det.real - charpoly_eval(R, 0.0)) < 1e-10 * (1 + abs(det))


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [1, 5])
def test_block_builders_match_np_block(n):
    rng = np.random.default_rng(36 + n)
    R = random_operator(rng, n)
    assert _same_bits(complexify(R), np.block([[R.C, R.B], [R.B.conj(), R.C.conj()]]))
    for shape in [(n, n), (1, n, n), (4, n, n)]:
        P, Q = crandn(rng, *shape), crandn(rng, *shape)
        ref = np.block([[P.real, -Q.imag], [P.imag, Q.real]])
        assert _same_bits(_real_block(P, Q), ref)


def test_realify_reproduces_action():
    rng = np.random.default_rng(35)
    for n in (1, 3):
        R = random_operator(rng, n)
        M = realify(R)
        for _ in range(5):
            z = crandn(rng, n)
            w = apply(R, z)
            stacked = M @ np.concatenate([z.real, z.imag])
            assert np.allclose(stacked, np.concatenate([w.real, w.imag]), atol=1e-13)


def test_operator_norm_isometries():
    assert abs(operator_norm(conjugation(3)) - 1.0) < 1e-14
    assert abs(operator_norm(scale(2.0, conjugation(3))) - 2.0) < 1e-14


def test_operator_norm_is_attained_supremum():
    rng = np.random.default_rng(41)
    for n in (2, 4):
        R = random_operator(rng, n)
        nrm = operator_norm(R)
        # sampled lower bounds never exceed the norm
        for _ in range(50):
            z = random_unit_vector(rng, n)
            assert np.linalg.norm(apply(R, z)) <= nrm + 1e-12
        # the maximizing singular vector attains it
        M = realify(R)
        _, s, Vh = np.linalg.svd(M)
        v = Vh[0]
        z = v[:n] + 1j * v[n:]
        assert abs(np.linalg.norm(apply(R, z)) - nrm) < 1e-6


def test_operator_norm_submultiplicative():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        R1, R2 = random_operator(rng, n), random_operator(rng, n)
        assert operator_norm(compose(R1, R2)) <= operator_norm(R1) * operator_norm(R2) + 1e-12


def test_min_modulus_examples():
    assert abs(min_modulus(conjugation(2)) - 1.0) < 1e-14
    singular = RealLinearOperator(np.diag([1.0, 0.0]), np.zeros((2, 2)))
    assert min_modulus(singular) < 1e-14


def test_min_modulus_lower_bounds_samples():
    rng = np.random.default_rng(43)
    R = random_operator(rng, 3)
    j = min_modulus(R)
    for _ in range(50):
        z = random_unit_vector(rng, 3)
        assert j <= np.linalg.norm(apply(R, z)) + 1e-12


def test_schatten_norm_examples():
    R = RealLinearOperator(np.diag([3.0, 4.0]), np.zeros((2, 2)))
    assert abs(schatten_norm(R, 1) - 7.0) < 1e-13
    for n in (2, 3):
        Q = np.linalg.qr(crandn(np.random.default_rng(5), n, n))[0]
        R = RealLinearOperator(np.zeros((n, n)), Q)
        assert abs(schatten_norm(R, 2) - np.sqrt(n)) < 1e-13


def test_schatten_norm_rejects_small_p():
    with pytest.raises(ValidationError):
        schatten_norm(identity(2), 0.5)


def _schatten_pp(M, p):
    s = np.linalg.svd(M, compute_uv=False)
    return float(np.sum(s**p))


def test_complexified_schatten_relations():
    # doubling for pure complex linear and pure antilinear parts, and the
    # mixed lower bound, for p in {1, 2}
    rng = np.random.default_rng(51)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        R = random_operator(rng, n)
        Cpart = RealLinearOperator(R.C, np.zeros((n, n)))
        Apart = RealLinearOperator(np.zeros((n, n)), R.B)
        for p in (1.0, 2.0):
            assert abs(_schatten_pp(complexify(Cpart), p) - 2 * _schatten_pp(R.C, p)) < 1e-9
            assert abs(_schatten_pp(complexify(Apart), p) - 2 * _schatten_pp(R.B, p)) < 1e-9
            mixed = _schatten_pp(complexify(R), p)
            assert mixed >= _schatten_pp(R.C, p) + _schatten_pp(R.B, p) - 1e-12


def test_poly_apply_linear_term_recovers_operator():
    rng = np.random.default_rng(61)
    R = random_operator(rng, 3)
    assert op_maxdiff(poly_apply([0.0, 1.0], R), R) < 1e-14


def test_poly_apply_empty_and_constant():
    R = random_operator(np.random.default_rng(62), 2)
    Z = poly_apply([], R)
    assert np.allclose(Z.C, 0) and np.allclose(Z.B, 0)
    K = poly_apply([2.0 - 1j], R)
    assert np.allclose(K.C, (2.0 - 1j) * np.eye(2)) and np.allclose(K.B, 0)


def test_poly_apply_conjugated_coefficient_identity_special():
    # A p(A) = pbar(A) A with p(z) = i z on a random antilinear A
    rng = np.random.default_rng(63)
    A = random_antilinear(rng, 3)
    lhs = compose(A, poly_apply([0.0, 1j], A))
    rhs = compose(poly_apply([0.0, -1j], A), A)
    assert op_maxdiff(lhs, rhs) < 1e-13


def test_poly_apply_conjugated_coefficient_identity_random():
    rng = np.random.default_rng(64)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        A = random_antilinear(rng, n)
        coeffs = crandn(rng, 5)  # degree 4
        lhs = compose(A, poly_apply(coeffs, A))
        rhs = compose(poly_apply(coeffs.conj(), A), A)
        assert op_maxdiff(lhs, rhs) < 1e-11


def test_poly_apply_matches_power_expansion():
    rng = np.random.default_rng(65)
    n = 3
    R = random_operator(rng, n)
    coeffs = crandn(rng, 4)
    P = poly_apply(coeffs, R)
    for _ in range(10):
        z = crandn(rng, n)
        acc = np.zeros(n, dtype=complex)
        w = z.copy()
        for c in coeffs:
            acc = acc + c * w
            w = apply(R, w)
        assert np.linalg.norm(apply(P, z) - acc) < 1e-11 * (1 + np.linalg.norm(acc))


def test_operator_values_are_immutable():
    R = identity(2)
    with pytest.raises(ValueError):
        R.C[0, 0] = 5.0


def test_add_and_scale():
    rng = np.random.default_rng(66)
    R1, R2 = random_operator(rng, 2), random_operator(rng, 2)
    z = crandn(rng, 2)
    assert np.allclose(apply(add(R1, R2), z), apply(R1, z) + apply(R2, z))
    assert np.allclose(apply(scale(2j, R1), z), 2j * apply(R1, z))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("part", ["C", "B"])
def test_operator_refuses_non_finite_parts(part, bad):
    # a NaN part used to construct, and certificates and sweeps then failed
    # with a raw LinAlgError ("SVD did not converge")
    parts = {"C": np.eye(2, dtype=complex), "B": np.zeros((2, 2), dtype=complex)}
    parts[part][1, 0] = bad
    with pytest.raises(ValidationError, match="must be finite"):
        RealLinearOperator(parts["C"], parts["B"])
