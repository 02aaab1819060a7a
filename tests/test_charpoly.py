"""Characteristic polynomial extraction, sums of squares, certificates."""

import tracemalloc
import warnings

import numpy as np
import pytest

from randops import crandn, random_operator
from rlspec import (
    CoeffMatrix,
    NotPositiveDefinite,
    NumericalFailure,
    RealLinearOperator,
    ValidationError,
    adjoint,
    charpoly_eval,
    cholesky_sos,
    coeff_matrix,
    coeff_poly_eval,
    complexify,
    conjugation,
    emptiness_certificates,
    operator_norm,
    realify,
    rotate,
    scalar_operator,
    sos_decompose,
    sos_eval,
)
import rlspec.charpoly as charpoly_module
from rlspec.charpoly import _DET_STACK_ENTRIES, _validate_coeff


def eps_operator(eps: float) -> RealLinearOperator:
    a = np.sqrt((1 + eps) / 2)
    b = np.sqrt((1 - eps) / 2)
    return RealLinearOperator(np.zeros((2, 2)), [[a, b], [-b, a]])


def skew_operator() -> RealLinearOperator:
    return RealLinearOperator(np.zeros((2, 2)), [[0.0, 1.0], [-1.0, 0.0]])


def with_norm(R: RealLinearOperator, norm: float) -> RealLinearOperator:
    s = norm / operator_norm(R)
    return RealLinearOperator(s * R.C, s * R.B)


def torus_weights(n: int, rho: float) -> np.ndarray:
    # rho**(i + j): the torus extraction's G[i, j] is H[i, j] times this
    k = np.arange(n + 1)
    return float(rho) ** np.add.outer(k, k)


# ---------------------------------------------------------------- charpoly_eval

def test_charpoly_scalar_formula():
    rng = np.random.default_rng(1)
    for _ in range(10):
        al, be = complex(crandn(rng)), complex(crandn(rng))
        R = scalar_operator(al, be)
        for _ in range(8):
            lam = complex(crandn(rng))
            ref = (
                abs(al) ** 2
                - abs(be) ** 2
                - np.conj(al) * lam
                - al * np.conj(lam)
                + lam * np.conj(lam)
            )
            assert abs(charpoly_eval(R, lam) - ref.real) < 1e-12 * (1 + abs(ref))


def test_charpoly_identity_scalar():
    R = scalar_operator(1.0, 0.0)
    for lam in (0.3 + 0.4j, -2.0, 1.0):
        assert abs(charpoly_eval(R, lam) - abs(1 - lam) ** 2) < 1e-13


def test_charpoly_eps_example():
    rng = np.random.default_rng(2)
    for eps in (0.25, 0.5, 0.9):
        R = eps_operator(eps)
        for _ in range(20):
            lam = complex(2 * crandn(rng))
            ref = abs(lam) ** 4 - 2 * eps * abs(lam) ** 2 + 1
            assert abs(charpoly_eval(R, lam) - ref) < 1e-11 * (1 + abs(ref))


def test_charpoly_values_nearly_real():
    # imaginary part of the raw determinant stays at roundoff level
    rng = np.random.default_rng(3)
    from rlspec import complexify

    for _ in range(20):
        n = int(rng.integers(1, 7))
        R = random_operator(rng, n)
        lam = complex(crandn(rng))
        M = complexify(R)
        idx = np.arange(n)
        M[idx, idx] -= lam
        M[n + idx, n + idx] -= np.conj(lam)
        det = np.linalg.det(M)
        assert abs(det.imag) <= 1e-9 * (1 + abs(det))


# ---------------------------------------------------------------- coeff_matrix

def test_coeff_scalar_formula():
    rng = np.random.default_rng(4)
    for _ in range(10):
        al, be = complex(crandn(rng)), complex(crandn(rng))
        cm = coeff_matrix(scalar_operator(al, be))
        ref = np.array([[abs(al) ** 2 - abs(be) ** 2, -np.conj(al)], [-al, 1.0]])
        assert np.max(np.abs(cm.H - ref)) < 1e-10


def test_coeff_eps_example_diagonal():
    for eps in (0.25, 0.5, 0.9):
        cm = coeff_matrix(eps_operator(eps))
        ref = np.diag([1.0, -2 * eps, 1.0])
        assert np.max(np.abs(cm.H - ref)) < 1e-9


def test_coeff_zero_operator():
    cm = coeff_matrix(RealLinearOperator([[0.0]], [[0.0]]))
    assert np.max(np.abs(cm.H - np.array([[0.0, 0.0], [0.0, 1.0]]))) < 1e-12


def test_coeff_interpolation_matches_exact_oracle():
    rng = np.random.default_rng(5)
    for n in range(1, 6):
        for _ in range(4):
            R = random_operator(rng, n)
            Hi = coeff_matrix(R, mode="interpolation").H
            Hx = coeff_matrix(R, mode="exact").H
            assert np.max(np.abs(Hi - Hx)) < 1e-8


def test_exact_oracle_agrees_with_determinant_pointwise():
    rng = np.random.default_rng(6)
    for n in (1, 2, 3, 4):
        R = random_operator(rng, n)
        H = coeff_matrix(R, mode="exact").H
        for _ in range(8):
            lam = complex(crandn(rng))
            ref = charpoly_eval(R, lam)
            assert abs(coeff_poly_eval(H, lam) - ref) < 1e-10 * (1 + abs(ref))


def coeff_exact_by_subset(R):
    # the minor expansion one column subset at a time, as a reference for the
    # vectorised oracle: the same products and sums, in the same order
    from itertools import combinations

    n, m = R.n, 2 * R.n
    M = complexify(R)
    one = np.zeros((n + 1, n + 1), dtype=complex)
    one[0, 0] = 1.0
    level = {0: one}
    for row in range(m):
        nxt = {}
        for T in combinations(range(m), row + 1):
            mask = sum(1 << c for c in T)
            acc = np.zeros((n + 1, n + 1), dtype=complex)
            for t, c in enumerate(T):
                sub = level[mask ^ (1 << c)]
                sgn = -1.0 if (row + t) % 2 else 1.0
                acc += (sgn * M[row, c]) * sub
                if c == row:
                    if row < n:
                        acc[:, 1:] -= sgn * sub[:, :-1]
                    else:
                        acc[1:, :] -= sgn * sub[:-1, :]
            nxt[mask] = acc
        level = nxt
    return level[(1 << m) - 1]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_exact_oracle_equals_subset_by_subset_expansion(n):
    rng = np.random.default_rng(50 + n)
    for R in (random_operator(rng, n), random_operator(rng, n, scale=10.0)):
        assert np.array_equal(charpoly_module._coeff_exact(R), coeff_exact_by_subset(R))


def test_coeff_structure_invariants_random():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        R = random_operator(rng, n)
        cm = coeff_matrix(R)
        assert cm.asymmetry <= 1e-9
        assert np.max(np.abs(cm.H - cm.H.conj().T)) == 0.0
        assert abs(cm.H[n, n] - 1.0) < 1e-9
        assert abs(cm.H[0, 0].real - charpoly_eval(R, 0.0)) < 1e-8


def test_coeff_asymmetry_is_scale_free():
    # max|G - G*| / max|G| of the normalized samples: the same for every s R
    R = random_operator(np.random.default_rng(8), 8)
    base = coeff_matrix(R).asymmetry
    assert 0.0 <= base <= 1e-12
    for s in (1e-3, 1e-1, 10.0, 1e3):
        scaled = RealLinearOperator(s * R.C, s * R.B)
        assert abs(coeff_matrix(scaled).asymmetry - base) <= 1e-12


def test_coeff_matrix_rejects_unknown_mode():
    with pytest.raises(Exception):
        coeff_matrix(conjugation(1), mode="symbolic")


def test_coeff_torus_matches_exact_oracle_across_norms():
    # Entry (i, j) is compared on the scale rho**(i + j) at which the torus
    # grid sees it, relative to the largest weighted coefficient.
    rng = np.random.default_rng(18)
    cases = [(n, norm) for n in (1, 3, 6) for norm in (1e-3, 1.0, 10.0, 100.0)]
    for n, norm in cases + [(8, 1e-3), (8, 100.0)]:
        R = with_norm(random_operator(rng, n), norm)
        W = torus_weights(n, operator_norm(R))
        Hi = coeff_matrix(R).H
        Hx = coeff_matrix(R, mode="exact").H
        assert np.max(np.abs(Hi - Hx) * W) <= 1e-12 * np.max(np.abs(Hx) * W), (n, norm)


def test_coeff_scaling_equivariance():
    # p_{sR}(lam, mu) = s**(2n) p_R(lam / s, mu / s), so
    # H(sR)[i, j] = s**(2n - i - j) H(R)[i, j]
    rng = np.random.default_rng(19)
    for n in (1, 2, 5, 11, 16):
        R = random_operator(rng, n)
        H = coeff_matrix(R).H
        k = np.arange(n + 1)
        for s in (1e-3, 1e-1, 3.0, 1e2, 1e3):
            Hs = coeff_matrix(RealLinearOperator(s * R.C, s * R.B)).H
            W = torus_weights(n, s * operator_norm(R))
            ref = s ** (2 * n - np.add.outer(k, k)) * H
            assert np.max(np.abs(Hs - ref) * W) <= 1e-12 * np.max(np.abs(ref) * W), (n, s)


def edge_operator(kind: str, n: int) -> RealLinearOperator:
    eye, zero = np.eye(n, dtype=complex), np.zeros((n, n), dtype=complex)
    rng = np.random.default_rng(n)
    if kind == "identity":
        return RealLinearOperator(eye, zero)
    if kind == "identity+antilinear":
        return RealLinearOperator(eye, 1e-9 * crandn(rng, n, n))
    if kind == "unitary":
        return RealLinearOperator(np.linalg.qr(crandn(rng, n, n))[0], zero)
    J = eye + np.diag(np.ones(n - 1), 1)
    return RealLinearOperator(J / np.linalg.norm(J, 2), zero)


@pytest.mark.parametrize("n", [1, 4, 7, 8])
def test_coeff_torus_matches_exact_oracle_on_edge_operators(n):
    # The torus samples R / ||R|| at radius 1 + 1/n, where
    # sigma_min(conj(C) - mu I) >= 1/n; the identity meets that bound at
    # mu = 1 + 1/n, and unitary and Jordan C come within a factor 1.9 and
    # 1.5 of it on the grid.
    for kind in ("identity", "identity+antilinear", "unitary", "jordan"):
        R = edge_operator(kind, n)
        W = torus_weights(n, operator_norm(R))
        Hi = coeff_matrix(R).H
        Hx = coeff_matrix(R, mode="exact").H
        assert np.max(np.abs(Hi - Hx) * W) <= 1e-12 * np.max(np.abs(Hx) * W), kind


@pytest.mark.parametrize("norm", [1e-3, 1.0, 1e2])
def test_coeff_matrix_extracts_and_validates_at_n64(norm):
    # At norm 1e-3 every sample of a torus at radius ||R|| underflows; the
    # normalised torus keeps the samples near 2**(2n) at any norm.
    R = with_norm(random_operator(np.random.default_rng(1), 64), norm)
    cm = coeff_matrix(R)
    assert cm.H[64, 64] == pytest.approx(1.0)


def test_coeff_matrix_overflow_is_a_typed_failure():
    # H[0, 0] = det of the complexification is about 1e368 here.
    R = with_norm(random_operator(np.random.default_rng(1), 64), 1e3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match=r"H\[0, 0\] of about 1e3\d\d overflows double range"):
            coeff_matrix(R)


def test_coeff_matrix_takes_no_2n_determinant(monkeypatch):
    # The torus takes one batched det of its n+1 blocks conj(C) - mu I;
    # validation uses slogdet.
    n = 6
    R = random_operator(np.random.default_rng(21), n)
    det = np.linalg.det
    shapes = []

    def counted(a):
        shapes.append(np.shape(a))
        return det(a)

    monkeypatch.setattr(np.linalg, "det", counted)
    coeff_matrix(R)
    assert shapes == [(n + 1, n, n)]


def test_coeff_matrix_reports_hermitian_violation(monkeypatch):
    # The torus samples are perturbed on their way into the first 1-D pass of
    # the DFT (along axis 1); the second pass sees them transformed.
    R = random_operator(np.random.default_rng(8), 4)
    fft = np.fft.fft
    shapes = []

    def perturbed(P, axis=-1):
        if axis == 1:
            shapes.append(P.shape)
            P = P + 1e-3 * np.max(np.abs(P)) * np.cos(np.arange(P.size)).reshape(P.shape)
        return fft(P, axis=axis)

    monkeypatch.setattr(np.fft, "fft", perturbed)
    with pytest.raises(NumericalFailure, match="Hermitian symmetry"):
        coeff_matrix(R)
    assert shapes == [(5, 5)]


def test_validated_coeff_matrix_takes_one_svd(monkeypatch):
    # The torus radius and the validation scale share one operator norm.
    R = random_operator(np.random.default_rng(15), 5)
    svd = np.linalg.svd
    shapes = []

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    coeff_matrix(R)
    assert shapes == [(10, 10)]


# -------------------------------------------------------- batched determinants

def test_validation_takes_2n_plus_3_real_determinants_in_bounded_stacks(monkeypatch):
    rng = np.random.default_rng(11)
    R = random_operator(rng, 3)
    lams = crandn(rng, 7)
    sign, logabs = charpoly_module._real_slogdets(R, lams)
    for lam, sg, la in zip(lams, sign, logabs):
        ref_sign, ref_log = np.linalg.slogdet(realify(RealLinearOperator(R.C - lam * np.eye(3), R.B)))
        assert sg == ref_sign and la == pytest.approx(ref_log, rel=1e-12, abs=1e-12)

    n = 32
    R = random_operator(rng, n)
    H = coeff_matrix(R).H
    stacks = []
    slogdet = np.linalg.slogdet

    def counted(S):
        stacks.append(S.shape)
        return slogdet(S)

    monkeypatch.setattr(np.linalg, "slogdet", counted)
    _validate_coeff(R, H, 1e-6, operator_norm(R))
    per_stack = _DET_STACK_ENTRIES // (2 * n) ** 2
    assert sum(shape[0] for shape in stacks) == 2 * n + 3
    assert len(stacks) == -(-(2 * n + 3) // per_stack)
    assert all(shape[0] <= per_stack and shape[1:] == (2 * n, 2 * n) for shape in stacks)


def test_coeff_matrix_memory_stays_bounded_at_n32():
    # The Schur-complement torus holds O(n**3) entries, about 0.6 MB at
    # n = 32; validation stacks its 2n+3 real 64 x 64 matrices 4 at a time.
    R = random_operator(np.random.default_rng(3), 32)
    tracemalloc.start()
    try:
        cm = coeff_matrix(R)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cm.H[32, 32] == pytest.approx(1.0)
    assert peak < 8 * 2**20


def test_validate_coeff_reports_first_failing_point():
    n, tol = 4, 1e-6
    R = random_operator(np.random.default_rng(10), n)
    # The documented points, in their order: point k has radius k of
    # linspace(0.6 s, 1.9 s, 2n+3) and angle 2 pi (k + 0.37) / (2n+3).
    s = 1.0 + operator_norm(R)
    m = 2 * n + 3
    radii = np.linspace(0.6 * s, 1.9 * s, m)
    thetas = 2.0 * np.pi * (np.arange(m) + 0.37) / m
    # Perturbing H[n-1, n] by delta adds Re(delta * |lam|**(2n-2) * lam) to
    # v* H v.  Aimed at a middle point, it fails there or just before, and by
    # more at larger radii later on: the first failure is neither the worst
    # nor the last one.
    k0 = m // 2
    mag = 2.0 * tol * (s + radii[k0]) ** (2 * n) / radii[k0] ** (2 * n - 1)
    H = coeff_matrix(R).H.copy()
    H[n - 1, n] += mag * np.exp(-1j * thetas[k0])

    lams, excess = [], []
    for r, th in zip(radii, thetas):
        lam = r * np.exp(1j * th)
        lams.append(lam)
        err = abs(coeff_poly_eval(H, lam) - charpoly_eval(R, lam))
        excess.append(err / (tol * (s + r) ** (2 * n)))
    failing = [k for k, e in enumerate(excess) if e > 1.0]
    first = failing[0]
    assert 0 < first < failing[-1] and excess[first] < max(excess)

    with pytest.raises(NumericalFailure) as info:
        _validate_coeff(R, H, tol, operator_norm(R))
    assert f"at lam={lams[first]:.4g}:" in str(info.value)
    _validate_coeff(R, coeff_matrix(R).H, tol, operator_norm(R))
    H[0, 0] = np.nan
    with pytest.raises(NumericalFailure):
        _validate_coeff(R, H, tol, operator_norm(R))


def test_validate_coeff_bound_stays_finite_beyond_double_range():
    # At n = 46 and norm 1e3, (s + r)**(2n) is about 1e318: a bound formed
    # directly overflows to inf and accepts any H.  The leading coefficient
    # dominates v* H v at the outer radii; the bound still sits 1e17 above
    # its term there, so it is corrupted by more than that.
    n, tol = 46, 1e-6
    R = with_norm(random_operator(np.random.default_rng(0), n), 1e3)
    assert 2 * n * np.log10(2.9 * (1.0 + operator_norm(R))) > 308
    H = coeff_matrix(R).H
    bad = H.copy()
    bad[n, n] += 1e20
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _validate_coeff(R, H, tol, operator_norm(R))
        with pytest.raises(NumericalFailure, match="disagree with the determinant"):
            _validate_coeff(R, bad, tol, operator_norm(R))


# ------------------------------------------------------------------------ sos

def test_sos_eps_example_monomials():
    eps = 0.5
    cm = coeff_matrix(eps_operator(eps))
    sos = sos_decompose(cm)
    assert sorted(np.round(sos.d, 9)) == pytest.approx([-1.0, 1.0, 1.0])
    # the nondegenerate weight -2 eps belongs to the pure monomial lam (the
    # other two weights are equal, so their rows are only a basis choice)
    k = int(np.argmin(np.abs(sos.d - (-2 * eps))))
    row = sos.U[k]
    assert abs(abs(row[1]) - 1.0) < 1e-9
    assert abs(row[0]) < 1e-9 and abs(row[2]) < 1e-9
    for mu in (0.0, 0.3, 1.0, 2.7):
        lam = np.sqrt(mu) * np.exp(0.4j)
        assert abs(sos_eval(sos, lam) - (mu**2 - 2 * eps * mu + 1)) < 1e-9 * (1 + mu**2)


def test_sos_pure_square_modulus():
    sos = sos_decompose(np.diag([0.0, 1.0]))
    assert np.allclose(sorted(sos.d), [0.0, 1.0])


def test_sos_reconstructs_charpoly_on_grid():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        R = random_operator(rng, n)
        cm = coeff_matrix(R)
        sos = sos_decompose(cm)
        for r in np.linspace(0.0, 2.0, 10):
            for th in np.linspace(0, 2 * np.pi, 10, endpoint=False):
                lam = r * np.exp(1j * th)
                ref = charpoly_eval(R, lam)
                assert abs(sos_eval(sos, lam) - ref) < 1e-9 * (1 + abs(lam) ** (2 * n))


def test_sos_rows_are_unitary_pointwise():
    # sum |p_i(lam)|^2 equals sum |lam|^(2j) when U is unitary
    rng = np.random.default_rng(10)
    R = random_operator(rng, 4)
    sos = sos_decompose(coeff_matrix(R))
    for _ in range(10):
        lam = complex(crandn(rng))
        v = lam ** np.arange(5)
        lhs = float(np.sum(np.abs(sos.U @ v) ** 2))
        rhs = float(np.sum(np.abs(v) ** 2))
        assert abs(lhs - rhs) < 1e-9 * (1 + rhs)
    assert np.max(np.abs(sos.U @ sos.U.conj().T - np.eye(5))) < 1e-12


def test_cholesky_sos_skew_example():
    # B^2 = -I so p = det(B^2 - |lam|^2 I) = (1 + |lam|^2)^2 and H = diag(1, 2, 1)
    R = skew_operator()
    cm = coeff_matrix(R)
    assert np.max(np.abs(cm.H - np.diag([1.0, 2.0, 1.0]))) < 1e-10
    sos = cholesky_sos(cm)
    assert sos.kind == "cholesky"
    assert np.allclose(sos.d, 1.0)
    # degrees 0, 1, 2 with the middle coefficient sqrt(2)
    for i, row in enumerate(sos.U):
        assert np.all(row[i + 1 :] == 0.0)
        assert abs(row[i]) > 0
    assert abs(sos.U[1, 1] - np.sqrt(2.0)) < 1e-12
    for lam in (0.0, 0.5 + 0.2j, -1.3j):
        assert abs(sos_eval(sos, lam) - charpoly_eval(R, lam)) < 1e-10
    # exact degrees 0..n: zeros above a positive real diagonal
    assert np.all(np.triu(sos.U, 1) == 0.0)
    assert np.all(np.diag(sos.U).real > 0.0) and np.all(np.diag(sos.U).imag == 0.0)


def test_cholesky_sos_identity_matrix():
    sos = cholesky_sos(np.eye(4))
    for i, row in enumerate(sos.U):
        assert abs(row[i] - 1.0) < 1e-14
        assert np.all(row[i + 1 :] == 0.0)
    lam = 0.7 - 0.3j
    assert abs(sos_eval(sos, lam) - sum(abs(lam) ** (2 * i) for i in range(4))) < 1e-12


def test_cholesky_sos_refuses_indefinite():
    eps = 0.5
    cm = coeff_matrix(eps_operator(eps))
    with pytest.raises(NotPositiveDefinite) as err:
        cholesky_sos(cm)
    assert abs(err.value.min_eigenvalue - (-2 * eps)) < 1e-9


# --------------------------------------------------------------- certificates

def test_certificates_conjugation_real_axis_zero():
    cert = emptiness_certificates(conjugation(1))
    assert cert.det_complexification == pytest.approx(-1.0)
    assert cert.real_axis_zero == pytest.approx(1.0, abs=1e-9)
    assert abs(charpoly_eval(conjugation(1), cert.real_axis_zero)) < 1e-8
    assert cert.pd_certificate is None
    assert cert.verdict == "nonempty"


def test_certificates_skew_positive_definite():
    cert = emptiness_certificates(skew_operator())
    assert cert.pd_certificate is not None
    assert cert.real_axis_zero is None
    assert cert.verdict == "empty"


def test_certificates_eps_inconclusive():
    # indefinite H yet empty spectrum: |lam|^2 would have to solve
    # mu^2 - 2 eps mu + 1 = 0, whose roots are complex for eps < 1
    eps = 0.5
    R = eps_operator(eps)
    cert = emptiness_certificates(R)
    assert cert.verdict == "inconclusive"
    assert cert.det_complexification == pytest.approx(1.0)
    assert cert.h_eigenvalues[0] == pytest.approx(-2 * eps, abs=1e-9)
    assert cert.h_eigenvalues == tuple(np.linalg.eigvalsh(coeff_matrix(R).H).tolist())
    mus = np.roots([1.0, -2 * eps, 1.0])
    assert np.all(np.abs(mus.imag) > 0.1)
    grid = [r * np.exp(1j * t) for r in np.linspace(0, 3, 40) for t in np.linspace(0, np.pi, 7)]
    assert min(charpoly_eval(R, lam) for lam in grid) > 0.0


def test_certificates_zero_determinant_edge():
    R = RealLinearOperator([[0.0]], [[0.0]])
    cert = emptiness_certificates(R)
    assert cert.real_axis_zero == 0.0


def test_real_axis_zero_is_a_root_on_the_hadamard_scale():
    # p(r, r) = det(realify(R) - r I); the Hadamard bound (product of the
    # column norms) is the scale that roundoff in that determinant lives on.
    rng = np.random.default_rng(20)
    found = 0
    for n in (1, 2, 3, 5, 8, 12, 16):
        for norm in (1e-3, 1.0, 10.0, 100.0):
            for _ in range(3):
                R = with_norm(random_operator(rng, n), norm)
                cert = emptiness_certificates(R)
                if cert.real_axis_zero is None:
                    continue
                found += 1
                A = realify(R) - cert.real_axis_zero * np.eye(2 * n)
                bound = np.prod(np.linalg.norm(A, axis=0))
                assert abs(np.linalg.det(A)) <= 1e-12 * bound, (n, norm)
    assert found >= 20


def test_real_axis_zero_is_the_smallest_nonnegative_root():
    # conjugation(1) + 0.5 z has p(r, r) = (r - 1.5)(r + 0.5): the negative
    # root is skipped
    R = RealLinearOperator([[0.5]], [[1.0]])
    cert = emptiness_certificates(R)
    assert cert.det_complexification == pytest.approx(-0.75)
    assert cert.real_axis_zero == pytest.approx(1.5, rel=1e-14)
    # p(r, r) = (r - 1)(r - 2)(r - 3)(r + 2) has three positive roots
    R = RealLinearOperator(np.diag([1.5, 0.5]), np.diag([-0.5, 2.5]))
    cert = emptiness_certificates(R)
    assert cert.det_complexification == pytest.approx(-12.0)
    assert cert.real_axis_zero == pytest.approx(1.0, rel=1e-14)


def test_certificates_take_no_zero_from_a_near_real_pair(monkeypatch):
    # only exactly real eigenvalues of realify(R) are zeros: a pair split off
    # the real axis, even by 1e-12, gives none, and negative ones are skipped
    # (these eigenvalues stand in for those of realify(conjugation(2)))
    R = conjugation(2)
    cm = coeff_matrix(R)
    eigs = np.array([-0.25, -0.5, 1.5 + 1e-12j, 1.5 - 1e-12j])
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: eigs)
    cert = emptiness_certificates(R, coeff=cm)
    assert cert.real_axis_zero is None
    assert cert.det_complexification == pytest.approx(0.25 * 0.5 * 1.5**2, rel=1e-14)
    assert cert.verdict == "inconclusive"


def test_certificates_read_an_exactly_zero_eigenvalue(monkeypatch):
    # an exactly zero eigenvalue is the smallest zero and makes p(0, 0) exactly 0
    R = conjugation(2)
    cm = coeff_matrix(R)
    eigs = np.array([2.0, 0.0, 0.5 + 1e-3j, 0.5 - 1e-3j])
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: eigs)
    cert = emptiness_certificates(R, coeff=cm)
    assert cert.real_axis_zero == 0.0
    assert cert.det_complexification == 0.0
    assert cert.verdict == "nonempty"


def test_real_axis_certificate_solves_line_0_of_the_ray_kernel():
    # the certificate solves realify(R) directly; the ray kernel's line 0 is
    # the same matrix to the bit, so both give the same eigenvalues
    rng = np.random.default_rng(32)
    for n in range(1, 9):
        for _ in range(3):
            R = random_operator(rng, n)
            for C, B in ((R.C, R.B), (R.C.real, R.B.real), (0 * R.C, R.B), (R.C, 0 * R.B)):
                Rk = RealLinearOperator(C, B)
                line0 = charpoly_module._line_eigvals(Rk, [0.0])[0]
                assert np.array_equal(np.linalg.eigvals(realify(Rk)), line0), n


def test_coeff_matrix_refuses_bad_fields():
    H = np.eye(2)
    for bad in (np.nan, np.inf, -2.0):
        with pytest.raises(ValidationError, match="norm"):
            CoeffMatrix(n=1, H=H, norm=bad, asymmetry=0.0)
        with pytest.raises(ValidationError, match="asymmetry"):
            CoeffMatrix(n=1, H=H, norm=1.0, asymmetry=bad)
    with pytest.raises(ValidationError, match="non-finite"):
        CoeffMatrix(n=1, H=[[1.0, np.nan], [np.nan, 1.0]], norm=1.0, asymmetry=0.0)
    # zero is allowed: the zero operator has norm 0, an exact H asymmetry 0
    assert CoeffMatrix(n=1, H=H, norm=0.0, asymmetry=0.0).norm == 0.0


def test_charpoly_eval_overflow_is_a_typed_failure():
    R = random_operator(np.random.default_rng(0), 64)
    R = RealLinearOperator(1e3 * R.C / operator_norm(R), 1e3 * R.B / operator_norm(R))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match="overflows"):
            charpoly_eval(R, 1e3)


# -------------------------------------------------------------------- adjoint

def test_adjoint_coeff_scalar_formula():
    rng = np.random.default_rng(12)
    al, be = complex(crandn(rng)), complex(crandn(rng))
    Hs = coeff_matrix(adjoint(scalar_operator(al, be))).H
    ref = np.array([[abs(al) ** 2 - abs(be) ** 2, -al], [-np.conj(al), 1.0]])
    assert np.max(np.abs(Hs - ref)) < 1e-10


def test_adjoint_coeff_self_adjoint_real():
    B = np.array([[1.0, 0.5, 0.25], [0.5, 0.25, 0.125], [0.25, 0.125, 0.0625]])
    R = RealLinearOperator(np.zeros((3, 3)), B)
    H = coeff_matrix(R).H
    assert np.max(np.abs(H.imag)) < 1e-10


def test_adjoint_coefficients_are_conjugate():
    # p_adj(lam, conj(lam)) = p(conj(lam), lam) conjugates H entrywise
    rng = np.random.default_rng(13)
    for n in (1, 2, 3, 5, 8, 12, 16):
        R = random_operator(rng, n)
        W = torus_weights(n, operator_norm(R))
        H = coeff_matrix(R).H
        Ha = coeff_matrix(adjoint(R)).H
        assert np.max(np.abs(Ha - H.conj()) * W) <= 1e-12 * np.max(np.abs(H) * W), n


# --------------------------------------------------------------------- rotate

def test_rotate_zero_angle_is_identity():
    R = random_operator(np.random.default_rng(14), 3)
    S = rotate(R, 0.0)
    assert np.max(np.abs(S.C - R.C)) == 0.0 and np.max(np.abs(S.B - R.B)) == 0.0


def test_rotate_scalar_pi():
    rng = np.random.default_rng(15)
    al, be = complex(crandn(rng)), complex(crandn(rng))
    R = scalar_operator(al, be)
    for r in np.linspace(0.0, 2.0, 7):
        ref = abs(al) ** 2 - abs(be) ** 2 + (al + np.conj(al)).real * r + r**2
        assert abs(charpoly_eval(R, -r) - ref) < 1e-11 * (1 + abs(ref))
        assert abs(charpoly_eval(rotate(R, np.pi), r) - ref) < 1e-11 * (1 + abs(ref))


def test_rotate_identity_random():
    rng = np.random.default_rng(16)
    for _ in range(8):
        n = int(rng.integers(1, 5))
        R = random_operator(rng, n)
        for th in np.linspace(0, 2 * np.pi, 8, endpoint=False):
            Rt = rotate(R, th)
            for r in np.linspace(0.0, 1.2, 5):
                lhs = charpoly_eval(R, r * np.exp(1j * th))
                rhs = charpoly_eval(Rt, r)
                assert abs(lhs - rhs) < 1e-10


def test_rotate_preserves_norm_scale():
    R = random_operator(np.random.default_rng(17), 3)
    assert abs(operator_norm(rotate(R, 1.234)) - operator_norm(R)) < 1e-10
