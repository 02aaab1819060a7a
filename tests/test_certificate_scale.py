"""Emptiness certificates do not depend on the scale of R, and are sound.

The PD test runs on the torus matrix G of ``H = W G W``, which does not
change when R is scaled (``spec(sR) = s spec(R)``), against the entrywise
error bound ``eps_g = asymmetry + (n+1) u`` (relative to ``max|G|``).
"""

import warnings

import numpy as np
import pytest

from exact_oracle import exact_h
from randops import crandn, random_operator
from rlspec import (
    CoeffMatrix,
    NotPositiveDefinite,
    RealLinearOperator,
    charpoly_eval,
    cholesky_sos,
    coeff_matrix,
    emptiness_certificates,
    no_eigenvalue_certificate,
    operator_norm,
    realify,
    sos_eval,
)
from rlspec.charpoly import _torus_log_weights

SCALES = (1e-9, 1e-6, 1e-3, 0.1, 1.0, 10.0, 1e3, 1e6, 1e9)
NORMS = (1e-3, 1.0, 1e3)


def scaled(R, s):
    return RealLinearOperator(s * R.C, s * R.B)


def torus_g(H, norm):
    """``G = W**-1 H W**-1`` with the weights of ``coeff_matrix``."""
    W = np.exp(_torus_log_weights(H.shape[0] - 1, norm))
    return H / W[:, None] / W


def exact_g_min(R):
    """Smallest eigenvalue of the exact oracle's G, relative to ``max|G|``."""
    G = torus_g(exact_h(R), operator_norm(R))
    return np.linalg.eigvalsh(G)[0] / np.max(np.abs(G))


def skew_family():
    # skew B with a small C at n = 2, 4, 6, each with an empty spectrum
    # proved by the skew-dominance certificate; normalised to ||R|| = 1
    rng = np.random.default_rng(18)
    ops = []
    for n, count in ((2, 5), (4, 5), (6, 4)):
        while sum(R.n == n for R in ops) < count:
            X = crandn(rng, n, n)
            R = RealLinearOperator(0.05 * crandn(rng, n, n), (X - X.T) / 2)
            if no_eigenvalue_certificate(R).certified:
                ops.append(scaled(R, 1.0 / operator_norm(R)))
    return ops


@pytest.mark.parametrize("s", SCALES)
def test_empty_verdict_does_not_depend_on_scale(s):
    lam = 0.7 * s * np.exp(0.9j)
    for R in skew_family():
        Rs = scaled(R, s)
        cert = emptiness_certificates(Rs)
        assert cert.verdict == "empty", (R.n, s, cert.g_min_eigenvalue)
        p = charpoly_eval(Rs, lam)
        assert abs(sos_eval(cert.pd_certificate, lam) - p) <= 1e-8 * p


def assert_cholesky_rows(sos):
    # exact degrees 0..n: zeros above a positive real diagonal
    assert sos.kind == "cholesky"
    assert np.all(np.triu(sos.U, 1) == 0.0)
    assert np.all(np.diag(sos.U).real > 0.0) and np.all(np.diag(sos.U).imag == 0.0)


def cholesky_agrees(R):
    """Whether ``cholesky_sos`` succeeds exactly where the verdict is empty."""
    cm = coeff_matrix(R)
    cert = emptiness_certificates(R, coeff=cm)
    if cert.verdict != "empty":
        with pytest.raises(NotPositiveDefinite):
            cholesky_sos(cm)
        return False
    sos = cholesky_sos(cm)
    assert_cholesky_rows(sos)
    assert np.array_equal(sos.U, cert.pd_certificate.U)
    return True


@pytest.mark.parametrize("s", SCALES)
def test_cholesky_sos_agrees_with_the_certificate(s):
    # one PD rule for both: every skew operator is certified, and cholesky_sos
    # refuses the path operators the certificate leaves open
    example = RealLinearOperator(0.05 * np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
    assert all(cholesky_agrees(scaled(R, s)) for R in [*skew_family(), example])
    ends = [cholesky_agrees(scaled(RealLinearOperator(t * C0, B), s))
            for C0, B in path_operators() for t in (0.0, 3.0)]
    assert 0 < sum(ends) < len(ends)


@pytest.mark.parametrize("s", [1e-9, 1.0, 1e9])
def test_cholesky_sos_of_a_plain_matrix_does_not_depend_on_scale(s):
    # a plain matrix as G: the PD test reads G relative to max|G|, so its
    # verdict moves neither with the scale of G nor with the norm of W
    rng = np.random.default_rng(24)
    X = crandn(rng, 5, 5)
    A = X @ X.conj().T + 0.1 * np.eye(5)
    assert_cholesky_rows(cholesky_sos(CoeffMatrix(s * A, norm=s)))
    with pytest.raises(NotPositiveDefinite):
        cholesky_sos(CoeffMatrix(s * (A - 2 * np.linalg.eigvalsh(A)[0] * np.eye(5)), norm=s))


@pytest.mark.parametrize("s", SCALES)
def test_cholesky_rows_of_g_are_those_of_h(s):
    # The rows are the reversed Cholesky factor of G times W: by uniqueness,
    # that of H = W G W.  Each column matches H's own factor to 1e-14 of its
    # largest entry.
    for R in skew_family():
        cm = coeff_matrix(scaled(R, s))
        ref = np.linalg.cholesky(cm.H[::-1, ::-1]).conj().T[::-1, ::-1]
        err = np.max(np.abs(cholesky_sos(cm).U - ref), axis=0) / np.max(np.abs(ref), axis=0)
        assert err.max() <= 1e-14, (R.n, s, err.max())


def error_model_operators(sizes=range(1, 9)):
    rng = np.random.default_rng(19)
    for n in sizes:
        k = np.add.outer(np.arange(n), np.arange(n))
        a = 0.6 ** np.arange(2 * n - 1) * np.exp(2j * np.pi * rng.uniform(size=2 * n - 1))
        jordan = 0.5 * np.eye(n) + np.eye(n, k=1)
        unitary, _ = np.linalg.qr(crandn(rng, n, n))
        small = 0.1 * crandn(rng, n, n), 0.1 * crandn(rng, n, n)
        family = {
            "hankel": RealLinearOperator(np.zeros((n, n)), a[k]),
            "jordan": RealLinearOperator(jordan, small[0]),
            "unitary": RealLinearOperator(unitary, small[1]),
        }
        for f, (name, R) in enumerate(family.items()):
            # one norm per operator, each family at every norm
            norm = NORMS[(n + f) % 3]
            yield name, n, norm, scaled(R, norm / operator_norm(R))


def test_torus_error_stays_inside_eps_g():
    # The oracle takes the exact H of the operator that extraction samples,
    # R / ||R||, against the Hermitian part of the G given, which the PD test
    # reads.  err / eps_g has measured at most 0.454 (Jordan, n = 10).
    worst = 0.0
    for name, n, norm, R in error_model_operators((*range(1, 9), 10, 12)):
        cm = coeff_matrix(R)
        G = (cm.G + cm.G.conj().T) / 2  # the matrix the PD test reads
        exact = torus_g(exact_h(scaled(R, 1.0 / cm.norm)), 1.0)
        eps_g = emptiness_certificates(R, coeff=cm).eps_g
        err = np.max(np.abs(G - exact)) / np.max(np.abs(exact))
        assert err <= eps_g, (name, n, norm, err / eps_g)
        worst = max(worst, err / eps_g)
    assert worst > 0.05


def path_operators():
    # R_t = (t C0 / ||C0||, B / ||B||) for t in [0, 3].  A skew B of odd size
    # is singular, so p(0) = 0 there; only even sizes get a skew B.
    rng = np.random.default_rng(20)
    for n in range(1, 9):
        for kind in ("skew", "symmetric"):
            X, C0 = crandn(rng, n, n), crandn(rng, n, n)
            if kind == "skew" and n % 2:
                continue
            B = X - X.T if kind == "skew" else X + X.T
            yield C0 / np.linalg.norm(C0, 2), B / np.linalg.norm(B, 2)


def assert_sound(R):
    # G does not depend on the scale, so one oracle serves every norm
    empty, oracle = 0, None
    for norm in NORMS:
        cert = emptiness_certificates(scaled(R, norm))
        if cert.verdict == "empty":
            empty += 1
            oracle = exact_g_min(R) if oracle is None else oracle
            bound = (R.n + 1) * cert.eps_g
            assert oracle > bound, (R.n, norm, cert.g_min_eigenvalue, oracle, bound)
    return empty


def test_no_empty_verdict_inside_the_error_bound():
    empty = 0
    for C0, B in path_operators():
        for t in np.linspace(0.0, 3.0, 7):
            empty += assert_sound(RealLinearOperator(t * C0, B))
    assert empty >= 20


@pytest.mark.parametrize("n", [2, 4])
def test_no_empty_verdict_inside_the_error_bound_at_the_crossing(n):
    # Where lambda_min(G) of R_t crosses 0, the verdict must turn before the
    # exact oracle's lambda_min(G) reaches the bound.
    rng = np.random.default_rng(21 + n)
    X = crandn(rng, n, n)
    B = (X - X.T) / np.linalg.norm(X - X.T, 2)
    C0 = crandn(rng, n, n)
    C0 /= np.linalg.norm(C0, 2)

    def g_min(t):
        return emptiness_certificates(RealLinearOperator(t * C0, B)).g_min_eigenvalue

    lo, hi = 0.0, 3.0
    assert g_min(lo) > 0.0 > g_min(hi)
    while (lo + hi) / 2 not in (lo, hi):
        lo, hi = ((lo + hi) / 2, hi) if g_min((lo + hi) / 2) > 0.0 else (lo, (lo + hi) / 2)
    empty = 0
    for offset in np.concatenate([-np.logspace(-15, -9, 13), [0.0, 1e-14]]):
        empty += assert_sound(RealLinearOperator(lo * (1 + offset) * C0, B))
    assert empty >= 6


def odd_skew(n, seed, norm):
    # C = 0 and skew B of odd size: det(B) = 0, so p(0) = |det B|**2 = 0 exactly,
    # and roundoff decides the sign of the computed det(realify(R))
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    B = A - A.T
    return RealLinearOperator(np.zeros((n, n)), norm * B / np.linalg.norm(B, 2))


def assert_real_axis_zero_is_spectral(R, cert):
    r = cert.real_axis_zero
    A = realify(R) - r * np.eye(2 * R.n)
    assert np.linalg.svd(A, compute_uv=False)[-1] <= 1e-8 * (operator_norm(R) + abs(r))


@pytest.mark.parametrize("n", [3, 5, 7])
def test_real_axis_certificate_never_raises_on_odd_skew(n):
    nonempty = 0
    for norm in NORMS:
        for seed in range(10):
            R = odd_skew(n, seed, norm)
            cert = emptiness_certificates(R)
            assert cert.verdict != "empty", (n, norm, seed)
            if cert.real_axis_zero is not None:
                nonempty += 1
                assert_real_axis_zero_is_spectral(R, cert)
    assert nonempty >= 5


def test_real_axis_certificate_reads_the_sign_of_an_underflowing_determinant():
    # det(realify(R)) is e**-1034 > 0 and underflows to 0.0 without a warning.
    # 0 is no spectral point (the smallest |eig realify(R)| is 5e-5), but
    # realify(R) has the exactly real eigenvalue r = 1.17e-4, with
    # sigma_min(realify(R) - r I) / (||R|| + r) = 2.6e-18: that root is the zero
    R = random_operator(np.random.default_rng(3), 64)
    R = RealLinearOperator(1e-3 * R.C / operator_norm(R), 1e-3 * R.B / operator_norm(R))
    sign, logabs = np.linalg.slogdet(realify(R))
    assert sign == 1.0 and logabs < -1000
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = emptiness_certificates(R)
    assert cert.det_complexification == 0.0
    assert cert.real_axis_zero == pytest.approx(1.168e-4, rel=1e-3)
    assert_real_axis_zero_is_spectral(R, cert)
    assert cert.verdict == "nonempty"


def backward_error(R, r):
    """``sigma_min(realify(R) - r I) / (||R|| + |r|)`` of a real-axis zero r."""
    A = realify(R) - r * np.eye(2 * R.n)
    return np.linalg.svd(A, compute_uv=False)[-1] / (operator_norm(R) + abs(r))


@pytest.mark.parametrize("s", SCALES)
def test_real_axis_zeros_are_sound_at_every_scale(s):
    # No zero comes with an empty verdict, and each zero is an exact
    # eigenvalue of a nearby realify(R): backward error O(u), at any norm
    ops = [*skew_family(), *(RealLinearOperator(t * C0, B)
                             for C0, B in path_operators() for t in np.linspace(0.0, 3.0, 7))]
    zeros = 0
    for R in ops:
        Rs = scaled(R, s)
        cert = emptiness_certificates(Rs)
        if cert.real_axis_zero is None:
            continue
        zeros += 1
        assert cert.pd_certificate is None, (R.n, s)
        assert backward_error(Rs, cert.real_axis_zero) <= 1e-14, (R.n, s)
    assert zeros >= 20


def test_negative_determinant_comes_with_a_zero():
    # an even number of eigenvalues of realify(R) is exactly real, so when their
    # product p(0, 0) is negative, one of them is >= 0, and it is the zero
    rng = np.random.default_rng(31)
    ops = [scaled(random_operator(rng, n), norm) for n in range(1, 9) for norm in NORMS
           for _ in range(4)]
    ops += [odd_skew(n, seed, norm) for n in (3, 5, 7) for seed in range(10) for norm in NORMS]
    negative = 0
    for R in ops:
        cert = emptiness_certificates(R)
        if cert.det_complexification < 0.0:
            negative += 1
            assert cert.real_axis_zero >= 0.0
            assert backward_error(R, cert.real_axis_zero) <= 1e-14
    assert negative >= 20


def test_minus_identity_has_the_negative_zero_minus_1():
    # realify(-I) = -I has no eigenvalue r >= 0; r = -1 is the spectral point
    cert = emptiness_certificates(RealLinearOperator(-np.eye(2), np.zeros((2, 2))))
    assert cert.real_axis_zero == -1.0
    assert cert.verdict == "nonempty"


def test_negative_real_axis_zeros_are_spectral():
    # Complex Gaussian C, then B (default_rng(5), 200 draws per n): a negative
    # zero is reported only when realify(R) has no exactly real r >= 0, and is
    # an exact eigenvalue of a nearby matrix, sigma_min <= 10 (2n) u ||R||.
    # 113 of the 183 draws without a zero r >= 0 have one (0.62 at worst).
    u = np.finfo(float).eps / 2
    rng = np.random.default_rng(5)
    negative = 0
    for n in (2, 3, 4, 6, 8, 16):
        for _ in range(200):
            R = RealLinearOperator(crandn(rng, n, n), crandn(rng, n, n))
            r = emptiness_certificates(R).real_axis_zero
            if r is None or r >= 0.0:
                continue
            negative += 1
            ev = np.linalg.eigvals(realify(R))
            assert not np.any((ev.imag == 0.0) & (ev.real >= 0.0)), n
            sigma = np.linalg.svd(realify(R) - r * np.eye(2 * n), compute_uv=False)[-1]
            assert sigma <= 10 * (2 * n) * u * operator_norm(R), (n, r)
    assert negative >= 50


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_no_real_axis_zero_where_no_eigenvalue_is_certified(n):
    # C = 0 and B = X - X^T for a complex Gaussian X, ||R|| = 1, seeds 0-9
    # (odd_skew draws it at any n): realify(R) is normal with eigenvalues
    # +-i sigma_k, and the skew-dominance test certifies the spectrum empty,
    # so no real-axis zero of either sign may be issued; nor on the skew
    # family with a small C
    ops = [odd_skew(n, seed, 1.0) for seed in range(10)] + [R for R in skew_family() if R.n == n]
    for R in ops:
        assert no_eigenvalue_certificate(R).certified
        assert emptiness_certificates(R).real_axis_zero is None
