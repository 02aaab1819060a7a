"""H extraction of antilinear operators (C = 0) from one eigen solve.

With ``C = 0`` the torus samples are ``p(lam, mu) = prod_k (lam mu - e_k)``,
``e_k`` the eigenvalues of ``B conj(B)``.  The torus matrix G must match the
exact oracle, the general Schur-complement route and its certificates.
"""

import warnings

import numpy as np
import pytest

from randops import crandn, random_antilinear, random_operator
from rlspec import (
    NumericalFailure,
    RealLinearOperator,
    SymbolSeries,
    coeff_matrix,
    disk_truncation,
    emptiness_certificates,
    hankel_truncation,
    operator_norm,
)
import rlspec.charpoly as charpoly_module
from rlspec.charpoly import _coeff_exact, _coeff_torus
from test_certificate_scale import (
    NORMS,
    SCALES,
    error_model_operators,
    odd_skew,
    path_operators,
    scaled,
    torus_g,
)

EXACT_NORMS = (1e-9, 1e-3, 1.0, 1e3, 1e9)


def schur_torus(C, B):
    """G of the general Schur-complement route, for any C: the reference for C = 0."""
    n = C.shape[0]
    r = 1.0 + 1.0 / n
    z = r * np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
    D = C.conj() - z[:, None, None] * np.eye(n)
    X = np.linalg.solve(D, np.broadcast_to(B.conj(), D.shape))
    s = np.linalg.eigvals(C - B @ X)
    P = np.linalg.det(D)[:, None] * (s[:, None, :] - z[:, None]).prod(axis=-1)
    return np.fft.fft2(P) / (n + 1) ** 2


def antilinear_family(n, rng):
    """C = 0 with random, skew, symmetric Hankel-like, disk-truncation and circle-truncation B."""
    X = crandn(rng, n, n)
    a = crandn(rng, 2 * n - 1)
    yield "random", random_antilinear(rng, n)
    if n > 1:
        yield "skew", RealLinearOperator(np.zeros((n, n)), X - X.T)
    yield "hankel", RealLinearOperator(np.zeros((n, n)), a[np.add.outer(np.arange(n), np.arange(n))])
    yield "disk", disk_truncation(SymbolSeries.disk_monomial(n - 1), n)
    yield "circle", hankel_truncation(SymbolSeries.circle_hankel([0.9, 0.3j, 0.2]), n)


def assert_g_close(G, ref, tol, label):
    err = np.max(np.abs(G - ref)) / np.max(np.abs(ref))
    assert err <= tol, (label, err)


@pytest.mark.parametrize("n", range(1, 9))
def test_antilinear_g_matches_the_exact_oracle(n):
    # G of the extracted H (weights applied and removed) against the exact
    # expansion of R / ||R||, relative to max|G|, at norms 1e-9 to 1e9
    rng = np.random.default_rng(2600 + n)
    for kind, R in antilinear_family(n, rng):
        exact = _coeff_exact(scaled(R, 1.0 / operator_norm(R)))
        for norm in EXACT_NORMS:
            Rs = scaled(R, norm / operator_norm(R))
            cm = coeff_matrix(Rs)
            assert_g_close(torus_g(cm.H, cm.norm), torus_g(exact, 1.0), 1e-13, (kind, n, norm))


@pytest.mark.parametrize("n", [16, 32, 64])
def test_antilinear_g_matches_the_schur_route(n):
    rng = np.random.default_rng(2700 + n)
    for kind, R in antilinear_family(n, rng):
        s = operator_norm(R)
        G = _coeff_torus(R.C / s, R.B / s)
        assert_g_close(G, schur_torus(R.C / s, R.B / s), 1e-13, (kind, n))


def antilinear_certificate_operators():
    """The C = 0 operators of the certificate scale tests, at their norms."""
    for name, n, norm, R in error_model_operators():
        if name == "hankel":
            yield from (scaled(R, s) for s in SCALES)
    for _, B in path_operators():
        R = RealLinearOperator(np.zeros_like(B), B)
        yield from (scaled(R, s) for s in SCALES)
    yield from (odd_skew(n, seed, norm) for n in (3, 5, 7) for seed in range(10) for norm in NORMS)


def test_antilinear_verdicts_match_the_schur_route(monkeypatch):
    ops = list(antilinear_certificate_operators())
    assert not any(R.C.any() for R in ops)
    verdicts = [emptiness_certificates(R).verdict for R in ops]
    monkeypatch.setattr(charpoly_module, "_coeff_torus", schur_torus)
    assert [emptiness_certificates(R).verdict for R in ops] == verdicts
    assert {"empty", "nonempty"} <= set(verdicts)


@pytest.mark.parametrize("make", [random_antilinear, random_operator])
def test_torus_weights_beyond_double_range_are_refused(make):
    # At n = 64 and ||R|| = 1e-9 the weight ||R||**64 underflows to 0; G cannot
    # be read back from H, and the PD test refuses without a RuntimeWarning
    R = make(np.random.default_rng(64), 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tiny = scaled(R, 1e-9 / operator_norm(R))
        with pytest.raises(NumericalFailure, match=r"torus weights .* \(n=64, \|\|R\|\|=1e-09\)"):
            emptiness_certificates(tiny)
        cert = emptiness_certificates(scaled(R, 1e-3 / operator_norm(R)))
    assert cert.verdict in ("nonempty", "inconclusive")
