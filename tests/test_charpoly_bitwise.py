"""Bitwise pins of the short forms that H extraction and the certificates use.

The torus DFT is taken as two 1-D passes, the validation radii are built
without ``np.linspace`` and ``p(0, 0)`` is read as one scalar.  Each form must
give the bits of the numpy route it replaces, so a drift of one bit fails here.
"""

import numpy as np
import pytest

from randops import random_antilinear, random_operator
from rlspec import (
    NumericalFailure,
    RealLinearOperator,
    SymbolSeries,
    coeff_matrix,
    disk_truncation,
    emptiness_certificates,
    realify,
)
import rlspec.charpoly as charpoly_module
from rlspec.charpoly import _LOG_MAX, _validate_coeff, _values


class _Captured(Exception):
    """Stops a computation once the value under test has been recorded."""


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def fft2_torus(C, B):
    """The torus matrix G with the 2-D DFT taken by ``np.fft.fft2``."""
    n = C.shape[0]
    r = 1.0 + 1.0 / n
    z = r * np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
    if C.any():
        D = C.conj() - z[:, None, None] * np.eye(n)
        X = np.linalg.solve(D, np.broadcast_to(B.conj(), D.shape))
        s = np.linalg.eigvals(C - B @ X)
        P = np.linalg.det(D)[:, None] * (s[:, None, :] - z[:, None]).prod(axis=-1)
    else:
        P = (z[:, None, None] * z[:, None] - np.linalg.eigvals(B @ B.conj())).prod(axis=-1)
    return np.fft.fft2(P) / (n + 1) ** 2


@pytest.mark.parametrize("make", [random_operator, random_antilinear])
def test_torus_dft_matches_fft2_to_the_bit(make, monkeypatch):
    torus = charpoly_module._coeff_torus
    seen = []

    def captured(C, B):
        seen.append((C, B, torus(C, B)))
        raise _Captured

    monkeypatch.setattr(charpoly_module, "_coeff_torus", captured)
    rng = np.random.default_rng(27)
    for n in [*range(1, 17), 32, 64]:
        for norm in (1e-3, 1.0, 1e3):
            with pytest.raises(_Captured):
                coeff_matrix(make(rng, n, norm))
            C, B, G = seen[-1]
            assert bool(C.any()) == (make is random_operator) and G.shape == (n + 1, n + 1)
            assert same_bits(G, fft2_torus(C, B)), (n, norm)
    assert len(seen) == 54


def test_validation_points_match_linspace_to_the_bit(monkeypatch):
    seen = []

    def captured(R, lams):
        seen.append(lams)
        raise _Captured

    monkeypatch.setattr(charpoly_module, "_real_slogdets", captured)
    for n in range(1, 65):
        R = RealLinearOperator(np.zeros((n, n)), np.zeros((n, n)))
        for norm in (0.0, 1e-9, 1.0, 1e9):
            with pytest.raises(_Captured):
                _validate_coeff(R, np.zeros((n + 1, n + 1)), 1e-6, norm)
            s = 1.0 + norm
            m = 2 * n + 3
            radii = np.linspace(0.6 * s, 1.9 * s, m)
            thetas = 2.0 * np.pi * (np.arange(m) + 0.37) / m
            assert same_bits(seen[-1], radii * np.exp(1j * thetas)), (n, norm)
    assert len(seen) == 256


def values_p00(R):
    """``p(0, 0)`` as :func:`_values` gives it at t = 0."""
    return _values(np.linalg.eigvals(realify(R))[None], np.zeros(1))[0]


def test_det_complexification_is_values_at_zero_to_the_bit():
    # the operators of test_numfun.test_p00_is_one_value
    rng = np.random.default_rng(35)
    for n in range(1, 9):
        for make in (random_operator, random_antilinear):
            for norm in (1e-3, 1.0, 1e3):
                R = make(rng, n, norm)
                det = emptiness_certificates(R, coeff=coeff_matrix(R)).det_complexification
                assert same_bits(det, values_p00(R)), (n, norm)


def test_det_complexification_of_disk_truncations_is_a_positive_zero_to_the_bit():
    zeros = 0
    for m in (0, 1, 2, 3, 5):
        for n in range(1, 13):
            R = disk_truncation(SymbolSeries.disk_monomial(m), n)
            det = emptiness_certificates(R, coeff=coeff_matrix(R)).det_complexification
            assert same_bits(det, values_p00(R)), (m, n)
            zeros += same_bits(det, 0.0)
    assert zeros >= 21


@pytest.mark.parametrize(
    "ev",
    [
        [np.finfo(float).max, 1.0, 1.0, 1.0],  # the log-sum is _LOG_MAX itself
        [1e300, 1e9, 3 + 4j, 3 - 4j],
        [-1e300, 1e300, 1e-3, 2.0],
        [np.inf, 1.0, -1.0, 0.5],
        [np.nan, 1.0, -1.0, 0.5],
    ],
)
def test_det_complexification_beyond_double_range_raises_as_values_does(ev, monkeypatch):
    R = random_operator(np.random.default_rng(4), 2)
    cm = coeff_matrix(R)
    mu = np.array(ev, dtype=complex)
    assert not np.sum(np.log(np.abs(mu))) < _LOG_MAX
    with pytest.raises(NumericalFailure) as ref:
        _values(mu[None], np.zeros(1))
    monkeypatch.setattr(np.linalg, "eigvals", lambda M: mu.copy())
    with pytest.raises(NumericalFailure) as got:
        emptiness_certificates(R, coeff=cm)
    assert str(got.value) == str(ref.value)


def test_det_complexification_just_inside_double_range_is_values_at_zero(monkeypatch):
    R = random_operator(np.random.default_rng(4), 2)
    cm = coeff_matrix(R)
    for ev in ([1e300, 1e3, 3 + 4j, 3 - 4j], [-1e300, 1e8, 0.0, 1.0], [np.finfo(float).max, 0.5, 1.0, 1.0]):
        mu = np.array(ev, dtype=complex)
        monkeypatch.setattr(np.linalg, "eigvals", lambda M: mu.copy())
        det = emptiness_certificates(R, coeff=cm).det_complexification
        assert same_bits(det, _values(mu[None], np.zeros(1))[0]), ev
