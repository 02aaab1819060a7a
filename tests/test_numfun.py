"""Numerical function: evaluation, convexity, per-ray extrema, coverage."""

import math
import re
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from randops import crandn, random_antilinear, random_operator
from rlspec import (
    RealLinearOperator,
    charpoly_eval,
    coeff_matrix,
    conjugation,
    convex_weights,
    identity,
    numfun_eval,
    operator_norm,
    range_and_coverage,
    ray_extrema,
    rotate,
    scalar_operator,
    sos_decompose,
    spectrum_sweep,
)
from rlspec.numfun import _ray_extrema


def eps_operator(eps):
    a = np.sqrt((1 + eps) / 2)
    b = np.sqrt((1 - eps) / 2)
    return RealLinearOperator(np.zeros((2, 2)), [[a, b], [-b, a]])


# ----------------------------------------------------------------- evaluation

def test_value_at_origin_is_determinant():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        R = random_operator(rng, n)
        H = coeff_matrix(R)
        assert abs(numfun_eval(H, 0.0) - charpoly_eval(R, 0.0)) < 1e-10


def test_eps_value_on_unit_circle():
    # substituting mu = |lam|^2 = 1 into (mu^2 - 2 eps mu + 1)/(1 + mu + mu^2)
    H = coeff_matrix(eps_operator(0.5))
    for phase in (0.0, 0.7, 2.4):
        assert abs(numfun_eval(H, np.exp(1j * phase)) - 1.0 / 3.0) < 1e-10


def test_conjugation_vanishes_on_spectrum():
    H = coeff_matrix(conjugation(1))
    assert abs(numfun_eval(H, 1.0)) < 1e-12


def test_matches_normalized_charpoly():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        R = random_operator(rng, n)
        H = coeff_matrix(R)
        for _ in range(10):
            lam = complex(crandn(rng))
            den = sum(abs(lam) ** (2 * j) for j in range(n + 1))
            ref = charpoly_eval(R, lam) / den
            assert abs(numfun_eval(H, lam) - ref) < 1e-10 * (1 + abs(ref))


def test_values_stay_in_field_of_values():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        H = coeff_matrix(random_operator(rng, n)).H
        eigs = np.linalg.eigvalsh(H)
        for _ in range(20):
            lam = complex(2 * crandn(rng))
            val = numfun_eval(H, lam)
            assert eigs[0] - 1e-10 <= val <= eigs[-1] + 1e-10


def test_vanishes_exactly_on_sweep_points():
    rng = np.random.default_rng(4)
    A = random_antilinear(rng, 4)
    H = coeff_matrix(A)
    cloud = spectrum_sweep(A, 16)
    assert cloud.points
    for p in cloud.points:
        assert abs(numfun_eval(H, p.lam)) < 1e-9


def test_rotation_consistency():
    rng = np.random.default_rng(5)
    R = random_operator(rng, 3)
    H = coeff_matrix(R)
    for th in np.linspace(0, 2 * np.pi, 8, endpoint=False):
        Ht = coeff_matrix(rotate(R, th))
        for r in (0.3, 1.0, 1.7):
            assert abs(numfun_eval(H, r * np.exp(1j * th)) - numfun_eval(Ht, r)) < 1e-10


# ------------------------------------------------------------- convex weights

def test_weights_concentrate_at_origin_for_diagonal():
    # H = diag(1, -1, 1): the isolated eigenvalue -1 owns the monomial lam,
    # which vanishes at the origin, so all weight sits on the eigenvalue 1
    # (individual weights inside that degenerate pair are a basis choice)
    H = coeff_matrix(eps_operator(0.5))
    sos = sos_decompose(H)
    w = convex_weights(H, 0.0, sos)
    k_neg = int(np.argmin(np.abs(sos.d - (-1.0))))
    assert w[k_neg] < 1e-12
    assert float(np.sum(w[np.abs(sos.d - 1.0) < 1e-9])) == pytest.approx(1.0)
    assert abs(float(np.dot(sos.d, w)) - numfun_eval(H, 0.0)) < 1e-10


def test_weights_uniform_on_unit_circle_for_eps():
    # |p_i| = 1 for the monomials on the unit circle: each distinct
    # eigenvalue receives weight proportional to its multiplicity
    eps = 0.25
    H = coeff_matrix(eps_operator(eps))
    sos = sos_decompose(H)
    lam = np.exp(0.9j)
    w = convex_weights(H, lam, sos)
    k_neg = int(np.argmin(np.abs(sos.d - (-2 * eps))))
    assert w[k_neg] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert float(np.sum(w[np.abs(sos.d - 1.0) < 1e-9])) == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert float(np.dot(sos.d, w)) == pytest.approx((2 - 2 * eps) / 3.0, abs=1e-10)


def test_weights_form_convex_combination():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        H = coeff_matrix(random_operator(rng, n))
        sos = sos_decompose(H)
        lam = complex(crandn(rng))
        w = convex_weights(H, lam, sos)
        assert np.all(w >= -1e-15)
        assert abs(float(np.sum(w)) - 1.0) < 1e-12
        assert abs(float(np.dot(sos.d, w)) - numfun_eval(H, lam)) < 1e-10


# ----------------------------------------------------------------- ray extrema

def test_ray_extrema_eps_minimum():
    # minimize (mu^2 - mu + 1)/(mu^2 + mu + 1): critical point mu = 1, value 1/3
    H = coeff_matrix(eps_operator(0.5))
    for th in (0.0, 1.1, np.pi / 2):
        ext = ray_extrema(H, th)
        rs = [r for r, _ in ext]
        vals = [v for _, v in ext]
        assert ext[0] == (0.0, pytest.approx(1.0))
        assert math.isinf(rs[-1]) and vals[-1] == pytest.approx(1.0)
        interior = [(r, v) for r, v in ext if 0 < r < math.inf]
        assert len(interior) == 1
        assert interior[0][0] == pytest.approx(1.0, abs=1e-10)
        assert interior[0][1] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_ray_extrema_monotone_case_endpoints_only():
    # F = mu/(1 + mu) is monotone: no interior critical points
    ext = ray_extrema(np.diag([0.0, 1.0]), 0.3)
    assert len(ext) == 2
    assert ext[0] == (0.0, pytest.approx(0.0))
    assert ext[-1][1] == pytest.approx(1.0)


def test_ray_extrema_identity_zero_minimum():
    # p(r, r) = (1 - r)^2 on the positive axis
    H = coeff_matrix(identity(1))
    ext = ray_extrema(H, 0.0)
    interior = [(r, v) for r, v in ext if 0 < r < math.inf]
    assert any(abs(r - 1.0) < 1e-10 and abs(v) < 1e-12 for r, v in interior)


def test_ray_extrema_bracket_true_minimum():
    # critical values must include the dense-grid minimum of the ray
    rng = np.random.default_rng(7)
    R = random_operator(rng, 3)
    H = coeff_matrix(R)
    for th in (0.0, 2.0):
        ext = ray_extrema(H, th)
        vals = [v for _, v in ext]
        grid = [numfun_eval(H, r * np.exp(1j * th)) for r in np.linspace(0, 20, 4000)]
        assert min(vals) <= min(grid) + 1e-6
        assert max(vals) >= max(grid) - 1e-6


def reference_extrema(A, theta):
    # one ray at a time: antidiagonal sums, N' D - N D', trim, polyroots;
    # also returns the length of the trimmed critical polynomial
    n = A.shape[0] - 1
    ph = np.exp(1j * theta * np.arange(n + 1))
    W = np.outer(ph.conj(), ph) * A
    num = np.array([
        np.real(sum(W[i, d - i] for i in range(max(0, d - n), min(d, n) + 1)))
        for d in range(2 * n + 1)
    ])
    den = np.zeros(2 * n + 1)
    den[::2] = 1.0
    E = npoly.polysub(npoly.polymul(npoly.polyder(num), den),
                      npoly.polymul(num, npoly.polyder(den)))
    scale = max(float(np.max(np.abs(E))), 1e-300)
    E = np.trim_zeros(np.where(np.abs(E) > 1e-14 * scale, E, 0.0), "b")
    crit = []
    if E.size > 1:
        for rt in npoly.polyroots(E):
            r = float(rt.real)
            if abs(rt.imag) > 1e-8 * (1 + abs(rt)) or r <= 0:
                continue
            if not crit or abs(r - crit[-1]) > 1e-10 * (1 + r):
                crit.append(r)
    inner = [(r, float(npoly.polyval(r, num) / npoly.polyval(r, den))) for r in sorted(crit)]
    return [(0.0, float(A[0, 0].real))] + inner + [(math.inf, float(A[n, n].real))], E.size


def assert_extrema_close(got, ref):
    assert len(got) == len(ref)
    for (r, v), (r_ref, v_ref) in zip(got, ref):
        assert r == r_ref or abs(r - r_ref) <= 1e-12 * max(1.0, abs(r_ref))
        assert abs(v - v_ref) <= 1e-12 * max(1.0, abs(v_ref))


@pytest.mark.parametrize(
    "H, sizes",
    [
        # n = 1 with H00 = H11: on the ray theta = 0 the function is flat and
        # the critical polynomial trims to nothing; elsewhere it has degree 2
        (np.array([[0.5, 0.3j], [-0.3j, 0.5]]), {0, 3}),
        # n = 1 with H00 != H11: at theta = 0 and pi it has degree 1 (root r = 0)
        (np.array([[0.2, 0.3j], [-0.3j, 1.0]]), {2, 3}),
        # random operators: mixed high degrees
        (coeff_matrix(random_operator(np.random.default_rng(20), 3)).H, None),
        (coeff_matrix(random_operator(np.random.default_rng(21), 4)).H, None),
    ],
)
def test_batched_extrema_match_per_ray_reference(H, sizes):
    # sizes are trimmed lengths of the critical polynomial.  One H gives
    # flat or degree-1 rays, never both, so the two n = 1 cases together
    # cover the zero polynomial and degrees 1 and 2 next to higher degrees.
    thetas = 2 * np.pi * np.arange(64) / 64
    got = _ray_extrema(H, thetas)
    seen = set()
    for theta, ext in zip(thetas, got):
        ref, size = reference_extrema(H, theta)
        seen.add(size)
        assert_extrema_close(ext, ref)
        assert_extrema_close(ray_extrema(H, theta), ref)
    if sizes is not None:
        assert sizes <= seen and len(seen) >= 2


def test_ray_extrema_r_max_cuts_critical_radii():
    H = coeff_matrix(eps_operator(0.5))
    assert [r for r, _ in ray_extrema(H, 0.4, r_max=0.5)] == [0.0, math.inf]
    assert len(ray_extrema(H, 0.4, r_max=2.0)) == 3


def test_companion_batch_failure_falls_back_per_ray(monkeypatch):
    H = coeff_matrix(random_operator(np.random.default_rng(22), 3)).H
    thetas = 2 * np.pi * np.arange(8) / 8
    expected = _ray_extrema(H, thetas)
    real_eigvals = np.linalg.eigvals
    singles = []

    def failing(a):
        if np.ndim(a) == 3:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        singles.append(a)
        if len(singles) == 3:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real_eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", failing)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _ray_extrema(H, thetas)
    messages = [str(w.message) for w in caught]
    assert len(messages) == 1
    assert re.match(rf"critical point solve failed on ray theta={thetas[2]:.6g}: ", messages[0])
    assert got[2] == [expected[2][0], expected[2][-1]]
    assert got[:2] + got[3:] == expected[:2] + expected[3:]


# ------------------------------------------------------------------- coverage

def test_coverage_eps_example():
    rep = range_and_coverage(coeff_matrix(eps_operator(0.5)))
    assert rep.range_est[0] == pytest.approx(1.0 / 3.0, abs=1e-8)
    assert rep.range_est[1] == pytest.approx(1.0, abs=1e-8)
    assert rep.fov[0] == pytest.approx(-1.0, abs=1e-9)
    assert rep.fov[1] == pytest.approx(1.0, abs=1e-9)
    assert rep.uncovered_low == pytest.approx(4.0 / 3.0, abs=1e-8)
    assert rep.uncovered_high == pytest.approx(0.0, abs=1e-9)
    assert rep.f0 == pytest.approx(1.0, abs=1e-9)
    assert rep.f_inf == pytest.approx(1.0, abs=1e-9)


def test_coverage_identity_attains_upper_eigenvalue():
    # H = [[1, -1], [-1, 1]] has eigenvalues {0, 2}; the value 2 is attained
    # at lam = -1 (the ray theta = pi), so nothing stays uncovered
    H = coeff_matrix(identity(1))
    assert np.max(np.abs(H.H - np.array([[1.0, -1.0], [-1.0, 1.0]]))) < 1e-10
    rep = range_and_coverage(H, n_rays=128)
    assert rep.fov == (pytest.approx(0.0, abs=1e-12), pytest.approx(2.0, abs=1e-12))
    assert rep.range_est[0] == pytest.approx(0.0, abs=1e-10)
    assert rep.range_est[1] == pytest.approx(2.0, abs=1e-10)
    assert rep.uncovered_high == pytest.approx(0.0, abs=1e-10)
    # brute-force corroboration on a dense polar grid
    best = max(
        numfun_eval(H, r * np.exp(1j * t))
        for r in np.linspace(0, 10, 500)
        for t in np.linspace(0, 2 * np.pi, 64, endpoint=False)
    )
    assert best > 2.0 - 1e-3


def test_coverage_contains_origin_and_limit_values():
    rng = np.random.default_rng(8)
    for _ in range(8):
        n = int(rng.integers(1, 6))
        H = coeff_matrix(random_operator(rng, n))
        rep = range_and_coverage(H, n_rays=16)
        lo, hi = rep.range_est
        assert lo - 1e-10 <= min(rep.f0, 1.0) and max(rep.f0, 1.0) <= hi + 1e-10
        assert rep.fov[0] - 1e-9 <= lo and hi <= rep.fov[1] + 1e-9
        assert rep.uncovered_low >= 0.0 and rep.uncovered_high >= 0.0


def test_coverage_matches_dense_grid():
    rng = np.random.default_rng(9)
    R = random_operator(rng, 3)
    H = coeff_matrix(R)
    rep = range_and_coverage(H, n_rays=96)
    vals = [
        numfun_eval(H, r * np.exp(1j * t))
        for r in np.linspace(0, 12, 300)
        for t in np.linspace(0, 2 * np.pi, 96, endpoint=False)
    ]
    assert rep.range_est[0] <= min(vals) + 1e-9
    assert rep.range_est[1] >= max(vals) - 1e-9


def test_tail_decay_rate():
    # |F - 1| <= C / |lam| with C fitted on moderate radii and checked beyond
    rng = np.random.default_rng(10)
    for _ in range(5):
        n = int(rng.integers(1, 5))
        R = random_operator(rng, n)
        H = coeff_matrix(R)
        s = 1.0 + operator_norm(R)
        fit_radii = np.linspace(10 * s, 100 * s, 25)
        ver_radii = np.linspace(100 * s, 1000 * s, 25)
        phases = np.exp(1j * np.linspace(0, 2 * np.pi, 8, endpoint=False))
        cfit = max(abs(numfun_eval(H, r * ph) - 1.0) * r for r in fit_radii for ph in phases)
        for r in ver_radii:
            for ph in phases:
                assert abs(numfun_eval(H, r * ph) - 1.0) <= 1.5 * cfit / r + 1e-12


def test_scalar_zero_dimension_edge():
    # n = 1 scalar conjugation: F = (|lam|^2 - 1)/(1 + |lam|^2), range (-1, 1]
    H = coeff_matrix(scalar_operator(0.0, 1.0))
    rep = range_and_coverage(H, n_rays=8)
    assert rep.f0 == pytest.approx(-1.0)
    assert rep.range_est[0] == pytest.approx(-1.0)
    assert rep.range_est[1] == pytest.approx(1.0)
