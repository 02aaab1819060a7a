"""Numerical function: evaluation, convexity, per-ray extrema, coverage."""

import math
import warnings

import numpy as np
import pytest

from randops import crandn, random_antilinear, random_operator
from rlspec import (
    RealLinearOperator,
    charpoly_eval,
    coeff_matrix,
    SymbolSeries,
    ValidationError,
    conjugation,
    convex_weights,
    disk_truncation,
    emptiness_certificates,
    identity,
    numfun_eval,
    operator_norm,
    range_and_coverage,
    ray_extrema,
    realify,
    rotate,
    scalar_operator,
    sos_decompose,
    spectrum_sweep,
)
from rlspec.charpoly import _DET_STACK_ENTRIES, _real_slogdets
from rlspec.errors import NumericalFailure
from rlspec.numfun import _ray_extrema


def eps_operator(eps):
    a = np.sqrt((1 + eps) / 2)
    b = np.sqrt((1 - eps) / 2)
    return RealLinearOperator(np.zeros((2, 2)), [[a, b], [-b, a]])


def h_numfun(H, lam):
    # F read from the entries of the array H, a cross-check independent of
    # the ray kernel; accurate at desk scale only
    v = np.asarray(lam, dtype=complex) ** np.arange(H.shape[0])
    return float(np.real(v.conj() @ H @ v)) / float(np.sum(np.abs(v) ** 2))


# ----------------------------------------------------------------- evaluation

def test_value_at_origin_is_determinant():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        R = random_operator(rng, n)
        assert abs(numfun_eval(R, 0.0) - charpoly_eval(R, 0.0)) < 1e-10


def test_eps_value_on_unit_circle():
    # substituting mu = |lam|^2 = 1 into (mu^2 - 2 eps mu + 1)/(1 + mu + mu^2)
    R = eps_operator(0.5)
    for phase in (0.0, 0.7, 2.4):
        assert abs(numfun_eval(R, np.exp(1j * phase)) - 1.0 / 3.0) < 1e-10


def test_conjugation_vanishes_on_spectrum():
    assert abs(numfun_eval(conjugation(1), 1.0)) < 1e-12


def test_matches_normalized_charpoly():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        R = random_operator(rng, n)
        for _ in range(10):
            lam = complex(crandn(rng))
            den = sum(abs(lam) ** (2 * j) for j in range(n + 1))
            ref = charpoly_eval(R, lam) / den
            assert abs(numfun_eval(R, lam) - ref) < 1e-10 * (1 + abs(ref))


def test_value_matches_the_determinant_at_n32():
    # product form on the line at angle(lam), against sign * exp(slogdet - log D)
    # of realify(R - lam I); F read from H is off by 4.8e5 relative here
    R = random_operator(np.random.default_rng(2), 32)
    lam = 0.7 * np.exp(2j * np.pi * np.arange(9) / 9)
    sign, logabs = _real_slogdets(R, lam)
    ref = sign * np.exp(logabs - log_denominator(np.abs(lam), 32))
    got = np.array([numfun_eval(R, x) for x in lam])
    assert np.all(np.abs(got - ref) <= 1e-9 * np.abs(ref))


@pytest.mark.parametrize("n", [1, 2, 4, 16])
@pytest.mark.parametrize("make", [random_operator, random_antilinear])
def test_array_values_equal_point_values(make, n):
    # an array of lam comes back in its shape, equal to the values taken one
    # point at a time, bitwise
    R = make(np.random.default_rng(30 + n), n)
    grid = np.linspace(0.1, 3.0, 14)[:, None] * np.exp(1j * np.linspace(0.0, 6.2, 9))
    lam = np.concatenate([[0.0, -1.0, 2.0, 0.5j, -0.3j, 1 + 1j, -2 - 0.5j], grid.ravel()]).reshape(19, 7)
    got = numfun_eval(R, lam)
    ref = np.array([numfun_eval(R, x) for x in lam.ravel()]).reshape(lam.shape)
    assert got.shape == lam.shape and isinstance(numfun_eval(R, lam[0, 0]), float)
    assert got.tobytes() == ref.tobytes()
    assert numfun_eval(R, [0.5j]).tolist() == [numfun_eval(R, 0.5j)]


def test_polar_grid_takes_one_solve_per_chunk(monkeypatch):
    # 32,000 distinct angles at n = 1: stacks of 2**14 entries hold 4096 line
    # matrices.  A 500 x 64 polar grid solves each of its distinct angles once
    R = random_operator(np.random.default_rng(31), 1)
    spread = np.linspace(0.5, 5.0, 32000) * np.exp(1j * np.linspace(-3.0, 3.0, 32000))
    assert np.unique(np.angle(spread)).size == 32000
    lam = np.linspace(0.0, 5.0, 500)[:, None] * np.exp(2j * np.pi * np.arange(64) / 64)
    real_eigvals = np.linalg.eigvals
    shapes = []

    def counting(a):
        shapes.append(np.shape(a))
        return real_eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    numfun_eval(R, spread)
    assert shapes == [(4096, 2, 2)] * 7 + [(32000 - 7 * 4096, 2, 2)]
    shapes.clear()
    vals = numfun_eval(R, lam)
    assert [s[1:] for s in shapes] == [(2, 2)] * len(shapes)
    assert sum(s[0] for s in shapes) == np.unique(np.angle(lam)).size < 1000
    eigs = np.linalg.eigvalsh(coeff_matrix(R).H)
    assert vals.shape == (500, 64)
    assert np.all((eigs[0] - 1e-10 <= vals) & (vals <= eigs[-1] + 1e-10))


def test_values_stay_in_field_of_values():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        R = random_operator(rng, n)
        eigs = np.linalg.eigvalsh(coeff_matrix(R).H)
        for _ in range(20):
            lam = complex(2 * crandn(rng))
            val = numfun_eval(R, lam)
            assert eigs[0] - 1e-10 <= val <= eigs[-1] + 1e-10


def test_vanishes_exactly_on_sweep_points():
    rng = np.random.default_rng(4)
    A = random_antilinear(rng, 4)
    cloud = spectrum_sweep(A, 16)
    assert cloud.points
    for p in cloud.points:
        assert abs(numfun_eval(A, p.lam)) < 1e-9


def test_rotation_consistency():
    rng = np.random.default_rng(5)
    R = random_operator(rng, 3)
    for th in np.linspace(0, 2 * np.pi, 8, endpoint=False):
        for r in (0.3, 1.0, 1.7):
            assert abs(numfun_eval(R, r * np.exp(1j * th)) - numfun_eval(rotate(R, th), r)) < 1e-10


def test_p00_is_one_value():
    # p(0, 0) has one value: the certificate's det_complexification, F(0) and
    # the report's f0 all read the product form of the eigenvalues of realify(R)
    rng = np.random.default_rng(35)
    for n in range(1, 9):
        for make in (random_operator, random_antilinear):
            for norm in (1e-3, 1.0, 1e3):
                R = make(rng, n, norm)
                cm = coeff_matrix(R)
                det = emptiness_certificates(R, coeff=cm).det_complexification
                f0 = range_and_coverage(R, 8).f0
                assert det == numfun_eval(R, 0.0) == f0, (n, norm)


def test_p00_of_disk_truncations_is_a_positive_zero():
    # realify(R) of a disk truncation can have an exactly zero eigenvalue next
    # to an odd number of negative real ones: the sign product gave -0.0, which
    # info --json printed as -0.0000000000000000e+00
    zeros = 0
    for m in (0, 1, 2, 3, 5):
        for n in range(1, 13):
            R = disk_truncation(SymbolSeries.disk_monomial(m), n)
            cm = coeff_matrix(R)
            det = emptiness_certificates(R, coeff=cm).det_complexification
            for value in (det, numfun_eval(R, 0.0), range_and_coverage(R, 8).f0):
                assert value != 0.0 or math.copysign(1.0, value) == 1.0, (m, n)
            zeros += det == 0.0
    assert zeros >= 21


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_and_angles_are_refused(bad):
    # numfun_eval(R, inf) used to overflow, and NaN points and angles failed
    # their eigen solve (NumericalFailure, exit 3); charpoly_eval(R, nan) was nan
    R = random_operator(np.random.default_rng(0), 3)
    for lam in (bad, complex(0.5, bad)):
        with pytest.raises(ValidationError, match="points must be finite"):
            charpoly_eval(R, lam)
    for lam in (bad, complex(0.5, bad), np.array([0.5, bad])):
        with pytest.raises(ValidationError, match="points must be finite"):
            numfun_eval(R, lam)
    with pytest.raises(ValidationError, match="angles must be finite"):
        ray_extrema(R, bad)


# ------------------------------------------------------------- convex weights

def test_weights_concentrate_at_origin_for_diagonal():
    # H = diag(1, -1, 1): the isolated eigenvalue -1 owns the monomial lam,
    # which vanishes at the origin, so all weight sits on the eigenvalue 1
    # (individual weights inside that degenerate pair are a basis choice)
    R = eps_operator(0.5)
    H = coeff_matrix(R)
    sos = sos_decompose(H)
    w = convex_weights(H, 0.0)
    k_neg = int(np.argmin(np.abs(sos.d - (-1.0))))
    assert w[k_neg] < 1e-12
    assert float(np.sum(w[np.abs(sos.d - 1.0) < 1e-9])) == pytest.approx(1.0)
    assert abs(float(np.dot(sos.d, w)) - numfun_eval(R, 0.0)) < 1e-10


def test_weights_uniform_on_unit_circle_for_eps():
    # |p_i| = 1 for the monomials on the unit circle: each distinct
    # eigenvalue receives weight proportional to its multiplicity
    eps = 0.25
    H = coeff_matrix(eps_operator(eps))
    sos = sos_decompose(H)
    lam = np.exp(0.9j)
    w = convex_weights(H, lam)
    k_neg = int(np.argmin(np.abs(sos.d - (-2 * eps))))
    assert w[k_neg] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert float(np.sum(w[np.abs(sos.d - 1.0) < 1e-9])) == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert float(np.dot(sos.d, w)) == pytest.approx((2 - 2 * eps) / 3.0, abs=1e-10)


def test_weights_form_convex_combination():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        R = random_operator(rng, n)
        H = coeff_matrix(R)
        sos = sos_decompose(H)
        lam = complex(crandn(rng))
        w = convex_weights(H, lam)
        assert np.all(w >= -1e-15)
        assert abs(float(np.sum(w)) - 1.0) < 1e-12
        assert abs(float(np.dot(sos.d, w)) - numfun_eval(R, lam)) < 1e-10


# ----------------------------------------------------------------- ray extrema

def test_ray_extrema_eps_minimum():
    # minimize (mu^2 - mu + 1)/(mu^2 + mu + 1): critical point mu = 1, value 1/3
    R = eps_operator(0.5)
    for th in (0.0, 1.1, np.pi / 2):
        ext = ray_extrema(R, th)
        rs = [r for r, _ in ext]
        vals = [v for _, v in ext]
        assert ext[0] == (0.0, pytest.approx(1.0))
        assert math.isinf(rs[-1]) and vals[-1] == pytest.approx(1.0)
        interior = [(r, v) for r, v in ext if 0 < r < math.inf]
        assert len(interior) == 1
        assert interior[0][0] == pytest.approx(1.0, abs=1e-10)
        assert interior[0][1] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_ray_extrema_monotone_case_endpoints_only():
    # the zero operator has H = diag(0, 1): F = mu/(1 + mu) is monotone, so
    # there are no interior critical points
    ext = ray_extrema(scalar_operator(0.0, 0.0), 0.3)
    assert len(ext) == 2
    assert ext[0] == (0.0, pytest.approx(0.0))
    assert ext[-1][1] == pytest.approx(1.0)


def test_ray_extrema_identity_zero_minimum():
    # p(r, r) = (1 - r)^2 on the positive axis
    ext = ray_extrema(identity(1), 0.0)
    interior = [(r, v) for r, v in ext if 0 < r < math.inf]
    assert any(abs(r - 1.0) < 1e-10 and abs(v) < 1e-12 for r, v in interior)


def test_ray_extrema_bracket_true_minimum():
    # critical values must include the dense-grid minimum of the ray
    rng = np.random.default_rng(7)
    R = random_operator(rng, 3)
    H = coeff_matrix(R).H
    for th in (0.0, 2.0):
        ext = ray_extrema(R, th)
        vals = [v for _, v in ext]
        grid = [h_numfun(H, r * np.exp(1j * th)) for r in np.linspace(0, 20, 4000)]
        assert min(vals) <= min(grid) + 1e-6
        assert max(vals) >= max(grid) - 1e-6


@pytest.mark.parametrize(
    "R, sizes",
    [
        # n = 1, F = 1 - 2 sin(theta) t / (1 + t^2) on line theta: flat at
        # theta = 0, one interior critical point (r = 1) on every other ray
        (scalar_operator(1j, 0.0), {0, 1}),
        # n = 1, N = t^2 - sin(theta) t + 1/4: the only root on line 0 is
        # t = 0, which merges into the endpoint
        (scalar_operator(0.5j, 0.0), {0, 1}),
        # random operators: several critical points per ray
        (random_operator(np.random.default_rng(20), 3), None),
        (random_operator(np.random.default_rng(21), 4), None),
    ],
)
def test_batched_extrema_match_per_ray_reference(R, sizes):
    # sizes are the interior critical-point counts seen over the 64 rays.
    # Batched lines must equal each line solved alone, bitwise; values must
    # match F read from H to 1e-12, a desk-scale cross-check.
    lines = np.pi * np.arange(32) / 32
    got = _ray_extrema(R, lines)
    H = coeff_matrix(R).H
    seen = set()
    for k, ext in enumerate(got):
        line, side = lines[k % 32], k // 32
        assert ext == _ray_extrema(R, [line])[side]
        if side == 0:
            assert ext == ray_extrema(R, line)
        seen.add(len(ext) - 2)
        theta = line + np.pi * side
        for r, v in ext[:-1]:
            ref = h_numfun(H, r * np.exp(1j * theta))
            assert abs(v - ref) <= 1e-12 * max(1.0, abs(ref))
    if sizes is not None:
        assert sizes == seen


def test_flat_line_has_no_interior_critical_point():
    # the line matrix of z -> i z at angle 0 has the eigenvalues +-i, the roots
    # of D, so F = 1 on both rays; at angle pi it is flat up to sin(pi)
    R = scalar_operator(1j, 0.0)
    for theta in (0.0, np.pi):
        ext = ray_extrema(R, theta)
        assert [r for r, _ in ext] == [0.0, math.inf]
        assert [v for _, v in ext] == [pytest.approx(1.0, abs=1e-15)] * 2


def test_pole_sum_solve_failure_names_its_line(monkeypatch):
    R = random_operator(np.random.default_rng(22), 3)
    lines = np.pi * np.arange(4) / 4
    real_eigvals = np.linalg.eigvals
    singles = []

    def failing(a):
        # the 6 x 6 line matrices solve as usual; the 10 x 10 pole-sum
        # matrices fail as a stack, and the third single one fails too
        if np.shape(a)[-1] == 2 * R.n:
            return real_eigvals(a)
        if np.ndim(a) == 3:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        singles.append(a)
        if len(singles) == 3:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real_eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", failing)
    with pytest.raises(NumericalFailure, match=rf"theta={lines[2]:.6g}: "):
        _ray_extrema(R, lines)


def test_pole_sum_stacks_are_bounded(monkeypatch):
    # 64 lines at n = 16: the 62 x 62 pole-sum matrices go to LAPACK in stacks
    # of at most _DET_STACK_ENTRIES entries, and the answer does not change
    R = random_operator(np.random.default_rng(23), 16)
    lines = np.pi * np.arange(64) / 64
    expected = _ray_extrema(R, lines)
    real_eigvals = np.linalg.eigvals
    sizes = []

    def recording(a):
        sizes.append(np.size(a))
        return real_eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", recording)
    assert _ray_extrema(R, lines) == expected
    assert max(sizes) <= _DET_STACK_ENTRIES and len(sizes) > 2


def ray_log_values(R, theta, r):
    # sign and log|F| on the ray theta at the radii r > 0, in product form from
    # the eigenvalues of the line matrix
    mu = np.linalg.eigvals(realify(rotate(R, theta)))
    diff = mu - r[:, None]
    logf = np.sum(np.log(np.abs(diff)), axis=1) - log_denominator(r, R.n)
    return np.prod(np.where(mu.imag == 0.0, np.sign(diff.real), 1.0), axis=1), logf


@pytest.mark.parametrize("n", [4, 16, 64])
@pytest.mark.parametrize("norm", [1e-3, 1.0, 10.0, 1e3])
@pytest.mark.parametrize("make", [random_operator, random_antilinear])
def test_every_grid_extremum_is_a_critical_point(make, norm, n):
    # Every local extremum of F on two uniform grids of 4000 radii, up to
    # 4 max(1, ||R||) and up to 4 min(1, ||R||), must lie within 3 grid steps
    # of a reported critical point.  Extrema are read from log|F| where the
    # sign of F is constant, so F may underflow and simple zeros do not count.
    R = make(np.random.default_rng(2), n, norm)
    lines = np.pi * np.arange(4) / 4
    if n == 64 and norm == 1e3:
        with pytest.raises(NumericalFailure):
            _ray_extrema(R, lines)
        return
    got = _ray_extrema(R, lines)
    s = operator_norm(R)
    missed, found = [], 0
    for theta, ext in zip(np.concatenate([lines, lines + np.pi]), got):
        crit = np.array([r for r, _ in ext[:-1]])
        for top in sorted({4.0 * max(1.0, s), 4.0 * min(1.0, s)}):
            r = np.linspace(0.0, top, 4001)[1:]
            sign, logf = ray_log_values(R, theta, r)
            slope = np.sign(np.diff(logf))
            turn = (slope[:-1] * slope[1:] < 0) & (sign[:-2] == sign[1:-1]) & (sign[1:-1] == sign[2:])
            for x in r[1:-1][turn]:
                found += 1
                if np.min(np.abs(crit - x)) > 3.0 * (r[1] - r[0]):
                    missed.append((float(theta), float(x)))
    assert found > 0 and not missed, (found, missed[:5])


@pytest.mark.parametrize("norm", [10.0, 1e3])
def test_antilinear_critical_radii_stay_finite(norm):
    # tr of an antilinear line matrix is 0, which puts one more root of the
    # critical equation at infinity; it must not be reported as a critical point
    for n in (4, 16):
        A = random_antilinear(np.random.default_rng(3), n, norm)
        rep = range_and_coverage(A, 32)
        assert rep.max_critical_radius < 1e8 * (1.0 + operator_norm(A))


def log_denominator(r, n):
    return np.logaddexp.reduce(2.0 * np.log(r)[:, None] * np.arange(n + 1), axis=1)


@pytest.mark.parametrize("n", [8, 16, 32, 64])
@pytest.mark.parametrize("norm", [1e-3, 1.0, 1e3])
def test_critical_values_match_the_determinant(n, norm):
    # F at every reported critical point against sign * exp(slogdet - log D)
    # of realify(R - lam I), to 1e-9 relative; a value below the smallest
    # normal double is compared as zero.  At n = 64 and norm 1e3, F(0) is
    # about 1e384: a typed failure, with no warning before it.
    R = random_operator(np.random.default_rng(2), n, norm)
    lines = np.pi * np.arange(8) / 8
    if n == 64 and norm == 1e3:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure):
                _ray_extrema(R, lines)
            with pytest.raises(NumericalFailure):
                ray_extrema(R, 0.0)
        return
    got = _ray_extrema(R, lines)
    thetas = np.concatenate([lines, lines + np.pi])
    pts = [(r * np.exp(1j * th), r, v) for th, ext in zip(thetas, got) for r, v in ext[1:-1]]
    assert pts
    lam, r, vals = (np.array(x) for x in zip(*pts))
    sign, logabs = _real_slogdets(R, lam)
    ref = sign * np.exp(logabs - log_denominator(r, n))
    assert np.all(np.abs(vals - ref) <= 1e-9 * np.abs(ref) + np.finfo(float).tiny)


# ------------------------------------------------------------------- coverage

def test_coverage_eps_example():
    rep = range_and_coverage(eps_operator(0.5))
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
    rep = range_and_coverage(identity(1), n_rays=128)
    assert rep.fov == (pytest.approx(0.0, abs=1e-12), pytest.approx(2.0, abs=1e-12))
    assert rep.range_est[0] == pytest.approx(0.0, abs=1e-10)
    assert rep.range_est[1] == pytest.approx(2.0, abs=1e-10)
    assert rep.uncovered_high == pytest.approx(0.0, abs=1e-10)
    # brute-force corroboration on a dense polar grid
    best = max(
        h_numfun(H.H, r * np.exp(1j * t))
        for r in np.linspace(0, 10, 500)
        for t in np.linspace(0, 2 * np.pi, 64, endpoint=False)
    )
    assert best > 2.0 - 1e-3


def test_coverage_contains_origin_and_limit_values():
    rng = np.random.default_rng(8)
    for _ in range(8):
        n = int(rng.integers(1, 6))
        rep = range_and_coverage(random_operator(rng, n), n_rays=16)
        lo, hi = rep.range_est
        assert lo - 1e-10 <= min(rep.f0, 1.0) and max(rep.f0, 1.0) <= hi + 1e-10
        assert rep.fov[0] - 1e-9 <= lo and hi <= rep.fov[1] + 1e-9
        assert rep.uncovered_low >= 0.0 and rep.uncovered_high >= 0.0


def test_coverage_matches_dense_grid():
    # on the report's own rays, no grid value leaves range_est.  F is read
    # from the operator on one grid array, one line solve per distinct angle
    # of its points; at n = 3 also from H
    cells = ((3, 96, 12.0, 300), (16, 32, 4.0, 24), (32, 32, 4.0, 12), (64, 32, 4.0, 12))
    for n, n_rays, r_max, n_radii in cells:
        R = random_operator(np.random.default_rng(9), n)
        rep = range_and_coverage(R, n_rays=n_rays)
        thetas = np.linspace(0, 2 * np.pi, n_rays, endpoint=False)
        lam = np.linspace(0, r_max, n_radii)[:, None] * np.exp(1j * thetas)
        vals = numfun_eval(R, lam)
        if n == 3:
            H = coeff_matrix(R).H
            vals = np.concatenate([vals.ravel(), [h_numfun(H, x) for x in lam.ravel()]])
        assert rep.range_est[0] <= vals.min() + 1e-9, n
        assert rep.range_est[1] >= vals.max() - 1e-9, n


@pytest.mark.parametrize("n", [2, 4, 8, 16])
@pytest.mark.parametrize("make", [random_operator, random_antilinear])
def test_coverage_unitary_similarity_invariance(make, n):
    # (U C U*, U B U^T) has the same characteristic polynomial: the same range
    # to 1e-12 relative, and ray minima to 1e-12 of the range's scale.  A
    # shallow minimum pins its radius only through its value: the radius of
    # one operator's minimum must give the other's minimum value.
    rng = np.random.default_rng(40 + n)
    R = make(rng, n)
    U, _ = np.linalg.qr(crandn(rng, n, n))
    S = RealLinearOperator(U @ R.C @ U.conj().T, U @ R.B @ U.T)
    a, b = range_and_coverage(R, 32), range_and_coverage(S, 32)
    assert np.allclose(b.range_est, a.range_est, rtol=1e-12, atol=0.0)
    tol = 1e-12 * max(abs(x) for x in a.range_est)
    for (th, r, v), (th_s, r_s, v_s) in zip(a.ray_minima, b.ray_minima):
        assert th_s == th and abs(v_s - v) <= tol
        lam = r_s * np.exp(1j * th)
        den = sum(r_s ** (2 * j) for j in range(n + 1))
        assert abs(charpoly_eval(R, lam) / den - v) <= tol


@pytest.mark.parametrize("n", [4, 16])
def test_antilinear_coverage_solves_one_line(monkeypatch, n):
    # C = 0: every line has the matrix realify(R), so the 64 lines of the grid
    # take one line solve and one pole-sum solve, and report what 64 would;
    # the H extraction adds one n x n solve, of B conj(B), for its whole torus
    R = random_antilinear(np.random.default_rng(50 + n), n)
    lines = np.pi * np.arange(64) / 64
    one_by_one = [_ray_extrema(R, [th]) for th in lines]
    real_eigvals = np.linalg.eigvals
    shapes = []

    def counting(a):
        shapes.append(np.shape(a))
        return real_eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    rep = range_and_coverage(R, 128)
    assert shapes == [(1, 2 * n, 2 * n), (1, 4 * n - 2, 4 * n - 2), (n, n)]
    assert [ext[0] for ext in one_by_one] + [ext[1] for ext in one_by_one] == _ray_extrema(R, lines)
    assert rep.n_rays == 128 and len(rep.ray_minima) == 128


def test_coverage_rounds_odd_ray_counts_up():
    # lines pi j / m for m = ceil(n_rays / 2), each with its opposite ray
    rep = range_and_coverage(random_operator(np.random.default_rng(11), 2), n_rays=7)
    assert rep.n_rays == 8
    assert [th for th, _, _ in rep.ray_minima] == [
        *(np.pi * j / 4 for j in range(4)), *(np.pi * j / 4 + np.pi for j in range(4))
    ]


def test_tail_decay_rate():
    # |F - 1| <= C / |lam| with C fitted on moderate radii and checked beyond
    rng = np.random.default_rng(10)
    for _ in range(5):
        n = int(rng.integers(1, 5))
        R = random_operator(rng, n)
        s = 1.0 + operator_norm(R)
        fit_radii = np.linspace(10 * s, 100 * s, 25)
        ver_radii = np.linspace(100 * s, 1000 * s, 25)
        phases = np.exp(1j * np.linspace(0, 2 * np.pi, 8, endpoint=False))
        cfit = max(abs(numfun_eval(R, r * ph) - 1.0) * r for r in fit_radii for ph in phases)
        for r in ver_radii:
            for ph in phases:
                assert abs(numfun_eval(R, r * ph) - 1.0) <= 1.5 * cfit / r + 1e-12


def test_scalar_zero_dimension_edge():
    # n = 1 scalar conjugation: F = (|lam|^2 - 1)/(1 + |lam|^2), range (-1, 1]
    rep = range_and_coverage(scalar_operator(0.0, 1.0), n_rays=8)
    assert rep.f0 == pytest.approx(-1.0)
    assert rep.range_est[0] == pytest.approx(-1.0)
    assert rep.range_est[1] == pytest.approx(1.0)
