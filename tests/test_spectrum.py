"""Ray sweeps, eigenvectors, eigenvalue-free certificates, invariant structure."""

import contextlib
import math
import re
import signal
import tracemalloc

import numpy as np
import pytest

from randops import crandn, random_antilinear, random_operator
from rlspec import (
    NumericalFailure,
    RealLinearOperator,
    SpectralPoint,
    ValidationError,
    apply,
    charpoly_eval,
    common_invariant_1d,
    complexify,
    conjugation,
    eigenvector,
    emptiness_certificates,
    identity,
    no_eigenvalue_certificate,
    operator_norm,
    range_and_coverage,
    ray_spectrum,
    realify,
    rotate,
    scale,
    spectrum_sweep,
)
import rlspec.spectrum as spectrum_mod


def skew_operator():
    return RealLinearOperator(np.zeros((2, 2)), [[0.0, 1.0], [-1.0, 0.0]])


def eps_operator(eps):
    a = np.sqrt((1 + eps) / 2)
    b = np.sqrt((1 - eps) / 2)
    return RealLinearOperator(np.zeros((2, 2)), [[a, b], [-b, a]])


def no_invariant_example():
    return RealLinearOperator([[1.0, 1.0], [0.0, 1.0]], [[0.0, 0.0], [1.0, 0.0]])


# --------------------------------------------------------------- ray_spectrum

def test_ray_spectrum_conjugation_full_circle():
    # the complexification [[0, 1], [1, 0]] has eigenvalues +-1 at every angle
    tau = conjugation(1)
    for th in np.linspace(0, np.pi, 9):
        hits = ray_spectrum(tau, th)
        assert [round(r, 12) for r, _ in hits] == [-1.0, 1.0]


def test_ray_spectrum_complex_linear_point():
    R = identity(1)
    hits = ray_spectrum(R, 0.0)
    assert len(hits) == 1 and abs(hits[0][0] - 1.0) < 1e-12
    assert ray_spectrum(R, np.pi / 2) == []


def test_ray_spectrum_skew_empty_everywhere():
    # p = (1 + |lam|^2)^2 > 0, so no line meets the spectrum
    R = skew_operator()
    for th in np.linspace(0, np.pi, 11):
        assert ray_spectrum(R, th) == []


# ------------------------------------------------------------- spectrum_sweep

def test_sweep_conjugation_unit_circle():
    cloud = spectrum_sweep(conjugation(1), 64)
    assert cloud.n_rays == 64
    assert len(cloud.points) == 64
    assert max(abs(p.r - 1.0) for p in cloud.points) < 1e-10
    thetas = sorted(p.theta for p in cloud.points)
    assert np.allclose(thetas, 2 * np.pi * np.arange(64) / 64, atol=1e-12)


def test_sweep_complex_linear_aimed_rays():
    C = np.diag([1.0 + 0j, 2j])
    R = RealLinearOperator(C, np.zeros((2, 2)))
    lams = np.array([r * np.exp(1j * th) for th in (0.0, np.pi / 2) for r, _ in ray_spectrum(R, th)])
    assert len(lams) == 2
    assert min(abs(lams - 1.0)) < 1e-10
    assert min(abs(lams - 2j)) < 1e-10


def test_sweep_eps_example_empty():
    # no line has a hit, so the merge runs its reduceat on empty arrays
    cloud = spectrum_sweep(eps_operator(0.5), 32)
    assert cloud.points == ()


def test_sweep_residuals_satisfy_bound():
    # The residual is the relative imaginary defect |Im mu| / (||R|| + |mu|)
    # of the line eigenvalue, the smallest over merged hits; at desk scale
    # every kept point also passes the determinant bound tol (1 + r)^(2n).
    rng = np.random.default_rng(3)
    n = 4
    for R in (random_antilinear(rng, n), random_operator(rng, n)):
        cloud = spectrum_sweep(R, 16)
        norm = operator_norm(R)
        assert cloud.points
        for p in cloud.points:
            line, t = (p.theta, p.r) if p.theta < math.pi else (p.theta - math.pi, -p.r)
            mus = np.linalg.eigvals(realify(rotate(R, line)))
            near = mus[np.abs(mus.real - t) <= 1e-9 * (norm + abs(t))]
            defect = np.abs(near.imag) / (norm + np.abs(near))
            assert abs(p.residual - np.min(defect)) <= 1e-15
            assert p.residual <= cloud.tol
            assert abs(charpoly_eval(R, p.lam)) <= cloud.tol * (1 + p.r) ** (2 * n)


def test_sweep_antilinear_circle_symmetry():
    # with no complex linear part the radii are independent of the angle
    rng = np.random.default_rng(4)
    A = random_antilinear(rng, 4)
    cloud = spectrum_sweep(A, 32)
    by_theta = {}
    for p in cloud.points:
        by_theta.setdefault(round(p.theta, 12), []).append(p.r)
    radii = [np.array(sorted(v)) for v in by_theta.values()]
    assert len({len(r) for r in radii}) == 1
    base = radii[0]
    assert max(float(np.max(np.abs(r - base))) for r in radii) < 1e-8


def test_sweep_points_bounded_by_norm():
    rng = np.random.default_rng(5)
    for _ in range(5):
        A = random_antilinear(rng, 4)
        nrm = operator_norm(A)
        cloud = spectrum_sweep(A, 16)
        for p in cloud.points:
            assert p.r <= nrm + 1e-8


def test_sweep_consistent_with_real_axis_zero():
    rng = np.random.default_rng(6)
    found = 0
    for _ in range(20):
        R = random_operator(rng, 3)
        cert = emptiness_certificates(R)
        if cert.real_axis_zero is None:
            continue
        found += 1
        hits = [r for r, _ in ray_spectrum(R, 0.0)]
        assert hits and min(abs(r - cert.real_axis_zero) for r in hits) < 1e-6
    assert found >= 3


def test_sweep_rejects_bad_ray_count():
    with pytest.raises(ValidationError):
        spectrum_sweep(conjugation(1), 0)


def test_sweep_deterministic():
    rng = np.random.default_rng(7)
    A = random_antilinear(rng, 5)
    c1 = spectrum_sweep(A, 32)
    c2 = spectrum_sweep(A, 32)
    assert c1.points and c1.points == c2.points


def reference_sweep(R, lines, tol=1e-8):
    # one complex eigenvalue solve per line, then the sweep's filter, merge
    # and residual bound, point by point
    points = []
    for th in lines:
        eigs = np.linalg.eigvals(complexify(rotate(R, th)))
        hits = sorted(e.real for e in eigs if abs(e.imag) <= tol * (1 + abs(e)))
        merged = []
        for r in hits:
            if not merged or abs(r - merged[-1]) > 1e-9 * (1 + abs(r)):
                merged.append(r)
        for r in merged:
            lam = r * np.exp(1j * th)
            if abs(charpoly_eval(R, lam)) <= tol * (1 + abs(r)) ** (2 * R.n):
                points.append((th if r >= 0 else th + math.pi, abs(r)))
    return sorted(points)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32])
@pytest.mark.parametrize("antilinear", [False, True])
def test_sweep_matches_complex_line_reference(n, antilinear):
    rng = np.random.default_rng(100 + n)
    R = (random_antilinear if antilinear else random_operator)(rng, n)
    lines = [math.pi * j / 32 for j in range(32)]
    cloud = spectrum_sweep(R, 63)
    assert cloud.n_rays == 2 * len(lines)
    cases = [([(p.theta, p.r) for p in cloud.points], lines)]
    # an aimed line is ray_spectrum's, at any angle
    cases += [(sorted((th if r >= 0 else th + math.pi, abs(r)) for r, _ in ray_spectrum(R, th)), [th])
              for th in (0.3, 2.0, 4.0, -1.0, 7.5)]
    for got, lines in cases:
        ref = reference_sweep(R, lines)
        assert len(got) == len(ref)
        for (th, r), (th_ref, r_ref) in zip(got, ref):
            assert th == th_ref
            assert abs(r - r_ref) <= 1e-9 * (1 + abs(r_ref))


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("antilinear", [False, True])
def test_line_matrices_do_not_depend_on_the_stack_size(n, antilinear):
    # the eigenvalues of 32 lines solved in one stack equal those of the same
    # lines solved one at a time, bitwise, on every seed
    make = random_antilinear if antilinear else random_operator
    lines = [math.pi * j / 32 for j in range(32)]
    for seed in range(10):
        R = make(np.random.default_rng(seed), n)
        one_by_one = np.concatenate([spectrum_mod._line_eigvals(R, [th]) for th in lines])
        assert spectrum_mod._line_eigvals(R, lines).tobytes() == one_by_one.tobytes(), seed


def test_sweep_and_ray_spectrum_refuse_a_tol_outside_0_1():
    # every residual is below 1, so tol >= 1 keeps every line eigenvalue, and a
    # NaN keeps none; both share the hit test that refuses them
    R = random_operator(np.random.default_rng(3), 3)
    for tol in (0.0, -1e-8, 1.0, math.inf, math.nan):
        with pytest.raises(ValidationError, match="tol"):
            spectrum_sweep(R, 64, tol=tol)
        with pytest.raises(ValidationError, match="tol"):
            ray_spectrum(R, 0.3, tol=tol)
    assert len(spectrum_sweep(R, 64, tol=0.5).points) >= len(spectrum_sweep(R, 64).points) > 0


@contextlib.contextmanager
def deadline(seconds):
    # a call that never returns fails the test instead of hanging the suite
    def expire(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("tol", [-1e-8, 0.0, math.nan, 1.0, math.inf])
@pytest.mark.parametrize("call", [
    lambda R, tol: eigenvector(R, 0.5, tol=tol),
    lambda R, tol: common_invariant_1d(R, tol=tol),
], ids=["eigenvector", "common_invariant_1d"])
def test_every_tol_lies_in_0_1(call, tol):
    # a negative or NaN tol kept common_invariant_1d's cluster loop from ever
    # dropping its first eigenvalue; eigenvector returned None without a word
    R = random_operator(np.random.default_rng(0), 3)
    with deadline(1.0), pytest.raises(ValidationError, match="tol must lie in"):
        call(R, tol)


def test_a_loose_tol_no_longer_finds_invariant_lines_that_are_not_there():
    R = random_operator(np.random.default_rng(0), 3)
    assert common_invariant_1d(R).lines == ()
    with pytest.raises(ValidationError):
        common_invariant_1d(R, tol=2.0)


@pytest.mark.parametrize("n_rays", [3.5, 4.0, "4", None])
def test_ray_counts_must_be_integers(n_rays):
    # 3.5 used to run 4 rays
    R = random_operator(np.random.default_rng(0), 2)
    with pytest.raises(ValidationError, match="n_rays must be an integer"):
        spectrum_sweep(R, n_rays)
    with pytest.raises(ValidationError, match="n_rays must be an integer"):
        range_and_coverage(R, n_rays)
    assert spectrum_sweep(R, np.int64(4)).n_rays == 4


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_angles_and_points_are_refused(bad):
    # a NaN line used to fail its eigen solve (NumericalFailure, exit 3), and a
    # NaN point reached LAPACK as a raw LinAlgError
    R = random_operator(np.random.default_rng(0), 3)
    with pytest.raises(ValidationError, match="angles must be finite"):
        ray_spectrum(R, bad)
    for lam in (bad, complex(0.5, bad)):
        with pytest.raises(ValidationError, match="evaluation points must be finite"):
            eigenvector(R, lam)
    # an array lam used to raise a raw ValueError from its finiteness test
    with pytest.raises(ValidationError, match=r"one evaluation point expected, got shape \(2,\)"):
        eigenvector(R, [0.5, bad])


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("antilinear", [False, True])
def test_line_kernel_solves_each_distinct_line_once(monkeypatch, n, antilinear):
    # repeated angles, and any angles of an antilinear operator, give the rows
    # of line-by-line solves bitwise; only the distinct lines are solved, and
    # an antilinear operator has one
    make = random_antilinear if antilinear else random_operator
    lines = np.array([0.3, 2.0, 0.3, -1.0, 2.0, 0.0, -1.0, 0.3, 3.1])
    real_eigvals = np.linalg.eigvals
    solved = []

    def counting(a):
        solved.append(np.shape(a)[0])
        return real_eigvals(a)

    ops = [make(np.random.default_rng(seed), n) for seed in range(5)]
    refs = [np.concatenate([spectrum_mod._line_eigvals(R, [th]) for th in lines]) for R in ops]
    monkeypatch.setattr(np.linalg, "eigvals", counting)
    for seed, (R, one_by_one) in enumerate(zip(ops, refs)):
        solved.clear()
        assert spectrum_mod._line_eigvals(R, lines).tobytes() == one_by_one.tobytes(), seed
        assert solved == [1 if antilinear else np.unique(lines).size]


@pytest.mark.parametrize("n", [1, 2, 4, 16])
@pytest.mark.parametrize("antilinear", [False, True])
def test_sweep_rows_equal_ray_spectrum(n, antilinear):
    # the whole-array pass of the sweep keeps, on every line, exactly the hits
    # that ray_spectrum returns for that line alone, bitwise.  An antilinear
    # spectrum may be empty, so three operators are swept and some must hit
    lines = [math.pi * j / 32 for j in range(32)]
    hits = 0
    for seed in (20 + n, 40 + n, 60 + n):
        R = (random_antilinear if antilinear else random_operator)(np.random.default_rng(seed), n)
        expected = sorted(
            (SpectralPoint(th if r >= 0 else th + math.pi, abs(r), complex(r * np.exp(1j * th)), res)
             for th in lines for r, res in ray_spectrum(R, th)),
            key=lambda p: (p.theta, p.r),
        )
        assert spectrum_sweep(R, 64).points == tuple(expected), seed
        hits += len(expected)
    assert hits


def test_merge_is_single_linkage():
    # three hits on line 0, 0.6 of the merge tolerance apart: each is within
    # tolerance of the one before, the last is not of the first.  One hit
    # stays, at the smallest r, with the least residual of the three (the
    # middle one's); merging against a cluster's first hit kept two
    gap = 0.6 * 1e-9 * 2.0
    a = 1.0 + gap * np.arange(3)
    b = np.array([2e-10, 1e-10, 3e-10])
    R = RealLinearOperator(np.diag(a + 1j * b), np.zeros((3, 3)))
    norm = operator_norm(R)
    assert a[2] - a[0] > 1e-9 * (norm + a[2])
    [(r, res)] = ray_spectrum(R, 0.0)
    assert r == pytest.approx(a[0], abs=1e-15)
    assert res == pytest.approx(b[1] / (norm + abs(a[1] + 1j * b[1])), rel=1e-6)
    cloud = spectrum_sweep(R, 4)
    assert [(p.theta, p.r, p.residual) for p in cloud.points] == [(0.0, r, res)]


def test_sweep_solves_each_chunk_in_one_call(monkeypatch):
    real_eigvals = np.linalg.eigvals
    shapes = []

    def counting(a):
        shapes.append(np.shape(a))
        return real_eigvals(a)

    R = random_operator(np.random.default_rng(12), 16)
    monkeypatch.setattr(np.linalg, "eigvals", counting)
    spectrum_sweep(R, 64)
    # 32 real 32 x 32 lines in stacks of 2**14 entries: two calls of 16
    assert shapes == [(16, 32, 32), (16, 32, 32)]


def test_antilinear_sweep_solves_one_line(monkeypatch):
    real_eigvals = np.linalg.eigvals
    shapes = []

    def counting(a):
        shapes.append(np.shape(a))
        return real_eigvals(a)

    A = random_antilinear(np.random.default_rng(12), 16)
    monkeypatch.setattr(np.linalg, "eigvals", counting)
    spectrum_sweep(A, 64)
    assert shapes == [(1, 32, 32)]
    # any nonzero complex linear part takes the per-line path
    shapes.clear()
    C = np.zeros((16, 16), dtype=complex)
    C[3, 5] = 1e-300
    spectrum_sweep(RealLinearOperator(C, A.B), 64)
    assert shapes == [(16, 32, 32), (16, 32, 32)]


def test_sweeps_take_no_determinant(monkeypatch):
    # The line eigen solve certifies its hits, so neither a sweep nor an aimed
    # line evaluates p; the antilinear path still solves one line per call.
    real_eigvals = np.linalg.eigvals
    shapes = []

    def counting(a):
        shapes.append(np.shape(a))
        return real_eigvals(a)

    def forbidden(a):
        raise AssertionError("the sweep took a determinant")

    rng = np.random.default_rng(14)
    A, R = random_antilinear(rng, 16), random_operator(rng, 16)
    monkeypatch.setattr(np.linalg, "eigvals", counting)
    monkeypatch.setattr(np.linalg, "slogdet", forbidden)
    monkeypatch.setattr(np.linalg, "det", forbidden)
    for hits in (lambda M: spectrum_sweep(M, 64).points,
                 lambda M: [hit for th in np.linspace(0.1, 3.0, 9) for hit in ray_spectrum(M, th)]):
        shapes.clear()
        assert hits(A)
        assert set(shapes) == {(1, 32, 32)}
        assert hits(R)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_sweep_of_norm_10_operators_lands_on_zeros(n):
    # Kept hits are relative zeros of p = det(realify(R - lam I)) at norms
    # 1e-3, 10 and 1e3 alike: the filter is relative to ||R||, not to 1.
    rng = np.random.default_rng(200 + n)
    for norm in (10.0, 1e-3, 1e3):
        for _ in range(3):
            R = random_operator(rng, n, scale=norm)
            cloud = spectrum_sweep(R, 64)
            assert cloud.points
            for p in cloud.points:
                M = realify(RealLinearOperator(R.C - p.lam * np.eye(n), R.B))
                _, logdet = np.linalg.slogdet(M)
                log_hadamard = np.sum(np.log(np.linalg.norm(M, axis=0)))
                assert logdet <= math.log(1e-6) + log_hadamard


def test_sweep_falls_back_to_single_lines(monkeypatch):
    R = random_operator(np.random.default_rng(13), 3)
    expected = spectrum_sweep(R, 16)
    real_eigvals = np.linalg.eigvals

    def no_stacks(a):
        if np.ndim(a) == 3:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real_eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", no_stacks)
    assert spectrum_sweep(R, 16).points == expected.points


def test_sweep_failure_names_the_line(monkeypatch):
    R = random_operator(np.random.default_rng(14), 3)
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
    theta = math.pi * 2 / 8
    with pytest.raises(NumericalFailure, match=re.escape(f"theta={theta:.6g}")):
        spectrum_sweep(R, 16)


def test_sweep_memory_stays_bounded_at_n64():
    # Unchunked, the 128 real 128 x 128 line matrices alone would take 16 MiB.
    R = random_antilinear(np.random.default_rng(12), 64)
    tracemalloc.start()
    try:
        cloud = spectrum_sweep(R, 256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cloud.points
    assert peak < 4 * 2**20


# ---------------------------------------------------------------- eigenvector

def test_eigenvector_identity():
    x = eigenvector(identity(2), 1.0)
    assert x is not None
    assert np.linalg.norm(apply(identity(2), x) - x) < 1e-12


def test_eigenvector_conjugation_real():
    x = eigenvector(conjugation(2), 1.0)
    assert x is not None
    assert np.linalg.norm(x.imag) < 1e-10
    assert np.linalg.norm(apply(conjugation(2), x) - x) < 1e-12


def test_eigenvector_conjugation_phase_circle():
    # antilinear phase relation: for lam = e^{i phi}, e^{i phi/2} x is real
    tau = conjugation(2)
    for phi in (0.4, 1.7, -2.0):
        lam = np.exp(1j * phi)
        x = eigenvector(tau, lam)
        assert x is not None
        assert np.linalg.norm(apply(tau, x) - lam * x) < 1e-10
        y = np.exp(1j * phi / 2) * x
        assert np.linalg.norm(y.imag) < 1e-8


def test_eigenvector_absent_off_spectrum():
    assert eigenvector(conjugation(2), 2.0) is None
    assert eigenvector(skew_operator(), 1.0) is None


def test_eigenvector_rechecks_the_residual(monkeypatch):
    # A least singular value within tol passes only with a kernel vector.  The
    # SVD of realify(R - I) is pinned to read 0 last but return the top
    # singular vector there, which the residual check must refuse.  Without
    # the pin, C = outer([1, 2/3], [1, -5/7]) at lam = 0 and tol = 1e-17 reaches
    # the same check through LAPACK's last bits.
    real_svd = np.linalg.svd

    def top_vector_last(a, compute_uv=True):
        if not compute_uv:
            return real_svd(a, compute_uv=False)
        U, s, Vh = real_svd(a)
        return U, np.append(s[:-1], 0.0), Vh[::-1]

    R = RealLinearOperator(np.diag([1.0, 2.0]), np.zeros((2, 2)))
    assert eigenvector(R, 1.0) is not None
    monkeypatch.setattr(np.linalg, "svd", top_vector_last)
    assert eigenvector(R, 1.0) is None


# --------------------------------------------------- no-eigenvalue certificate

def test_certificate_skew_margin_one():
    res = no_eigenvalue_certificate(skew_operator())
    assert res.certified
    assert abs(res.margin - 1.0) < 1e-12
    assert res.rest_norm < 1e-12


def test_certificate_identity_inconclusive():
    res = no_eigenvalue_certificate(identity(2))
    assert not res.certified
    assert res.skew_min_modulus == 0.0


def test_certified_operators_have_empty_sweeps():
    rng = np.random.default_rng(8)
    checked = 0
    for _ in range(30):
        n = 4
        S = crandn(rng, n, n)
        skew = (S - S.T) / 2
        R = RealLinearOperator(0.05 * crandn(rng, n, n), skew + 0.02 * crandn(rng, n, n))
        res = no_eigenvalue_certificate(R)
        if not res.certified:
            continue
        checked += 1
        assert spectrum_sweep(R, 16).points == ()
    assert checked >= 5


# --------------------------------------------------------- invariant subspaces

def test_no_invariant_line_example():
    res = common_invariant_1d(no_invariant_example())
    assert res.lines == ()
    assert res.partial  # defective complex linear part


def test_invariant_lines_identity_all_degenerate():
    res = common_invariant_1d(identity(3))
    assert len(res.lines) == 3
    assert not res.partial
    assert any("eigenspace-degenerate" in f for f in res.flags)


def test_invariant_lines_distinct_diagonal():
    R = RealLinearOperator(np.diag([1.0 + 0j, 2.0]), np.zeros((2, 2)))
    res = common_invariant_1d(R)
    assert len(res.lines) == 2
    dirs = sorted(int(np.argmax(np.abs(x))) for x in res.lines)
    assert dirs == [0, 1]


def test_invariant_lines_antilinear_diagonal():
    # B conj(x) parallel to x forces the axes when the moduli differ
    R = RealLinearOperator(np.zeros((2, 2)), np.diag([1.0, 2.0]))
    res = common_invariant_1d(R)
    assert len(res.lines) == 2
    for x in res.lines:
        bx = R.B @ x.conj()
        assert np.linalg.norm(bx - (x.conj() @ bx) * x) < 1e-10


def test_invariant_lines_verified_against_action():
    # every certified line must absorb both parts of the operator
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        R = random_operator(rng, n)
        res = common_invariant_1d(R)
        for x in res.lines:
            cx = R.C @ x
            bx = R.B @ x.conj()
            assert np.linalg.norm(cx - (x.conj() @ cx) * x) < 1e-6
            assert np.linalg.norm(bx - (x.conj() @ bx) * x) < 1e-6


def test_invariant_lines_mixed_construction():
    # C shares the eigenvector e1 with the antilinear part
    C = np.array([[1.0, 0.3], [0.0, 2.0]])
    B = np.array([[0.5, 0.0], [0.0, 0.0]])
    res = common_invariant_1d(RealLinearOperator(C, B))
    assert any(abs(x[0]) > 1 - 1e-8 for x in res.lines)


# --------------------------------------------------------- invariant planes

def _plane_residual(R, Q):
    # largest column of R Q - Q Q* R Q over Q and i Q, the test a span must pass
    V = np.hstack([R.C @ Q + R.B @ Q.conj(), R.C @ Q - R.B @ Q.conj()])
    return float(np.linalg.norm(V - Q @ (Q.conj().T @ V), axis=0).max())


def test_krylov_conjugation_stops_at_one():
    # every power of conjugation keeps a real vector on its line: all lines
    # are invariant, so no plane is returned
    res = common_invariant_1d(conjugation(3))
    assert len(res.lines) == 3 and res.span is None


def test_krylov_antilinear_spans_are_invariant():
    # a returned plane absorbs the operator; verify by projecting the image of
    # random plane elements with an independent projector
    rng = np.random.default_rng(10)
    planes = 0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        A = random_antilinear(rng, n)
        res = common_invariant_1d(A)
        assert bool(res.lines) != (res.span is not None) or n == 2
        if res.span is None:
            continue
        planes += 1
        Q = res.span
        assert Q.shape == (n, 2)
        assert np.allclose(Q.conj().T @ Q, np.eye(2), rtol=0.0, atol=1e-14)
        P = Q @ Q.conj().T
        for _ in range(5):
            v = Q @ crandn(rng, 2)
            img = apply(A, v)
            assert np.linalg.norm(img - P @ img) < 1e-9 * (1 + np.linalg.norm(img))
    assert planes >= 1


def test_krylov_general_operator_saturates():
    # at n = 2 a plane would be all of C^2, which says nothing
    res = common_invariant_1d(no_invariant_example())
    assert res.lines == () and res.span is None
    # C = diag(1, 1, 2): B conj(.) sends e3 to e1, so the eigenspace of 2 holds
    # no line, and acts on the eigenspace {e1, e2} of 1 as J = [[0, 1], [-1, 0]],
    # which has none either: that whole eigenspace is the plane
    B = np.array([[0.0, 1.0, 1.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    R = RealLinearOperator(np.diag([1.0, 1.0, 2.0]), B)
    res = common_invariant_1d(R)
    assert res.lines == ()
    assert np.allclose(res.span @ res.span.conj().T, np.diag([1.0, 1.0, 0.0]), rtol=0.0, atol=1e-15)
    assert _plane_residual(R, res.span) <= 1e-15


@pytest.mark.parametrize("n", range(2, 9))
def test_krylov_finite_rank_case(n):
    # B = U (s_1 J (+) s_2 J (+) ... [(+) s_0]) U^T: B conj(B) = -U diag(s_k^2) U*
    # on each pair, with no eigenvalue >= 0 and so no line at even n; an odd n
    # adds the line of U e_n.  For A = B conj and B conj(B) y = mu y,
    # A^2 y = mu y, so span{y, B conj(y)} is invariant: the span returned is
    # that of the mu of largest modulus, which is the pair of the largest s_k
    rng = np.random.default_rng(40 + n)
    U = np.linalg.qr(crandn(rng, n, n))[0]
    s = rng.uniform(0.5, 2.0, n // 2)
    M = np.zeros((n, n))
    for k, sk in enumerate(s):
        M[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[0.0, sk], [-sk, 0.0]]
    if n % 2:
        M[-1, -1] = 1.0
    B = U @ M @ U.T
    A = RealLinearOperator(np.zeros((n, n)), B)
    res = common_invariant_1d(A)
    if n % 2 or n == 2:
        assert res.span is None and len(res.lines) == n % 2
        return
    assert res.lines == ()
    Q = res.span
    assert _plane_residual(A, Q) <= 10.0 * 1e-8 * operator_norm(A)
    mus, Y = np.linalg.eig(B @ B.conj())
    y = Y[:, np.argmax(np.abs(mus))]
    pair = np.column_stack([y, B @ y.conj()])
    off_y, off_by = np.linalg.norm(pair - Q @ (Q.conj().T @ pair), axis=0)
    assert off_y <= 1e-10 and off_by <= 1e-10 * np.linalg.norm(B, 2)
    top = 2 * int(np.argmax(s))
    plane = U[:, top:top + 2]
    assert np.allclose(Q @ Q.conj().T, plane @ plane.conj().T, rtol=0.0, atol=1e-12)


def test_krylov_nilpotent_power_chain():
    # B conj(.) shifts e2 to e1 and e1 to 0: the chain ends on the line of e1
    # (beta = 0), so there is a line and no plane
    B = np.array([[0.0, 1.0], [0.0, 0.0]])
    res = common_invariant_1d(RealLinearOperator(np.zeros((2, 2)), B))
    assert len(res.lines) == 1 and abs(res.lines[0][0]) == pytest.approx(1.0, abs=1e-15)
    assert res.span is None
