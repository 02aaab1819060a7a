"""Seeded equivariance of ray sweeps, eigenvectors and invariant lines.

The spectrum respects the symmetries of the operator: ``spec(sR) = s spec(R)``
for s > 0, unitary similarity ``(U C U*, U B U^T)`` leaves it unchanged, and
the phase rotation ``(e^{i phi} C, e^{i phi} B)`` turns it by ``phi``.  A
sweep, whose hit test is relative to ``||R||``, must show the same points
under each of them, and every kept point must have normwise backward error
``sigma_min(realify(R - lam I)) / (||R|| + |lam|)`` at most ``tol``.
Invariant complex lines follow the operator the same way: those of ``s R``
are those of ``R``, those of ``(U C U*, U B U^T)`` are ``U x``, and each
moves off itself by at most ``10 tol ||R||``.
"""

import math

import numpy as np
import pytest

from randops import crandn, random_antilinear, random_operator
from rlspec import (
    RealLinearOperator,
    apply,
    common_invariant_1d,
    conjugation,
    eigenvector,
    operator_norm,
    realify,
    scale,
    spectrum_sweep,
)

SIZES = [2, 4, 8, 16, 32]
SCALES = [1e-9, 1e-3, 0.1, 10.0, 1e3, 1e9]
# ray directions on the full circle: 16 lines, pi/16 apart
RAYS = 32


def _operator(n, antilinear):
    # the first seeded draw whose sweep is not empty, so every check sees points
    rng = np.random.default_rng(300 + 2 * n + antilinear)
    while True:
        R = (random_antilinear if antilinear else random_operator)(rng, n)
        if spectrum_sweep(R, RAYS).points:
            return R


def _points(cloud):
    return np.array([(p.theta, p.r) for p in cloud.points]).reshape(-1, 2)


def _backward_errors(R, cloud):
    n, norm = R.n, operator_norm(R)
    lams = cloud.lambdas()
    M = np.stack([realify(RealLinearOperator(R.C - lam * np.eye(n), R.B)) for lam in lams])
    return np.linalg.svd(M, compute_uv=False)[:, -1] / (norm + np.abs(lams))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("antilinear", [False, True])
def test_sweep_scales_with_the_operator(n, antilinear):
    R = _operator(n, antilinear)
    cloud = spectrum_sweep(R, RAYS)
    base = _points(cloud)
    assert len(base)
    assert np.max(_backward_errors(R, cloud)) <= cloud.tol
    for s in SCALES:
        sR = scale(s, R)
        scaled = spectrum_sweep(sR, RAYS)
        pts = _points(scaled)
        assert pts.shape == base.shape, s
        assert np.array_equal(pts[:, 0], base[:, 0])
        assert np.max(np.abs(pts[:, 1] / s - base[:, 1])) <= 1e-12
        assert np.max(_backward_errors(sR, scaled)) <= scaled.tol


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("antilinear", [False, True])
def test_sweep_is_invariant_under_unitary_similarity(n, antilinear):
    R = _operator(n, antilinear)
    U, _ = np.linalg.qr(crandn(np.random.default_rng(400 + n), n, n))
    similar = RealLinearOperator(U @ R.C @ U.conj().T, U @ R.B @ U.T)
    base = _points(spectrum_sweep(R, RAYS))
    pts = _points(spectrum_sweep(similar, RAYS))
    assert len(base) and pts.shape == base.shape
    assert np.array_equal(pts[:, 0], base[:, 0])
    assert np.max(np.abs(pts[:, 1] - base[:, 1])) <= 1e-12


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("antilinear", [False, True])
@pytest.mark.parametrize("k", [1, 5, 16])
def test_sweep_turns_with_a_phase_rotation(n, antilinear, k):
    # phi = k pi / 16 moves line j of the sweep onto line j + k
    R = _operator(n, antilinear)
    step = 2 * math.pi / RAYS
    phi = k * step
    turned = _points(spectrum_sweep(scale(np.exp(1j * phi), R), RAYS))
    base = _points(spectrum_sweep(R, RAYS))
    assert len(base) and turned.shape == base.shape

    def keyed(pts, shift):
        ray = (np.rint(pts[:, 0] / step).astype(int) + shift) % RAYS
        order = np.lexsort((pts[:, 1], ray))
        return ray[order], pts[order, 1]

    ray0, r0 = keyed(base, k)
    ray1, r1 = keyed(turned, 0)
    assert np.array_equal(ray0, ray1)
    assert np.max(np.abs(r1 - r0)) <= 1e-12


def test_sweep_of_the_zero_operator():
    # every line meets the spectrum {0} once, with residual 0, at every scale
    Z = RealLinearOperator(np.zeros((3, 3)), np.zeros((3, 3)))
    for s in [1.0, *SCALES]:
        cloud = spectrum_sweep(scale(s, Z), 8)
        assert [p.theta for p in cloud.points] == [math.pi * j / 4 for j in range(4)]
        assert all(p.r == 0.0 and p.residual == 0.0 for p in cloud.points)
    x = eigenvector(Z, 0.0)
    assert x is not None and abs(np.linalg.norm(x) - 1.0) < 1e-12
    assert eigenvector(Z, 1e-300) is None


@pytest.mark.parametrize("s", [1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9])
def test_eigenvector_is_scale_free(s):
    R = scale(s, random_operator(np.random.default_rng(1), 4))
    assert eigenvector(R, s * (0.123 + 0.05j)) is None
    point = min(spectrum_sweep(R, 16).points, key=lambda p: p.residual)
    x = eigenvector(R, point.lam)
    assert x is not None
    assert abs(np.linalg.norm(x) - 1.0) < 1e-12
    assert np.linalg.norm(apply(R, x) - point.lam * x) <= 1e-8 * (operator_norm(R) + point.r)


# --------------------------------------------------------- invariant lines

LINE_SIZES = [2, 4, 8, 16]
LINE_KINDS = ["general", "antilinear", "triu"]


def _line_operator(n, kind):
    # triu parts share the invariant line e1; general draws have no lines, and
    # an antilinear one is the first seeded draw whose B conj(B) has a positive
    # eigenvalue, whose eigenvectors are invariant lines
    rng = np.random.default_rng(500 + 3 * n + LINE_KINDS.index(kind))
    if kind == "general":
        return random_operator(rng, n)
    if kind == "triu":
        R = random_operator(rng, n)
        return RealLinearOperator(np.triu(R.C), np.triu(R.B))
    while True:
        R = random_antilinear(rng, n)
        mu = np.linalg.eigvals(R.B @ R.B.conj())
        if np.any((np.abs(mu.imag) < 1e-12) & (mu.real > 0.1 / n)):
            return R


def _same_lines(lines, others):
    return len(lines) == len(others) and all(
        max(abs(np.vdot(x, y)) for y in others) > 1.0 - 1e-9 for x in lines
    )


def _worst_line_residual(R, res):
    # ||R x - (x* R x) x|| / ||R|| over the returned unit vectors
    worst = 0.0
    for x in res.lines:
        y = apply(R, x)
        worst = max(worst, np.linalg.norm(y - (x.conj() @ y) * x))
    return worst / operator_norm(R)


@pytest.mark.parametrize("n", LINE_SIZES)
@pytest.mark.parametrize("kind", LINE_KINDS)
def test_invariant_lines_scale_with_the_operator(n, kind):
    R = _line_operator(n, kind)
    base = common_invariant_1d(R)
    assert bool(base.lines) == (kind != "general")
    assert _worst_line_residual(R, base) <= 10 * 1e-8
    for s in SCALES:
        sR = scale(s, R)
        res = common_invariant_1d(sR)
        assert _same_lines(base.lines, res.lines), s
        assert _worst_line_residual(sR, res) <= 10 * 1e-8
        assert res.partial == base.partial


@pytest.mark.parametrize("n", LINE_SIZES)
@pytest.mark.parametrize("kind", LINE_KINDS)
def test_invariant_lines_follow_a_unitary_similarity(n, kind):
    R = _line_operator(n, kind)
    U, _ = np.linalg.qr(crandn(np.random.default_rng(600 + n), n, n))
    similar = RealLinearOperator(U @ R.C @ U.conj().T, U @ R.B @ U.T)
    base = common_invariant_1d(R)
    res = common_invariant_1d(similar)
    assert _same_lines([U @ x for x in base.lines], res.lines)
    assert _worst_line_residual(similar, res) <= 10 * 1e-8


def test_triu_invariant_line_at_every_scale():
    # e1 is the one invariant line of an upper-triangular pair
    rng = np.random.default_rng(3)
    R = RealLinearOperator(np.triu(crandn(rng, 4, 4)), np.triu(crandn(rng, 4, 4)))
    for s in [1.0, *SCALES]:
        res = common_invariant_1d(scale(s, R))
        assert len(res.lines) == 1, s
        assert abs(res.lines[0][0]) > 1.0 - 1e-12


def test_invariant_lines_in_a_three_dimensional_eigenspace():
    # C = diag(1, 1, 1, 2); B fixes e1, sends e2 to e4 and kills e3 and e4
    C = np.diag([1.0, 1.0, 1.0, 2.0])
    B = np.zeros((4, 4))
    B[0, 0] = B[3, 1] = 1.0
    res = common_invariant_1d(RealLinearOperator(C, B))
    assert not res.partial
    assert sorted(int(np.argmax(np.abs(x))) for x in res.lines) == [0, 2, 3]
    assert all(np.max(np.abs(x)) > 1.0 - 1e-12 for x in res.lines)


def test_conjugation_invariant_lines():
    # every real line is invariant under conj; the three axes represent them
    res = common_invariant_1d(conjugation(3))
    assert len(res.lines) == 3 and not res.partial
    assert any(f.startswith("family") for f in res.flags)
