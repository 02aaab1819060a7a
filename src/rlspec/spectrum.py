"""Spectra of real linear operators as point clouds, plus eigen-structure tools.

The spectrum of ``z -> C z + B conj(z)`` is a plane algebraic curve (the
zero set of the characteristic polynomial), and a line through the origin
meets it in finitely many points.  Sweeping the line angle and solving one
ordinary eigenvalue problem per line therefore samples the whole curve:
after rotating the complex linear part by ``exp(-i theta)``, the real
eigenvalues of the real 2n x 2n matrix ``realify`` of the rotated operator
(similar to its complexification) are exactly the signed radii of the
spectral points on that line.  A sweep stacks these real matrices for all
lines and solves them with one batched ``np.linalg.eigvals`` per
memory-bounded chunk, which certifies its own hits: the line matrix
``M = realify(e^{-i theta} C, B)`` is ``U R U`` with ``U`` multiplication by
``e^{-i theta/2}``, so ``M - t I`` has the singular values of
``realify(R - t e^{i theta} I)``.  A backward-stable eigenvalue ``mu`` is
exact for ``M + E`` with ``||E|| = O(u ||R||)``, and Weyl's inequality gives
``sigma_min(realify(R - lam I)) <= |Im mu| + ||E||``, ``lam = Re(mu) e^{i theta}``.
A hit with ``|Im mu| <= tol (||R|| + |mu|)`` thus has normwise backward
error at most ``tol + O(u)``, with no determinant per hit and a test that
scaling ``R`` leaves unchanged.  An antilinear operator (``C = 0``) has the
matrix ``realify(R)`` on every line: its sweep solves one line for all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charpoly import _DET_STACK_ENTRIES
from .errors import NumericalFailure, ValidationError
from .operators import (
    RealLinearOperator,
    _real_block,
    apply,
    min_modulus,
    operator_norm,
    realify,
)

__all__ = [
    "SpectralPoint",
    "SpectrumCloud",
    "ray_spectrum",
    "spectrum_sweep",
    "eigenvector",
    "NoEigenvalueCertificate",
    "no_eigenvalue_certificate",
    "InvariantLines",
    "common_invariant_1d",
    "KrylovSpan",
    "krylov_cspan",
]


@dataclass(frozen=True)
class SpectralPoint:
    theta: float
    r: float
    lam: complex
    residual: float


@dataclass(frozen=True, eq=False)
class SpectrumCloud:
    """Spectral points gathered from a ray sweep, sorted by (theta, r).

    ``residual <= tol`` of each point is ``|Im mu| / (||R|| + |mu|)`` for its
    line eigenvalue ``mu`` (the least over merged hits, 0 when ``R = 0``); it
    bounds the normwise backward error up to roundoff (module docstring).
    ``norm`` is the ``||R||`` of that test, the sweep's one SVD; every point
    has ``r <= norm`` up to roundoff, so it also bounds a plot of the cloud.
    """

    points: tuple[SpectralPoint, ...]
    tol: float
    n_rays: int
    norm: float

    def lambdas(self) -> np.ndarray:
        return np.array([p.lam for p in self.points], dtype=complex)


def _line_eigvals(R: RealLinearOperator, lines) -> np.ndarray:
    """Eigenvalues of ``realify(rotate(R, theta))``, one row per line angle.

    The real matrices are built straight from ``P = e^{-i theta} C + B`` and
    ``Q = e^{-i theta} C - B``, stacked in chunks of at most
    ``_DET_STACK_ENTRIES`` entries and solved by one batched
    ``np.linalg.eigvals`` per chunk.  A chunk that fails is solved line by
    line, so that the failure names its angle.  Every line is solved as
    given; an antilinear sweep, whose lines all share ``realify(R)``, passes
    only its first.
    """
    lines = np.asarray(lines, dtype=float)
    chunk = max(1, _DET_STACK_ENTRIES // (2 * R.n) ** 2)
    eigs = np.empty((lines.size, 2 * R.n), dtype=complex)
    for start in range(0, lines.size, chunk):
        th = lines[start:start + chunk]
        phase = np.exp(-1j * th)[:, None, None]
        P, Q = phase * R.C + R.B, phase * R.C - R.B
        S = _real_block(P, Q)
        try:
            eigs[start:start + chunk] = np.linalg.eigvals(S)
            continue
        except np.linalg.LinAlgError:
            pass
        for k, (theta, M) in enumerate(zip(th, S)):
            try:
                eigs[start + k] = np.linalg.eigvals(M)
            except np.linalg.LinAlgError as exc:
                raise NumericalFailure(
                    f"eigenvalue solve failed on the line theta={theta:.6g}: {exc}"
                ) from exc
    return eigs


def _line_hits(eigs: np.ndarray, tol: float, norm: float) -> list[tuple[float, float]]:
    # eigenvalues with |Im mu| <= tol (||R|| + |mu|), by real part, with those
    # within 1e-9 (||R|| + |r|) of each other collapsed; written as a product,
    # so the zero operator keeps its (exactly real) zero eigenvalues
    scale = norm + np.abs(eigs)
    keep = np.abs(eigs.imag) <= tol * scale
    defect = np.abs(eigs.imag) / np.where(scale > 0.0, scale, 1.0)
    merged: list[tuple[float, float]] = []
    for r, res in sorted(zip(eigs.real[keep].tolist(), defect[keep].tolist())):
        if merged and abs(r - merged[-1][0]) <= 1e-9 * (norm + abs(r)):
            merged[-1] = (merged[-1][0], min(merged[-1][1], res))
        else:
            merged.append((r, res))
    return merged


def ray_spectrum(R: RealLinearOperator, theta: float, tol: float = 1e-8) -> list[tuple[float, float]]:
    """Spectral radii (signed) on the line through the origin at angle ``theta``.

    Solves the eigenproblem of the real 2n x 2n matrix of the rotated
    operator and keeps eigenvalues ``mu`` with ``|Im mu| <= tol (||R|| + |mu|)``
    (module docstring).  A returned pair ``(r, res)`` is the point
    ``r * exp(i theta)`` (negative r lands on the opposite ray at
    ``theta + pi``) with ``res = |Im mu| / (||R|| + |mu|)``.  Hits within
    ``1e-9 (||R|| + |r|)`` of each other are collapsed.
    """
    return _line_hits(_line_eigvals(R, [theta])[0], tol, operator_norm(R))


def spectrum_sweep(
    R: RealLinearOperator,
    n_rays: int = 64,
    *,
    tol: float = 1e-8,
    thetas=None,
) -> SpectrumCloud:
    """Sample the spectrum by sweeping rays through the origin.

    ``n_rays`` counts directions on the full circle; each eigenvalue solve
    covers one line (two opposite rays), so ``ceil(n_rays / 2)`` solves are
    performed on [0, pi) and negative radii are remapped to ``theta + pi``.
    Odd ray counts are rounded up to the next even number.  Explicit line
    angles can be passed via ``thetas`` (reduced mod pi), which overrides
    ``n_rays``.  All lines are solved in batched, memory-bounded stacks, and
    each line keeps the hits of ``ray_spectrum``; ``||R||`` is one SVD per
    sweep.  The merged cloud is sorted by (theta, r).
    """
    if thetas is None:
        if n_rays < 1:
            raise ValidationError(f"n_rays must be >= 1, got {n_rays}")
        m = (n_rays + 1) // 2
        lines = [math.pi * j / m for j in range(m)]
    else:
        lines = sorted({float(t) % math.pi for t in np.atleast_1d(thetas)})
        if not lines:
            raise ValidationError("thetas must contain at least one angle")

    norm = operator_norm(R)
    if not R.C.any():
        # every line has the matrix realify(R), so the first line's hits serve all
        rows = [_line_hits(_line_eigvals(R, lines[:1])[0], tol, norm)] * len(lines)
    else:
        rows = [_line_hits(row, tol, norm) for row in _line_eigvals(R, lines)]
    points = sorted(
        (SpectralPoint(th if r >= 0 else th + math.pi, abs(r), complex(r * np.exp(1j * th)), res)
         for th, row in zip(lines, rows) for r, res in row),
        key=lambda p: (p.theta, p.r),
    )
    return SpectrumCloud(points=tuple(points), tol=tol, n_rays=2 * len(lines), norm=norm)


def eigenvector(R: RealLinearOperator, lam: complex, tol: float = 1e-8):
    """Unit eigenvector for ``R x = lam x``, or None when ``lam`` is not an eigenvalue.

    The eigenvalue equation is real linear in x, so the kernel is found via
    the smallest singular vector of the real 2n x 2n representation of
    ``R - lam I``; it and ``||R x - lam x||`` must be within ``tol`` and
    ``10 tol`` of ``||R|| + |lam|``, so scaling ``R`` and ``lam`` changes nothing.
    """
    n = R.n
    scale = operator_norm(R) + abs(lam)
    M = realify(RealLinearOperator(R.C - lam * np.eye(n), R.B))
    _, s, Vh = np.linalg.svd(M)
    if s[-1] > tol * scale:
        return None
    v = Vh[-1]
    x = v[:n] + 1j * v[n:]
    x = x / np.linalg.norm(x)
    if np.linalg.norm(apply(R, x) - lam * x) > 10.0 * tol * scale:
        return None
    return x


@dataclass(frozen=True)
class NoEigenvalueCertificate:
    """Result of the skew-dominance eigenvalue-free test.

    Splitting off the skew-adjoint half ``T`` of the antilinear part,
    ``T x`` is always orthogonal to ``x``; if the remainder satisfies
    ``||rest|| < inf ||T x||`` then ``|lam|^2 + j(T)^2 <= ||rest||^2`` is
    impossible and no eigenvalue can exist.  ``margin`` is
    ``j(T) - ||rest||`` (certified when positive; a nonpositive margin is
    inconclusive, not a disproof).
    """

    certified: bool
    margin: float
    skew_min_modulus: float
    rest_norm: float


def no_eigenvalue_certificate(R: RealLinearOperator) -> NoEigenvalueCertificate:
    n = R.n
    zeros = np.zeros((n, n), dtype=complex)
    skew = RealLinearOperator(zeros, (R.B - R.B.T) / 2.0)
    rest = RealLinearOperator(R.C, (R.B + R.B.T) / 2.0)
    j = min_modulus(skew)
    h = operator_norm(rest)
    return NoEigenvalueCertificate(
        certified=bool(j > h), margin=float(j - h), skew_min_modulus=float(j), rest_norm=float(h)
    )


@dataclass(frozen=True)
class InvariantLines:
    """Complex lines (1-d complex subspaces) invariant under the operator.

    ``partial`` is set when some eigenstructure of the complex linear part
    could not be analyzed exhaustively (defective eigenvalues, eigenspaces
    of dimension > 2); ``flags`` carries human-readable notes, including
    markers for continuous families where only representatives are listed.
    """

    lines: tuple[np.ndarray, ...]
    partial: bool
    flags: tuple[str, ...]


def _phase_normalize(x: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(x)))
    ph = x[k] / abs(x[k])
    return x * np.conj(ph)


def _line_residual(R: RealLinearOperator, x: np.ndarray) -> float:
    bx = R.B @ x.conj()
    return float(np.linalg.norm(bx - (x.conj() @ bx) * x))


def common_invariant_1d(R: RealLinearOperator, tol: float = 1e-8) -> InvariantLines:
    """All complex lines invariant under ``R`` (desk-scale analysis).

    A complex line invariant under a real linear operator must be invariant
    under its complex linear and antilinear parts separately, so candidates
    are sought inside eigenspaces of ``C``.  On a 1-d eigenspace the test is
    whether ``B conj(x)`` stays parallel to ``x``.  Inside a 2-d eigenspace
    the restricted antilinear problem is solved through the eigenvectors of
    ``B' conj(B')`` (B' the compressed antilinear block), including the
    circle families that antilinearity produces; higher-dimensional
    eigenspaces are only handled in the trivial all-invariant case and are
    otherwise flagged as partial, as are defective eigenvalues (where just
    the genuine eigenlines are tested).
    """
    n = R.n
    C, B = R.C, R.B
    bscale = 1.0 + float(np.linalg.norm(B))
    w = np.linalg.eigvals(C)
    wscale = 1.0 + float(np.max(np.abs(w)))
    cluster_tol = max(tol, 1e-7) * wscale

    # group eigenvalues into clusters of (numerically) equal values
    order = np.lexsort((w.imag, w.real))
    clusters: list[list[int]] = []
    for idx in order:
        if clusters and abs(w[idx] - w[clusters[-1][-1]]) <= cluster_tol:
            clusters[-1].append(idx)
        else:
            clusters.append([idx])

    lines: list[np.ndarray] = []
    flags: list[str] = []
    partial = False

    def push(x: np.ndarray) -> None:
        x = _phase_normalize(x / np.linalg.norm(x))
        for y in lines:
            if abs(np.vdot(y, x)) >= 1.0 - 1e-8:
                return
        lines.append(x)

    for cluster in clusters:
        nu = complex(np.mean(w[cluster]))
        alg = len(cluster)
        _, s, Vh = np.linalg.svd(C - nu * np.eye(n))
        ktol = max(tol, 1e-7) * max(1.0, float(s[0]))
        g = int(np.sum(s <= ktol))
        if g == 0:
            g = 1
        V = Vh[n - g:].conj().T  # orthonormal kernel basis, n x g
        if g < alg:
            partial = True
            flags.append(
                f"defective eigenvalue {nu:.6g}: algebraic multiplicity {alg}, "
                f"only the {g}-dimensional eigenspace analyzed"
            )

        if g == 1:
            x = V[:, 0]
            if _line_residual(R, x) <= tol * bscale:
                push(x)
            continue

        BV = B @ V.conj()
        if np.linalg.norm(BV) <= tol * bscale:
            # antilinear part annihilates the whole eigenspace
            for k in range(g):
                push(V[:, k])
            flags.append(
                f"eigenspace-degenerate: all lines in the {g}-dimensional "
                f"eigenspace of {nu:.6g} are invariant (orthonormal representatives returned)"
            )
            continue

        if g > 2:
            partial = True
            flags.append(
                f"eigenspace of {nu:.6g} has dimension {g} > 2: restricted antilinear "
                "problem not analyzed"
            )
            continue

        # 2-d eigenspace: compress the antilinear action and analyze
        Bp = V.conj().T @ BV          # 2x2 block of the restricted problem
        N = BV - V @ Bp               # component leaving the eigenspace
        G = Bp @ Bp.conj()
        mus, Y = np.linalg.eig(G)
        if abs(mus[0] - mus[1]) <= tol * (1.0 + float(np.max(np.abs(mus)))):
            flags.append(
                f"repeated restricted eigenvalue inside the eigenspace of {nu:.6g}: "
                "the invariant-line family may be larger than the representatives returned"
            )
        found_family = False
        for j in range(2):
            mu = mus[j]
            if abs(mu.imag) > tol * (1.0 + abs(mu)) or mu.real < -tol:
                continue
            y = Y[:, j] / np.linalg.norm(Y[:, j])
            z = Bp @ y.conj()
            zpar = z - (y.conj() @ z) * y
            candidates = []
            if np.linalg.norm(zpar) <= tol * bscale:
                candidates.append(y)
            elif mu.real > tol:
                # the pair (y, z) spans an invariant 2-plane of the restricted
                # antilinear map; inside it a circle of lines y + e^{i phi} z/sqrt(mu)
                # is invariant, and the leave-space constraint picks the phase
                root = math.sqrt(mu.real)
                a = N @ y.conj()
                b = (N @ z.conj()) / root
                na, nb = np.linalg.norm(a), np.linalg.norm(b)
                if na <= tol * bscale and nb <= tol * bscale:
                    candidates.append(y + z / root)
                    if not found_family:
                        flags.append(
                            f"circle of invariant lines inside the eigenspace of {nu:.6g}; "
                            "one representative returned"
                        )
                        found_family = True
                elif nb > tol * bscale:
                    u = -(b.conj() @ a)
                    if abs(u) > 0:
                        u = u / abs(u)
                        candidates.append(y + np.conj(u) * z / root)
            for cand in candidates:
                x = V @ (cand / np.linalg.norm(cand))
                if _line_residual(R, x) <= 10.0 * tol * bscale:
                    push(x)

    return InvariantLines(lines=tuple(lines), partial=partial, flags=tuple(flags))


@dataclass(frozen=True)
class KrylovSpan:
    """Orthonormal basis of the complex span of operator powers of a vector.

    ``residuals[k]`` is the norm of the component of ``R basis_k`` outside
    the span.  For an antilinear operator the span of powers is genuinely
    invariant and all residuals vanish (up to roundoff); for a general real
    linear operator they need not.
    """

    basis: np.ndarray
    residuals: np.ndarray


def krylov_cspan(
    R: RealLinearOperator,
    y,
    max_dim: int | None = None,
    tol: float = 1e-10,
) -> KrylovSpan:
    """Complex linear span of ``{y, R y, R^2 y, ...}`` by Gram-Schmidt.

    Iterates true operator powers (renormalized by positive reals, which
    commutes with real-homogeneous maps) and stops once the next power lies
    in the current span within ``tol``, or when ``max_dim`` columns have
    been collected.
    """
    n = R.n
    v = np.asarray(y, dtype=complex)
    if v.shape != (n,):
        raise ValidationError(f"starting vector of length {n} expected, got shape {v.shape}")
    nv = np.linalg.norm(v)
    if nv == 0.0:
        raise ValidationError("starting vector must be nonzero")

    kmax = min(max_dim if max_dim is not None else n, n)
    Q = [v / nv]
    w = v / nv
    while len(Q) < kmax:
        w = apply(R, w)
        nw = np.linalg.norm(w)
        if nw <= 1e-300:
            break
        w = w / nw
        Qm = np.column_stack(Q)
        res = w - Qm @ (Qm.conj().T @ w)
        res = res - Qm @ (Qm.conj().T @ res)  # second pass for orthogonality
        rn = np.linalg.norm(res)
        if rn <= tol:
            break
        Q.append(res / rn)

    Qm = np.column_stack(Q)
    residuals = np.empty(len(Q))
    for k in range(len(Q)):
        u = apply(R, Qm[:, k])
        residuals[k] = np.linalg.norm(u - Qm @ (Qm.conj().T @ u))
    return KrylovSpan(basis=Qm, residuals=residuals)
