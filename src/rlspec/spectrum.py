"""Spectra of real linear operators as point clouds, plus invariant lines and planes.

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
scaling ``R`` leaves unchanged.  Each distinct line is solved once, and an
antilinear operator (``C = 0``), with ``realify(R)`` on every line, as one.
The hit test, and the merge of hits within ``1e-9 (||R|| + |r|)`` of the one
before them on their line (single linkage), is one pass over all lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charpoly import _line_eigvals, _line_grid, _point
from .errors import ValidationError
from .operators import RealLinearOperator, apply, min_modulus, operator_norm, realify

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


def _check_tol(tol: float) -> None:
    """Every ``tol`` of this module is relative and must lie in (0, 1); NaN does not."""
    if not 0.0 < tol < 1.0:
        raise ValidationError(f"tol must lie in (0, 1), got {tol!r}")


def _merged_hits(eigs: np.ndarray, tol: float, norm: float):
    # (line, r, res) of the hits of every row, merged as ray_spectrum says and
    # sorted by (line, r); the test is a product, so the zero operator keeps its zeros
    _check_tol(tol)
    scale = norm + np.abs(eigs)
    keep = np.abs(eigs.imag) <= tol * scale
    defect = np.abs(eigs.imag) / np.where(scale > 0.0, scale, 1.0)
    line, r, res = np.nonzero(keep)[0], eigs.real[keep], defect[keep]
    order = np.lexsort((res, r, line))
    line, r, res = line[order], r[order], res[order]
    new = np.ones(r.size, dtype=bool)
    new[1:] = (np.diff(line) != 0) | (np.diff(r) > 1e-9 * (norm + np.abs(r[1:])))
    first = np.flatnonzero(new)
    return line[first], r[first], np.minimum.reduceat(res, first)


def ray_spectrum(R: RealLinearOperator, theta: float, tol: float = 1e-8) -> list[tuple[float, float]]:
    """Spectral radii (signed) on the line through the origin at angle ``theta``.

    Solves the eigenproblem of the real 2n x 2n matrix of the rotated
    operator and keeps eigenvalues ``mu`` with ``|Im mu| <= tol (||R|| + |mu|)``,
    ``0 < tol < 1`` (module docstring).  A returned pair ``(r, res)`` is the point
    ``r * exp(i theta)`` (negative r lands on the opposite ray at
    ``theta + pi``) with ``res = |Im mu| / (||R|| + |mu|)``.  By r, a hit within
    ``1e-9 (||R|| + |r|)`` of the one before it joins its cluster (single linkage),
    which keeps its first r and least residual: the sweep's pass on one line.
    """
    _, r, res = _merged_hits(_line_eigvals(R, [theta]), tol, operator_norm(R))
    return list(zip(r.tolist(), res.tolist()))


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
    ``n_rays``.  The lines are solved in batched, memory-bounded stacks, an
    antilinear operator's as one; ``||R||`` is one SVD per sweep.  The hit
    test and the merge of ``ray_spectrum`` run once over the whole
    ``(lines, 2n)`` eigenvalue array, so every line keeps the hits
    ``ray_spectrum`` returns for it.
    The merged cloud is sorted by (theta, r).
    """
    if thetas is not None and not np.isfinite(thetas).all():  # before % pi, which warns on inf
        raise ValidationError("line angles must be finite, not NaN or infinity")
    lines = _line_grid(n_rays) if thetas is None else np.unique(np.asarray(thetas, dtype=float) % np.pi)
    if not lines.size:
        raise ValidationError("thetas must contain at least one angle")

    norm = operator_norm(R)
    line, r, res = _merged_hits(_line_eigvals(R, lines), tol, norm)
    th = lines[line]
    theta = np.where(r >= 0.0, th, th + math.pi)
    order = np.lexsort((np.abs(r), theta))
    points = map(SpectralPoint, theta[order].tolist(), np.abs(r)[order].tolist(),
                 (r * np.exp(1j * th))[order].tolist(), res[order].tolist())
    return SpectrumCloud(points=tuple(points), tol=tol, n_rays=2 * len(lines), norm=norm)


def eigenvector(R: RealLinearOperator, lam: complex, tol: float = 1e-8):
    """Unit eigenvector for ``R x = lam x``, or None when ``lam`` is not an eigenvalue.

    The eigenvalue equation is real linear in x, so the kernel is found via
    the smallest singular vector of the real 2n x 2n representation of
    ``R - lam I``; it and ``||R x - lam x||`` must be within ``tol`` and
    ``10 tol`` of ``||R|| + |lam|``, so scaling ``R`` and ``lam`` changes nothing.
    """
    _check_tol(tol)
    lam = _point(lam)
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

    ``lines`` holds one unit vector per line.  ``partial`` is set only when
    the complex linear part is defective: some cluster of its eigenvalues
    (equal within ``tol ||R||``) has fewer eigenvectors than members.  The
    lines are still all found, since every invariant line lies in an
    eigenspace, but a defective eigenvalue is sensitive to roundoff.
    ``flags`` notes each defect, an ``eigenspace-degenerate`` subspace (of
    dimension >= 2, killed by ``B conj(.)``, so that all its lines are
    invariant; an orthonormal basis of it is returned), and each ``family``:
    two returned lines of one eigenspace with equal ``|beta|``, between which
    a continuous family of invariant lines runs (representatives returned).
    ``span``, set only when there is no line and n > 2, is an orthonormal
    n x 2 basis of the invariant plane of the paper's theorem (``common_invariant_1d``).
    """

    lines: tuple[np.ndarray, ...]
    partial: bool
    flags: tuple[str, ...]
    span: np.ndarray | None


def common_invariant_1d(R: RealLinearOperator, tol: float = 1e-8) -> InvariantLines:
    """All complex lines invariant under ``R``, from one con-eigen algorithm.

    ``span{x}`` is invariant exactly when ``x`` is an eigenvector of ``C`` and
    a coneigenvector of ``B`` (``B conj(x) = beta x``).  Each eigenspace ``W``
    of ``C`` (eigenvalues clustered, and kernels taken, at ``tol ||R||``) is
    shrunk to its largest subspace with ``B conj(W)`` inside ``W`` by repeating
    ``W <- W conj(ker N)``, ``N = (I - W W*) B conj(W)``.  Its lines are then
    the coneigenvectors of ``A = W* B conj(W)``: for each eigenpair
    ``(mu, y)`` of ``A conj(A)``, ``x = A conj(y) + sqrt(mu) y`` and
    ``i (sqrt(mu) y - A conj(y))`` satisfy ``A conj(x) = sqrt(mu) x`` (Horn
    and Johnson, *Matrix Analysis*, 4.6) when ``mu >= 0``, and ``y`` is one
    when both vanish.  A candidate is kept only when
    ``||R x - (x* R x) x|| <= 10 tol ||R||`` holds for ``x`` and ``i x``, which
    rejects those of other ``mu``; no test changes when ``R`` is scaled.
    ``A conj(y)`` belongs to ``conj(mu)``, so ``span{y, A conj(y)}`` is invariant (the paper's
    theorem): ``span``, for a ``mu`` of largest modulus, where its plane passes the same test.
    """
    _check_tol(tol)
    n, C, B = R.n, R.C, R.B
    thr = tol * operator_norm(R)
    lines: list[np.ndarray] = []
    flags: list[str] = []
    partial = False
    span = None

    def kernel(M: np.ndarray) -> np.ndarray:
        _, s, Vh = np.linalg.svd(M)
        return Vh[np.count_nonzero(s > thr):].conj().T

    def push(x: np.ndarray) -> None:
        # append the line of x when R(x) and R(i x) stay on it and it is new
        if not x.any():
            return
        x = x / np.linalg.norm(x)
        for y in (apply(R, x), apply(R, 1j * x)):
            if np.linalg.norm(y - (x.conj() @ y) * x) > 10.0 * thr:
                return
        if all(abs(np.vdot(y, x)) < 1.0 - 1e-8 for y in lines):
            lines.append(x)

    w = np.linalg.eigvals(C)
    while w.size:
        nu, near = w[0], np.abs(w - w[0]) <= thr
        w, alg = w[~near], np.count_nonzero(near)
        W = kernel(C - nu * np.eye(n))
        if W.shape[1] < alg:
            partial = True
            flags.append(
                f"defective eigenvalue {nu:.6g}: algebraic multiplicity {alg}, {W.shape[1]} eigenvectors"
            )
        while W.shape[1]:
            N = B @ W.conj()
            K = kernel(N - W @ (W.conj().T @ N))
            if K.shape[1] == W.shape[1]:
                break
            W = W @ K.conj()
        if not W.shape[1]:
            continue
        A = W.conj().T @ B @ W.conj()
        if np.linalg.norm(A, 2) <= thr:
            cands = np.eye(W.shape[1])
            note = (f"eigenspace-degenerate: all lines in a {W.shape[1]}-dimensional subspace of the "
                    f"eigenspace of {nu:.6g} are invariant (orthonormal representatives returned)")
        else:
            mus, Y = np.linalg.eig(A @ A.conj())
            root, AY = np.sqrt(np.maximum(mus.real, 0.0)), A @ Y.conj()
            cands = np.hstack([AY + root * Y, 1j * (root * Y - AY), Y])
            note = (f"family: invariant lines of equal |beta| in the eigenspace of {nu:.6g} bound "
                    "a continuous family of invariant lines (representatives returned)")
            if span is None and W.shape[1] > 1:
                k = np.argmax(np.abs(mus))
                Q = W @ np.linalg.qr(np.column_stack([Y[:, k], AY[:, k]]))[0]
                V = np.hstack([C @ Q + B @ Q.conj(), C @ Q - B @ Q.conj()])  # R Q and R(i Q) / i
                span = Q if np.linalg.norm(V - Q @ (Q.conj().T @ V), 2) <= 10.0 * thr else None
        first = len(lines)
        for c in cands.T:
            push(W @ c)
        betas = np.sort([abs(x.conj() @ B @ x.conj()) for x in lines[first:]])
        if np.any(np.diff(betas) <= 10.0 * thr):
            flags.append(note)

    return InvariantLines(lines=tuple(lines), partial=partial, flags=tuple(flags),
                          span=span if not lines and n > 2 else None)
