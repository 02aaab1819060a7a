"""Characteristic polynomials of real linear operators and their coefficient matrices.

For an operator ``z -> C z + B conj(z)`` on C^n the characteristic
polynomial is the real-valued bivariate polynomial ::

    p(lam, conj(lam)) = det [[C - lam I, B], [conj(B), conj(C) - conj(lam) I]]

whose zero set is exactly the spectrum.  Collecting coefficients gives a
Hermitian (n+1) x (n+1) matrix H with ``p = v* H v`` against the monomial
vector ``v = (1, lam, ..., lam**n)``.  This module extracts H by one path,
one 2-D DFT of samples on a torus grid of (n+1)**2 points (Schur
complements, or for C = 0 ``prod_k (lam mu - e_k)`` over the eigenvalues
e_k of ``B conj(B)``), produces weighted and Cholesky sum-of-squares
decompositions, and derives emptiness/nonemptiness certificates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DimensionMismatch, NotPositiveDefinite, NumericalFailure, ValidationError
from .operators import RealLinearOperator, _real_block, operator_norm, realify

__all__ = [
    "CoeffMatrix",
    "SosDecomposition",
    "charpoly_eval",
    "coeff_matrix",
    "coeff_poly_eval",
    "sos_decompose",
    "cholesky_sos",
    "sos_eval",
    "EmptinessCertificates",
    "emptiness_certificates",
]


# Entries per stack of real matrices handed to one batched LAPACK call
# (128 KiB), so the determinant and eigenvalue stacks stay bounded at any n.
_DET_STACK_ENTRIES = 1 << 14
_HERM_TOL = 1e-6  # largest Hermitian defect max|G - G*| / max|G| that extraction accepts
_LOG_MAX = np.log(np.finfo(float).max)


def _point(lam) -> complex:
    """``lam`` as one finite complex number; an array, NaN or infinity is refused."""
    z = np.asarray(lam, dtype=complex)
    if z.ndim:
        raise ValidationError(f"one evaluation point expected, got shape {z.shape}")
    if not np.isfinite(z):
        raise ValidationError("evaluation points must be finite, not NaN or infinity")
    return complex(z)


def _real_slogdets(R: RealLinearOperator, lams) -> tuple[np.ndarray, np.ndarray]:
    """Sign and log-modulus of ``p(lam, conj(lam)) = det(realify(R - lam I))`` at ``lams``.

    The real 2n x 2n matrices are stacked in chunks of at most
    ``_DET_STACK_ENTRIES`` entries, one batched ``np.linalg.slogdet`` each.
    """
    lams = np.asarray(lams, dtype=complex).ravel()
    P, Q, eye = R.C + R.B, R.C - R.B, np.eye(R.n)
    chunk = max(1, _DET_STACK_ENTRIES // (2 * R.n) ** 2)
    out = np.empty((2, lams.size))
    for start in range(0, lams.size, chunk):
        shift = lams[start:start + chunk, None, None] * eye
        out[:, start:start + chunk] = np.linalg.slogdet(_real_block(P - shift, Q - shift))
    return out[0], out[1]


def _stacked_eigvals(build, lines: np.ndarray, size: int) -> np.ndarray:
    """Eigenvalues of the real ``size x size`` stacks ``build(part)`` of ``lines[part]``.

    Each stack holds at most ``_DET_STACK_ENTRIES`` entries, for one batched
    ``eigvals``; a stack that fails is solved matrix by matrix, so that the
    failure names its line.
    """
    chunk = max(1, _DET_STACK_ENTRIES // size ** 2)
    eigs = np.empty((lines.size, size), dtype=complex)
    for start in range(0, lines.size, chunk):
        part = slice(start, start + chunk)
        S = build(part)
        try:
            eigs[part] = np.linalg.eigvals(S)
        except np.linalg.LinAlgError:
            for k, (theta, M) in enumerate(zip(lines[part], S), start=start):
                try:
                    eigs[k] = np.linalg.eigvals(M)
                except np.linalg.LinAlgError as exc:
                    raise NumericalFailure(
                        f"eigenvalue solve failed on the line theta={theta:.6g}: {exc}"
                    ) from exc
    return eigs


def _check_count(value, what: str, least: int) -> None:
    """A count, size or start is a Python or numpy integer >= ``least``."""
    if not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise ValidationError(f"{what} must be >= {least}, got {value}")


def _line_grid(n_rays: int) -> np.ndarray:
    """The ``m = ceil(n_rays / 2)`` line angles ``pi j / m`` of ``n_rays`` rays; odd counts round up."""
    _check_count(n_rays, "n_rays", 1)
    m = (n_rays + 1) // 2
    return np.pi * np.arange(m) / m


def _distinct_lines(R: RealLinearOperator, lines) -> tuple[np.ndarray, np.ndarray]:
    """The distinct angles of ``lines`` and each line's index in them; all one line when ``C = 0``."""
    keys, inverse = np.unique(np.asarray(lines, dtype=float), return_inverse=True)
    if not np.isfinite(keys).all():
        raise ValidationError("line angles must be finite, not NaN or infinity")
    return (keys, inverse) if R.C.any() else (keys[:1], np.zeros_like(inverse))


def _line_eigvals(R: RealLinearOperator, lines) -> np.ndarray:
    """Eigenvalues ``mu_k`` of ``realify(rotate(R, theta))``, one row per line angle.

    The ray kernel of sweeps, numerical-function rays and the real-axis
    certificate (line 0 is ``realify(R)`` to the bit): for real t,
    ``det(realify(R - t e^{i theta} I)) = prod_k (mu_k - t)``.  A line matrix
    is ``cos(theta) K - sin(theta) L + M``, with K, L and M the real forms of
    ``C z``, ``i C z`` and ``B conj(z)``; real arithmetic rounds it alike in a
    stack of any size.  Each distinct line is solved once (:func:`_distinct_lines`).
    """
    keys, inverse = _distinct_lines(R, lines)
    ph = np.exp(-1j * keys)[:, None, None]
    K, L, M = _real_block(R.C, R.C), _real_block(1j * R.C, 1j * R.C), _real_block(R.B, -R.B)
    return _stacked_eigvals(lambda p: ph[p].real * K + ph[p].imag * L + M, keys, 2 * R.n)[inverse]


def _values(mu: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``F = prod_k (mu[i, k] - t[i]) / sum_j t[i]**(2j)`` on line i; ``F = p(0, 0)`` at t = 0.

    Log domain: ``log D = log sum_j u**j + 2n log max(|t|, 1)``, ``u = min(|t|, 1/|t|)**2``;
    signed by the exactly real mu (a zero is +0.0).  Beyond double range, ``NumericalFailure``.
    """
    n = mu.shape[1] // 2
    diff = mu - t[:, None]
    with np.errstate(divide="ignore"):
        logf = np.sum(np.log(np.abs(diff)), axis=1)
    a = np.abs(t)
    logf -= np.log(npoly.polyval(np.minimum(a, 1.0 / np.maximum(a, 1.0)) ** 2, np.ones(n + 1)))
    logf -= 2 * n * np.log(np.maximum(a, 1.0))
    if not np.all(logf < _LOG_MAX):
        raise NumericalFailure(f"a numerical function value overflows double range (n={n})")
    return np.prod(np.where(mu.imag == 0.0, np.sign(diff.real), 1.0), axis=1) * np.exp(logf) + 0.0


def charpoly_eval(R: RealLinearOperator, lam: complex) -> float:
    """Evaluate the characteristic polynomial at ``lam``.

    Computed as ``det(realify(R - lam I))``, the determinant of a real 2n x 2n
    matrix similar to the shifted complexification, so the value is exactly
    real (0.0 if singular); a value beyond double range raises ``NumericalFailure``.
    """
    sign, logabs = _real_slogdets(R, [_point(lam)])
    if logabs[0] >= _LOG_MAX:
        raise NumericalFailure(f"p(lam) overflows double range at lam={complex(lam):.4g} (n={R.n})")
    return float(sign[0] * np.exp(logabs[0]))


def _torus_log_weights(n: int, norm: float) -> np.ndarray:
    """``log W`` of ``H = W G W``: ``W = diag(s**(n-i) / r**i)``, s = norm or 1, r = 1 + 1/n."""
    return np.arange(n, -1, -1) * np.log(norm or 1.0) - np.arange(n + 1) * np.log(1.0 + 1.0 / n)


@dataclass(frozen=True, eq=False)
class CoeffMatrix:
    """Coefficient matrix of a characteristic polynomial, held as its torus matrix G.

    ``H = W G W``, W the torus weights of ``norm`` = ``||R||`` (:func:`_torus_log_weights`);
    ``H[i, j]`` multiplies ``lam**j * conj(lam)**i``.  G is square, at least 2 x 2,
    finite and not zero, and ``n`` is its size less one; ``G`` holds a read-only
    copy of the G given.  ``asymmetry``, ``max|G - G*| / max|G|``, is a roundoff
    diagnostic that scaling R leaves unchanged.  ``H`` is formed where it is read;
    ``log W``, which validation, H and the Cholesky rows read, is taken once, here.
    """

    G: np.ndarray
    norm: float
    n: int = field(init=False)
    asymmetry: float = field(init=False)
    _log_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        G = np.array(self.G, dtype=complex)
        if G.ndim != 2 or G.shape[0] != G.shape[1] or G.shape[0] < 2:
            raise ValidationError(f"coefficient matrix must be square, at least 2 x 2, got {G.shape}")
        if not np.isfinite(G).all():
            raise ValidationError("coefficient matrix has non-finite entries")
        if not G.any():
            raise ValidationError("coefficient matrix is zero")
        if not 0.0 <= self.norm < np.inf:
            raise ValidationError(f"norm must be a finite number >= 0, got {self.norm!r}")
        G.setflags(write=False)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "n", G.shape[0] - 1)
        object.__setattr__(self, "asymmetry", float(np.abs(G - G.conj().T).max()) / float(np.abs(G).max()))
        object.__setattr__(self, "_log_weights", _torus_log_weights(self.n, self.norm))

    @cached_property
    def H(self) -> np.ndarray:
        """Hermitian part of ``W G W``, read-only; an entry beyond double range raises ``NumericalFailure``."""
        with np.errstate(over="ignore", invalid="ignore"):
            W = np.exp(self._log_weights)
            A = self.G * W[:, None] * W
            H = (A + A.conj().T) / 2.0
        if not np.isfinite(H).all():
            i, j = np.argwhere(~np.isfinite(H))[0]
            raise NumericalFailure(f"H[{i}, {j}] overflows double range (n={self.n}, ||R||={self.norm:.3g})")
        H.setflags(write=False)
        return H


def coeff_poly_eval(cm: CoeffMatrix, lam: complex) -> float:
    """Evaluate ``v* H v`` with ``v = (1, lam, ..., lam**n)``."""
    v = _point(lam) ** np.arange(cm.n + 1)
    return float(np.real(v.conj() @ cm.H @ v))


def _coeff_torus(C: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``G[i, j] = H[i, j] * r**(i + j)`` of ``z -> C z + B conj(z)`` from one 2-D DFT.

    Here ``r = 1 + 1/n``.  ``p(lam, mu)`` has degree <= n in each variable,
    so its values at ``(r w**a, r w**b)``, with ``w`` a primitive (n+1)-th
    root of unity and ``a, b = 0..n``, determine every coefficient: the 2-D
    DFT of the samples (rows indexed by ``b``) is ``(n+1)**2 * G``.  The
    operator must have ``||R|| <= 1``: the caller passes ``C`` and ``B``
    already divided by ``||R||``, and they are neither checked nor copied.
    Then ``||C|| <= 1``, so ``D = conj(C) - mu I`` has ``sigma_min(D) >= 1/n``
    on the grid, and its Schur complement gives ::

        p(lam, mu) = det(D) * prod_k (s_k(mu) - lam)

    with ``s_k(mu)`` the eigenvalues of ``S(mu) = C - B D**-1 conj(B)``.
    The n+1 values of ``mu`` take one batched n x n ``solve``, ``eigvals``
    and ``det``; all n+1 values of ``lam`` share those eigenvalues.  When
    ``C = 0``, ``D = -mu I`` gives ``p(lam, mu) = prod_k (lam mu - e_k)``, with
    e_k the eigenvalues of ``B conj(B)``: one n x n ``eigvals`` for the whole
    grid, as :func:`_distinct_lines` solves an antilinear operator on one line.
    The 2-D DFT is taken as its two 1-D passes, rows first, as ``np.fft.fft2``
    takes it itself: the same bits, without its per-call argument handling.
    """
    n = C.shape[0]
    r = 1.0 + 1.0 / n
    z = r * np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
    if C.any():
        D = C.conj() - z[:, None, None] * np.eye(n)
        # Right-hand sides as a stack of one: numpy < 2 reads an (n, n) one as n vectors.
        X = np.linalg.solve(D, B.conj()[None])
        s = np.linalg.eigvals(C - B @ X)
        P = np.linalg.det(D)[:, None] * (s[:, None, :] - z[:, None]).prod(axis=-1)
    else:
        P = (z[:, None, None] * z[:, None] - np.linalg.eigvals(B @ B.conj())).prod(axis=-1)
    return np.fft.fft(np.fft.fft(P, axis=1), axis=0) / (n + 1) ** 2


def _validate_coeff(R: RealLinearOperator, cm: CoeffMatrix, tol: float) -> None:
    """Check ``(W v)* G (W v)`` of ``cm`` against ``det(realify(R - lam I))`` at 2n+3 off-grid points.

    Point k = 0..2n+2 has radius k of ``linspace(0.6 s, 1.9 s, 2n+3)``,
    ``s = 1 + cm.norm`` (``||R||``), built as ``np.linspace`` builds
    it (``k * step + 0.6 s``, the last radius ``1.9 s``) to the bit, and angle
    ``2 pi (k + 0.37) / (2n+3)``.  The first point where the two differ by
    more than ``tol * (s + |lam|)**(2n)`` is reported.  Both are divided by
    that scale in the log domain (the weighted monomials taken as
    ``W_j lam**j / (s + |lam|)**n``, ``log W`` read off ``cm``), so nothing overflows
    and H is never formed; the quadratic form is one matmul and a row sum over the 2n+3 points.
    """
    n = cm.n
    s = 1.0 + cm.norm
    m = 2 * n + 3
    radii = np.arange(m) * ((1.9 * s - 0.6 * s) / (m - 1)) + 0.6 * s
    radii[-1] = 1.9 * s
    itheta = 1j * (2.0 * np.pi * (np.arange(m) + 0.37) / m)
    lams = radii * np.exp(itheta)
    logt = np.log(s + radii)
    logv = (np.log(radii) + itheta)[:, None] * np.arange(n + 1) - n * logt[:, None]
    V = np.exp(logv + cm._log_weights)
    gots = (V.conj() @ cm.G * V).sum(axis=1).real
    sign, logabs = _real_slogdets(R, lams)
    refs = sign * np.exp(logabs - 2 * n * logt)
    ok = np.abs(gots - refs) <= tol  # False at a NaN, so that a NaN fails
    if not ok.all():
        k = int(np.argmin(ok))
        raise NumericalFailure(
            f"extracted coefficients disagree with the determinant at lam={lams[k]:.4g}: "
            f"|{gots[k]:.6e} - {refs[k]:.6e}| exceeds tolerance "
            f"(both divided by (1 + ||R|| + |lam|)**{2 * n})"
        )


def coeff_matrix(R: RealLinearOperator) -> CoeffMatrix:
    """Extract and validate the Hermitian coefficient matrix of the characteristic polynomial.

    ``p(lam, mu)`` of ``R / ||R||`` is sampled on the torus
    ``|lam| = |mu| = 1 + 1/n`` at the (n+1)-th roots of unity, with one
    batched n x n ``solve``, ``eigvals`` and ``det`` of a Schur complement
    (O(n**4) time, O(n**3) memory); when ``C = 0``, with one n x n
    ``eigvals`` of ``B conj(B)``, as ``p = prod_k (lam mu - e_k)``.  The
    torus matrix ``G`` is read off one 2-D DFT and held by the
    :class:`CoeffMatrix`, with ``H = W G W``.  An asymmetry of G of 1e-6 or
    more raises ``NumericalFailure``.

    ``(W v)* G (W v) = v* H v`` is then compared with the exactly real
    ``det(realify(R - lam I))`` at 2n+3 off-grid points, one per radius
    between ``0.6 s`` and ``1.9 s`` (``s = 1 + ||R||``), and a difference of
    more than ``1e-6 (s + |lam|)**(2n)`` raises ``NumericalFailure``; the
    comparison runs in the log domain, so the bound stays finite at any norm.
    The real 2n x 2n matrices are stacked in bounded chunks, one batched
    ``slogdet`` per chunk.

    Returns
    -------
    CoeffMatrix
        With ``H[n][n] = 1`` (monic leading term ``|lam|**(2n)``) and
        ``H[0][0] = det`` of the complexification.
    """
    norm = operator_norm(R)
    s = norm or 1.0
    cm = CoeffMatrix(_coeff_torus(R.C / s, R.B / s), norm)
    # Negated, so that a NaN fails too.
    if not cm.asymmetry < _HERM_TOL:
        raise NumericalFailure(f"G violates Hermitian symmetry by {cm.asymmetry:.3e} of max|G|")
    _validate_coeff(R, cm, 1e-6)
    return cm


@dataclass(frozen=True, eq=False)
class SosDecomposition:
    """Weighted sum of squares ``p(lam, conj(lam)) = sum_i d[i] |p_i(lam)|**2``.

    Row i of ``U`` holds the coefficients of ``p_i`` (constant term first).
    ``kind == "eigen"``: U is unitary and d are the eigenvalues of H.
    ``kind == "cholesky"``: all weights are 1 and ``deg p_i = i``, unless a torus weight underflows.
    """

    d: np.ndarray
    U: np.ndarray
    kind: str

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float).copy()
        U = np.asarray(self.U, dtype=complex).copy()
        if U.ndim != 2 or U.shape[0] != U.shape[1] or d.shape != (U.shape[0],):
            raise ValidationError("weights and polynomial rows have inconsistent shapes")
        if self.kind not in ("eigen", "cholesky"):
            raise ValidationError(f"unknown decomposition kind {self.kind!r}")
        d.setflags(write=False)
        U.setflags(write=False)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "U", U)


def sos_decompose(cm: CoeffMatrix) -> SosDecomposition:
    """Eigendecomposition-based sum of squares of the coefficient matrix.

    Diagonalizing ``H = U* D U`` with unitary U turns ``v* H v`` into
    ``sum d_i |p_i(lam)|**2`` where ``p_i`` has coefficient row ``U[i]``.
    Weights ascend (eigenvalue order).
    """
    w, V = np.linalg.eigh(cm.H)
    return SosDecomposition(d=w, U=V.conj().T, kind="eigen")


def _pd_test(cm: CoeffMatrix) -> tuple[float, float, SosDecomposition | None]:
    """``(g_min, eps_g, rows)`` of the one positive-definiteness test of every Cholesky certificate.

    The torus matrix G of ``H = W G W`` is off by at most ``eps_g max|G|``,
    ``eps_g = asymmetry + (n+1) u``.  By Weyl, ``g_min = lambda_min(G) / max|G| > (n+1) eps_g``
    proves G, and so H, positive definite; only then are the rows returned: the reversed
    Cholesky factor of G times W, by uniqueness that of H, of exact degrees 0..n unless a
    weight underflows (and zeroes its column of H too).
    """
    G, n = (cm.G + cm.G.conj().T) / 2.0, cm.n
    g_min = float(np.linalg.eigvalsh(G)[0] / np.abs(G).max())
    eps_g = float(cm.asymmetry + (n + 1) * np.finfo(float).eps / 2)
    if not g_min > (n + 1) * eps_g:
        return g_min, eps_g, None
    W = np.exp(cm._log_weights)
    U = np.linalg.cholesky(G[::-1, ::-1]).conj().T[::-1, ::-1] * W
    return g_min, eps_g, SosDecomposition(d=np.ones(n + 1), U=U, kind="cholesky")


def cholesky_sos(cm: CoeffMatrix) -> SosDecomposition:
    """Unit-weight sum of squares from a Cholesky factorization.

    ``cm`` must pass the scale-free test on G of :func:`emptiness_certificates`,
    else ``NotPositiveDefinite`` names ``lambda_min(G) / max|G|`` and ``eps_g``;
    H is not read.  Row i has exact degree i unless a torus weight underflows
    (:func:`_pd_test`); the test on G proves p > 0 and the spectrum empty.
    """
    g_min, eps_g, rows = _pd_test(cm)
    if rows is None:
        raise NotPositiveDefinite(f"coefficient matrix is not positive definite: lambda_min(G) / max|G| "
                                  f"{g_min:.3e} (eps_g {eps_g:.3e})")
    return rows


def sos_eval(sos: SosDecomposition, lam: complex) -> float:
    """Reconstruct ``p(lam, conj(lam))`` from a decomposition."""
    v = _point(lam) ** np.arange(sos.U.shape[1])
    vals = sos.U @ v
    return float(np.sum(sos.d * np.abs(vals) ** 2))


@dataclass(frozen=True)
class EmptinessCertificates:
    """Outcome of the two spectrum emptiness/nonemptiness criteria.

    ``pd_certificate`` is a Cholesky sum of squares proving the spectrum
    empty; ``real_axis_zero``, an exactly real eigenvalue r of ``realify(R)`` (the
    least r >= 0, else the r < 0 nearest 0), is a spectral point proving it
    nonempty, and ``det_complexification`` is ``p(0, 0)`` from the same
    eigenvalues.  The criteria are one-sided.  ``g_min_eigenvalue`` and ``eps_g``,
    relative to ``max|G|``, are the smallest eigenvalue of G behind the PD test
    and its error bound.
    """

    pd_certificate: SosDecomposition | None
    real_axis_zero: float | None
    det_complexification: float
    g_min_eigenvalue: float
    eps_g: float

    @property
    def verdict(self) -> str:
        if self.pd_certificate is not None:
            return "empty"
        if self.real_axis_zero is not None:
            return "nonempty"
        return "inconclusive"


def emptiness_certificates(
    R: RealLinearOperator,
    *,
    coeff: CoeffMatrix | None = None,
) -> EmptinessCertificates:
    """Run both spectrum certificates on ``R``.

    The PD test, shared with :func:`cholesky_sos`, runs on the scale-free torus matrix
    G against its error bound ``eps_g``; its Cholesky sum of squares proves the spectrum empty.
    The real-axis test is one eigen solve of ``realify(R)``, line 0 of the ray
    kernel: ``p(r, r) = det(realify(R) - r I)`` vanishes at each of its exactly
    real eigenvalues r, of either sign, and each is an exact eigenvalue of
    ``realify(R) + E`` with ``||E|| = O(u ||R||)``.  The least ``r >= 0`` is
    reported, else the negative r nearest 0.  ``det_complexification``, ``p(0, 0)``,
    is the product of the same eigenvalues; an even number of them is exactly
    real, so a negative determinant always comes with a zero ``r >= 0``.  It is
    :func:`_values` at t = 0 as one scalar, to the bit: the signs of the exactly
    real eigenvalues times ``exp(sum log|mu|)``, plus 0.0, and
    ``NumericalFailure`` beyond double range.
    ``coeff`` supplies an already extracted coefficient matrix (the
    ``coeff_matrix`` of the operator) of the operator's own n; another n
    raises ``DimensionMismatch``.
    """
    cm = coeff if coeff is not None else coeff_matrix(R)
    if cm.n != R.n:
        raise DimensionMismatch(f"coefficient matrix of n={cm.n} given for an operator of n={R.n}")
    g_min, eps_g, pd_cert = _pd_test(cm)
    ev = np.linalg.eigvals(realify(R))
    real = ev.real[ev.imag == 0.0]
    zero = min(real.tolist(), key=lambda r: (r < 0.0, abs(r)), default=None)
    with np.errstate(divide="ignore"):
        logdet = np.log(np.abs(ev)).sum()
    if not logdet < _LOG_MAX:
        raise NumericalFailure(f"p(0, 0) overflows double range (n={R.n})")
    return EmptinessCertificates(
        pd_certificate=pd_cert,
        real_axis_zero=zero,
        det_complexification=float(np.sign(real).prod() * np.exp(logdet) + 0.0),
        g_min_eigenvalue=g_min,
        eps_g=eps_g,
    )
