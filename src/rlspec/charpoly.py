"""Characteristic polynomials of real linear operators and their coefficient matrices.

For an operator ``z -> C z + B conj(z)`` on C^n the characteristic
polynomial is the real-valued bivariate polynomial ::

    p(lam, conj(lam)) = det [[C - lam I, B], [conj(B), conj(C) - conj(lam) I]]

whose zero set is exactly the spectrum.  Collecting coefficients gives a
Hermitian (n+1) x (n+1) matrix H with ``p = v* H v`` against the monomial
vector ``v = (1, lam, ..., lam**n)``.  This module extracts H (one 2-D DFT
of samples on a torus grid of (n+1)**2 points: Schur complements, or for
C = 0 ``prod_k (lam mu - e_k)`` over the eigenvalues e_k of ``B conj(B)``;
or an exact minor-expansion oracle), produces weighted and Cholesky
sum-of-squares decompositions, and derives emptiness/nonemptiness certificates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DimensionMismatch, NotPositiveDefinite, NumericalFailure, ValidationError
from .operators import RealLinearOperator, _real_block, complexify, operator_norm, realify

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
_LOG_TINY = np.log(np.finfo(float).tiny)


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
    sign, logabs = np.empty(lams.size), np.empty(lams.size)
    for start in range(0, lams.size, chunk):
        shift = lams[start:start + chunk, None, None] * eye
        part = slice(start, start + chunk)
        sign[part], logabs[part] = np.linalg.slogdet(_real_block(P - shift, Q - shift))
    return sign, logabs


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


@dataclass(frozen=True, eq=False)
class CoeffMatrix:
    """Hermitian coefficient matrix of a characteristic polynomial.

    Entry ``H[i, j]`` multiplies ``lam**j * conj(lam)**i``.  ``norm`` is the
    ``||R||`` of the torus weights (:func:`_torus_log_weights`).  ``asymmetry``
    is ``max|G - G*| / max|G|`` of the torus matrix G before the symmetrizing
    projection: a roundoff diagnostic that scaling ``R`` leaves unchanged.
    """

    n: int
    H: np.ndarray
    norm: float
    asymmetry: float

    def __post_init__(self):
        if not self.n >= 1:
            raise ValidationError(f"coefficient matrix needs n >= 1, got n={self.n!r}")
        H = np.asarray(self.H, dtype=complex)
        if H.shape != (self.n + 1, self.n + 1):
            raise ValidationError(
                f"coefficient matrix must be {(self.n + 1, self.n + 1)}, got {H.shape}"
            )
        if not np.isfinite(H).all():
            raise ValidationError("coefficient matrix has non-finite entries")
        for name, value in (("norm", self.norm), ("asymmetry", self.asymmetry)):
            if not 0.0 <= value < np.inf:
                raise ValidationError(f"{name} must be a finite number >= 0, got {value!r}")
        H = H.copy()
        H.setflags(write=False)
        object.__setattr__(self, "H", H)


def _coeff_array(H) -> np.ndarray:
    """The H of a CoeffMatrix, exactly Hermitian already, or the Hermitian part of a plain one."""
    if isinstance(H, CoeffMatrix):
        return H.H
    A = np.asarray(H, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or not A.size:
        raise ValidationError(f"nonempty square coefficient matrix expected, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValidationError("coefficient matrix has non-finite entries")
    return (A + A.conj().T) / 2.0


def coeff_poly_eval(H, lam: complex) -> float:
    """Evaluate ``v* H v`` with ``v = (1, lam, ..., lam**n)``."""
    A = _coeff_array(H)
    v = _point(lam) ** np.arange(A.shape[0])
    return float(np.real(v.conj() @ A @ v))


def _torus_log_weights(n: int, norm: float) -> np.ndarray:
    """``log W`` of ``H = W G W``: ``W = diag(s**(n-i) / r**i)``, s = norm or 1, r = 1 + 1/n."""
    return np.arange(n, -1, -1) * np.log(norm or 1.0) - np.arange(n + 1) * np.log(1.0 + 1.0 / n)


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
        # Right-hand sides as a full stack: numpy < 2 reads an (n, n) one as n vectors.
        X = np.linalg.solve(D, np.broadcast_to(B.conj(), D.shape))
        s = np.linalg.eigvals(C - B @ X)
        P = np.linalg.det(D)[:, None] * (s[:, None, :] - z[:, None]).prod(axis=-1)
    else:
        P = (z[:, None, None] * z[:, None] - np.linalg.eigvals(B @ B.conj())).prod(axis=-1)
    return np.fft.fft(np.fft.fft(P, axis=1), axis=0) / (n + 1) ** 2


def _coeff_exact(R: RealLinearOperator) -> np.ndarray:
    """Minor-expansion determinant with lam and conj(lam) independent.

    Entries of the shifted complexification are degree <= 1 bivariate
    polynomials; the determinant is expanded row by row over column
    subsets (division-free), with coefficients kept as (n+1) x (n+1)
    arrays indexed by the powers of conj(lam) and lam.  Each row level is
    expanded over all its column subsets at once: one gather-and-sum per
    column position, with subset masks mapped to array rows by a lookup
    array.  Cost grows like 2**(2n), which is fine at oracle scale.
    """
    from itertools import combinations

    n = R.n
    if n > 8:
        raise ValidationError(f"exact mode is an oracle for small n (n <= 8), got n={n}")
    m = 2 * n
    M = complexify(R)

    # minors on the rows above, one per column subset; `at` maps a mask to its row
    level = np.zeros((1, n + 1, n + 1), dtype=complex)
    level[0, 0, 0] = 1.0
    at = np.zeros(1 << m, dtype=np.intp)
    for row in range(m):
        T = np.array(list(combinations(range(m), row + 1)))
        masks = np.sum(1 << T, axis=1)
        acc = np.zeros((len(T), n + 1, n + 1), dtype=complex)
        for t in range(row + 1):
            c = T[:, t]
            sub = level[at[masks ^ (1 << c)]]
            sgn = -1.0 if (row + t) % 2 else 1.0
            acc += (sgn * M[row, c])[:, None, None] * sub
            # diagonal entries carry -lam (top block) or -conj(lam)
            d = c == row
            if row < n:
                acc[d, :, 1:] -= sgn * sub[d, :, :-1]
            else:
                acc[d, 1:, :] -= sgn * sub[d, :-1, :]
        at[masks] = np.arange(len(T))
        level = acc
    return level[0]


def _validate_coeff(R: RealLinearOperator, H: np.ndarray, tol: float, norm: float) -> None:
    """Check ``v* H v`` against ``det(realify(R - lam I))`` at 2n+3 off-grid points.

    Point k = 0..2n+2 has radius k of ``linspace(0.6 s, 1.9 s, 2n+3)``,
    ``s = 1 + norm`` (``norm`` is ``||R||``), built as ``np.linspace`` builds
    it (``k * step + 0.6 s``, the last radius ``1.9 s``) to the bit, and angle
    ``2 pi (k + 0.37) / (2n+3)``.  The first point where the two differ by
    more than ``tol * (s + |lam|)**(2n)`` is reported.  Both are divided by
    that scale in the log domain (the monomials taken as
    ``lam**j / (s + |lam|)**n``), so nothing overflows; ``v* H v`` is one
    matmul and a row sum over the 2n+3 points.
    """
    n = R.n
    s = 1.0 + norm
    m = 2 * n + 3
    radii = np.arange(m) * ((1.9 * s - 0.6 * s) / (m - 1)) + 0.6 * s
    radii[-1] = 1.9 * s
    thetas = 2.0 * np.pi * (np.arange(m) + 0.37) / m
    lams = radii * np.exp(1j * thetas)
    logt = np.log(s + radii)
    V = np.exp((np.log(radii) + 1j * thetas)[:, None] * np.arange(n + 1) - n * logt[:, None])
    gots = (V.conj() @ H * V).sum(axis=1).real
    sign, logabs = _real_slogdets(R, lams)
    refs = sign * np.exp(logabs - 2 * n * logt)
    # Negated, so that a NaN fails.
    bad = ~(np.abs(gots - refs) <= tol)
    if bad.any():
        k = int(np.argmax(bad))
        raise NumericalFailure(
            f"extracted coefficients disagree with the determinant at lam={lams[k]:.4g}: "
            f"|{gots[k]:.6e} - {refs[k]:.6e}| exceeds tolerance "
            f"(both divided by (1 + ||R|| + |lam|)**{2 * n})"
        )


def coeff_matrix(R: RealLinearOperator, mode: str = "interpolation") -> CoeffMatrix:
    """Extract and validate the Hermitian coefficient matrix of the characteristic polynomial.

    Parameters
    ----------
    R : RealLinearOperator
    mode : str
        ``"interpolation"`` samples ``p(lam, mu)`` of ``R / ||R||`` on the
        torus ``|lam| = |mu| = 1 + 1/n`` at the (n+1)-th roots of unity,
        with one batched n x n ``solve``, ``eigvals`` and ``det`` of a Schur
        complement (O(n**4) time, O(n**3) memory); when ``C = 0``, with one
        n x n ``eigvals`` of ``B conj(B)``, as ``p = prod_k (lam mu - e_k)``.
        It reads the torus matrix ``G`` off one 2-D DFT and forms
        ``H = W G W`` (see :func:`_torus_log_weights`).  An entry beyond
        double range raises ``NumericalFailure``.  ``"exact"`` expands the
        determinant symbolically with ``lam`` and ``conj(lam)`` treated as
        independent indeterminates; exponential in n, intended as an
        independent oracle for small n.

    Either way, ``v* H v`` is then compared with the exactly real
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
    n = R.n
    lw = _torus_log_weights(n, norm)
    if mode == "interpolation":
        s = norm or 1.0
        G = _coeff_torus(R.C / s, R.B / s)
    elif mode == "exact":
        G, lw = _coeff_exact(R), np.zeros(n + 1)
    else:
        raise ValidationError(f"unknown mode {mode!r}, expected 'interpolation' or 'exact'")

    absg = np.abs(G)
    gasym = float(np.abs(G - G.conj().T).max())
    gscale = float(absg.max())
    # Strict and negated, so a NaN or an all-zero G fails too.
    if not gasym < _HERM_TOL * gscale:
        raise NumericalFailure(
            f"coefficient matrix violates Hermitian symmetry by {gasym:.3e} "
            f"(scale {gscale:.3e}); extraction is unreliable"
        )
    # H = W G W, sized in the log domain first.
    with np.errstate(divide="ignore"):
        logh = np.log(absg) + lw[:, None] + lw
    if logh.max() >= _LOG_MAX:
        i, j = np.unravel_index(np.argmax(logh), logh.shape)
        raise NumericalFailure(
            f"H[{i}, {j}] of about 1e{logh[i, j] / np.log(10):.0f} overflows double range "
            f"(n={n}, ||R||={norm:.3g})"
        )
    W = np.exp(lw)
    Hraw = G * W[:, None] * W
    H = (Hraw + Hraw.conj().T) / 2.0
    _validate_coeff(R, H, 1e-6, norm)
    return CoeffMatrix(n=n, H=H, norm=norm, asymmetry=gasym / gscale)


@dataclass(frozen=True, eq=False)
class SosDecomposition:
    """Weighted sum of squares ``p(lam, conj(lam)) = sum_i d[i] |p_i(lam)|**2``.

    Row i of ``U`` holds the coefficients of ``p_i`` (constant term first).
    ``kind == "eigen"``: U is unitary and d are the eigenvalues of H.
    ``kind == "cholesky"``: all weights are 1 and ``deg p_i = i``.
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


def sos_decompose(H) -> SosDecomposition:
    """Eigendecomposition-based sum of squares of the coefficient matrix.

    Diagonalizing ``H = U* D U`` with unitary U turns ``v* H v`` into
    ``sum d_i |p_i(lam)|**2`` where ``p_i`` has coefficient row ``U[i]``.
    Weights ascend (eigenvalue order); a plain matrix is read through its Hermitian part.
    """
    w, V = np.linalg.eigh(_coeff_array(H))
    return SosDecomposition(d=w, U=V.conj().T, kind="eigen")


def _pd_test(H) -> tuple[float, float, SosDecomposition | None]:
    """``(g_min, eps_g, rows)`` of the one positive-definiteness test of every Cholesky certificate.

    ``G = W**-1 H W**-1`` (torus weights of a CoeffMatrix; a plain matrix is its
    own G) is off by at most ``eps_g max|G|``, ``eps_g = asymmetry + (n+1) u``.
    By Weyl, ``g_min = lambda_min(G) / max|G| > (n+1) eps_g`` proves H positive
    definite; only then are the Cholesky rows returned, of exact degrees 0..n.
    Weights outside the normal double range raise ``NumericalFailure``.
    """
    A = _coeff_array(H)
    n = A.shape[0] - 1
    torus = isinstance(H, CoeffMatrix)
    lw = _torus_log_weights(n, H.norm) if torus else np.zeros(n + 1)
    if not (lw.min() > _LOG_TINY and lw.max() < _LOG_MAX):
        raise NumericalFailure(f"torus weights of H leave double range (n={n}, ||R||={H.norm:.3g})")
    W = np.exp(lw)
    asymmetry = H.asymmetry if torus else 0.0
    G = A / W[:, None] / W
    g_min = float(np.linalg.eigvalsh(G)[0] / np.max(np.abs(G)))
    eps_g = float(asymmetry + (n + 1) * np.finfo(float).eps / 2)
    if not g_min > (n + 1) * eps_g:
        return g_min, eps_g, None
    U = np.linalg.cholesky(A[::-1, ::-1]).conj().T[::-1, ::-1]
    return g_min, eps_g, SosDecomposition(d=np.ones(n + 1), U=U, kind="cholesky")


def cholesky_sos(H) -> SosDecomposition:
    """Unit-weight sum of squares from a Cholesky factorization.

    ``H`` must pass the scale-free test on G of :func:`emptiness_certificates`
    (a plain matrix, read through its Hermitian part, is its own G), else
    ``NotPositiveDefinite`` carries the smallest eigenvalue of H.  Row i has
    exact degree i, so the rows prove p > 0 and the spectrum empty.
    """
    g_min, eps_g, rows = _pd_test(H)
    if rows is None:
        w0 = float(np.linalg.eigvalsh(_coeff_array(H))[0])
        raise NotPositiveDefinite(
            f"coefficient matrix is not positive definite: lambda_min(G) / max|G| {g_min:.3e} "
            f"(eps_g {eps_g:.3e}), smallest eigenvalue of H {w0:.6e}",
            min_eigenvalue=w0,
        )
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
    empty; ``real_axis_zero``, the smallest exactly real eigenvalue r >= 0 of
    ``realify(R)``, is a spectral point proving it nonempty, and ``det_complexification``
    is ``p(0, 0)`` from the same eigenvalues.  The criteria are one-sided.  ``g_min_eigenvalue``
    and ``eps_g``, relative to ``max|G|``, are the smallest eigenvalue of G behind
    the PD test and its error bound; ``h_eigenvalues`` is the spectrum of H, ascending,
    so ``h_eigenvalues[0]`` is its least eigenvalue.
    """

    pd_certificate: SosDecomposition | None
    real_axis_zero: float | None
    det_complexification: float
    h_eigenvalues: tuple[float, ...]
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
    kernel: ``p(r, r) = det(realify(R) - r I)``, so its smallest exactly real
    eigenvalue ``r >= 0`` is reported, an exact eigenvalue of ``realify(R) + E``
    with ``||E|| = O(u ||R||)``.  ``det_complexification``, ``p(0, 0)``, is the
    product of the same eigenvalues; an even number of them is exactly real, so
    a negative determinant always comes with a zero.  It is :func:`_values` at
    t = 0 as one scalar, to the bit: the signs of the exactly real eigenvalues
    times ``exp(sum log|mu|)``, plus 0.0, and ``NumericalFailure`` beyond double range.
    ``coeff`` supplies an already extracted H (for example ``mode="exact"``) of the
    operator's own n; another n raises ``DimensionMismatch``.
    """
    cm = coeff if coeff is not None else coeff_matrix(R)
    if cm.n != R.n:
        raise DimensionMismatch(f"coefficient matrix of n={cm.n} given for an operator of n={R.n}")
    g_min, eps_g, pd_cert = _pd_test(cm)
    ev = np.linalg.eigvals(realify(R))
    real = ev.real[ev.imag == 0.0]
    roots = real[real >= 0.0]
    with np.errstate(divide="ignore"):
        logdet = np.sum(np.log(np.abs(ev)))
    if not logdet < _LOG_MAX:
        raise NumericalFailure(f"p(0, 0) overflows double range (n={R.n})")
    return EmptinessCertificates(
        pd_certificate=pd_cert,
        real_axis_zero=float(roots.min()) if roots.size else None,
        det_complexification=float(np.prod(np.sign(real)) * np.exp(logdet) + 0.0),
        h_eigenvalues=tuple(np.linalg.eigvalsh(cm.H).tolist()),
        g_min_eigenvalue=g_min,
        eps_g=eps_g,
    )
