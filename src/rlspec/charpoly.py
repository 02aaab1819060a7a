"""Characteristic polynomials of real linear operators and their coefficient matrices.

For an operator ``z -> C z + B conj(z)`` on C^n the characteristic
polynomial is the real-valued bivariate polynomial ::

    p(lam, conj(lam)) = det [[C - lam I, B], [conj(B), conj(C) - conj(lam) I]]

whose zero set is exactly the spectrum.  Collecting coefficients gives a
Hermitian (n+1) x (n+1) matrix H with ``p = v* H v`` against the monomial
vector ``v = (1, lam, ..., lam**n)``.  This module extracts H (one 2-D DFT
of Schur-complement samples on a torus grid of (n+1)**2 points, or an exact
minor-expansion oracle), produces weighted and Cholesky sum-of-squares
decompositions, and derives spectrum emptiness/nonemptiness certificates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite, NumericalFailure, ValidationError
from .operators import RealLinearOperator, _real_block, complexify, operator_norm

__all__ = [
    "CoeffMatrix",
    "SosDecomposition",
    "charpoly_eval",
    "coeff_matrix",
    "coeff_poly_eval",
    "sos_decompose",
    "cholesky_sos",
    "sos_eval",
    "common_zero_free",
    "EmptinessCertificates",
    "emptiness_certificates",
]


# Entries per stack of real 2n x 2n matrices handed to one batched LAPACK call
# (128 KiB), so the determinant and eigenvalue stacks stay bounded at any n.
_DET_STACK_ENTRIES = 1 << 14


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


def _line_eigvals(R: RealLinearOperator, lines) -> np.ndarray:
    """Eigenvalues ``mu_k`` of ``realify(rotate(R, theta))``, one row per line angle.

    The ray kernel of sweeps, numerical-function rays and the real-axis
    certificate (line 0 is ``realify(R)``): for real t,
    ``det(realify(R - t e^{i theta} I)) = prod_k (mu_k - t)``.  The matrices,
    built from ``e^{-i theta} C +- B``, are stacked in chunks of at most
    ``_DET_STACK_ENTRIES`` entries, one batched ``eigvals`` each; a chunk
    that fails is solved line by line, so that the failure names its angle.
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


def charpoly_eval(R: RealLinearOperator, lam: complex) -> float:
    """Evaluate the characteristic polynomial at ``lam``.

    Computed as ``det(realify(R - lam I))``, the determinant of a real
    2n x 2n matrix similar to the shifted complexification, so the value is
    exactly real; a singular matrix gives exactly 0.0.
    """
    sign, logabs = _real_slogdets(R, [lam])
    return float(sign[0] * np.exp(logabs[0]))


@dataclass(frozen=True, eq=False)
class CoeffMatrix:
    """Hermitian coefficient matrix of a characteristic polynomial.

    Entry ``H[i, j]`` multiplies ``lam**j * conj(lam)**i``.  ``asymmetry`` is
    ``max|G - G*| / max|G|`` of the sampled ``G`` before the symmetrizing
    projection (see ``herm_tol`` of :func:`coeff_matrix`): a roundoff
    diagnostic that scaling ``R`` leaves unchanged.
    """

    n: int
    H: np.ndarray
    asymmetry: float

    def __post_init__(self):
        H = np.asarray(self.H, dtype=complex)
        if H.shape != (self.n + 1, self.n + 1):
            raise ValidationError(
                f"coefficient matrix must be {(self.n + 1, self.n + 1)}, got {H.shape}"
            )
        H = H.copy()
        H.setflags(write=False)
        object.__setattr__(self, "H", H)


def _coeff_array(H) -> np.ndarray:
    """Accept a CoeffMatrix or a plain Hermitian matrix."""
    if isinstance(H, CoeffMatrix):
        return H.H
    A = np.asarray(H, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValidationError(f"square coefficient matrix expected, got shape {A.shape}")
    return A


def coeff_poly_eval(H, lam: complex) -> float:
    """Evaluate ``v* H v`` with ``v = (1, lam, ..., lam**n)``."""
    A = _coeff_array(H)
    v = np.asarray(lam, dtype=complex) ** np.arange(A.shape[0])
    return float(np.real(v.conj() @ A @ v))


def _coeff_torus(R: RealLinearOperator) -> tuple[np.ndarray, float]:
    """``G[i, j] = H[i, j] * r**(i + j)`` from one 2-D DFT, and ``r = 1 + 1/n``.

    ``p(lam, mu)`` has degree <= n in each variable, so its values at
    ``(r w**a, r w**b)``, with ``w`` a primitive (n+1)-th root of unity
    and ``a, b = 0..n``, determine every coefficient: the 2-D DFT of the
    samples (rows indexed by ``b``) is ``(n+1)**2 * G``.  ``R`` must have
    ``||R|| <= 1``.  Then ``||C|| <= 1``, so ``D = conj(C) - mu I`` has
    ``sigma_min(D) >= 1/n`` on the grid, and its Schur complement gives ::

        p(lam, mu) = det(D) * prod_k (s_k(mu) - lam)

    with ``s_k(mu)`` the eigenvalues of ``S(mu) = C - B D**-1 conj(B)``.
    The n+1 values of ``mu`` take one batched n x n ``solve``, ``eigvals``
    and ``det``; all n+1 values of ``lam`` share those eigenvalues.
    """
    n = R.n
    r = 1.0 + 1.0 / n
    z = r * np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
    D = R.C.conj() - z[:, None, None] * np.eye(n)
    # Right-hand sides as a full stack: numpy < 2 reads an (n, n) one as n vectors.
    X = np.linalg.solve(D, np.broadcast_to(R.B.conj(), D.shape))
    s = np.linalg.eigvals(R.C - R.B @ X)
    P = np.linalg.det(D)[:, None] * np.prod(s[:, None, :] - z[None, :, None], axis=-1)
    return np.fft.fft2(P) / (n + 1) ** 2, r


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
    ``s = 1 + norm`` (``norm`` is ``||R||``), and angle
    ``2 pi (k + 0.37) / (2n+3)``.  The first point where the two differ by
    more than ``tol * (s + |lam|)**(2n)`` is reported.  Both are divided by that scale in the log domain (the
    monomials taken as ``lam**j / (s + |lam|)**n``), so nothing overflows.
    """
    n = R.n
    s = 1.0 + norm
    m = 2 * n + 3
    radii = np.linspace(0.6 * s, 1.9 * s, m)
    thetas = 2.0 * np.pi * (np.arange(m) + 0.37) / m
    lams = radii * np.exp(1j * thetas)
    logt = np.log(s + radii)
    j = np.arange(n + 1)
    V = np.exp(np.outer(np.log(radii), j) - n * logt[:, None] + 1j * np.outer(thetas, j))
    gots = np.einsum("ki,ij,kj->k", V.conj(), H, V).real
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


def coeff_matrix(
    R: RealLinearOperator,
    mode: str = "interpolation",
    *,
    validate: bool = True,
    validate_tol: float = 1e-6,
    herm_tol: float = 1e-6,
) -> CoeffMatrix:
    """Extract the Hermitian coefficient matrix of the characteristic polynomial.

    Parameters
    ----------
    R : RealLinearOperator
    mode : str
        ``"interpolation"`` samples ``p(lam, mu)`` of ``R / ||R||`` on the
        torus ``|lam| = |mu| = 1 + 1/n`` at the (n+1)-th roots of unity,
        with one batched n x n ``solve``, ``eigvals`` and ``det`` of a Schur
        complement (O(n**4) time, O(n**3) memory), reads the
        coefficients off one 2-D DFT and rescales them by
        ``H(sR)[i, j] = s**(2n-i-j) H(R)[i, j]``.  An entry beyond double
        range raises ``NumericalFailure``.  ``"exact"`` expands the
        determinant symbolically with ``lam`` and ``conj(lam)`` treated as
        independent indeterminates; exponential in n, intended as an
        independent oracle for small n.
    validate : bool
        Compare ``v* H v`` with the exactly real ``det(realify(R - lam I))``
        at 2n+3 off-grid points, one per radius between ``0.6 s`` and
        ``1.9 s`` (``s = 1 + ||R||``), and fail loudly on disagreement.  The
        real 2n x 2n matrices are stacked in bounded chunks, one batched
        ``slogdet`` per chunk.
    validate_tol, herm_tol : float
        Tolerances for validation, relative to ``(s + |lam|)**(2n)`` and
        applied in the log domain so the bound stays finite at any norm,
        and for the pre-projection Hermitian asymmetry of the sampled
        ``H[i, j] * r**(i + j)`` (of ``R / ||R||``), relative to its
        largest entry; that relative asymmetry is returned as ``asymmetry``.

    Returns
    -------
    CoeffMatrix
        With ``H[n][n] = 1`` (monic leading term ``|lam|**(2n)``) and
        ``H[0][0] = det`` of the complexification.
    """
    norm = operator_norm(R)
    n = R.n
    if mode == "interpolation":
        s = norm or 1.0
        G, r = _coeff_torus(RealLinearOperator(R.C / s, R.B / s))
    elif mode == "exact":
        G, s, r = _coeff_exact(R), 1.0, 1.0
    else:
        raise ValidationError(f"unknown mode {mode!r}, expected 'interpolation' or 'exact'")

    gasym = float(np.max(np.abs(G - G.conj().T)))
    gscale = float(np.max(np.abs(G)))
    # Strict and negated, so a NaN or an all-zero G fails too.
    if not gasym < herm_tol * gscale:
        raise NumericalFailure(
            f"coefficient matrix violates Hermitian symmetry by {gasym:.3e} "
            f"(scale {gscale:.3e}); extraction is unreliable"
        )
    # H[i, j] = G[i, j] s**(2n-i-j) / r**(i+j), sized in the log domain first.
    k = np.add.outer(np.arange(n + 1), np.arange(n + 1))
    with np.errstate(divide="ignore"):
        log10h = np.log10(np.abs(G)) + (2 * n - k) * np.log10(s) - k * np.log10(r)
    if np.max(log10h) >= np.log10(np.finfo(float).max):
        i, j = np.unravel_index(np.argmax(log10h), k.shape)
        raise NumericalFailure(
            f"H[{i}, {j}] of about 1e{log10h[i, j]:.0f} overflows double range "
            f"(n={n}, ||R||={norm:.3g})"
        )
    Hraw = G * (s ** (2 * n - k) / r ** k)
    H = (Hraw + Hraw.conj().T) / 2.0
    if validate:
        _validate_coeff(R, H, validate_tol, norm)
    return CoeffMatrix(n=R.n, H=H, asymmetry=gasym / gscale)


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
    Weights are returned in ascending order (eigenvalue order).
    """
    A = _coeff_array(H)
    w, V = np.linalg.eigh((A + A.conj().T) / 2.0)
    return SosDecomposition(d=w, U=V.conj().T, kind="eigen")


def cholesky_sos(H, *, pd_threshold: float = 1e-10) -> SosDecomposition:
    """Unit-weight sum of squares from a Cholesky factorization.

    Requires ``H`` positive definite (smallest eigenvalue above
    ``pd_threshold * ||H||``).  Reversing the monomial order makes the
    triangular factor produce polynomials of exact degree i, which have no
    common zero; a successful decomposition therefore certifies that the
    characteristic polynomial is strictly positive and the spectrum empty.
    """
    A = _coeff_array(H)
    w = np.linalg.eigvalsh((A + A.conj().T) / 2.0)
    scale = max(float(np.max(np.abs(w))), 1e-300)
    if w[0] <= pd_threshold * scale:
        raise NotPositiveDefinite(
            f"coefficient matrix is not positive definite: smallest eigenvalue {w[0]:.6e}",
            min_eigenvalue=float(w[0]),
        )
    return _cholesky_rows(A)


def _cholesky_rows(A: np.ndarray) -> SosDecomposition:
    """Cholesky sum of squares of a coefficient matrix already known to be PD."""
    Arev = A[::-1, ::-1]
    L = np.linalg.cholesky((Arev + Arev.conj().T) / 2.0)
    T = L.conj().T
    U = T[::-1, ::-1]
    return SosDecomposition(d=np.ones(A.shape[0]), U=U, kind="cholesky")


def sos_eval(sos: SosDecomposition, lam: complex) -> float:
    """Reconstruct ``p(lam, conj(lam))`` from a decomposition."""
    v = np.asarray(lam, dtype=complex) ** np.arange(sos.U.shape[1])
    vals = sos.U @ v
    return float(np.sum(sos.d * np.abs(vals) ** 2))


def common_zero_free(sos: SosDecomposition, tol: float = 1e-10) -> bool:
    """True when the squared polynomials can have no common zero.

    A common zero ``mu`` would put the monomial vector ``v_mu != 0`` in the
    kernel of the coefficient row matrix, so full column rank rules it out.
    """
    s = np.linalg.svd(sos.U, compute_uv=False)
    return bool(s[-1] > tol * max(s[0], 1e-300))


@dataclass(frozen=True)
class EmptinessCertificates:
    """Outcome of the two spectrum emptiness/nonemptiness criteria.

    ``pd_certificate`` is a Cholesky sum of squares proving the spectrum
    empty; ``real_axis_zero`` is the smallest nonnegative real root r of
    ``p(r, r) = 0``, a spectral point proving the spectrum nonempty.  Both
    may be absent: the criteria are one-sided.  ``h_eigenvalues`` is the
    ascending spectrum of H behind the PD test.
    """

    pd_certificate: SosDecomposition | None
    real_axis_zero: float | None
    det_complexification: float
    h_eigenvalues: tuple[float, ...]

    @property
    def h_min_eigenvalue(self) -> float:
        return self.h_eigenvalues[0]

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
    pd_threshold: float = 1e-10,
    coeff: CoeffMatrix | None = None,
) -> EmptinessCertificates:
    """Run both spectrum certificates on ``R``.

    If the coefficient matrix is positive definite, return the Cholesky sum
    of squares (spectrum empty).  If the determinant of the complexification
    is <= 0, the restriction ``f(r) = p(r, r)`` starts nonpositive and grows
    like ``r**(2n)``, so it has a nonnegative root.  Since
    ``p(r, r) = det(realify(R) - r I)``, those roots are the real
    eigenvalues of ``realify(R)`` (line 0 of the ray kernel), which LAPACK
    returns as exactly real; the smallest nonnegative one is reported.  ``coeff``
    supplies an already extracted H (for example ``mode="exact"``).
    """
    cm = coeff if coeff is not None else coeff_matrix(R)
    det0 = charpoly_eval(R, 0.0)
    # The same PD test as cholesky_sos, so its rows can be built directly.
    w = np.linalg.eigvalsh((cm.H + cm.H.conj().T) / 2.0)

    pd_cert = None
    scale = max(float(np.max(np.abs(w))), 1e-300)
    if w[0] > pd_threshold * scale:
        pd_cert = _cholesky_rows(cm.H)

    zero = None
    if det0 == 0.0:
        zero = 0.0
    elif det0 < 0.0:
        ev = _line_eigvals(R, [0.0])[0]
        roots = ev.real[(ev.imag == 0.0) & (ev.real >= 0.0)]
        if roots.size == 0:
            raise NumericalFailure(
                f"det of the complexification is {det0:.3e} < 0, yet realify(R) "
                "has no exactly real nonnegative eigenvalue"
            )
        zero = float(roots.min())

    return EmptinessCertificates(
        pd_certificate=pd_cert,
        real_axis_zero=zero,
        det_complexification=det0,
        h_eigenvalues=tuple(w.tolist()),
    )
