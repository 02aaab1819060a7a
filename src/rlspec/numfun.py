"""The numerical function: a normalized characteristic polynomial.

Dividing ``p(lam, conj(lam))`` by ``sum_j |lam|**(2j)`` yields a bounded
real function whose values are convex combinations of the eigenvalues of
the coefficient matrix H, hence contained in the field of values
``[min eig H, max eig H]``.  It vanishes exactly on the spectrum, equals
``det`` of the complexification at the origin, and tends to 1 at infinity.

Ray extrema and ranges come from the operator, not from H, whose entries are
accurate only relative to the largest one: on the line at angle theta,
``p(t e^{i theta}) = prod_k (mu_k - t)`` over the eigenvalues of the line
matrix, the ray kernel of spectrum sweeps.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .charpoly import CoeffMatrix, SosDecomposition, _coeff_array, _line_eigvals, charpoly_eval
from .charpoly import coeff_matrix, coeff_poly_eval, sos_decompose
from .errors import NumericalFailure, ValidationError
from .operators import RealLinearOperator

__all__ = [
    "NumFunReport",
    "numfun_eval",
    "convex_weights",
    "ray_extrema",
    "range_and_coverage",
]


def numfun_eval(H, lam: complex) -> float:
    """Evaluate ``v* H v / ||v||**2`` with ``v = (1, lam, ..., lam**n)``."""
    v = np.asarray(lam, dtype=complex) ** np.arange(_coeff_array(H).shape[0])
    return coeff_poly_eval(H, lam) / float(np.sum(np.abs(v) ** 2))


def convex_weights(H, lam: complex, sos: SosDecomposition | None = None) -> np.ndarray:
    """Barycentric weights expressing the value as a convex combination.

    With the eigen-kind sum of squares ``p = sum d_i |p_i|**2`` and unitary
    coefficient rows, the weights ``|p_i(lam)|**2 / sum_j |p_j(lam)|**2``
    are nonnegative, sum to one, and satisfy ``sum_i d_i w_i`` equal to the
    numerical function value.  Order matches ``sos.d`` (ascending
    eigenvalues of H).
    """
    if sos is None:
        sos = sos_decompose(H)
    if sos.kind != "eigen":
        raise ValidationError("convex weights require an eigen-kind decomposition")
    v = np.asarray(lam, dtype=complex) ** np.arange(sos.U.shape[1])
    sq = np.abs(sos.U @ v) ** 2
    return sq / np.sum(sq)


def _critical_polys(num: np.ndarray) -> np.ndarray:
    # rows of N' D - N D' for D = 1 + r**2 + ... + r**(2n): the product
    # r**d * r**l contributes (d - l) r**(d + l - 1).  Elementwise sums keep
    # each row independent of the others.
    p = num.shape[1]
    d = np.arange(p)
    E = np.zeros((num.shape[0], 2 * p))
    for l in range(0, p, 2):
        E[:, l:l + p] += (d - l) * num
    return E[:, 1:]


def _companion_roots(E: np.ndarray, thetas: np.ndarray) -> list[np.ndarray]:
    """Sorted roots of each row polynomial of ``E`` (all of one degree, >= 1).

    The companion matrices are those of ``npoly.polyroots``, solved by one
    batched ``eigvals``.  If the batch fails, each line is solved alone, and
    a line whose solve fails warns and contributes no roots.
    """
    g = E.shape[1] - 1
    mats = np.zeros((E.shape[0], g, g))
    mats[:, np.arange(1, g), np.arange(g - 1)] = 1.0
    mats[:, :, -1] -= E[:, :-1] / E[:, -1:]
    try:
        roots = list(np.linalg.eigvals(mats))
    except np.linalg.LinAlgError:
        roots = []
        for theta, M in zip(thetas, mats):
            try:
                roots.append(np.linalg.eigvals(M))
            except np.linalg.LinAlgError as exc:
                warnings.warn(f"critical point solve failed on line theta={theta:.6g}: {exc}")
                roots.append(np.array([]))
    return [np.sort(r) for r in roots]


def _values(mu: np.ndarray, t: np.ndarray) -> np.ndarray:
    # F = prod_k (mu[i, k] - t[i]) / sum_j t[i]**(2j) in the log domain, signed by
    # the real mu; log D = log sum_j u**j + 2n log max(|t|, 1), u = min(|t|, 1/|t|)**2
    n = mu.shape[1] // 2
    diff = mu - t[:, None]
    with np.errstate(divide="ignore"):
        logf = np.sum(np.log(np.abs(diff)), axis=1)
    a = np.abs(t)
    logf -= np.log(npoly.polyval(np.minimum(a, 1.0 / np.maximum(a, 1.0)) ** 2, np.ones(n + 1)))
    logf -= 2 * n * np.log(np.maximum(a, 1.0))
    if not np.all(logf < np.log(np.finfo(float).max)):
        raise NumericalFailure(f"a numerical function value overflows double range (n={n})")
    return np.prod(np.where(mu.imag == 0.0, np.sign(diff.real), 1.0), axis=1) * np.exp(logf)


def _ray_extrema(R: RealLinearOperator, lines) -> list[list[tuple[float, float]]]:
    """:func:`ray_extrema` for the rays at ``lines``, then for those at ``lines + pi``.

    On line theta, ``F(t e^{i theta}) = N(t) / D(t)`` with ``N(t) = prod_k (mu_k - t)``
    and the even ``D(t) = 1 + t**2 + ... + t**(2n)``, so the roots t > 0 and
    t < 0 of one ``N' D - N D'`` are the critical points of both rays.  Lines
    are grouped by its trimmed degree, one batched companion solve per group,
    and F is evaluated in product form.  Lines do not affect each other.
    """
    lines = np.asarray(lines, dtype=float)
    mu = _line_eigvals(R, lines)
    # ascending coefficients of N, real up to roundoff as each row is conjugate-closed
    num = np.zeros((lines.size, 2 * R.n + 1), dtype=complex)
    num[:, 0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k, root in enumerate(mu.T, start=1):
            num[:, 1:k + 1] = root[:, None] * num[:, 1:k + 1] - num[:, :k]
            num[:, 0] *= root
        E = _critical_polys(num.real)
    if not np.isfinite(E).all():
        raise NumericalFailure(f"numerical function coefficients overflow double range (n={R.n})")
    E = np.where(np.abs(E) > 1e-14 * np.max(np.abs(E), axis=1, keepdims=True), E, 0.0)
    # trimmed degree; a flat line (E all zero) counts as degree 0
    degree = np.max(np.where(E != 0.0, np.arange(E.shape[1]), 0), axis=1)

    roots = [np.array([])] * lines.size
    for g in np.unique(degree[degree >= 1]).tolist():
        rows = np.flatnonzero(degree == g)
        for k, rts in zip(rows.tolist(), _companion_roots(E[rows, :g + 1], lines[rows])):
            roots[k] = rts

    radii, line_of, t = [], [], []
    for side in (1.0, -1.0):
        for k, rts in enumerate(roots):
            real = side * rts.real[np.abs(rts.imag) <= 1e-8 * (1.0 + np.abs(rts))]
            # roots within 1e-10 (1 + r) of the one before are one critical point
            pos = np.sort(real[real > 0.0])
            radii.append([0.0] + pos[np.diff(pos, prepend=-1.0) > 1e-10 * (1.0 + pos)].tolist())
            line_of += [k] * len(radii[-1])
            t += [side * r for r in radii[-1]]
    values = iter(_values(mu[line_of], np.array(t)).tolist())
    return [[(r, next(values)) for r in rs] + [(math.inf, 1.0)] for rs in radii]


def ray_extrema(R: RealLinearOperator, theta: float) -> list[tuple[float, float]]:
    """Critical points of the numerical function along one ray.

    On the ray ``lam = r exp(i theta)`` it is ``N(r) / D(r)`` with
    ``N(r) = det(realify(R - r e^{i theta} I))`` and ``D(r) = sum_j r**(2j)``.
    Returns ``(r, value)`` at the positive real roots of ``N' D - N D'``,
    sorted by radius, with the endpoint ``r = 0`` and the limit (``inf``, 1).
    """
    return _ray_extrema(R, [theta])[0]


@dataclass(frozen=True)
class NumFunReport:
    """Range of the numerical function versus the field of values of H.

    ``range_est`` unites the exact per-ray critical values, taken from the
    operator and not from H, over the angle grid; ``fov`` is the interval
    between the extreme eigenvalues of H.  The uncovered margins are the
    (clamped) gaps between the two intervals at each end.  ``f0`` is the
    determinant of the complexification, ``f_inf`` is 1, and ``ray_minima``
    holds ``(theta, r, value)`` of the smallest value on each ray of the grid.
    """

    f0: float
    f_inf: float
    range_est: tuple[float, float]
    fov: tuple[float, float]
    uncovered_low: float
    uncovered_high: float
    n_rays: int
    max_critical_radius: float
    ray_minima: tuple[tuple[float, float, float], ...]


def range_and_coverage(R: RealLinearOperator, n_rays: int = 128, *,
                       coeff: CoeffMatrix | None = None) -> NumFunReport:
    """Estimate the range of the numerical function and its field-of-values coverage.

    The range is the union of exact per-ray ranges, so the only
    discretization is the angle grid.  As in ``spectrum_sweep``, the
    ``m = ceil(n_rays / 2)`` lines ``pi j / m`` are solved, each for its rays
    ``pi j / m`` and ``pi j / m + pi``.  ``fov`` is read from ``coeff``, an
    already extracted H, or else from ``coeff_matrix(R)``.
    """
    if n_rays < 1:
        raise ValidationError(f"n_rays must be >= 1, got {n_rays}")
    m = (n_rays + 1) // 2
    lines = [math.pi * j / m for j in range(m)]
    thetas = lines + [th + math.pi for th in lines]
    per_ray = _ray_extrema(R, lines)

    minima = tuple((theta, *min(ext, key=lambda t: t[1])) for theta, ext in zip(thetas, per_ray))
    values = [val for ext in per_ray for _, val in ext]
    lo, hi = min(values), max(values)
    rmax = max(r for ext in per_ray for r, _ in ext if math.isfinite(r))

    A = (coeff if coeff is not None else coeff_matrix(R)).H
    eigs = np.linalg.eigvalsh((A + A.conj().T) / 2.0)
    fov = (float(eigs[0]), float(eigs[-1]))
    return NumFunReport(
        f0=charpoly_eval(R, 0.0),
        f_inf=1.0,
        range_est=(lo, hi),
        fov=fov,
        uncovered_low=max(0.0, lo - fov[0]),
        uncovered_high=max(0.0, fov[1] - hi),
        n_rays=2 * m,
        max_critical_radius=rmax,
        ray_minima=minima,
    )
