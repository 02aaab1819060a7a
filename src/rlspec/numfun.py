"""The numerical function: a normalized characteristic polynomial.

Dividing ``p(lam, conj(lam))`` by ``sum_j |lam|**(2j)`` yields a bounded
real function whose values are convex combinations of the eigenvalues of
the coefficient matrix H, hence contained in the field of values
``[min eig H, max eig H]``.  It vanishes exactly on the spectrum, equals
``det`` of the complexification at the origin, and tends to 1 at infinity.
Along a fixed ray the function is a rational function of the radius, so
range computation is a family of one-dimensional critical point problems.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .charpoly import SosDecomposition, _coeff_array, coeff_poly_eval, sos_decompose
from .errors import ValidationError

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


def _ray_numerators(A: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    # row t: coefficients in r of p(r e^{i theta_t}, r e^{-i theta_t}), degree
    # 0..2n.  Entry A[i, j] enters degree i + j with phase e^{i theta (j - i)},
    # so G[d, n + k] holds the antidiagonal entry with i + j = d, j - i = k.
    n = A.shape[0] - 1
    i, j = np.indices(A.shape)
    G = np.zeros((2 * n + 1, 2 * n + 1), dtype=complex)
    G[i + j, n + j - i] = A
    phases = np.exp(1j * np.outer(thetas, np.arange(-n, n + 1)))
    return np.einsum("tk,dk->td", phases, G).real


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
    batched ``eigvals``.  If the batch fails, each ray is solved alone, and
    a ray whose solve fails warns and contributes no roots.
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
                warnings.warn(f"critical point solve failed on ray theta={theta:.6g}: {exc}")
                roots.append(np.array([]))
    return [np.sort(r) for r in roots]


def _ray_extrema(
    A: np.ndarray, thetas, r_max: float | None = None
) -> list[list[tuple[float, float]]]:
    """:func:`ray_extrema` for every angle of ``thetas`` at once.

    All numerators come from one ``einsum``; rays are grouped by the
    trimmed degree of their critical polynomial ``N' D - N D'`` and each
    group's roots come from one batched companion solve.  Each ray's result
    is independent of the other angles passed with it.
    """
    thetas = np.asarray(thetas, dtype=float)
    n = A.shape[0] - 1
    num = _ray_numerators(A, thetas)
    E = _critical_polys(num)
    scale = np.maximum(np.max(np.abs(E), axis=1, keepdims=True), 1e-300)
    E = np.where(np.abs(E) > 1e-14 * scale, E, 0.0)
    # trimmed degree; a flat ray (E all zero) counts as degree 0
    degree = np.max(np.where(E != 0.0, np.arange(E.shape[1]), 0), axis=1)

    roots = [np.array([])] * thetas.size
    for g in np.unique(degree[degree >= 1]).tolist():
        rows = np.flatnonzero(degree == g)
        for k, rts in zip(rows.tolist(), _companion_roots(E[rows, :g + 1], thetas[rows])):
            roots[k] = rts

    ray_of, radii = [], []
    for k, rts in enumerate(roots):
        keep = (np.abs(rts.imag) <= 1e-8 * (1.0 + np.abs(rts))) & (rts.real > 0.0)
        if r_max is not None:
            keep &= rts.real <= r_max
        crit: list[float] = []
        for r in rts.real[keep].tolist():
            if not crit or abs(r - crit[-1]) > 1e-10 * (1.0 + r):
                crit.append(r)
        ray_of += [k] * len(crit)
        radii += crit

    den = np.zeros(2 * n + 1)
    den[::2] = 1.0
    x = np.array(radii)
    values = (npoly.polyval(x, num[ray_of].T, tensor=False) / npoly.polyval(x, den)).tolist()

    out = [[(0.0, float(np.real(A[0, 0])))] for _ in range(thetas.size)]
    for k, r, v in zip(ray_of, radii, values):
        out[k].append((r, v))
    for ext in out:
        ext.append((math.inf, float(np.real(A[n, n]))))
    return out


def ray_extrema(H, theta: float, r_max: float | None = None) -> list[tuple[float, float]]:
    """Critical points of the numerical function along one ray.

    On the ray ``lam = r exp(i theta)`` the function is the rational
    function ``N(r) / (1 + r**2 + ... + r**(2n))``; its interior critical
    radii are the nonnegative real roots of ``N' D - N D'``.  Returns
    ``(r, value)`` pairs sorted by radius, always including the endpoint
    ``r = 0`` and the limit at infinity (radius ``inf``, value ``H[n][n]``).
    ``r_max`` optionally discards critical radii beyond a cutoff.
    """
    return _ray_extrema(_coeff_array(H), [theta], r_max)[0]


@dataclass(frozen=True)
class NumFunReport:
    """Range of the numerical function versus the field of values of H.

    ``range_est`` comes from exact per-ray critical points united over the
    angle grid; ``fov`` is the interval between the extreme eigenvalues of
    H.  The uncovered margins are the (clamped) gaps between the two
    intervals at each end -- how much of the field of values the function
    provably never reaches at the sampled angles.  ``ray_minima`` holds
    ``(theta, r, value)`` of the smallest value on each ray of the grid.
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


def range_and_coverage(H, n_rays: int = 128) -> NumFunReport:
    """Estimate the range of the numerical function and its field-of-values coverage.

    The range over the plane is the union of per-ray ranges, each obtained
    exactly from polynomial critical points, so the only discretization is
    the angle grid (default 128 rays over the full circle).  All rays are
    solved together by one batched kernel.
    """
    if n_rays < 1:
        raise ValidationError(f"n_rays must be >= 1, got {n_rays}")
    A = _coeff_array(H)
    n = A.shape[0] - 1

    thetas = [2.0 * math.pi * k / n_rays for k in range(n_rays)]
    per_ray = _ray_extrema(A, thetas)

    minima = tuple((theta, *min(ext, key=lambda t: t[1])) for theta, ext in zip(thetas, per_ray))
    values = [val for ext in per_ray for _, val in ext]
    lo, hi = min(values), max(values)
    rmax = max(r for ext in per_ray for r, _ in ext if math.isfinite(r))

    eigs = np.linalg.eigvalsh((A + A.conj().T) / 2.0)
    fov = (float(eigs[0]), float(eigs[-1]))
    return NumFunReport(
        f0=float(np.real(A[0, 0])),
        f_inf=float(np.real(A[n, n])),
        range_est=(lo, hi),
        fov=fov,
        uncovered_low=max(0.0, lo - fov[0]),
        uncovered_high=max(0.0, fov[1] - hi),
        n_rays=n_rays,
        max_critical_radius=rmax,
        ray_minima=minima,
    )
