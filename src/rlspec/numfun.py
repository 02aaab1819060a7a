"""The numerical function: a normalized characteristic polynomial.

Dividing ``p(lam, conj(lam))`` by ``sum_j |lam|**(2j)`` yields a bounded
real function whose values are convex combinations of the eigenvalues of
the coefficient matrix H, hence contained in the field of values
``[min eig H, max eig H]``.  It vanishes exactly on the spectrum, equals
``det_complexification`` of the certificates at the origin, bit for bit, and tends to 1 at infinity.

Values, ray extrema and ranges come from the operator, not from H, whose
entries are accurate only relative to the largest one: on the line at angle
theta, ``p(t e^{i theta}) = prod_k (mu_k - t)`` over the eigenvalues of the
line matrix, the ray kernel of spectrum sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charpoly import CoeffMatrix, SosDecomposition, _distinct_lines, _line_eigvals, _line_grid
from .charpoly import _stacked_eigvals, _values, coeff_matrix, sos_decompose
from .errors import ValidationError
from .operators import RealLinearOperator, operator_norm

__all__ = [
    "NumFunReport",
    "numfun_eval",
    "convex_weights",
    "ray_extrema",
    "range_and_coverage",
]


def numfun_eval(R: RealLinearOperator, lam) -> float | np.ndarray:
    """``p(lam, conj(lam)) / sum_j |lam|**(2j)``, in product form on the line ``angle(lam)``.

    ``lam`` may be an array: each distinct line among its points is solved
    once, and the values come back in its shape; a scalar gives a ``float``.
    """
    lam = np.asarray(lam, dtype=complex)
    if not np.isfinite(lam).all():
        raise ValidationError("evaluation points must be finite, not NaN or infinity")
    vals = _values(_line_eigvals(R, np.angle(lam).ravel()), np.abs(lam).ravel())
    return float(vals[0]) if lam.ndim == 0 else vals.reshape(lam.shape)


def convex_weights(H, lam: complex, sos: SosDecomposition | None = None) -> np.ndarray:
    """Barycentric weights expressing the value as a convex combination.

    With the eigen-kind sum of squares ``p = sum d_i |p_i|**2`` and unitary
    coefficient rows, the weights ``|p_i(lam)|**2 / sum_j |p_j(lam)|**2``
    are nonnegative, sum to one, and satisfy ``sum_i d_i w_i`` equal to the
    numerical function value.  Order matches ``sos.d`` (ascending
    eigenvalues of H).  H is accurate only relative to its largest entry, so
    the value drifts with n: for ``random_operator(default_rng(2), n)`` in
    ``tests/randops.py``, at 9 points with ``|lam| = 0.7``, its relative error
    against the determinant was 7.4e-11 at n = 8, 1.7e-7 at n = 16, 3.9 at
    n = 24 and 4.8e5 at n = 32.
    """
    if sos is None:
        sos = sos_decompose(H)
    if sos.kind != "eigen":
        raise ValidationError("convex weights require an eigen-kind decomposition")
    v = np.asarray(lam, dtype=complex) ** np.arange(sos.U.shape[1])
    sq = np.abs(sos.U @ v) ** 2
    return sq / np.sum(sq)


def _ray_extrema(R: RealLinearOperator, lines) -> list[list[tuple[float, float]]]:
    """:func:`ray_extrema` for the rays at ``lines``, then for those at ``lines + pi``.

    On line theta, ``F = N(t) / D(t)`` with ``N = prod_k (mu_k - t)``, and the roots
    w of ``D = sum_j t**(2j)`` are the (2n+2)-th roots of unity other than +-1.
    The critical points of both rays are the real roots of the pole sum
    ``N'/N - D'/D = sum_k 1/(t - mu_k) - sum_j 1/(t - w_j)``.  With
    ``t = c0 + 1/s``, ``c0 = -2 (1 + ||R||)`` off every pole, they are the
    eigenvalues s of ``(I - b 1^T / sum b) diag(p)``, ``p = 1/(z - c0)`` over
    the poles z and ``b = +-p`` (+ on the mu).  Pole pairs become real 2 x 2
    blocks, and the null vectors (t = inf), the same on every line, are
    projected out.  A flat line (``sum b = 0`` to roundoff) has no critical
    point; roots within ``1e-10 (1 + ||R|| + r)`` of the one before or of r = 0
    merge into it, and F is evaluated in product form.  Sorting, merging and
    evaluation are whole-array passes over the ``(2 lines, 4n - 2)`` roots of
    both rays of each distinct line, and every ray of ``lines`` takes its list.
    """
    lines, inverse = _distinct_lines(R, lines)
    n, scale, u = R.n, operator_norm(R), np.finfo(float).eps
    mu = _line_eigvals(R, lines)
    # pole pairs: the real mu first (an even number; LAPACK keeps conjugate
    # pairs adjacent), then the w in the upper half plane with their conjugates
    z = np.take_along_axis(mu, np.argsort(mu.imag != 0.0, axis=1, kind="stable"), axis=1)
    w = np.broadcast_to(np.exp(1j * np.pi * np.arange(1, n + 1) / (n + 1)), (lines.size, n))
    c0 = -2.0 * (1.0 + scale)
    p = 1.0 / (np.concatenate([z[:, 0::2], w], axis=1) - c0)
    q = 1.0 / (np.concatenate([z[:, 1::2], w.conj()], axis=1) - c0)
    # pair block [[m, +-d], [d, m]] (+ real pair, - conjugate pair) on the
    # first and second coordinates; Re p > 0 bounds the roundoff of sum b
    m = (p.real + q.real) / 2.0
    d = np.where(p.imag == 0.0, (p.real - q.real) / 2.0, p.imag)
    sd = np.where(p.imag == 0.0, d, -d)
    a = np.repeat([1.0, -1.0], n)
    sigma = np.sum(a * m, axis=1)
    flat = np.abs(sigma) <= 4 * n * u * np.sum(m, axis=1)
    b = np.concatenate([a * m, a * d], axis=1) / np.where(flat, 1.0, sigma)[:, None]
    c = np.concatenate([m, sd], axis=1)
    # 1 and a live on the first coordinates: V spans the rest
    E = np.zeros((4 * n, 2))
    E[:n, 0], E[n:2 * n, 1] = 1.0, 1.0
    V = np.linalg.qr(E, mode="complete")[0][:, 2:]

    def build(part):
        mk, dk, sk = (x[part, :, None] * np.eye(2 * n) for x in (m, d, sd))
        return V.T @ (np.block([[mk, sk], [dk, mk]]) - b[part, :, None] * c[part, None, :]) @ V

    s = _stacked_eigvals(build, lines, 4 * n - 2)
    # a line whose trace sum mu vanishes to roundoff (every antilinear line) has
    # one more root at infinity: its least |s|, which roundoff leaves at ~1e2 u ||K||
    finite = s != 0.0
    trace0 = np.abs(np.sum(mu, axis=1)) <= 4 * n * u * np.sum(np.abs(mu), axis=1)
    finite[trace0, np.argmin(np.abs(s[trace0]), axis=1)] = False
    t = c0 + 1.0 / np.where(finite, s, 1.0)
    real = finite & ~flat[:, None] & (np.abs(t.imag) <= 1e-8 * (scale + np.abs(t)))

    # the roots of both rays of every line, sorted after r = 0, every other entry
    # at +inf: the gap test keeps r = 0 and drops the infs (inf - inf is nan)
    pos = np.concatenate([t.real, -t.real])
    pos = np.where(np.concatenate([real, real]) & (pos > 0.0), pos, np.inf)
    pos = np.sort(np.concatenate([np.zeros((pos.shape[0], 1)), pos], axis=1), axis=1)
    with np.errstate(invalid="ignore"):
        rows, cols = np.nonzero(np.diff(pos, axis=1, prepend=-np.inf) > 1e-10 * (1.0 + scale + pos))
    radii = pos[rows, cols]
    values = _values(mu[rows % lines.size], np.where(rows < lines.size, 1.0, -1.0) * radii).tolist()
    radii, ends = radii.tolist(), np.cumsum(np.bincount(rows)).tolist()
    per_ray = [list(zip(radii[a:b], values[a:b])) + [(math.inf, 1.0)] for a, b in zip([0] + ends, ends)]
    return [per_ray[k] for k in np.concatenate([inverse, inverse + lines.size]).tolist()]


def ray_extrema(R: RealLinearOperator, theta: float) -> list[tuple[float, float]]:
    """Critical points of the numerical function along one ray.

    On the ray ``lam = r exp(i theta)`` it is ``N(r) / D(r)`` with
    ``N(r) = det(realify(R - r e^{i theta} I))`` and ``D(r) = sum_j r**(2j)``.
    Returns ``(r, value)`` at the critical points r > 0, the real roots of
    ``N'/N = D'/D`` solved as a pole sum (see ``_ray_extrema``), sorted by
    radius, with the endpoint ``r = 0`` and the limit (``inf``, 1).
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
    discretization is the angle grid of ``spectrum_sweep``: the lines ``pi j / m``,
    ``m = ceil(n_rays / 2)``, each for its rays ``pi j / m`` and ``pi j / m + pi``.
    ``fov`` is read from ``coeff``, an already extracted H, or else from ``coeff_matrix(R)``.
    ``f0`` is the r = 0 entry that starts ray 0, which lies on line 0: no further solve.
    """
    lines = _line_grid(n_rays)
    thetas = np.concatenate([lines, lines + math.pi]).tolist()
    per_ray = _ray_extrema(R, lines)

    minima = tuple((theta, *min(ext, key=lambda t: t[1])) for theta, ext in zip(thetas, per_ray))
    values = [val for ext in per_ray for _, val in ext]
    lo, hi = min(values), max(values)
    rmax = max(r for ext in per_ray for r, _ in ext if math.isfinite(r))

    eigs = np.linalg.eigvalsh((coeff if coeff is not None else coeff_matrix(R)).H)
    fov = (float(eigs[0]), float(eigs[-1]))
    return NumFunReport(
        f0=per_ray[0][0][1],
        f_inf=1.0,
        range_est=(lo, hi),
        fov=fov,
        uncovered_low=max(0.0, lo - fov[0]),
        uncovered_high=max(0.0, fov[1] - hi),
        n_rays=2 * lines.size,
        max_critical_radius=rmax,
        ray_minima=minima,
    )
