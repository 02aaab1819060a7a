"""Trace-class extensions: Hankel/Bergman symbol families and determinant limits.

Antilinear operators arising from multiplication-and-project constructions
have explicit matrix truncations: on the circle the matrix against Fourier
modes is a Hankel matrix of symbol coefficients, and on the unit disk with
a monomial symbol it is a single weighted antidiagonal.  For a trace-class
operator the normalized characteristic polynomials of its truncations
converge to a characteristic function ``det[I - (1/r)(e^{-i theta} C + A)]``
on the punctured plane, whose zeros are the eigenvalues.  This module
builds the truncations, evaluates the characteristic function, tabulates
its convergence, and checks the determinant continuity bound that drives
the limit.

Both symbol families give truncations with C = 0 and a complex-symmetric B
(``B == B.T``).  For such an operator the characteristic function has the
closed form ``prod_k (1 - sigma_k(B)**2 / |lam|**2)``: with C = 0 the
polynomial is ``det(|lam|**2 I - conj(B) B)``, and for symmetric B
``conj(B) B = B^H B``, so the squared coneigenvalues are the squared
singular values (Takagi factorisation; Horn & Johnson, *Matrix Analysis*,
4.4-4.6).  The convergence table uses this form without building any
truncation at its largest size: it reads the tail weights off the
coefficients in O(nmax), and each size takes one SVD of the leading block
that holds all but roundoff of its weight, cut from one K x K block.
Memory is O(nmax + K**2).  ``charfun_eval`` keeps the general, untrimmed
determinant path for any C.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .charpoly import _LOG_MAX, _check_count, _point, _real_slogdets
from .errors import NumericalFailure, ValidationError
from .operators import RealLinearOperator

__all__ = [
    "DecaySpec",
    "SymbolSeries",
    "symbol_scale",
    "tail_weight",
    "hankel_truncation",
    "disk_truncation",
    "charfun_eval",
    "CharFunTable",
    "charfun_convergence",
    "trace_norm",
    "det_continuity_check",
]

_KINDS = ("circle-hankel", "disk-monomial")
_DECAY_TAGS = ("finite", "geometric", "polynomial")
_MAX_DISK_DEGREE = 1 << 24  # tail_weight holds O(m) floats; truncations are zero once m >= 2n - 1


@dataclass(frozen=True)
class DecaySpec:
    """Declared decay class of a coefficient sequence.

    ``geometric`` with ratio q in (0, 1): |a_k| = O(q**k).
    ``polynomial`` with exponent s > 2: |a_k| = O((k+1)**-s); s > 2 keeps
    the weighted tail sum ``sum (k+1) |a_k|`` finite.
    ``finite``: finitely many nonzero coefficients (the stored ones); no ``param``.
    """

    tag: str
    param: float | None = None

    def __post_init__(self):
        if self.tag not in _DECAY_TAGS:
            raise ValidationError(f"unknown decay tag {self.tag!r}, expected one of {_DECAY_TAGS}")
        if self.tag == "finite" and self.param is not None:
            raise ValidationError(f"finite decay takes no 'param', got {self.param!r}")
        if self.tag == "geometric" and not _between(0.0, self.param, 1.0):
            raise ValidationError("geometric decay requires a ratio in (0, 1)")
        if self.tag == "polynomial" and not _between(2.0, self.param, math.inf):
            raise ValidationError("polynomial decay requires a finite exponent > 2 for a trace-class tail")


def _between(low: float, x, high: float) -> bool:
    """``low < x < high``; None, NaN and values that do not compare with floats are not."""
    try:
        return low < x < high
    except TypeError:
        return False


@dataclass(frozen=True, eq=False)
class SymbolSeries:
    """Symbol data generating an antilinear operator family.

    ``circle-hankel``: coefficients a_k, truncation matrix B[l, k] = a_{k+l}
    against Fourier modes.  ``disk-monomial``: monomial degree m, truncation
    against normalized monomials sqrt(k+1) z**k on the unit disk, with a finite
    decay.  A field of the other kind is refused.
    """

    kind: str
    coeffs: np.ndarray | None = None
    m: int | None = None
    decay: DecaySpec = field(default_factory=lambda: DecaySpec("finite"))

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown symbol kind {self.kind!r}, expected one of {_KINDS}")
        if self.kind == "circle-hankel":
            if self.m is not None:
                raise ValidationError(f"circle-hankel symbol takes no degree 'm', got {self.m!r}")
            if self.coeffs is None:
                raise ValidationError("circle-hankel symbol requires coefficients")
            a = np.atleast_1d(np.asarray(self.coeffs, dtype=complex)).copy()
            if a.ndim != 1 or a.size < 1 or not np.isfinite(a).all():
                raise ValidationError("coefficients must be a finite, nonempty 1-D sequence")
            a.setflags(write=False)
            object.__setattr__(self, "coeffs", a)
        else:
            if self.coeffs is not None:
                raise ValidationError("disk-monomial symbol takes no 'coeffs'")
            if self.decay.tag != "finite":
                raise ValidationError(f"disk-monomial symbol takes a finite 'decay', got {self.decay.tag!r}")
            if not (_between(-1, self.m, _MAX_DISK_DEGREE + 1) and int(self.m) == self.m):
                raise ValidationError(
                    "disk-monomial symbol requires a nonnegative integer degree m of at most 2**24 in 'm'"
                )
            object.__setattr__(self, "m", int(self.m))

    @classmethod
    def circle_hankel(cls, coeffs, decay: DecaySpec | None = None) -> "SymbolSeries":
        return cls(kind="circle-hankel", coeffs=coeffs, decay=decay or DecaySpec("finite"))

    @classmethod
    def disk_monomial(cls, m: int) -> "SymbolSeries":
        return cls(kind="disk-monomial", m=m)


def symbol_scale(sym: SymbolSeries) -> float:
    """Operator-norm scale of the symbol family (used for grid validation)."""
    if sym.kind == "circle-hankel":
        return max(float(np.sum(np.abs(sym.coeffs))), 1e-300)
    # the largest antidiagonal entry of the (m+1) x (m+1) truncation, its 2-norm
    k = sym.m // 2
    return math.sqrt((k + 1.0) * (sym.m + 1.0 - k)) / (sym.m + 1.0)


def tail_weight(sym: SymbolSeries, start: int) -> float:
    """Weighted tail ``sum_{k >= start} (k+1) |a_k|`` over the stored coefficients.

    ``sum (k+1) |a_k|`` bounds the trace norm of the full Hankel operator
    (the k-th antidiagonal is a rank <= k+1 piece of unit singular values),
    so small tails certify that truncations are trace-norm Cauchy.  A disk
    symbol z**m is its one antidiagonal k = m, whose singular values are the
    moduli of its entries: for ``start <= m`` the tail is its trace norm
    ``sum_l sqrt((l+1)(m-l+1)) / (m+1)``, else 0.
    """
    _check_count(start, "tail start", 0)
    if sym.kind != "circle-hankel":
        if start > sym.m:
            return 0.0
        l = np.arange(sym.m + 1.0)
        return float(np.sum(np.sqrt((l + 1.0) * (sym.m - l + 1.0)))) / (sym.m + 1.0)
    a = np.abs(sym.coeffs[start:])
    k = np.arange(start, start + a.size)
    return float(np.sum((k + 1) * a))


def _check_decay(sym: SymbolSeries) -> None:
    if sym.kind != "circle-hankel" or sym.decay.tag == "finite":
        return
    # Ratios |a_k| / envelope_k, normalized by the first nonzero coefficient's
    # (a_0's whenever it is nonzero), are compared in the log domain: the
    # geometric envelope q**k underflows to 0 for long sequences, and a 0/0
    # ratio would hide a violation.  A zero coefficient never violates.
    a = np.abs(sym.coeffs)
    nonzero = a > 0
    if not nonzero.any():
        return
    k = np.arange(a.size)[nonzero]
    param = float(sym.decay.param)
    if sym.decay.tag == "geometric":
        log_envelope = k * math.log(param)
    else:
        log_envelope = -param * np.log1p(k)
    log_base = math.log(float(a[k[0]])) - log_envelope[0]
    log_ratios = np.log(a[nonzero]) - log_base - log_envelope
    worst = float(np.max(log_ratios)) / math.log(10.0)
    if worst > 6.0:
        # printed as mantissa and exponent: the ratio itself may overflow a float;
        # the mantissa is rounded first, so 9.999 prints as 1.00e+1, not 10.00e+0
        exponent = math.floor(worst)
        mantissa = round(10.0 ** (worst - exponent), 2)
        if mantissa >= 10.0:
            mantissa, exponent = 1.0, exponent + 1
        warnings.warn(
            f"coefficients violate the declared {sym.decay.tag}({param}) decay "
            f"(worst ratio {mantissa:.2f}e{exponent:+03d}); "
            "trace-class tail bound unreliable"
        )


def hankel_truncation(sym: SymbolSeries, n: int) -> RealLinearOperator:
    """n x n Hankel truncation of a circle symbol: ``B[l, k] = a[k + l]``, C = 0.

    Needs coefficients a_0 .. a_{2n-2}; a ``finite`` symbol has no nonzero
    coefficient past its stored ones and is zero-padded instead.  Self-adjoint
    whenever the coefficients are real.
    """
    if sym.kind != "circle-hankel":
        raise ValidationError(f"hankel_truncation requires a circle-hankel symbol, got {sym.kind!r}")
    _check_count(n, "truncation size", 1)
    B = _hankel_coeffs(sym, n)[np.add.outer(np.arange(n), np.arange(n))]
    return RealLinearOperator(np.zeros((n, n), dtype=complex), B)


def _hankel_coeffs(sym: SymbolSeries, n: int) -> np.ndarray:
    """Coefficients ``a_0 .. a_{2n-2}`` of the size-n truncation, after the count and decay checks."""
    a = sym.coeffs
    if a.size < 2 * n - 1:
        if sym.decay.tag != "finite":
            raise ValidationError(
                f"insufficient coefficients: truncation of size {n} needs a_0..a_{2 * n - 2} "
                f"({2 * n - 1} values), only {a.size} stored"
            )
        a = np.pad(a, (0, 2 * n - 1 - a.size))
    _check_decay(sym)
    return a[: 2 * n - 1]


def disk_truncation(sym: SymbolSeries, n: int) -> RealLinearOperator:
    """n x n truncation of the disk operator with monomial symbol z**m.

    Against the orthonormal monomials ``sqrt(k+1) z**k`` the matrix has the
    single antidiagonal ``B[l, k] = sqrt((k+1)(l+1)) / (m+1)`` on k + l = m
    (zero matrix once m >= 2n - 1, when the antidiagonal leaves the block).
    """
    if sym.kind != "disk-monomial":
        raise ValidationError(f"disk_truncation requires a disk-monomial symbol, got {sym.kind!r}")
    _check_count(n, "truncation size", 1)
    return RealLinearOperator(np.zeros((n, n), dtype=complex), _disk_block(sym.m, n))


def _disk_block(m: int, n: int) -> np.ndarray:
    """The n x n disk matrix of z**m: ``sqrt((k+1)(l+1)) / (m+1)`` on k + l = m."""
    B = np.zeros((n, n), dtype=complex)
    l = np.arange(max(0, m - n + 1), min(m, n - 1) + 1)
    B[l, m - l] = np.sqrt((l + 1.0) * (m - l + 1.0)) / (m + 1.0)
    return B


def charfun_eval(R: RealLinearOperator, lam: complex) -> float:
    """Characteristic function of a truncation: ``p(lam, conj(lam)) / |lam|**(2n)``.

    Equals ``det[I - (1/r)(e^{-i theta} C + A)]`` of the complexification at
    ``lam = r e^{i theta}``; computed through the log-determinant of the
    exactly real ``realify(R - lam I)``, so very large truncations neither
    overflow nor underflow; beyond double range, ``NumericalFailure``.  Not defined at 0.
    """
    lam = _point(lam)
    if lam == 0:
        raise ValidationError("the characteristic function is defined on the punctured plane only")
    sign, logabs = _real_slogdets(R, [lam])
    logf = logabs[0] - 2 * R.n * math.log(abs(lam))
    if logf >= _LOG_MAX:
        raise NumericalFailure(f"the characteristic function overflows at lam={lam:.4g}")
    return float(sign[0] * np.exp(logf))


@dataclass(frozen=True, eq=False)
class CharFunTable:
    """Characteristic function values across truncation sizes.

    ``values[i, j]`` is the function of the ``n_list[i]`` truncation at
    ``lambdas[j]``; ``diffs[i]`` is the sup over the grid of
    ``|values[i+1] - values[i]|`` and ``stalls`` lists the steps where that
    difference failed to decrease.
    """

    lambdas: np.ndarray
    n_list: tuple[int, ...]
    values: np.ndarray
    diffs: np.ndarray
    stalls: tuple[int, ...]


def charfun_convergence(
    sym: SymbolSeries,
    lambdas,
    n_list,
    *,
    lam_min: float | None = None,
) -> CharFunTable:
    """Tabulate characteristic function convergence over truncation sizes.

    The grid must stay away from the origin (default cutoff: one tenth of
    the symbol scale) since the inverse radius amplifies truncation error
    there; its points must be finite and nonzero even at ``lam_min = 0``.
    Successive sup-norm differences should decay for a trace-class symbol;
    steps where they do not are flagged in ``stalls``.

    Each row is the closed form ``prod_k (1 - sigma_k(B_n)**2 / |lam|**2)``.
    It holds because every truncation built here has C = 0 and
    ``B == B.T``; it agrees with ``charfun_eval`` and is real by
    construction.  ``B_n`` is the leading n x n block of the largest
    truncation: ``B[l, k] = a[k + l]`` and the disk antidiagonal weights do
    not depend on n.  Each size takes the SVD of the leading K x K block of
    ``B_n`` only, with K the smallest index whose dropped entries
    (``max(row, col) >= K``) weigh at most ``eps**2 ||B_n||_F**2``.  By
    Weyl's inequality this moves each singular value by at most
    ``eps ||B_n||_F``, the SVD's own backward error; an all-zero block
    (K = 0) gives the empty product 1.  A size whose K equals the previous
    size's has the same block, and reuses that row.

    No truncation is built at the largest size: the weights are read off
    the coefficients in O(nmax), and only the block of the largest K is
    formed, so memory is O(nmax + K**2).  At nmax 1024 a table peaks at
    0.15 MiB (geometric q = 0.5) and 0.04 MiB (disk m = 3) under
    tracemalloc.  The coefficient checks run once, at the largest size.
    """
    grid = np.atleast_1d(np.asarray(lambdas, dtype=complex))
    if grid.ndim != 1 or grid.size == 0:
        raise ValidationError("lambda grid must be a nonempty one-dimensional array")
    if not (np.isfinite(grid).all() and grid.all()):
        raise ValidationError("lambda grid points must be finite and nonzero")
    if lam_min is not None and not 0.0 <= lam_min < math.inf:
        raise ValidationError(f"lam_min must be finite and >= 0, got {lam_min}")
    cutoff = lam_min if lam_min is not None else 0.1 * symbol_scale(sym)
    small = np.abs(grid) < cutoff
    if np.any(small):
        raise ValidationError(
            f"{int(np.sum(small))} grid points lie inside |lambda| < {cutoff:.3g}; "
            "the characteristic function is unreliable near the origin"
        )
    sizes = tuple(int(n) if isinstance(n, (int, np.integer)) else 0 for n in n_list)
    if not sizes or any(n < 1 for n in sizes) or list(sizes) != sorted(sizes):
        raise ValidationError("truncation sizes must be a nondecreasing list of integers >= 1")

    # weight[j]: squared Frobenius weight of the entries with max(row, col) = j
    j = np.arange(sizes[-1])
    if sym.kind == "circle-hankel":
        a = _hankel_coeffs(sym, sizes[-1])
        # row j holds a_j .. a_2j and column j a_j .. a_{2j-1}; suffix sums T keep
        # a small tail from being the difference of two large forward sums
        T = np.append(np.cumsum(np.abs(a[::-1]) ** 2)[::-1], 0.0)
        weight = np.abs(a[2 * j]) ** 2 + 2.0 * (T[j] - T[2 * j])
    else:
        # the antidiagonal k + l = m meets row j and column j once each, in one entry if 2j = m
        m = sym.m
        on = (2 * j >= m) & (j <= m)
        weight = np.where(on, (j + 1.0) * (m - j + 1.0) / (m + 1.0) ** 2 * (1.0 + (2 * j > m)), 0.0)
    eps2 = np.finfo(float).eps ** 2
    Ks = []
    for n in sizes:
        # tail[K] = sum(weight[K:n]), summed from the small end so no cancellation
        tail = np.cumsum(weight[n - 1::-1])[::-1]
        Ks.append(int(np.count_nonzero(tail > eps2 * tail[0])))
    K_max = max(Ks)
    if sym.kind == "circle-hankel":
        B = a[np.add.outer(np.arange(K_max), np.arange(K_max))]
    else:
        B = _disk_block(sym.m, K_max)
    inv_r2 = 1.0 / np.abs(grid) ** 2
    values = np.empty((len(sizes), grid.size))
    last_K = -1
    for i, K in enumerate(Ks):
        if K == last_K:  # the same leading block as the previous size
            values[i] = values[i - 1]
            continue
        last_K = K
        sigma = np.linalg.svd(B[:K, :K], compute_uv=False) if K else np.zeros(0)
        values[i] = np.prod(1.0 - np.outer(inv_r2, sigma**2), axis=1)

    diffs = np.array([
        float(np.max(np.abs(values[i + 1] - values[i]))) for i in range(len(sizes) - 1)
    ])
    stalls = tuple(i for i in range(1, diffs.size) if diffs[i] > diffs[i - 1])
    return CharFunTable(
        lambdas=grid, n_list=sizes, values=values, diffs=diffs, stalls=stalls
    )


def trace_norm(M) -> float:
    """Sum of singular values (Schatten-1 norm) of a matrix."""
    A = np.asarray(M)
    if A.ndim != 2:
        raise ValidationError(f"trace norm needs a matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValidationError("matrix entries must be finite, not NaN or infinity")
    return float(np.sum(np.linalg.svd(A, compute_uv=False)))


def det_continuity_check(C1, C2) -> bool:
    """Check the determinant continuity bound on a pair of matrices.

    ``|det(I + C1) - det(I + C2)| <= ||C1 - C2||_1 exp(1 + ||C1||_1 + ||C2||_1)``
    is the inequality that makes the truncation limit well defined; this
    verifies it numerically for the given pair, with a slack of 1e-12 times
    ``|det(I + C1)| + |det(I + C2)|`` for the roundoff of the difference.
    Both sides are compared in units of the larger determinant, read off
    ``slogdet``, so that neither overflows at any trace norm.
    """
    A1 = np.asarray(C1, dtype=complex)
    A2 = np.asarray(C2, dtype=complex)
    if A1.shape != A2.shape or A1.ndim != 2 or A1.shape[0] != A1.shape[1]:
        raise ValidationError("both matrices must be square and of equal size")
    # The trace norms of A1 and A2 come first: they refuse a non-finite matrix.
    log_rhs = 1.0 + trace_norm(A1) + trace_norm(A2)
    dist = trace_norm(A1 - A2)
    I = np.eye(A1.shape[0])
    (s1, l1), (s2, l2) = np.linalg.slogdet(I + A1), np.linalg.slogdet(I + A2)
    top = max(l1, l2)
    if top == -np.inf:
        return True  # both determinants vanish
    d1, d2 = s1 * np.exp(l1 - top), s2 * np.exp(l2 - top)
    # In these units the left side is at most 2, so a right side above e holds.
    rhs = np.exp(min(log_rhs - top + np.log(dist), 1.0)) if dist else 0.0
    return bool(abs(d1 - d2) <= rhs + 1e-12 * (abs(d1) + abs(d2)))
