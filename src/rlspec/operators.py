"""Algebra of finite-rank real linear operators on C^n.

A real linear operator is additive and homogeneous under *real* scalars
only.  Every such map on C^n splits uniquely into a complex linear part and
an antilinear part and is stored here as a pair of n x n complex matrices
``(C, B)`` acting as ::

    z  |->  C @ z + B @ conj(z)

All operations are pure functions of immutable values; operators may be
shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NumericalFailure, ValidationError

__all__ = [
    "RealLinearOperator",
    "identity",
    "conjugation",
    "scalar_operator",
    "apply",
    "parts_from_action",
    "add",
    "scale",
    "compose",
    "adjoint",
    "complexify",
    "realify",
    "operator_norm",
    "min_modulus",
    "schatten_norm",
    "poly_apply",
    "rotate",
]


def _as_square(M, name: str) -> np.ndarray:
    """A C-ordered complex copy of ``M``, refused unless it is a square matrix of size >= 1."""
    A = np.array(M, dtype=complex, order="C")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"{name} must be a square matrix, got shape {A.shape}")
    if A.shape[0] < 1:
        raise DimensionMismatch(f"{name} must have dimension >= 1")
    return A


@dataclass(frozen=True, eq=False, repr=False)
class RealLinearOperator:
    """Pair ``(C, B)`` representing ``z -> C z + B conj(z)`` on C^n."""

    C: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        C = _as_square(self.C, "C")
        B = _as_square(self.B, "B")
        if C.shape != B.shape:
            raise DimensionMismatch(
                f"C and B must have identical shape, got {C.shape} and {B.shape}"
            )
        if not (np.isfinite(C).all() and np.isfinite(B).all()):
            raise ValidationError("C and B must be finite, not NaN or infinity")
        C.setflags(write=False)
        B.setflags(write=False)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "B", B)

    @property
    def n(self) -> int:
        return self.C.shape[0]

    def __repr__(self) -> str:
        return f"RealLinearOperator(n={self.n})"


def identity(n: int) -> RealLinearOperator:
    """The identity map on C^n; ``n`` is a Python or numpy integer >= 1, not a bool."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise DimensionMismatch(f"dimension must be an integer >= 1, got {n!r}")
    return RealLinearOperator(np.eye(n, dtype=complex), np.zeros((n, n), dtype=complex))


def conjugation(n: int) -> RealLinearOperator:
    """Componentwise complex conjugation on C^n: the parts of the identity, swapped."""
    one = identity(n)
    return RealLinearOperator(one.B, one.C)


def scalar_operator(alpha: complex, beta: complex) -> RealLinearOperator:
    """The operator ``z -> alpha z + beta conj(z)`` on C^1."""
    return RealLinearOperator(np.array([[alpha]], dtype=complex), np.array([[beta]], dtype=complex))


def apply(R: RealLinearOperator, z) -> np.ndarray:
    """Apply ``R`` to a vector: ``C z + B conj(z)``."""
    v = np.asarray(z, dtype=complex)
    if v.shape != (R.n,):
        raise DimensionMismatch(f"vector of length {R.n} expected, got shape {v.shape}")
    return R.C @ v + R.B @ v.conj()


def parts_from_action(f, n: int) -> RealLinearOperator:
    """Recover the ``(C, B)`` representation of a black-box real linear map.

    Samples ``f`` on the standard basis vectors ``e_k`` and on ``i e_k``:
    the complex linear column is ``(f(e_k) - i f(i e_k)) / 2`` and the
    antilinear column ``(f(e_k) + i f(i e_k)) / 2``.  Real-linearity of the
    callable is the caller's responsibility; it is spot-checked on a few
    deterministic sample vectors.
    """
    C = np.empty((n, n), dtype=complex)
    B = np.empty((n, n), dtype=complex)
    for k in range(n):
        e = np.zeros(n, dtype=complex)
        e[k] = 1.0
        fe = np.asarray(f(e), dtype=complex)
        fie = np.asarray(f(1j * e), dtype=complex)
        if fe.shape != (n,) or fie.shape != (n,):
            raise DimensionMismatch("map returned a vector of unexpected shape")
        C[:, k] = (fe - 1j * fie) / 2.0
        B[:, k] = (fe + 1j * fie) / 2.0
    _spot_check_real_linear(f, n)
    return RealLinearOperator(C, B)


def _spot_check_real_linear(f, n: int) -> None:
    rng = np.random.default_rng(0xA11CE)
    for _ in range(2):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        r = float(rng.standard_normal())
        fz = np.asarray(f(z), dtype=complex)
        fw = np.asarray(f(w), dtype=complex)
        scale = 1.0 + np.linalg.norm(fz) + np.linalg.norm(fw)
        if np.linalg.norm(np.asarray(f(z + w), dtype=complex) - fz - fw) > 1e-6 * scale:
            raise ValidationError("map is not additive within tolerance")
        if np.linalg.norm(np.asarray(f(r * z), dtype=complex) - r * fz) > 1e-6 * scale * (1 + abs(r)):
            raise ValidationError("map is not real-homogeneous within tolerance")


def add(R1: RealLinearOperator, R2: RealLinearOperator) -> RealLinearOperator:
    """Pointwise sum of two operators."""
    _check_same_dim(R1, R2)
    return RealLinearOperator(R1.C + R2.C, R1.B + R2.B)


def scale(c: complex, R: RealLinearOperator) -> RealLinearOperator:
    """Left scalar multiple ``z -> c * (R z)``.

    Left multiplication is the convention consistent with polynomials
    ``sum a_j R**j``; note that in general ``T (c S) != c (T S)`` for real
    linear ``T``.
    """
    return RealLinearOperator(c * R.C, c * R.B)


def _check_same_dim(R1: RealLinearOperator, R2: RealLinearOperator) -> None:
    if R1.n != R2.n:
        raise DimensionMismatch(f"operators act on different spaces: n={R1.n} vs n={R2.n}")


def compose(R1: RealLinearOperator, R2: RealLinearOperator) -> RealLinearOperator:
    """Composition ``z -> R1(R2 z)``.

    The antilinear factor conjugates whatever follows it, which gives the
    noncommutative product rule ``(C, B) = (C1 C2 + B1 conj(B2),
    C1 B2 + B1 conj(C2))``.
    """
    _check_same_dim(R1, R2)
    return RealLinearOperator(
        R1.C @ R2.C + R1.B @ R2.B.conj(),
        R1.C @ R2.B + R1.B @ R2.C.conj(),
    )


def adjoint(R: RealLinearOperator) -> RealLinearOperator:
    """Adjoint with respect to the real inner product ``Re <x, y>``.

    Satisfies ``Re <R x, y> = Re <x, adjoint(R) y>`` for all x, y; in matrix
    terms the complex linear part maps to its conjugate transpose and the
    antilinear part to its plain transpose.
    """
    return RealLinearOperator(R.C.conj().T, R.B.T)


def complexify(R: RealLinearOperator) -> np.ndarray:
    """The 2n x 2n complex linear matrix ``[[C, B], [conj(B), conj(C)]]``.

    Encodes the action of ``R`` on C^n + C^n, with the conjugation fixed to
    the componentwise one in the working basis.
    """
    return _block2(R.C, R.B, R.B.conj(), R.C.conj())


def _block2(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``[[a, b], [c, d]]`` for equal-shape n x n blocks; stacks map to stacks.

    One allocation and four slice copies, without ``np.block``'s per-call
    shape checks, which cost more than the copy on small stacks.
    """
    n = a.shape[-1]
    M = np.empty(a.shape[:-2] + (2 * n, 2 * n), dtype=np.result_type(a, b, c, d))
    M[..., :n, :n], M[..., :n, n:], M[..., n:, :n], M[..., n:, n:] = a, b, c, d
    return M


def _real_block(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """``[[Re P, -Im Q], [Im P, Re Q]]`` for ``P = C + B``, ``Q = C - B``; stacks map to stacks."""
    return _block2(P.real, -Q.imag, P.imag, Q.real)


def realify(R: RealLinearOperator) -> np.ndarray:
    """The 2n x 2n real matrix acting on stacked (Re z, Im z) coordinates."""
    return _real_block(R.C + R.B, R.C - R.B)


def operator_norm(R: RealLinearOperator) -> float:
    """``sup ||R z||`` over unit vectors: top singular value of realify(R).

    A norm beyond double range raises ``NumericalFailure`` here, before any
    analysis does arithmetic on it.
    """
    norm = float(np.linalg.svd(realify(R), compute_uv=False)[0])
    if not norm < np.inf:  # inf, or NaN from an overflow inside the SVD
        raise NumericalFailure(f"operator norm overflows double range (n={R.n})")
    return norm


def min_modulus(R: RealLinearOperator) -> float:
    """Injectivity modulus ``inf ||R z||`` over unit vectors.

    Computed as the smallest singular value of the real 2n x 2n
    representation ``realify(R)``.
    """
    return float(np.linalg.svd(realify(R), compute_uv=False)[-1])


def schatten_norm(R: RealLinearOperator, p: float) -> float:
    """Schatten p-norm ``||C||_p + ||B||_p``.

    The singular values of the antilinear part ``z -> B conj(z)`` coincide
    with those of the matrix ``B``, since ``||B conj(z)||`` ranges over the
    same set as ``||B w||``.
    """
    return _schatten_norms(R, p)[0]


def _schatten_norms(R: RealLinearOperator, *ps: float) -> tuple[float, ...]:
    """:func:`schatten_norm` for each order in ``ps``, from one SVD of C and one of B."""
    for p in ps:
        if not p >= 1:
            raise ValidationError(f"Schatten order must satisfy p >= 1, got {p}")
    sC = np.linalg.svd(R.C, compute_uv=False)
    sB = np.linalg.svd(R.B, compute_uv=False)
    return tuple(float((sC**p).sum() ** (1.0 / p) + (sB**p).sum() ** (1.0 / p)) for p in ps)


def poly_apply(coeffs, R: RealLinearOperator) -> RealLinearOperator:
    """Complex polynomial in an operator: ``sum_j coeffs[j] * R**j``.

    ``coeffs[0]`` multiplies the identity; scalars act by left
    multiplication.  Evaluated by a Horner recursion over :func:`compose`.
    """
    a = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    if a.ndim != 1:
        raise ValidationError("coefficients must form a one-dimensional sequence")
    one = identity(R.n)
    acc = scale(0.0, one)
    for c in a[::-1]:
        acc = add(compose(acc, R), scale(c, one))
    return acc


def rotate(R: RealLinearOperator, theta: float) -> RealLinearOperator:
    """Phase-rotate the complex linear part: ``(exp(-i theta) C, B)``.

    The characteristic polynomial transforms by
    ``p(exp(i theta) r, exp(-i theta) r) = p_rot(r, r)``, which reduces
    angular questions to the positive real axis.
    """
    return RealLinearOperator(np.exp(-1j * theta) * R.C, R.B)
