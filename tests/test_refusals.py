"""Input refusals across the modules: each bad input raises its typed error and says why."""

import warnings

import numpy as np
import pytest

from rlspec import (
    CoeffMatrix,
    DecaySpec,
    DimensionMismatch,
    NumericalFailure,
    RealLinearOperator,
    SosDecomposition,
    SymbolSeries,
    ValidationError,
    add,
    charfun_convergence,
    charfun_eval,
    charpoly_eval,
    cholesky_sos,
    coeff_matrix,
    coeff_poly_eval,
    conjugation,
    convex_weights,
    det_continuity_check,
    disk_truncation,
    emptiness_certificates,
    hankel_truncation,
    identity,
    parts_from_action,
    poly_apply,
    range_and_coverage,
    sos_decompose,
    sos_eval,
    spectrum_sweep,
    tail_weight,
    trace_norm,
)
from rlspec import serialize as ser

HANKEL = SymbolSeries.circle_hankel([1.0, 0.5])
DISK = SymbolSeries.disk_monomial(1)

REFUSALS = {
    # operators
    "non-square C": (
        lambda: RealLinearOperator(np.zeros((2, 3)), np.zeros((2, 3))),
        DimensionMismatch, "C must be a square matrix, got shape (2, 3)"),
    "n = 0": (
        lambda: RealLinearOperator(np.zeros((0, 0)), np.zeros((0, 0))),
        DimensionMismatch, "C must have dimension >= 1"),
    "C and B shapes differ": (
        lambda: RealLinearOperator(np.zeros((2, 2)), np.zeros((3, 3))),
        DimensionMismatch, "C and B must have identical shape, got (2, 2) and (3, 3)"),
    "operands of different n": (
        lambda: add(identity(1), identity(2)),
        DimensionMismatch, "operators act on different spaces: n=1 vs n=2"),
    "2-D polynomial coefficients": (
        lambda: poly_apply([[1.0, 2.0]], identity(1)),
        ValidationError, "coefficients must form a one-dimensional sequence"),
    # np.eye raised TypeError on these sizes and ValueError on a negative one
    "fractional identity size": (
        lambda: identity(2.5),
        DimensionMismatch, "dimension must be an integer >= 1, got 2.5"),
    "boolean conjugation size": (
        lambda: conjugation(True),
        DimensionMismatch, "dimension must be an integer >= 1, got True"),
    "negative identity size": (
        lambda: identity(-1),
        DimensionMismatch, "dimension must be an integer >= 1, got -1"),
    "map of the wrong length": (
        lambda: parts_from_action(lambda z: np.zeros(3), 2),
        DimensionMismatch, "map returned a vector of unexpected shape"),
    # linear outside the unit ball only: the fixed spot-check samples add
    # outside it, and the first rescaled one falls inside it
    "map not homogeneous": (
        lambda: parts_from_action(lambda z: z * min(1.0, np.linalg.norm(z)), 1),
        ValidationError, "map is not real-homogeneous within tolerance"),
    # charpoly
    "exact mode at n = 9": (
        lambda: coeff_matrix(identity(9), mode="exact"),
        ValidationError, "exact mode is an oracle for small n (n <= 8), got n=9"),
    "CoeffMatrix of the wrong shape": (
        lambda: CoeffMatrix(n=2, H=np.eye(2), norm=1.0, asymmetry=0.0),
        ValidationError, "coefficient matrix must be (3, 3), got (2, 2)"),
    "sos of a non-square matrix": (
        lambda: sos_decompose(np.zeros((2, 3))),
        ValidationError, "square coefficient matrix expected, got shape (2, 3)"),
    # the next six reached LAPACK or arithmetic: NaN answers without a word,
    # RuntimeWarnings, a raw ValueError, or NotPositiveDefinite quoting nan
    "sos of a NaN matrix": (
        lambda: sos_decompose(np.full((2, 2), np.nan)),
        ValidationError, "coefficient matrix has non-finite entries"),
    "convex weights of a NaN matrix": (
        lambda: convex_weights(np.full((2, 2), np.nan), 0.5),
        ValidationError, "coefficient matrix has non-finite entries"),
    "Cholesky sos of a NaN matrix": (
        lambda: cholesky_sos([[np.nan]]),
        ValidationError, "coefficient matrix has non-finite entries"),
    "Cholesky sos of an infinite matrix": (
        lambda: cholesky_sos([[np.inf]]),
        ValidationError, "coefficient matrix has non-finite entries"),
    "coefficient polynomial of an infinite matrix": (
        lambda: coeff_poly_eval(np.array([[np.inf, 0.0], [0.0, 1.0]]), 0.5),
        ValidationError, "coefficient matrix has non-finite entries"),
    "Cholesky sos of an empty matrix": (
        lambda: cholesky_sos(np.zeros((0, 0))),
        ValidationError, "nonempty square coefficient matrix expected, got shape (0, 0)"),
    # built, then a raw ZeroDivisionError in the torus weights
    "CoeffMatrix of n = 0": (
        lambda: CoeffMatrix(n=0, H=[[2.0]], norm=1.0, asymmetry=0.0),
        ValidationError, "coefficient matrix needs n >= 1, got n=0"),
    "CoeffMatrix of n = -1": (
        lambda: CoeffMatrix(n=-1, H=np.zeros((0, 0)), norm=1.0, asymmetry=0.0),
        ValidationError, "coefficient matrix needs n >= 1, got n=-1"),
    # a 3 x 3 H with a 2 x 2 operator read "nonempty"
    "certificates from the H of another n": (
        lambda: emptiness_certificates(identity(2), coeff=coeff_matrix(identity(3))),
        DimensionMismatch, "coefficient matrix of n=3 given for an operator of n=2"),
    "sos of an unknown kind": (
        lambda: SosDecomposition(d=np.ones(2), U=np.eye(2), kind="qr"),
        ValidationError, "unknown decomposition kind 'qr'"),
    "sos weights and rows of unequal size": (
        lambda: SosDecomposition(d=np.ones(3), U=np.eye(2), kind="eigen"),
        ValidationError, "weights and polynomial rows have inconsistent shapes"),
    "charpoly at two points": (
        lambda: charpoly_eval(identity(1), [1.0, 2.0]),
        ValidationError, "one evaluation point expected, got shape (2,)"),
    "charpoly at no point": (
        lambda: charpoly_eval(identity(1), []),
        ValidationError, "one evaluation point expected, got shape (0,)"),
    "coefficient polynomial at NaN": (
        lambda: coeff_poly_eval(np.eye(2), np.nan),
        ValidationError, "evaluation points must be finite, not NaN or infinity"),
    "sum of squares at NaN": (
        lambda: sos_eval(sos_decompose(np.eye(2)), complex(0.5, np.nan)),
        ValidationError, "evaluation points must be finite, not NaN or infinity"),
    # numfun
    "convex weights at NaN": (
        lambda: convex_weights(np.eye(2), np.nan),
        ValidationError, "evaluation points must be finite, not NaN or infinity"),
    # serialize
    "symbol document of an unknown kind": (
        lambda: ser.symbol_from_dict({"kind": "annulus"}),
        ValidationError, "symbol JSON: unknown kind 'annulus'"),
    # spectrum
    "sweep without angles": (
        lambda: spectrum_sweep(identity(1), thetas=[]),
        ValidationError, "thetas must contain at least one angle"),
    # traceclass
    "unknown decay tag": (
        lambda: DecaySpec("linear"),
        ValidationError, "unknown decay tag 'linear'"),
    # raw ValueError, OverflowError and TypeError, or LinAlgError from LAPACK
    "disk degree NaN": (
        lambda: SymbolSeries.disk_monomial(np.nan),
        ValidationError, "disk-monomial symbol requires a nonnegative integer degree m"),
    "infinite disk degree": (
        lambda: SymbolSeries.disk_monomial(np.inf),
        ValidationError, "disk-monomial symbol requires a nonnegative integer degree m"),
    "text decay ratio": (
        lambda: DecaySpec("geometric", "0.5"),
        ValidationError, "geometric decay requires a ratio in (0, 1)"),
    "trace norm of a NaN matrix": (
        lambda: trace_norm([[np.nan]]),
        ValidationError, "matrix entries must be finite, not NaN or infinity"),
    "trace norm of a vector": (
        lambda: trace_norm([1.0, 2.0]),
        ValidationError, "trace norm needs a matrix, got shape (2,)"),
    # a RuntimeWarning, then False
    "determinant continuity of a NaN matrix": (
        lambda: det_continuity_check([[np.nan]], [[0.0]]),
        ValidationError, "matrix entries must be finite, not NaN or infinity"),
    "unknown symbol kind": (
        lambda: SymbolSeries(kind="annulus"),
        ValidationError, "unknown symbol kind 'annulus'"),
    "charfun at two points": (
        lambda: charfun_eval(identity(1), [1.0, 2.0]),
        ValidationError, "one evaluation point expected, got shape (2,)"),
    "Hankel truncation of a disk symbol": (
        lambda: hankel_truncation(DISK, 2),
        ValidationError, "hankel_truncation requires a circle-hankel symbol, got 'disk-monomial'"),
    "Hankel truncation of size 0": (
        lambda: hankel_truncation(HANKEL, 0),
        ValidationError, "truncation size must be >= 1, got 0"),
    "disk truncation of a Hankel symbol": (
        lambda: disk_truncation(HANKEL, 2),
        ValidationError, "disk_truncation requires a disk-monomial symbol, got 'circle-hankel'"),
    "disk truncation of size 0": (
        lambda: disk_truncation(DISK, 0),
        ValidationError, "truncation size must be >= 1, got 0"),
    "fractional tail start": (
        lambda: tail_weight(DISK, 1.5),
        ValidationError, "tail start must be an integer, got 1.5"),
    "negative tail start": (
        lambda: tail_weight(SymbolSeries.circle_hankel([0.5, 0.2, 0.1, 0.05]), -2),
        ValidationError, "tail start must be >= 0, got -2"),
    "fractional Hankel truncation size": (
        lambda: hankel_truncation(HANKEL, 2.5),
        ValidationError, "truncation size must be an integer, got 2.5"),
    "fractional disk truncation size": (
        lambda: disk_truncation(DISK, 2.5),
        ValidationError, "truncation size must be an integer, got 2.5"),
    "fractional charfun sizes": (
        lambda: charfun_convergence(SymbolSeries.circle_hankel([0.5, 0.2, 0.1, 0.05]), [1.0], [2.7, 3]),
        ValidationError, "truncation sizes must be a nondecreasing list of integers >= 1"),
    "empty charfun grid": (
        lambda: charfun_convergence(DISK, [], [1, 2]),
        ValidationError, "lambda grid must be a nonempty one-dimensional array"),
    "2-D charfun grid": (
        lambda: charfun_convergence(DISK, [[1.0, 2.0]], [1, 2]),
        ValidationError, "lambda grid must be a nonempty one-dimensional array"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_bad_input_raises_its_typed_error(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert message in str(info.value)


@pytest.mark.parametrize("analysis", [
    coeff_matrix,
    emptiness_certificates,
    lambda R: spectrum_sweep(R, 8),
    lambda R: range_and_coverage(R, 8),
])
def test_operator_norm_beyond_double_range_is_refused_where_it_enters(analysis):
    # ||R|| = 1.7e308 sqrt(2) is inf; every analysis used to do arithmetic on
    # it (invalid-value warnings, and a sweep returned points at r = inf)
    R = RealLinearOperator(np.zeros((2, 2)), 1.7e308 * np.array([[1.0, 1.0], [1.0, -1.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalFailure, match=r"^operator norm overflows double range \(n=2\)$"):
            analysis(R)
