"""Symbol truncations, characteristic function limits, determinant continuity."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from randops import crandn, random_operator
from rlspec import (
    CharFunTable,
    DecaySpec,
    NumericalFailure,
    RealLinearOperator,
    SymbolSeries,
    ValidationError,
    adjoint,
    charfun_convergence,
    charfun_eval,
    charpoly_eval,
    complexify,
    conjugation,
    det_continuity_check,
    disk_truncation,
    emptiness_certificates,
    hankel_truncation,
    operator_norm,
    ray_spectrum,
    spectrum_sweep,
    symbol_scale,
    tail_weight,
    trace_norm,
)
from randops import op_maxdiff


def geometric_symbol(q=0.5, length=130):
    return SymbolSeries.circle_hankel(q ** np.arange(length), DecaySpec("geometric", q))


def polynomial_symbol(length=130, seed=11):
    # complex coefficients with |a_k| ~ (k+1)**-3
    k = np.arange(length)
    coeffs = crandn(np.random.default_rng(seed), length) * (k + 1.0) ** -3
    return SymbolSeries.circle_hankel(coeffs, DecaySpec("polynomial", 3.0))


def _truncate(sym, n):
    build = hankel_truncation if sym.kind == "circle-hankel" else disk_truncation
    return build(sym, n)


# the two symbol families the closed-form table covers
CLOSED_FORM_SYMBOLS = {
    "geometric": geometric_symbol,
    "polynomial": polynomial_symbol,
    "disk-m0": lambda: SymbolSeries.disk_monomial(0),
    "disk-m1": lambda: SymbolSeries.disk_monomial(1),
    "disk-m3": lambda: SymbolSeries.disk_monomial(3),
}


def rank1_symbol(c=0.7 - 0.2j, length=40):
    coeffs = np.zeros(length, dtype=complex)
    coeffs[0] = c
    return SymbolSeries.circle_hankel(coeffs)


def _grid(rmin=0.5, rmax=4.0, nr=6, na=7):
    return np.array(
        [r * np.exp(1j * t) for r in np.linspace(rmin, rmax, nr) for t in np.linspace(0, 2 * np.pi, na, endpoint=False)]
    )


# ------------------------------------------------------------------- symbols

def test_symbol_validation():
    with pytest.raises(ValidationError):
        SymbolSeries(kind="circle-hankel")
    with pytest.raises(ValidationError):
        SymbolSeries(kind="disk-monomial", m=-1)
    with pytest.raises(ValidationError):
        DecaySpec("geometric", 1.5)
    with pytest.raises(ValidationError):
        DecaySpec("polynomial", 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_symbol_rejects_non_finite_values(bad):
    with pytest.raises(ValidationError, match="finite"):
        SymbolSeries.circle_hankel([0.5, bad])
    with pytest.raises(ValidationError, match="finite"):
        SymbolSeries.circle_hankel([0.5, 1j * bad])
    for tag in ("geometric", "polynomial"):
        with pytest.raises(ValidationError):
            DecaySpec(tag, bad)


def test_tail_weight_bounds_trace_norm_differences():
    sym = geometric_symbol()
    for n in (4, 8, 16):
        small = hankel_truncation(sym, n).B
        big = hankel_truncation(sym, 2 * n).B
        pad = np.zeros_like(big)
        pad[:n, :n] = small
        assert trace_norm(big - pad) <= tail_weight(sym, n) + 1e-12


@pytest.mark.parametrize("m", range(9))
def test_tail_weight_of_a_disk_symbol_is_its_antidiagonal_trace_norm(m):
    # it was 0.0 at every start; the one antidiagonal of z**m sits at k = m
    sym = SymbolSeries.disk_monomial(m)
    full = trace_norm(disk_truncation(sym, m + 1).B)
    assert tail_weight(sym, 0) == pytest.approx(full, rel=1e-13)
    assert tail_weight(sym, m) == tail_weight(sym, 0)
    assert tail_weight(sym, m + 1) == 0.0
    # as for circle symbols, the tail from n bounds what lies outside the n x n truncation
    big = disk_truncation(sym, m + 2).B
    for n in range(1, m + 3):
        small = np.zeros_like(big)
        small[:n, :n] = disk_truncation(sym, n).B
        assert trace_norm(big - small) <= tail_weight(sym, n) + 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1.0, -math.inf)])
def test_charfun_eval_refuses_non_finite_points(bad):
    # charfun_eval(R, nan) used to return nan
    with pytest.raises(ValidationError, match="points must be finite"):
        charfun_eval(conjugation(2), bad)


# ------------------------------------------------------------------- hankel

def test_hankel_matrix_entries():
    sym = geometric_symbol()
    op = hankel_truncation(sym, 2)
    assert np.allclose(op.B, [[1.0, 0.5], [0.5, 0.25]])
    assert np.allclose(op.C, 0)


def test_hankel_rank_one_symbol():
    op = hankel_truncation(rank1_symbol(0.3 + 0.1j), 5)
    ref = np.zeros((5, 5), dtype=complex)
    ref[0, 0] = 0.3 + 0.1j
    assert np.allclose(op.B, ref)


def test_hankel_self_adjoint_for_real_coefficients():
    op = hankel_truncation(geometric_symbol(), 4)
    assert op_maxdiff(adjoint(op), op) == 0.0


def test_hankel_insufficient_coefficients():
    # a geometric or polynomial symbol has nonzero coefficients past the stored ones
    for decay in (DecaySpec("geometric", 0.5), DecaySpec("polynomial", 3.0)):
        sym = SymbolSeries.circle_hankel([1.0, 0.5], decay)
        with pytest.raises(ValidationError, match="only 2 stored"):
            hankel_truncation(sym, 2)  # needs a_0..a_2


def test_hankel_finite_symbol_is_zero_padded():
    sym = SymbolSeries.circle_hankel([1.0, 0.5j])
    assert sym.decay.tag == "finite"
    ref = np.zeros((3, 3), dtype=complex)
    ref[0, 0] = 1.0
    ref[0, 1] = ref[1, 0] = 0.5j
    assert np.array_equal(hankel_truncation(sym, 3).B, ref)


def test_hankel_decay_mismatch_warns():
    sym = SymbolSeries.circle_hankel(np.ones(64), DecaySpec("geometric", 0.5))
    with pytest.warns(UserWarning):
        hankel_truncation(sym, 4)


def test_hankel_decay_violation_survives_envelope_underflow():
    # 0.5**k underflows to 0 past k ~ 1075; the violation at k = 5 must still warn
    coeffs = 0.5 ** np.arange(1200.0)
    coeffs[5] = 1e9
    sym = SymbolSeries.circle_hankel(coeffs, DecaySpec("geometric", 0.5))
    with pytest.warns(UserWarning, match=r"worst ratio 3\.20e\+10"):
        hankel_truncation(sym, 4)


def test_hankel_decay_check_quiet_on_conforming_leading_zero():
    # a_0 = 0 and a_k = 0.5**k: the ratios are normalized by the first nonzero
    # coefficient, not by max(|a_0|, 1e-300), which read as a 1e+300 violation
    k = np.arange(64.0)
    for coeffs, decay in ((0.5 ** k, DecaySpec("geometric", 0.5)), ((1.0 + k) ** -3.0, DecaySpec("polynomial", 3.0))):
        coeffs[0] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hankel_truncation(SymbolSeries.circle_hankel(coeffs, decay), 4)


def test_hankel_decay_violation_after_leading_zero_warns():
    coeffs = 0.5 ** np.arange(64.0)
    coeffs[0] = 0.0
    coeffs[9] = 1e4  # 1e4 / 0.5**9 against a_1 / 0.5 = 1
    sym = SymbolSeries.circle_hankel(coeffs, DecaySpec("geometric", 0.5))
    with pytest.warns(UserWarning, match=r"worst ratio 5\.12e\+06"):
        hankel_truncation(sym, 4)


def test_hankel_decay_ratio_mantissa_rounds_into_the_exponent():
    # a ratio of 9.999e9 prints as 1.00e+10, not as 10.00e+09
    sym = SymbolSeries.circle_hankel([1.0, 0.5 * 9.999e9, 0.0], DecaySpec("geometric", 0.5))
    with pytest.warns(UserWarning, match=r"worst ratio 1\.00e\+10\)"):
        hankel_truncation(sym, 2)


def test_hankel_decay_check_quiet_on_conforming_underflowed_tail():
    sym = SymbolSeries.circle_hankel(0.8 ** np.arange(4000.0), DecaySpec("geometric", 0.8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hankel_truncation(sym, 4)


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_SYMBOLS))
def test_truncations_are_complex_symmetric(name):
    # B == B.T is the precondition of the singular-value closed form
    sym = CLOSED_FORM_SYMBOLS[name]()
    for n in (1, 2, 5, 16, 64):
        op = _truncate(sym, n)
        assert np.array_equal(op.B, op.B.T)
        assert np.all(op.C == 0)


# --------------------------------------------------------------------- disk

def _disk_entry_quadrature(m, k, l):
    # B[l, k] = sqrt((k+1)(l+1)) / pi * integral over the unit disk of
    # z^m conj(z)^(k+l); radial Gauss-Legendre times angular trapezoid
    nodes, weights = np.polynomial.legendre.leggauss(24)
    r = 0.5 * (nodes + 1.0)
    wr = 0.5 * weights
    nt = 64
    thetas = 2 * np.pi * np.arange(nt) / nt
    total = 0.0 + 0.0j
    for rr, ww in zip(r, wr):
        z = rr * np.exp(1j * thetas)
        vals = z**m * np.conj(z) ** (k + l) * rr
        total += ww * np.sum(vals) * (2 * np.pi / nt)
    return np.sqrt((k + 1.0) * (l + 1.0)) / np.pi * total


def test_disk_entries_match_quadrature_oracle():
    for m in (0, 1, 2, 3):
        sym = SymbolSeries.disk_monomial(m)
        for n in (1, 2, 3):
            B = disk_truncation(sym, n).B
            ref = np.array(
                [[_disk_entry_quadrature(m, k, l) for k in range(n)] for l in range(n)]
            )
            assert np.max(np.abs(B - ref)) < 1e-12


def test_disk_small_cases():
    assert np.allclose(disk_truncation(SymbolSeries.disk_monomial(0), 1).B, [[1.0]])
    B = disk_truncation(SymbolSeries.disk_monomial(1), 2).B
    assert np.allclose(B, [[0.0, np.sqrt(2) / 2], [np.sqrt(2) / 2, 0.0]])


def test_disk_vanishes_beyond_antidiagonal_range():
    for n in (1, 2, 4):
        sym = SymbolSeries.disk_monomial(2 * n - 1)
        assert np.all(disk_truncation(sym, n).B == 0)
        sym = SymbolSeries.disk_monomial(2 * n + 3)
        assert np.all(disk_truncation(sym, n).B == 0)


# ------------------------------------------------------- charfun evaluation

def test_charfun_rank_one_closed_form():
    c = 0.7 - 0.2j
    sym = rank1_symbol(c)
    for n in (1, 2, 3, 6, 10):
        op = hankel_truncation(sym, n)
        for lam in _grid():
            ref = 1.0 - abs(c) ** 2 / abs(lam) ** 2
            assert abs(charfun_eval(op, lam) - ref) < 1e-12


def test_charfun_zero_symbol_is_one():
    op = hankel_truncation(SymbolSeries.circle_hankel(np.zeros(16)), 4)
    for lam in _grid():
        assert charfun_eval(op, lam) == pytest.approx(1.0, abs=1e-13)


def test_charfun_conjugation_zero_circle_matches_rays():
    tau = conjugation(1)
    for lam in _grid():
        assert abs(charfun_eval(tau, lam) - (1 - 1 / abs(lam) ** 2)) < 1e-13
    hits = ray_spectrum(tau, 0.7)
    assert sorted(round(r, 10) for r, _ in hits) == [-1.0, 1.0]
    for r, _ in hits:
        assert abs(charfun_eval(tau, r * np.exp(0.7j))) < 1e-12


def test_charfun_rejects_origin():
    with pytest.raises(ValidationError):
        charfun_eval(conjugation(2), 0.0)


def test_charfun_eval_overflow_is_a_typed_failure():
    R = random_operator(np.random.default_rng(0), 64)
    s = 1e3 / operator_norm(R)
    R = RealLinearOperator(s * R.C, s * R.B)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match="overflows"):
            charfun_eval(R, 1e-3)


def test_truncations_certify_their_smallest_circle():
    # C = 0 and symmetric B: the spectrum is the circles |lam| = sigma_k(B), and
    # the eigenvalues of realify(R) are +-sigma_k(B), so the real-axis zero is
    # sigma_min(B) (0 for a singular B, as for most disk truncations)
    rng = np.random.default_rng(33)
    phases = [np.exp(2j * np.pi * rng.uniform(size=40)) for _ in range(4)]
    symbols = [SymbolSeries.circle_hankel(0.6 ** np.arange(40) * ph, DecaySpec("geometric", 0.6))
               for ph in phases]
    symbols += [SymbolSeries.disk_monomial(m) for m in (0, 1, 3, 5)]
    for sym in symbols:
        for n in range(1, 13):
            R = _truncate(sym, n)
            cert = emptiness_certificates(R)
            sigma = np.linalg.svd(R.B, compute_uv=False)
            assert cert.verdict == "nonempty", (sym.kind, n)
            assert abs(cert.real_axis_zero - sigma[-1]) <= 1e-12 * sigma[0], (sym.kind, n)


def test_charfun_matches_normalized_charpoly():
    sym = geometric_symbol()
    op = hankel_truncation(sym, 5)
    for lam in _grid(0.8, 2.0, 3, 5):
        ref = charpoly_eval(op, lam) / abs(lam) ** 10
        assert abs(charfun_eval(op, lam) - ref) < 1e-12 * (1 + abs(ref))


def test_charfun_radially_symmetric_for_antilinear():
    sym = geometric_symbol()
    op = hankel_truncation(sym, 6)
    for r in (0.6, 1.1, 2.5):
        vals = [charfun_eval(op, r * np.exp(1j * t)) for t in np.linspace(0, 2 * np.pi, 12)]
        assert np.max(np.abs(np.diff(vals))) < 1e-10


# ---------------------------------------------------------------- convergence

def test_convergence_geometric_symbol():
    sym = geometric_symbol()
    table = charfun_convergence(sym, _grid(), [4, 8, 16, 32])
    assert isinstance(table, CharFunTable)
    assert table.values.shape == (4, 42)
    assert np.all(np.diff(table.diffs) < 0)  # strictly improving
    assert table.diffs[-1] < 1e-6
    assert table.stalls == ()


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_SYMBOLS))
def test_convergence_closed_form_matches_reference_eval(name):
    sym = CLOSED_FORM_SYMBOLS[name]()
    grid = _grid()
    table = charfun_convergence(sym, grid, [1, 2, 3, 4, 8, 16, 33, 64], lam_min=0.1)
    for n, row in zip(table.n_list, table.values):
        op = _truncate(sym, n)
        ref = np.array([charfun_eval(op, lam) for lam in grid])
        assert np.all(np.abs(row - ref) <= 1e-12 * (1 + np.abs(ref)))


def test_convergence_polynomial_table_reaches_1024():
    sizes = [2**k for k in range(11)]
    table = charfun_convergence(polynomial_symbol(length=2 * sizes[-1] - 1), _grid(), sizes)
    assert np.all(np.isfinite(table.values))
    assert np.all(np.diff(table.diffs[-6:]) < 0)


def test_convergence_rank_one_stabilizes_immediately():
    table = charfun_convergence(rank1_symbol(), _grid(), [1, 2, 4, 8])
    assert np.all(table.diffs < 1e-13)


def test_convergence_zero_symbol_all_ones():
    sym = SymbolSeries.circle_hankel(np.zeros(40))
    table = charfun_convergence(sym, _grid(), [1, 2, 4], lam_min=0.1)
    assert np.allclose(table.values, 1.0)


def test_convergence_rejects_near_origin_grid():
    sym = geometric_symbol()
    with pytest.raises(ValidationError):
        charfun_convergence(sym, [0.01], [1, 2])
    # explicit override admits the same grid
    table = charfun_convergence(sym, [0.5j], [1, 2], lam_min=0.4)
    assert table.values.shape == (2, 1)


@pytest.mark.parametrize("point, lam_min", [
    (math.nan, None), (math.inf, None), (complex(1.0, math.nan), None), (0.0, 0.0),
])
def test_convergence_rejects_non_finite_and_zero_points(point, lam_min):
    # a NaN point used to give the row [1.0, nan], and 0 at lam_min = 0 the
    # row [1.0, inf] after a divide-by-zero warning
    with pytest.raises(ValidationError, match="finite and nonzero"):
        charfun_convergence(SymbolSeries.disk_monomial(1), [point], [1, 2], lam_min=lam_min)


def test_convergence_rejects_unsorted_sizes():
    with pytest.raises(ValidationError):
        charfun_convergence(geometric_symbol(), [1.0], [4, 2])


def _untrimmed_table(sym, grid, sizes):
    # one full SVD of every truncation, no trimming
    inv_r2 = 1.0 / np.abs(grid) ** 2
    rows = []
    for n in sizes:
        sigma = np.linalg.svd(_truncate(sym, n).B, compute_uv=False)
        rows.append(np.prod(1.0 - np.outer(inv_r2, sigma**2), axis=1))
    return np.array(rows)


def _svd_shapes(monkeypatch):
    svd = np.linalg.svd
    shapes = []

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return shapes


TRIM_SYMBOLS = {
    "geometric-0.5": lambda: geometric_symbol(0.5, length=511),
    "geometric-0.8": lambda: geometric_symbol(0.8, length=511),
    "polynomial": lambda: polynomial_symbol(length=511),
    "disk-m0": lambda: SymbolSeries.disk_monomial(0),
    "disk-m1": lambda: SymbolSeries.disk_monomial(1),
    "disk-m3": lambda: SymbolSeries.disk_monomial(3),
}


@pytest.mark.parametrize("name", sorted(TRIM_SYMBOLS))
def test_trimmed_table_matches_untrimmed_reference(name):
    sym = TRIM_SYMBOLS[name]()
    grid = _grid()
    sizes = [1, 2, 3, 4, 8, 16, 33, 64, 64, 128, 256]
    table = charfun_convergence(sym, grid, sizes, lam_min=0.1)
    ref = _untrimmed_table(sym, grid, sizes)
    assert np.all(np.abs(table.values - ref) <= 1e-13 * (1 + np.abs(ref)))


@pytest.mark.parametrize(
    "sym, nmax, check",
    [
        (SymbolSeries.disk_monomial(3), 256, lambda k: max(k) == 4),
        (polynomial_symbol(length=511), 256, lambda k: max(k) == 256),
        (geometric_symbol(0.5, length=2047), 1024, lambda k: max(k) == 53),
        (SymbolSeries.circle_hankel([0.9, -0.4j, 0.2]), 256, lambda k: max(k) == 3),
    ],
    ids=["disk-m3", "polynomial", "geometric-0.5", "finite-3"],
)
def test_table_svds_stop_at_the_numerical_size(monkeypatch, sym, nmax, check):
    # each size takes at most one SVD, of its leading K x K block (none for an
    # all-zero truncation), K stops growing once the dropped tail sits below
    # eps**2 of the squared Frobenius norm, and a repeated K reuses its SVD
    # (sizes strictly increase, so the largest block is decomposed once)
    shapes = _svd_shapes(monkeypatch)
    sizes = [2**k for k in range(nmax.bit_length())]
    charfun_convergence(sym, _grid(), sizes, lam_min=0.1)
    assert 0 < len(shapes) <= len(sizes)
    assert all(rows == cols for rows, cols in shapes)
    rows = [rows for rows, _ in shapes]
    assert rows == sorted(set(rows))
    assert check(rows)


@pytest.mark.parametrize(
    "name",
    sorted(TRIM_SYMBOLS) + ["disk-m2", "disk-m8", "disk-m300", "finite-rising", "finite-gapped"],
)
def test_tail_weights_from_the_symbol_trim_as_the_full_truncation_does(monkeypatch, name):
    # the weights are read off the coefficients in O(nmax); trimming on the
    # weights of the full nmax x nmax truncation must pick the same blocks
    extra = {
        "disk-m2": lambda: SymbolSeries.disk_monomial(2),
        "disk-m8": lambda: SymbolSeries.disk_monomial(8),
        "disk-m300": lambda: SymbolSeries.disk_monomial(300),
        "finite-rising": lambda: SymbolSeries.circle_hankel(np.arange(1.0, 41.0) / 400),
        "finite-gapped": lambda: SymbolSeries.circle_hankel(np.r_[1e-9, np.zeros(20), 1.0, 1j]),
    }
    sym = {**TRIM_SYMBOLS, **extra}[name]()
    sizes = [1, 2, 3, 4, 8, 16, 33, 64, 128, 256]
    B = _truncate(sym, sizes[-1]).B
    idx = np.arange(sizes[-1])
    weight = np.bincount(np.maximum.outer(idx, idx).ravel(), weights=(np.abs(B) ** 2).ravel())
    blocks = []
    for n in sizes:
        tail = np.cumsum(weight[n - 1::-1])[::-1]
        K = int(np.count_nonzero(tail > np.finfo(float).eps ** 2 * tail[0]))
        if K and (not blocks or blocks[-1] != K):
            blocks.append(K)
    shapes = _svd_shapes(monkeypatch)
    charfun_convergence(sym, _grid(), sizes, lam_min=0.1)
    assert shapes == [(K, K) for K in blocks]


@pytest.mark.parametrize(
    "make, nmax, limit_mib",
    [
        (lambda: geometric_symbol(0.5, length=2047), 1024, 1.0),
        (lambda: SymbolSeries.disk_monomial(3), 1024, 1.0),
        (lambda: polynomial_symbol(length=511), 256, 2.0),
    ],
    ids=["geometric-0.5", "disk-m3", "polynomial"],
)
def test_table_memory_does_not_grow_with_nmax_squared(make, nmax, limit_mib):
    # an nmax x nmax complex truncation alone would take nmax**2 * 16 bytes
    # (16 MiB at nmax 1024); a table holds the O(nmax) weights and one K x K block
    sym, grid = make(), _grid()
    sizes = [2**k for k in range(nmax.bit_length())]
    tracemalloc.start()
    try:
        charfun_convergence(sym, grid, sizes, lam_min=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mib * 2**20


@pytest.mark.parametrize(
    "make",
    [lambda: SymbolSeries.circle_hankel([0.9, -0.4j, 0.2]), lambda: SymbolSeries.disk_monomial(3)],
    ids=["finite-3", "disk-m3"],
)
def test_table_reaches_nmax_65536_with_a_4_by_4_block(monkeypatch, make):
    # both truncations are zero past their leading 4 x 4 block; a table to
    # 2**16 must not build the 2**16 x 2**16 matrix (64 GiB)
    shapes = _svd_shapes(monkeypatch)
    sizes = [2**k for k in range(17)]
    table = charfun_convergence(make(), _grid(), sizes, lam_min=0.1)
    assert max(rows for rows, _ in shapes) <= 4
    assert np.all(table.values[2:] == table.values[2])


def test_trim_keeps_a_tail_below_the_forward_sum_resolution(monkeypatch):
    # a_0 = 1 and a_81.. = t: the entries past index 40 hold 1e-20 of ||B||_F**2,
    # which a difference of forward cumulative sums (near 1) reads as 0
    n = 64
    coeffs = np.zeros(2 * n - 1, dtype=complex)
    coeffs[0] = 1.0
    coeffs[81:] = 1j * np.sqrt(1e-20 / 1081)  # 1081 entries have k + l >= 81
    sym = SymbolSeries.circle_hankel(coeffs)
    B = hankel_truncation(sym, n).B
    assert np.sum(np.abs(B[41:, :]) ** 2) + np.sum(np.abs(B[:41, 41:]) ** 2) == pytest.approx(1e-20)
    shapes = _svd_shapes(monkeypatch)
    grid = _grid()
    table = charfun_convergence(sym, grid, [n], lam_min=0.1)
    assert shapes[0][0] > 41
    monkeypatch.undo()
    ref = _untrimmed_table(sym, grid, [n])
    assert np.all(np.abs(table.values - ref) <= 1e-13 * (1 + np.abs(ref)))


def test_zero_symbol_table_takes_no_svd(monkeypatch):
    shapes = _svd_shapes(monkeypatch)
    table = charfun_convergence(SymbolSeries.circle_hankel(np.zeros(3)), _grid(), [1, 4, 16], lam_min=0.1)
    assert shapes == []
    assert np.all(table.values == 1.0)


def test_convergence_checks_the_symbol_once_at_the_largest_size():
    sym = SymbolSeries.circle_hankel(np.ones(64), DecaySpec("geometric", 0.5))
    with pytest.warns(UserWarning) as record:
        charfun_convergence(sym, _grid(), [1, 2, 4, 8, 16], lam_min=0.1)
    assert len(record) == 1
    with pytest.raises(ValidationError, match="truncation of size 64 needs"):
        charfun_convergence(geometric_symbol(length=100), _grid(), [1, 2, 4, 64])


def test_symbol_scale_values():
    assert symbol_scale(geometric_symbol(q=0.5, length=200)) == pytest.approx(2.0, abs=1e-10)
    assert symbol_scale(SymbolSeries.disk_monomial(0)) == pytest.approx(1.0)


def test_disk_symbol_scale_is_the_truncation_2_norm():
    # the closed form against the 2-norm of the (m+1) x (m+1) truncation
    for m in range(200):
        sym = SymbolSeries.disk_monomial(m)
        ref = np.linalg.norm(disk_truncation(sym, m + 1).B, 2)
        assert abs(symbol_scale(sym) - ref) <= 2 * np.finfo(float).eps * ref


# ------------------------------------------------------ determinant continuity

def test_det_continuity_equal_pair():
    A = crandn(np.random.default_rng(1), 4, 4)
    assert det_continuity_check(A, A)


def test_det_continuity_against_zero():
    rng = np.random.default_rng(2)
    for _ in range(20):
        A = 0.5 * crandn(rng, 4, 4)
        assert det_continuity_check(A, np.zeros((4, 4)))
        # direct determinant corroboration of the bound
        lhs = abs(np.linalg.det(np.eye(4) + A) - 1.0)
        rhs = trace_norm(A) * np.exp(1 + trace_norm(A))
        assert lhs <= rhs


def test_det_continuity_hankel_complexification_pairs():
    rng = np.random.default_rng(3)
    sym = geometric_symbol()
    for _ in range(30):
        n = int(rng.integers(2, 7))
        M1 = complexify(hankel_truncation(sym, n))
        M2 = M1 + 0.01 * crandn(rng, 2 * n, 2 * n)
        assert det_continuity_check(M1, M2)


def test_det_continuity_shape_mismatch():
    with pytest.raises(ValidationError):
        det_continuity_check(np.eye(2), np.eye(3))


# ------------------------------------------------------------ schatten limits

def test_truncations_are_trace_norm_cauchy():
    sym = geometric_symbol()
    diffs = []
    for n in (2, 4, 8, 16, 32):
        small = hankel_truncation(sym, n).B
        big = hankel_truncation(sym, 2 * n).B
        pad = np.zeros_like(big)
        pad[:n, :n] = small
        diffs.append(trace_norm(big - pad))
    assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))


def test_truncation_complexification_schatten_doubling():
    sym = geometric_symbol()
    for n in (2, 5, 9):
        op = hankel_truncation(sym, n)
        M = complexify(op)
        for p in (1.0, 2.0):
            sM = np.linalg.svd(M, compute_uv=False)
            sB = np.linalg.svd(op.B, compute_uv=False)
            assert abs(np.sum(sM**p) - 2 * np.sum(sB**p)) < 1e-9


# ------------------------------------------------------ antilinear spectrum

@pytest.mark.parametrize(
    "name, n",
    [
        ("geometric", 4),
        ("geometric", 8),
        ("geometric", 16),
        ("polynomial", 4),
        ("polynomial", 8),
        ("polynomial", 16),
    ],
)
def test_hankel_spectrum_lies_on_singular_value_circles(name, n):
    # with C = 0 and B symmetric the spectrum is the union of |lam| = sigma_k(B)
    op = hankel_truncation(CLOSED_FORM_SYMBOLS[name](), n)
    sigma = np.linalg.svd(op.B, compute_uv=False)
    radii = np.array([p.r for p in spectrum_sweep(op, 32).points])
    assert radii.size > 0
    gaps = np.min(np.abs(radii[:, None] - sigma[None, :]), axis=1)
    assert np.max(gaps) <= 1e-12 * sigma[0]
