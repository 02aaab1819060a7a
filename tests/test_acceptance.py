"""Acceptance suite.

Each test prints one [PASS]/[FAIL] line (run with ``pytest -s`` to see them
live) and enforces its stated tolerance and runtime budget.
"""

import time

import numpy as np

from randops import crandn, op_maxdiff, random_antilinear, random_operator
from rlspec import (
    DecaySpec,
    adjoint,
    RealLinearOperator,
    SymbolSeries,
    charfun_convergence,
    charfun_eval,
    charpoly_eval,
    coeff_matrix,
    common_invariant_1d,
    complexify,
    compose,
    conjugation,
    det_continuity_check,
    emptiness_certificates,
    hankel_truncation,
    krylov_cspan,
    no_eigenvalue_certificate,
    operator_norm,
    poly_apply,
    range_and_coverage,
    numfun_eval,
    ray_spectrum,
    sos_eval,
    sos_decompose,
    rotate,
    scalar_operator,
    spectrum_sweep,
)
from rlspec.charpoly import _real_slogdets


def _report(criterion, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail} ({elapsed:.2f}s < {budget:.0f}s)")
    assert ok, f"criterion {criterion}: {detail}"
    assert elapsed < budget, f"criterion {criterion}: runtime {elapsed:.2f}s over budget {budget}s"


def eps_operator(eps):
    a = np.sqrt((1 + eps) / 2)
    b = np.sqrt((1 - eps) / 2)
    return RealLinearOperator(np.zeros((2, 2)), [[a, b], [-b, a]])


def test_criterion_1_eps_example_reproduction():
    t0 = time.perf_counter()
    worst_h = 0.0
    worst_p = 0.0
    for eps in (0.25, 0.5, 0.9):
        R = eps_operator(eps)
        H = coeff_matrix(R).H
        worst_h = max(worst_h, float(np.max(np.abs(H - np.diag([1.0, -2 * eps, 1.0])))))
        rng = np.random.default_rng(100)
        for _ in range(100):
            lam = complex(2 * crandn(rng))
            ref = abs(lam) ** 4 - 2 * eps * abs(lam) ** 2 + 1
            worst_p = max(worst_p, abs(charpoly_eval(R, lam) - ref) / (1 + abs(ref)))
    ok = worst_h <= 1e-9 and worst_p <= 1e-9
    _report(1, ok, f"H error {worst_h:.2e} <= 1e-9, charpoly rel error {worst_p:.2e} <= 1e-9",
            time.perf_counter() - t0, 1.0)


def test_criterion_2_scalar_coefficients():
    t0 = time.perf_counter()
    rng = np.random.default_rng(200)
    worst = 0.0
    for _ in range(50):
        al, be = complex(crandn(rng)), complex(crandn(rng))
        H = coeff_matrix(scalar_operator(al, be)).H
        ref = np.array([[abs(al) ** 2 - abs(be) ** 2, -np.conj(al)], [-al, 1.0]])
        worst = max(worst, float(np.max(np.abs(H - ref))))
    _report(2, worst <= 1e-10, f"scalar coefficient error {worst:.2e} <= 1e-10",
            time.perf_counter() - t0, 1.0)


def _charpoly_values(R, lams):
    """``charpoly_eval`` at every point of ``lams``, from one batched slogdet."""
    sign, logabs = _real_slogdets(R, lams)
    return sign * np.exp(logabs)


def test_criterion_3_structural_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(300)
    worst = {
        "hermitian": 0.0, "leading": 0.0, "det": 0.0, "oracle": 0.0,
        "sos": 0.0, "adjoint": 0.0, "rotation": 0.0,
    }
    sos_lams = np.array(
        [r * np.exp(1j * th) for r in (0.0, 0.5, 1.0, 1.6) for th in (0.1, 1.9, 3.7, 5.3)]
    )
    rot_thetas = 2 * np.pi * np.arange(16) / 16
    rot_radii = np.linspace(0.0, 1.2, 5)
    rot_lams = np.array([r * np.exp(1j * th) for th in rot_thetas for r in rot_radii])
    for _ in range(500):
        n = int(rng.integers(1, 7))
        R = random_operator(rng, n)
        cm = coeff_matrix(R)
        worst["hermitian"] = max(worst["hermitian"], cm.asymmetry)
        worst["leading"] = max(worst["leading"], abs(cm.H[n, n] - 1.0))
        # p(0), the 16 SOS points and the 80 rotation points of R: one batched slogdet
        p = _charpoly_values(R, np.concatenate(([0.0], sos_lams, rot_lams)))
        worst["det"] = max(worst["det"], abs(cm.H[0, 0].real - p[0]))
        Hx = coeff_matrix(R, mode="exact", validate=False).H
        worst["oracle"] = max(worst["oracle"], float(np.max(np.abs(cm.H - Hx))))
        sos = sos_decompose(cm)
        for lam, p_lam in zip(sos_lams, p[1:17]):
            err = abs(sos_eval(sos, lam) - p_lam)
            worst["sos"] = max(worst["sos"], err / (1 + abs(lam) ** (2 * n)))
        Hadj = coeff_matrix(adjoint(R)).H
        worst["adjoint"] = max(worst["adjoint"], float(np.max(np.abs(Hadj - cm.H.conj()))))
        for th, p_line in zip(rot_thetas, p[17:].reshape(16, 5)):
            p_rot = _charpoly_values(rotate(R, th), rot_radii)
            worst["rotation"] = max(worst["rotation"], float(np.max(np.abs(p_line - p_rot))))
    ok = (
        worst["hermitian"] <= 1e-9
        and worst["leading"] <= 1e-9
        and worst["det"] <= 1e-8
        and worst["oracle"] <= 1e-8
        and worst["sos"] <= 1e-8
        and worst["adjoint"] <= 1e-9
        and worst["rotation"] <= 1e-10
    )
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    _report(3, ok, f"500 operators, n <= 6: {detail}", time.perf_counter() - t0, 60.0)


def _hausdorff(A, B):
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    d1 = max(float(np.min(np.abs(B - a))) for a in A) if len(A) else 0.0
    d2 = max(float(np.min(np.abs(A - b))) for b in B) if len(B) else 0.0
    return max(d1, d2)


def test_criterion_4_spectrum_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(400)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        C = crandn(rng, n, n) / (2 * np.sqrt(2 * n))
        R = RealLinearOperator(C, np.zeros((n, n)))
        eigs = np.linalg.eigvals(C)
        cloud = spectrum_sweep(R, thetas=[float(np.angle(e)) for e in eigs])
        worst = max(worst, _hausdorff(cloud.lambdas(), eigs))
    tau_cloud = spectrum_sweep(conjugation(1), 64)
    tau_err = max(abs(p.r - 1.0) for p in tau_cloud.points)
    ok = worst <= 1e-8 and tau_err <= 1e-10 and len(tau_cloud.points) == 64
    _report(4, ok, f"complex-linear Hausdorff {worst:.2e} <= 1e-8, circle r-error {tau_err:.2e} <= 1e-10",
            time.perf_counter() - t0, 30.0)


def test_criterion_5_certificates():
    t0 = time.perf_counter()
    skew = RealLinearOperator(np.zeros((2, 2)), [[0.0, 1.0], [-1.0, 0.0]])
    cert = emptiness_certificates(skew)
    sos_ok = (
        cert.pd_certificate is not None
        and cert.pd_certificate.kind == "cholesky"
        # exact degrees 0..n: zeros above a positive real diagonal
        and np.all(np.triu(cert.pd_certificate.U, 1) == 0.0)
        and np.all(np.diag(cert.pd_certificate.U).real > 0.0)
        and np.all(np.diag(cert.pd_certificate.U).imag == 0.0)
        and abs(sos_eval(cert.pd_certificate, 0.7j) - charpoly_eval(skew, 0.7j)) < 1e-10
    )
    noeig = no_eigenvalue_certificate(skew)
    margin_ok = noeig.certified and abs(noeig.margin - 1.0) < 1e-12
    tau_cert = emptiness_certificates(conjugation(1))
    tau_ok = (
        tau_cert.det_complexification == -1.0
        and tau_cert.real_axis_zero is not None
        and abs(tau_cert.real_axis_zero - 1.0) <= 1e-9
    )
    ok = sos_ok and margin_ok and tau_ok
    _report(5, ok,
            f"skew: cholesky + margin {noeig.margin:.6f}; conjugation: zero at r="
            f"{tau_cert.real_axis_zero:.12f}, det {tau_cert.det_complexification:.0f}",
            time.perf_counter() - t0, 1.0)


def test_criterion_6_no_invariant_line_example():
    t0 = time.perf_counter()
    R = RealLinearOperator([[1.0, 1.0], [0.0, 1.0]], [[0.0, 0.0], [1.0, 0.0]])
    res = common_invariant_1d(R)
    _report(6, res.lines == (), f"invariant lines found: {len(res.lines)} (expected 0)",
            time.perf_counter() - t0, 1.0)


def test_criterion_7_conjugated_coefficient_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(700)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        A = random_antilinear(rng, n)
        deg = int(rng.integers(0, 5))
        coeffs = crandn(rng, deg + 1)
        lhs = compose(A, poly_apply(coeffs, A))
        rhs = compose(poly_apply(coeffs.conj(), A), A)
        worst = max(worst, op_maxdiff(lhs, rhs))
    _report(7, worst <= 1e-11, f"identity error {worst:.2e} <= 1e-11",
            time.perf_counter() - t0, 10.0)


def test_criterion_8_numerical_function():
    t0 = time.perf_counter()
    R = eps_operator(0.5)
    cm = coeff_matrix(R)
    rep = range_and_coverage(R, coeff=cm)
    range_ok = (
        abs(rep.range_est[0] - 1.0 / 3.0) <= 1e-8
        and abs(rep.range_est[1] - 1.0) <= 1e-8
        and abs(rep.fov[0] + 1.0) <= 1e-9
        and abs(rep.fov[1] - 1.0) <= 1e-9
        and abs(rep.uncovered_low - 4.0 / 3.0) <= 1e-8
    )
    origin_ok = abs(numfun_eval(R, 0.0) - charpoly_eval(R, 0.0)) <= 1e-12
    s = 1.0 + operator_norm(R)
    phases = np.exp(1j * np.linspace(0, 2 * np.pi, 8, endpoint=False))
    cfit = max(abs(numfun_eval(R, r * ph) - 1.0) * r
               for r in np.linspace(10 * s, 100 * s, 20) for ph in phases)
    tail_ok = all(
        abs(numfun_eval(R, r * ph) - 1.0) <= 1.5 * cfit / r + 1e-12
        for r in np.linspace(100 * s, 1000 * s, 20)
        for ph in phases
    )
    ok = range_ok and origin_ok and tail_ok
    _report(8, ok,
            f"range [{rep.range_est[0]:.9f}, {rep.range_est[1]:.9f}], fov "
            f"[{rep.fov[0]:.6f}, {rep.fov[1]:.6f}], uncovered_low {rep.uncovered_low:.9f}, "
            f"tail constant {cfit:.3e}",
            time.perf_counter() - t0, 5.0)


def test_criterion_9_schatten_complexification():
    t0 = time.perf_counter()
    rng = np.random.default_rng(900)
    worst_eq = 0.0
    inequality_holds = True
    for _ in range(100):
        n = int(rng.integers(1, 7))
        R = random_operator(rng, n)
        Conly = RealLinearOperator(R.C, np.zeros((n, n)))
        Aonly = RealLinearOperator(np.zeros((n, n)), R.B)
        for p in (1.0, 2.0):
            sC = np.linalg.svd(R.C, compute_uv=False)
            sB = np.linalg.svd(R.B, compute_uv=False)
            sCc = np.linalg.svd(complexify(Conly), compute_uv=False)
            sAc = np.linalg.svd(complexify(Aonly), compute_uv=False)
            sMc = np.linalg.svd(complexify(R), compute_uv=False)
            worst_eq = max(worst_eq, abs(np.sum(sCc**p) - 2 * np.sum(sC**p)))
            worst_eq = max(worst_eq, abs(np.sum(sAc**p) - 2 * np.sum(sB**p)))
            if np.sum(sMc**p) < np.sum(sC**p) + np.sum(sB**p) - 1e-12:
                inequality_holds = False
    ok = worst_eq <= 1e-9 and inequality_holds
    _report(9, ok, f"doubling error {worst_eq:.2e} <= 1e-9, mixed inequality in all trials",
            time.perf_counter() - t0, 30.0)


def test_criterion_10_trace_class_characteristic_function():
    t0 = time.perf_counter()
    c = 0.7 - 0.2j
    coeffs = np.zeros(40, dtype=complex)
    coeffs[0] = c
    rank1 = SymbolSeries.circle_hankel(coeffs)
    grid = np.array([
        r * np.exp(1j * t)
        for r in np.linspace(0.5, 3.0, 6)
        for t in np.linspace(0, 2 * np.pi, 7, endpoint=False)
    ])
    worst_rank1 = 0.0
    for n in (1, 2, 3, 4, 5, 6, 7, 8, 16):
        op = hankel_truncation(rank1, n)
        for lam in grid:
            ref = 1.0 - abs(c) ** 2 / abs(lam) ** 2
            worst_rank1 = max(worst_rank1, abs(charfun_eval(op, lam) - ref))
    # zero circle |lam| = |c| against the eigenvalue solve
    op = hankel_truncation(rank1, 4)
    worst_circle = 0.0
    for th in (0.0, 0.9, 2.2):
        hits = [abs(r) for r, _ in ray_spectrum(op, th) if abs(r) > 1e-12]
        assert hits
        worst_circle = max(worst_circle, max(abs(r - abs(c)) for r in hits))

    geo = SymbolSeries.circle_hankel(0.5 ** np.arange(140), DecaySpec("geometric", 0.5))
    table = charfun_convergence(geo, grid, [32, 64])
    geo_diff = float(table.diffs[0])

    rng = np.random.default_rng(1000)
    cont_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 7))
        M1 = complexify(hankel_truncation(geo, n))
        M2 = M1 + 0.05 * crandn(rng, 2 * n, 2 * n)
        if not det_continuity_check(M1, M2):
            cont_ok = False
    ok = worst_rank1 <= 1e-12 and worst_circle <= 1e-8 and geo_diff <= 1e-6 and cont_ok
    _report(10, ok,
            f"rank-1 error {worst_rank1:.2e} <= 1e-12, circle error {worst_circle:.2e} <= 1e-8, "
            f"sup|phi_64 - phi_32| {geo_diff:.2e} <= 1e-6, continuity 100/100",
            time.perf_counter() - t0, 60.0)


def test_krylov_invariance_residual_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1100)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        A = random_antilinear(rng, n)
        y = crandn(rng, n)
        span = krylov_cspan(A, y)
        worst = max(worst, float(np.max(span.residuals)))
    _report("krylov", worst <= 1e-10, f"200 antilinear spans, max residual {worst:.2e} <= 1e-10",
            time.perf_counter() - t0, 30.0)
