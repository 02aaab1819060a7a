"""Oracle checks on CLI outputs, computed independently of the package.

Each check reads what one op wrote and returns a list of mismatch
descriptions; an empty list means the output is correct.  The checks use
their own numpy code, never the package's, and run outside the timed region.
Tolerances are relative to the scale of the value tested.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

# The tracer rebinds numpy.linalg functions during traced rounds; the oracles
# keep the originals so that their work is never counted against the package.
_cholesky = np.linalg.cholesky
_eigvals = np.linalg.eigvals
_eigvalsh = np.linalg.eigvalsh
_slogdet = np.linalg.slogdet
_svd = np.linalg.svd

# Relative tolerance for a value of p against its scale (the sum of
# |H_ij| |lam|^(i+j) for v*Hv, the Hadamard bound of the determinant for a
# zero of p).  The CLI itself validates H to 1e-6 of a looser scale.
REL_TOL = 1e-6
# Characteristic-function values against the closed form prod(1 - mu_k/|lam|^2).
CHARFUN_TOL = 1e-8


def realify(C: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Real 2n x 2n matrix of ``z -> Cz + B conj(z)`` on (Re z, Im z)."""
    P, Q = C + B, C - B
    return np.block([[P.real, -Q.imag], [P.imag, Q.real]])


def _shifted(C: np.ndarray, B: np.ndarray, lam: complex) -> np.ndarray:
    n = C.shape[0]
    eye = np.eye(n)
    return np.block([[C - lam * eye, B], [B.conj(), C.conj() - np.conj(lam) * eye]])


def charpoly(C: np.ndarray, B: np.ndarray, lam: complex) -> tuple[float, float]:
    """``p(lam, conj(lam))`` and the log of its Hadamard bound."""
    M = _shifted(C, B, lam)
    sign, logabs = _slogdet(M)
    p = float((sign * math.exp(logabs)).real) if logabs > -math.inf else 0.0
    return p, float(np.sum(np.log(np.linalg.norm(M, axis=1))))


def _is_relative_zero(C, B, lam: complex) -> bool:
    p, log_scale = charpoly(C, B, lam)
    return p == 0.0 or math.log(abs(p)) <= math.log(REL_TOL) + log_scale


def _load_H(text: str) -> np.ndarray:
    d = json.loads(text)
    return np.asarray(d["H_re"]) + 1j * np.asarray(d["H_im"])


def _rebuild_error(U: np.ndarray, d: np.ndarray, H: np.ndarray) -> float:
    """Relative distance of ``sum_i d_i conj(U_i)^T U_i`` from H."""
    G = (U.conj().T * d) @ U
    return float(np.max(np.abs(G - H)) / max(np.max(np.abs(H)), 1e-300))


def _coneigen_squares(B: np.ndarray) -> np.ndarray:
    """``mu = eig(conj(B) B)``: squared coneigenvalues of B."""
    return _eigvals(B.conj() @ B)


def check_charpoly(data: dict, stdout: str, files: dict) -> list[str]:
    """v*Hv against the determinant off the CLI's grid; eigen SOS rows rebuild H."""
    C, B = data["C"], data["B"]
    H = _load_H(files[data["H"]])
    n = C.shape[0]
    s = 1.0 + float(_svd(realify(C, B), compute_uv=False)[0])
    bad = []
    powers = np.arange(n + 1)
    for rho in (0.3, 0.8, 1.3):
        for k in range(5):
            lam = rho * s * np.exp(1j * (0.2345 + 2 * math.pi * k / 5))
            v = lam ** powers
            got = float((v.conj() @ H @ v).real)
            scale = float(np.abs(v).conj() @ np.abs(H) @ np.abs(v))
            ref, _ = charpoly(C, B, lam)
            if abs(got - ref) > REL_TOL * scale:
                bad.append(f"v*Hv off by {abs(got - ref) / scale:.2e} of scale at lam={lam:.3g}")
    sos = json.loads(files[data["sos"]])
    U = np.asarray(sos["U_re"]) + 1j * np.asarray(sos["U_im"])
    err = _rebuild_error(U, np.asarray(sos["d"]), H)
    if err > REL_TOL:
        bad.append(f"eigen SOS rows rebuild H only to {err:.2e}")
    return bad


def check_info(data: dict, stdout: str, files: dict) -> list[str]:
    """An `empty` verdict's Cholesky rows rebuild H; a real-axis zero is a zero of p(r, r)."""
    rep = json.loads(stdout)
    C, B = data["C"], data["B"]
    bad = []
    if rep["classification"].startswith("positive definite"):
        text = files.get(data["H"])
        if text is None:
            return ["`empty` verdict, but charpoly wrote no H for this operator"]
        H = _load_H(text)
        # The CLI does not print the certificate's rows, so they are rebuilt
        # here the way cholesky_sos defines them: reverse, factor, reverse.
        try:
            L = _cholesky(H[::-1, ::-1])
        except np.linalg.LinAlgError:
            return ["`empty` verdict, but H has no Cholesky factor"]
        U = L.conj().T[::-1, ::-1]
        err = _rebuild_error(U, np.ones(H.shape[0]), H)
        if err > REL_TOL:
            bad.append(f"Cholesky rows rebuild H only to {err:.2e}")
        if min(rep["h_eigenvalues"]) <= 0.0:
            bad.append("`empty` verdict with a nonpositive H eigenvalue")
    r = rep["real_axis_zero"]
    if r is not None and not _is_relative_zero(C, B, r):
        bad.append(f"real_axis_zero r={r:.6g} is not a zero of p(r, r)")
    return bad


def check_spectrum(data: dict, stdout: str, files: dict) -> list[str]:
    """Every point is a relative zero of p; antilinear radii are coneigenvalues."""
    C, B = data["C"], data["B"]
    rows = list(csv.DictReader(io.StringIO(files[data["out"]])))
    bad = []
    circles = None
    if not np.any(C):
        mu = _coneigen_squares(B)
        keep = np.abs(mu.imag) <= 1e-8 * (1.0 + np.abs(mu))
        circles = np.sqrt(np.maximum(mu.real[keep], 0.0))
    for row in rows:
        lam = complex(float(row["re"]), float(row["im"]))
        if not _is_relative_zero(C, B, lam):
            bad.append(f"point {lam:.6g} is not a zero of p")
        if circles is not None:
            r = abs(lam)
            gap = float(np.min(np.abs(circles - r))) if circles.size else math.inf
            if gap > REL_TOL * (1.0 + r):
                bad.append(f"antilinear point |lam|={r:.6g} matches no sqrt(mu)")
    return bad[:5]


def check_numfun(data: dict, stdout: str, files: dict) -> list[str]:
    """The range lies within the field of values, f(inf) = 1, f(0) = det."""
    rep = json.loads(files[data["out"]])
    lo, hi = rep["range_est"]
    flo, fhi = rep["fov"]
    tol = 1e-9 * max(1.0, abs(flo), abs(fhi))
    bad = []
    if lo < flo - tol or hi > fhi + tol:
        bad.append(f"range [{lo:.6g}, {hi:.6g}] leaves the fov [{flo:.6g}, {fhi:.6g}]")
    if abs(rep["f_inf"] - 1.0) > tol:
        bad.append(f"f_inf = {rep['f_inf']!r}, expected 1")
    p0, log_scale = charpoly(data["C"], data["B"], 0.0)
    if abs(rep["f0"] - p0) > REL_TOL * math.exp(log_scale):
        bad.append(f"f0 = {rep['f0']:.6g} but det = {p0:.6g}")
    return bad


def _truncation_B(data: dict, n: int) -> np.ndarray:
    if "coeffs" in data:
        return data["coeffs"][np.add.outer(np.arange(n), np.arange(n))]
    k = np.arange(n)
    B = np.sqrt(np.outer(k + 1.0, k + 1.0)) / (data["m"] + 1.0)
    return np.where(np.add.outer(k, k) == data["m"], B, 0.0)


def check_charfun(data: dict, stdout: str, files: dict) -> list[str]:
    """Each value matches prod(1 - mu_k/|lam|^2), mu = eig(conj(B) B), for every size."""
    rows = list(csv.reader(io.StringIO(files[data["out"]])))
    header, body = rows[0], rows[1:]
    sizes = [int(h[1:]) for h in header[2:]]
    expected = [2**k for k in range(data["nmax"].bit_length()) if 2**k <= data["nmax"]]
    if expected[-1] != data["nmax"]:
        expected.append(data["nmax"])
    if sizes != expected or len(body) != 48:
        return [f"table has sizes {sizes} and {len(body)} grid points"]
    lam = np.array([complex(float(r[0]), float(r[1])) for r in body])
    vals = np.array([[float(x) for x in r[2:]] for r in body])
    bad = []
    for j, n in enumerate(sizes):
        ratio = _coneigen_squares(_truncation_B(data, n))[None, :] / np.abs(lam[:, None]) ** 2
        ref = np.prod(1.0 - ratio, axis=1).real
        scale = np.prod(1.0 + np.abs(ratio), axis=1)
        worst = float(np.max(np.abs(vals[:, j] - ref) / scale))
        if worst > CHARFUN_TOL:
            bad.append(f"n={n}: value off the closed form by {worst:.2e} of scale")
    return bad


CHECKS = {
    "charpoly": check_charpoly,
    "info": check_info,
    "spectrum": check_spectrum,
    "numfun": check_numfun,
    "charfun": check_charfun,
}
