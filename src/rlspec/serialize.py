"""Wire formats: operator/symbol/report JSON, spectrum and table CSV, scatter SVG.

All floats are written with 17 significant digits in lowercase scientific
notation, and every container is emitted in a fixed order, so identical
inputs produce byte-identical files at a fixed BLAS thread count.  A JSON
list whose items are all Python floats is written with one ``%.16e``
template for the whole list, as a CSV row is.  Files are written by
``write_text``, which overwrites in place and cuts the file to length; the
package never fsyncs an output.
"""

from __future__ import annotations

import json
import os
import stat

import numpy as np

from .charpoly import CoeffMatrix, SosDecomposition
from .errors import ValidationError
from .numfun import NumFunReport
from .operators import RealLinearOperator
from .spectrum import SpectrumCloud
from .traceclass import CharFunTable, DecaySpec, SymbolSeries

__all__ = [
    "fmt_float",
    "dump_json",
    "read_json",
    "write_text",
    "operator_to_dict",
    "operator_from_dict",
    "load_operator",
    "coeff_to_dict",
    "coeff_from_dict",
    "sos_to_dict",
    "symbol_to_dict",
    "symbol_from_dict",
    "load_symbol",
    "report_to_dict",
    "spectrum_csv",
    "ray_minima_csv",
    "charfun_csv",
    "spectrum_svg",
]


def fmt_float(x: float) -> str:
    """17 significant digits, lowercase scientific; round-trips exactly."""
    return format(float(x), ".16e")


def dump_json(obj) -> str:
    """Deterministic JSON with the package's float convention."""
    pieces: list[str] = []
    _emit(obj, pieces)
    return "".join(pieces) + "\n"


def _emit(obj, out: list[str]) -> None:
    if isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(k))
            out.append(": ")
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        if set(map(type, obj)) <= {float}:
            out.append("[" + ", ".join(["%.16e"] * len(obj)) % tuple(obj) + "]")
            return
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _emit(v, out)
        out.append("]")
    elif isinstance(obj, bool) or obj is None:
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(fmt_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise ValidationError(f"cannot serialize value of type {type(obj).__name__}")


def read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def write_text(path: str, content: str) -> None:
    """Write ``content`` as UTF-8 to ``path``, overwriting it in place.

    The bytes are encoded before the file is opened, so content that cannot
    be encoded leaves an existing file untouched.  The file is opened without
    ``O_TRUNC`` and, if it is a regular file, cut to the written length
    afterwards: on ext4 with ``auto_da_alloc`` (the default), truncating a
    file with data to zero bytes makes its close start a writeback, which
    ``open(path, "w")`` paid on every overwrite.  Pipes and devices such as
    ``/dev/null`` are written and not truncated.  A failed write truncates
    the file to zero bytes before the error propagates, so old bytes never
    trail new ones.  Nothing is fsynced, before or after the write: a crash
    can lose or empty the file, as with ``open(path, "w")``.
    """
    data = content.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if regular:
                os.ftruncate(fd, len(data))
        except BaseException:
            if regular:
                os.ftruncate(fd, 0)
            raise
    finally:
        os.close(fd)


def _mat_rows(M: np.ndarray, part: str) -> list[list[float]]:
    return (M.real if part == "re" else M.imag).tolist()


def _mat_from(d: dict, key_re: str, key_im: str, shape: tuple, what: str) -> np.ndarray:
    try:
        re = np.asarray(d[key_re], dtype=float)
        im = np.asarray(d[key_im], dtype=float)
    except KeyError as exc:
        raise ValidationError(f"{what}: missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what}: fields {key_re}/{key_im} are not numeric arrays") from exc
    if re.shape != shape or im.shape != shape:
        raise ValidationError(
            f"{what}: {key_re}/{key_im} must have shape {shape}, got {re.shape} and {im.shape}"
        )
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValidationError(f"{what}: {key_re}/{key_im} must be finite, not NaN or infinity")
    return re + 1j * im


def operator_to_dict(R: RealLinearOperator) -> dict:
    return {
        "n": R.n,
        "C_re": _mat_rows(R.C, "re"),
        "C_im": _mat_rows(R.C, "im"),
        "B_re": _mat_rows(R.B, "re"),
        "B_im": _mat_rows(R.B, "im"),
    }


def operator_from_dict(d: dict) -> RealLinearOperator:
    if not isinstance(d, dict):
        raise ValidationError("operator JSON must be an object")
    try:
        n = int(d["n"])
    except (KeyError, TypeError, ValueError):
        raise ValidationError("operator JSON: field 'n' must be a positive integer")
    if n < 1:
        raise ValidationError(f"operator JSON: dimension must be >= 1, got {n}")
    C = _mat_from(d, "C_re", "C_im", (n, n), "operator JSON")
    B = _mat_from(d, "B_re", "B_im", (n, n), "operator JSON")
    return RealLinearOperator(C, B)


def load_operator(path: str) -> RealLinearOperator:
    return operator_from_dict(read_json(path))


def coeff_to_dict(cm: CoeffMatrix) -> dict:
    return {
        "n": cm.n,
        "H_re": _mat_rows(cm.H, "re"),
        "H_im": _mat_rows(cm.H, "im"),
        "asymmetry": cm.asymmetry,
        "norm": cm.norm,
    }


def coeff_from_dict(d: dict) -> CoeffMatrix:
    if not isinstance(d, dict):
        raise ValidationError("coefficient JSON must be an object")
    try:
        n, norm, asymmetry = int(d["n"]), float(d["norm"]), float(d.get("asymmetry", 0.0))
    except (KeyError, TypeError, ValueError):
        raise ValidationError("coefficient JSON: 'n' must be an integer, 'norm' and 'asymmetry' numbers")
    H = _mat_from(d, "H_re", "H_im", (n + 1, n + 1), "coefficient JSON")
    return CoeffMatrix(n=n, H=H, norm=norm, asymmetry=asymmetry)


def sos_to_dict(sos: SosDecomposition) -> dict:
    return {
        "d": sos.d.tolist(),
        "U_re": _mat_rows(sos.U, "re"),
        "U_im": _mat_rows(sos.U, "im"),
        "kind": sos.kind,
    }


def symbol_to_dict(sym: SymbolSeries) -> dict:
    coeffs = sym.coeffs if sym.coeffs is not None else np.zeros(0)
    return {
        "kind": sym.kind,
        "coeffs_re": coeffs.real.tolist(),
        "coeffs_im": coeffs.imag.tolist(),
        "m": sym.m,
        "decay": {"tag": sym.decay.tag, "param": sym.decay.param},
    }


def symbol_from_dict(d: dict) -> SymbolSeries:
    if not isinstance(d, dict):
        raise ValidationError("symbol JSON must be an object")
    kind = d.get("kind")
    decay_d = d.get("decay", {"tag": "finite", "param": None})
    if not isinstance(decay_d, dict) or "tag" not in decay_d:
        raise ValidationError("symbol JSON: field 'decay' must be an object with a 'tag'")
    param = decay_d.get("param")
    decay = DecaySpec(tag=decay_d["tag"], param=None if param is None else float(param))
    if kind == "circle-hankel":
        re = np.asarray(d.get("coeffs_re", []), dtype=float)
        im = np.asarray(d.get("coeffs_im", []), dtype=float)
        if re.shape != im.shape or re.ndim != 1:
            raise ValidationError("symbol JSON: coeffs_re/coeffs_im must be equal-length lists")
        return SymbolSeries(kind=kind, coeffs=re + 1j * im, decay=decay)
    if kind == "disk-monomial":
        m = d.get("m")
        if m is None:
            raise ValidationError("symbol JSON: disk-monomial requires field 'm'")
        return SymbolSeries(kind=kind, m=int(m), decay=decay)
    raise ValidationError(f"symbol JSON: unknown kind {kind!r}")


def load_symbol(path: str) -> SymbolSeries:
    return symbol_from_dict(read_json(path))


def report_to_dict(rep: NumFunReport) -> dict:
    return {
        "f0": rep.f0,
        "f_inf": rep.f_inf,
        "range_est": [rep.range_est[0], rep.range_est[1]],
        "fov": [rep.fov[0], rep.fov[1]],
        "uncovered_low": rep.uncovered_low,
        "uncovered_high": rep.uncovered_high,
        "grid": {"n_rays": rep.n_rays, "max_critical_radius": rep.max_critical_radius},
    }


def _csv(header: str, rows) -> str:
    """``header``, then one line per row of floats, each written as ``fmt_float`` writes it."""
    template = ",".join(["%.16e"] * (header.count(",") + 1))
    return "\n".join([header] + [template % tuple(row) for row in rows]) + "\n"


def spectrum_csv(cloud: SpectrumCloud) -> str:
    rows = [(p.theta, p.r, p.lam.real, p.lam.imag, p.residual) for p in cloud.points]
    return _csv("theta,r,re,im,residual", rows)


def ray_minima_csv(rows) -> str:
    """Rows of (theta, radius of the ray minimum, minimal value)."""
    return _csv("theta,r_min_F,F_min", rows)


def charfun_csv(table: CharFunTable) -> str:
    header = ",".join(["lambda_re", "lambda_im"] + [f"n{n}" for n in table.n_list])
    lam = table.lambdas
    return _csv(header, np.column_stack((lam.real, lam.imag, table.values.T)).tolist())


def spectrum_svg(cloud: SpectrumCloud, bounding_radius: float, size: int = 640) -> str:
    """Scatter of spectral points with the |lambda| = ||R|| bounding circle."""
    half = size / 2.0
    rmax = max(bounding_radius, max((p.r for p in cloud.points), default=0.0), 1e-12)
    scl = 0.45 * size / rmax

    def x(v: float) -> str:
        return f"{half + scl * v:.2f}"

    def y(v: float) -> str:
        return f"{half - scl * v:.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<line x1="0" y1="{half:.2f}" x2="{size}" y2="{half:.2f}" stroke="#cccccc"/>',
        f'<line x1="{half:.2f}" y1="0" x2="{half:.2f}" y2="{size}" stroke="#cccccc"/>',
        f'<circle cx="{half:.2f}" cy="{half:.2f}" r="{scl * bounding_radius:.2f}" '
        f'fill="none" stroke="#888888" stroke-dasharray="4 4"/>',
    ]
    for p in cloud.points:
        parts.append(
            f'<circle cx="{x(p.lam.real)}" cy="{y(p.lam.imag)}" r="2.5" fill="#c0392b"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
