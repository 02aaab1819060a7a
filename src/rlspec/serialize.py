"""Wire formats: operator/symbol/report JSON, spectrum and table CSV, scatter SVG.

Operator and symbol JSON are read back; every other format is output only.

All floats are written with 17 significant digits in lowercase scientific
notation, and every container is emitted in a fixed order, so identical
inputs produce byte-identical files at a fixed BLAS thread count.  One
recursion, ``_json``, writes every JSON value: a Python float is tested for
first, a list of them takes one ``%.16e`` template, as a CSV row does, and
keys and strings go to ``json.encoder.encode_basestring_ascii``, as in
``json.dumps``.  Input files are read unbuffered.  One reader, ``_field``, reads
every field of an input document, and a field that is missing or malformed
(2.5 for an integer, text or a boolean for a number or an array entry, an
array that numpy does not read as numbers) is a ``ValidationError`` naming it.
Files are written by ``write_text``, which overwrites in place and cuts the
file to length; the package never fsyncs an output.
"""

from __future__ import annotations

import itertools
import json
import os
import stat
from json.encoder import encode_basestring_ascii as _string

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
    return _json(obj) + "\n"


def _json(obj) -> str:
    if type(obj) is float:
        return "%.16e" % obj
    if isinstance(obj, (list, tuple)):
        if set(map(type, obj)) <= {float}:
            return "[" + ", ".join(["%.16e"] * len(obj)) % tuple(obj) + "]"
        return "[" + ", ".join(map(_json, obj)) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join([_string(k) + ": " + _json(v) for k, v in obj.items()]) + "}"
    if isinstance(obj, str):
        return _string(obj)
    if isinstance(obj, bool) or obj is None:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(obj)
    raise ValidationError(f"cannot serialize value of type {type(obj).__name__}")


def read_json(path: str) -> dict:
    try:
        with open(path, "rb", buffering=0) as fh:
            return json.loads(fh.readall().decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: byte {exc.start}: not UTF-8 ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal beyond Python's digit limit
        raise ValidationError(f"{path}: {exc}") from exc
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


def _field(d: dict, key: str, convert, what: str):
    """``convert(d[key])``; a missing field or a value ``convert`` refuses is a ValidationError."""
    if not isinstance(d, dict):
        raise ValidationError(f"{what} must be an object")
    if key not in d:
        raise ValidationError(f"{what}: missing field {key!r}")
    try:
        return convert(d[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what}: field {key!r}: {exc}") from exc


def _number(x) -> float:
    """``float(x)`` of a JSON number: text and booleans, which ``float`` reads, are refused."""
    if isinstance(x, (bool, str)):
        raise TypeError(f"must be a number, got {x!r}")
    return float(x)


def _integer(x, low: int = 0) -> int:
    """``x`` when it is an integral number ``>= low``: 2.0 passes, 2.5, "2" and true do not."""
    if isinstance(x, (bool, str)) or int(x) != x or x < low:
        raise ValueError(f"must be an integer >= {low}, got {x!r}")
    return int(x)


def _floats(x) -> np.ndarray:
    """``x`` read by numpy in one conversion, refused unless it holds integers and floats only."""
    a = np.asarray(x)
    if a.dtype.kind not in "iuf":
        raise TypeError(f"must hold numbers only, got an array of dtype {a.dtype}")
    # numpy reads a boolean among numbers as 0 or 1
    flat = [x]
    for _ in range(a.ndim):
        flat = itertools.chain.from_iterable(flat)
    if bool in map(type, flat):
        raise TypeError("must hold numbers only, got a boolean")
    return a.astype(float, copy=False)


def _dimension(x) -> int:
    """``_integer(x, low=1)`` below 2**63, numpy's bound; a larger n is named by its bits, not quoted in full."""
    if type(x) in (int, float) and abs(x) >= 1 << 63:
        raise ValueError(f"must be an integer below 2**63, got a number of {int(x).bit_length()} bits")
    return _integer(x, low=1)


def _mat_from(d: dict, name: str, shape: tuple, what: str) -> np.ndarray:
    re, im = _field(d, name + "_re", _floats, what), _field(d, name + "_im", _floats, what)
    if re.shape != shape or im.shape != shape:
        raise ValidationError(
            f"{what}: {name}_re/{name}_im must have shape {shape}, got {re.shape} and {im.shape}"
        )
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValidationError(f"{what}: {name}_re/{name}_im must be finite, not NaN or infinity")
    return re + 1j * im


def operator_to_dict(R: RealLinearOperator) -> dict:
    return {
        "n": R.n,
        "C_re": R.C.real.tolist(),
        "C_im": R.C.imag.tolist(),
        "B_re": R.B.real.tolist(),
        "B_im": R.B.imag.tolist(),
    }


def operator_from_dict(d: dict) -> RealLinearOperator:
    what = "operator JSON"
    n = _field(d, "n", _dimension, what)
    return RealLinearOperator(_mat_from(d, "C", (n, n), what), _mat_from(d, "B", (n, n), what))


def load_operator(path: str) -> RealLinearOperator:
    return operator_from_dict(read_json(path))


def coeff_to_dict(cm: CoeffMatrix) -> dict:
    return {
        "n": cm.n,
        "H_re": cm.H.real.tolist(),
        "H_im": cm.H.imag.tolist(),
        "asymmetry": cm.asymmetry,
        "norm": cm.norm,
    }


def sos_to_dict(sos: SosDecomposition) -> dict:
    return {
        "d": sos.d.tolist(),
        "U_re": sos.U.real.tolist(),
        "U_im": sos.U.imag.tolist(),
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
    what = "symbol JSON"
    kind = _field(d, "kind", str, what)
    decay_d = _field({"decay": {"tag": "finite"}, **d}, "decay", dict, what)
    param = _field({"param": None, **decay_d}, "param", lambda p: p if p is None else _number(p), what)
    decay = DecaySpec(tag=_field(decay_d, "tag", str, what), param=param)
    if kind == "circle-hankel":
        size = _field(d, "coeffs_re", len, what)
        coeffs = _mat_from(d, "coeffs", (size,), what)
        return SymbolSeries(kind=kind, coeffs=coeffs, m=d.get("m"), decay=decay)
    if kind == "disk-monomial":
        m = _field(d, "m", _integer, what)
        coeffs = [v for k in ("coeffs_re", "coeffs_im") if (v := d.get(k, [])) != []] or None
        return SymbolSeries(kind=kind, coeffs=coeffs, m=m, decay=decay)
    raise ValidationError(f"{what}: unknown kind {kind!r}")


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


def spectrum_svg(cloud: SpectrumCloud) -> str:
    """640 x 640 scatter of spectral points with the |lambda| = ``cloud.norm`` bounding circle."""
    size, half = 640, 320.0
    rmax = max(cloud.norm, max((p.r for p in cloud.points), default=0.0), 1e-12)
    scl = 0.45 * size / rmax
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<line x1="0" y1="{half:.2f}" x2="{size}" y2="{half:.2f}" stroke="#cccccc"/>',
        f'<line x1="{half:.2f}" y1="0" x2="{half:.2f}" y2="{size}" stroke="#cccccc"/>',
        f'<circle cx="{half:.2f}" cy="{half:.2f}" r="{scl * cloud.norm:.2f}" '
        f'fill="none" stroke="#888888" stroke-dasharray="4 4"/>',
    ]
    parts += [f'<circle cx="{half + scl * p.lam.real:.2f}" cy="{half - scl * p.lam.imag:.2f}" '
              f'r="2.5" fill="#c0392b"/>' for p in cloud.points]
    return "\n".join(parts + ["</svg>"]) + "\n"
