"""Wire formats and the command line front end."""

import argparse
import errno
import importlib.util
import json
import os
import sys

import numpy as np
import pytest

from exact_oracle import exact_h
from randops import op_maxdiff, random_antilinear, random_operator
from rlspec import (
    CharFunTable,
    DecaySpec,
    RealLinearOperator,
    SpectralPoint,
    SpectrumCloud,
    SymbolSeries,
    ValidationError,
    coeff_matrix,
    conjugation,
    emptiness_certificates,
    identity,
    operator_norm,
    range_and_coverage,
    ray_extrema,
    sos_decompose,
    spectrum_sweep,
)
from rlspec import serialize as ser
from rlspec.cli import _parse_grid, build_parser, main


def eps_operator(eps=0.5):
    a = np.sqrt((1 + eps) / 2)
    b = np.sqrt((1 - eps) / 2)
    return RealLinearOperator(np.zeros((2, 2)), [[a, b], [-b, a]])


def write_operator(path, R):
    ser.write_text(str(path), ser.dump_json(ser.operator_to_dict(R)))
    return str(path)


def write_symbol(path, sym):
    ser.write_text(str(path), ser.dump_json(ser.symbol_to_dict(sym)))
    return str(path)


# ------------------------------------------------------------------- formats

def test_fmt_float_round_trips():
    for x in (0.1, -1.0 / 3.0, 1e-300, 2.0**-52, np.pi, 0.0, 12345.678):
        assert float(ser.fmt_float(x)) == x
        assert "e" in ser.fmt_float(x) and "E" not in ser.fmt_float(x)


def test_operator_json_round_trip():
    rng = np.random.default_rng(1)
    R = random_operator(rng, 3)
    d = json.loads(ser.dump_json(ser.operator_to_dict(R)))
    back = ser.operator_from_dict(d)
    assert op_maxdiff(R, back) == 0.0


def test_operator_json_validation():
    with pytest.raises(ValidationError):
        ser.operator_from_dict({"n": 2})
    with pytest.raises(ValidationError):
        ser.operator_from_dict({"n": 0, "C_re": [], "C_im": [], "B_re": [], "B_im": []})
    good = ser.operator_to_dict(identity(2))
    bad = dict(good)
    bad["B_re"] = [[0.0]]
    with pytest.raises(ValidationError):
        ser.operator_from_dict(bad)


def coeff_h(d: dict) -> np.ndarray:
    """H of a coefficient document, as ``charpoly --out`` writes it."""
    return np.array(d["H_re"]) + 1j * np.array(d["H_im"])


def test_coeff_json_round_trip():
    # the written JSON holds H, asymmetry and norm to the bit
    cm = coeff_matrix(eps_operator())
    d = json.loads(ser.dump_json(ser.coeff_to_dict(cm)))
    assert d["n"] == cm.n
    assert np.max(np.abs(coeff_h(d) - cm.H)) == 0.0
    assert d["asymmetry"] == cm.asymmetry
    assert d["norm"] == cm.norm == operator_norm(eps_operator())


def test_symbol_json_round_trip_both_kinds():
    s1 = SymbolSeries.circle_hankel([1.0, 0.5 + 0.1j], DecaySpec("geometric", 0.5))
    back = ser.symbol_from_dict(json.loads(ser.dump_json(ser.symbol_to_dict(s1))))
    assert back.kind == "circle-hankel"
    assert np.allclose(back.coeffs, s1.coeffs)
    assert back.decay == s1.decay

    s2 = SymbolSeries.disk_monomial(3)
    back = ser.symbol_from_dict(json.loads(ser.dump_json(ser.symbol_to_dict(s2))))
    assert back.kind == "disk-monomial" and back.m == 3


MALFORMED_SYMBOLS = [
    ('{"kind": "disk-monomial", "m": "abc"}', "'m'"),
    ('{"kind": "disk-monomial", "m": 1e400}', "'m'"),
    ('{"kind": "disk-monomial", "m": 2.5}', "'m'"),
    ('{"kind": "circle-hankel", "coeffs_re": ["x"], "coeffs_im": [0.0]}', "'coeffs_re'"),
    ('{"kind": "circle-hankel", "coeffs_re": [0.5], "coeffs_im": [0.0], '
     '"decay": {"tag": "geometric", "param": "half"}}', "'param'"),
    ('{"kind": "circle-hankel", "coeffs_re": [0.5], "coeffs_im": [0.0], '
     '"decay": {"tag": "geometric", "param": [0.5]}}', "'param'"),
    # JSON text and booleans that int(), float() or np.asarray(dtype=float) read
    ('{"kind": "disk-monomial", "m": true}', "'m'"),
    ('{"kind": "circle-hankel", "coeffs_re": [0.5], "coeffs_im": [0.0], '
     '"decay": {"tag": "geometric", "param": "0.5"}}', "'param'"),
    ('{"kind": "circle-hankel", "coeffs_re": ["0.5"], "coeffs_im": [0.0]}', "'coeffs_re'"),
    # a disk monomial takes no coefficients, falsy ones included
    ('{"kind": "disk-monomial", "m": 1, "coeffs_re": 0}', "'coeffs'"),
    ('{"kind": "disk-monomial", "m": 1, "coeffs_im": {}}', "'coeffs'"),
    # numpy reads a boolean among numbers as 0 or 1
    ('{"kind": "circle-hankel", "coeffs_re": [0.5, 0.25], "coeffs_im": [false, 0.0]}', "'coeffs_im'"),
    # integers that numpy cannot convert or size an array of, and the bound + 1
    ('{"kind": "disk-monomial", "m": 100000000000000000000}', "'m'"),
    pytest.param('{"kind": "disk-monomial", "m": 1%s}' % ("0" * 400), "'m'", id="m-10**400"),
    ('{"kind": "disk-monomial", "m": 16777217}', "'m'"),
]


@pytest.mark.parametrize("re, im", [([0.5, 0.25], [0.0]), (0.5, 0.0), ([[0.5]], [[0.0]]),
                                   ([0.5], [float("inf")]), ([float("-inf")], [0.0])])
def test_symbol_coefficients_must_be_equal_length_finite_lists(re, im):
    # an infinite imaginary part used to reach re + 1j * im, an invalid multiply
    with pytest.raises(ValidationError, match="coeffs_re"):
        ser.symbol_from_dict({"kind": "circle-hankel", "coeffs_re": re, "coeffs_im": im})


@pytest.mark.parametrize("text, field", MALFORMED_SYMBOLS)
def test_malformed_symbol_file_is_a_validation_error_naming_its_field(tmp_path, capsys, text, field):
    # these raised a raw ValueError, TypeError or OverflowError (a traceback,
    # exit 1), and m = 2.5 was read as 2
    path = tmp_path / "sym.json"
    path.write_text(text)
    with pytest.raises(ValidationError, match=field):
        ser.load_symbol(str(path))
    for cmd in (["charfun", "--nmax", "2"], ["friedrichs", "--n", "3", "--out", str(tmp_path / "op.json")]):
        assert main([*cmd, "--symbol", str(path), "--error-json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["type"] == "ValidationError" and payload["exit_code"] == 2
        assert field in payload["error"]


@pytest.mark.parametrize("n", ["x", 2.5, float("inf"), float("nan"), [2], None, 0, -1])
@pytest.mark.parametrize("kind", ["operator"])
def test_malformed_dimension_is_a_validation_error_naming_n(kind, n):
    # n = 2.5 was read as 2; 1e400 (inf) raised a raw OverflowError
    with pytest.raises(ValidationError, match=f"{kind} JSON: field 'n'"):
        ser.operator_from_dict({**ser.operator_to_dict(identity(2)), "n": n})


def test_operator_file_with_n_1e400_exits_2(tmp_path, capsys):
    op = tmp_path / "op.json"
    op.write_text('{"n": 1e400, "C_re": [[0.5]], "C_im": [[0.0]], "B_re": [[0.25]], "B_im": [[0.0]]}')
    assert exits_2_with_validation_error(capsys, ["info", str(op)])


@pytest.mark.parametrize("field, value", [("n", True), ("C_re", [["0.5"]]), ("B_im", [[True]]),
                                          ("C_im", [[None]])])
def test_operator_file_with_text_or_boolean_numbers_exits_2(tmp_path, capsys, field, value):
    # int(True), float("0.5") and np.asarray([["0.5"]], dtype=float) read these
    op = tmp_path / "op.json"
    op.write_text(json.dumps({**ser.operator_to_dict(identity(1)), field: value}))
    assert main(["info", str(op), "--error-json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["type"] == "ValidationError" and payload["exit_code"] == 2
    assert payload["error"].startswith(f"operator JSON: field '{field}': must ")


def test_missing_field_is_named():
    d = ser.operator_to_dict(identity(2))
    del d["C_im"]
    with pytest.raises(ValidationError, match="operator JSON: missing field 'C_im'"):
        ser.operator_from_dict(d)
    for doc, load in (([1, 2], ser.operator_from_dict), (3, ser.symbol_from_dict)):
        with pytest.raises(ValidationError, match="JSON must be an object"):
            load(doc)


def test_integral_floats_still_read_as_integers():
    d = ser.operator_to_dict(identity(2))
    assert ser.operator_from_dict({**d, "n": 2.0}).n == 2
    assert ser.symbol_from_dict({"kind": "disk-monomial", "m": 3.0}).m == 3


def test_json_parse_error_carries_line_context(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"n": 1,\n  "C_re": [[oops]]}')
    with pytest.raises(ValidationError, match="line 2"):
        ser.read_json(str(p))


def test_spectrum_csv_layout():
    cloud = spectrum_sweep(conjugation(1), 8)
    text = ser.spectrum_csv(cloud)
    lines = text.strip().split("\n")
    assert lines[0] == "theta,r,re,im,residual"
    assert len(lines) == 1 + len(cloud.points)
    first = lines[1].split(",")
    assert len(first) == 5
    assert float(first[1]) == pytest.approx(1.0)


# values whose text is easy to get wrong: signed zero, the smallest subnormal,
# the largest finite double, infinities and nan
AWKWARD = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
           -np.inf, np.inf, np.nan, 1.0 / 3.0, -12345.678)


def _fmt_float_csv(header, rows):
    # the reference writer: one fmt_float call per value
    return "\n".join([header] + [",".join(ser.fmt_float(x) for x in row) for row in rows]) + "\n"


def test_csv_writers_match_per_value_fmt_float():
    vals = np.array(AWKWARD)
    rows = [np.roll(vals, k) for k in range(vals.size)]
    minima = [tuple(row[:3]) for row in rows]
    assert ser.ray_minima_csv(minima) == _fmt_float_csv("theta,r_min_F,F_min", minima)
    assert ser.ray_minima_csv([]) == "theta,r_min_F,F_min\n"

    points = tuple(SpectralPoint(row[0], row[1], complex(row[2], row[3]), row[4]) for row in rows)
    cloud = SpectrumCloud(points=points, tol=1e-8, n_rays=8, norm=1.0)
    assert ser.spectrum_csv(cloud) == _fmt_float_csv(
        "theta,r,re,im,residual", [row[:5] for row in rows]
    )

    values = np.array(rows)[:, :4].T  # 4 sizes by 11 grid points
    lambdas = np.empty(vals.size, dtype=complex)
    lambdas.real, lambdas.imag = vals, vals[::-1]
    table = CharFunTable(lambdas=lambdas, n_list=(1, 2, 4, 8), values=values,
                         diffs=np.zeros(3), stalls=())
    reference = [[lam.real, lam.imag, *values[:, j]] for j, lam in enumerate(lambdas)]
    assert ser.charfun_csv(table) == _fmt_float_csv("lambda_re,lambda_im,n1,n2,n4,n8", reference)


def test_svg_scatter_contains_points_and_circle():
    cloud = spectrum_sweep(conjugation(1), 8)
    svg = ser.spectrum_svg(cloud)
    assert svg.startswith("<svg")
    assert svg.count("<circle") == 1 + len(cloud.points)


def _reference_emit(obj, out):
    # The recursive emitter that wrote every value with its own fmt_float call,
    # kept as the byte reference of dump_json.
    if isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(k))
            out.append(": ")
            _reference_emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _reference_emit(v, out)
        out.append("]")
    elif isinstance(obj, bool) or obj is None:
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(ser.fmt_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise ValidationError(f"cannot serialize value of type {type(obj).__name__}")


def reference_json(obj):
    pieces = []
    _reference_emit(obj, pieces)
    return "".join(pieces) + "\n"


def _reference_rows(M, part):
    return [[float(x) for x in row] for row in (M.real if part == "re" else M.imag)]


SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                  -1.7976931348623157e308, float("nan"), float("inf"), float("-inf"), 0.1, -1.0 / 3.0]


@pytest.mark.parametrize("obj", [
    SPECIAL_FLOATS,
    [[x, -x] for x in SPECIAL_FLOATS],
    tuple(SPECIAL_FLOATS),
    {"x": SPECIAL_FLOATS[0], "y": SPECIAL_FLOATS},
    [np.float64(0.1), np.float64(-0.0), np.float64("nan")],
    [np.float32(0.1), np.float32(-2.5), np.float32("inf")],
    [0.5, np.float64(0.25)],
    [np.float64(0.25), 0.5],
    [1.0, True],
    [True, 1.0, False],
    [True, False],
    [1, 2, np.int64(3), -4],
    [1.0, 2],
    [1.0, np.int64(2)],
    [None, 1.0, None],
    None,
    np.float64(-0.0),
    np.float32(1e-3),
    np.int64(-7),
    "quote \" backslash \\ newline \n tab \t nul \x00 snowman \u2603",
    ["a\"b", 1.0],
    [],
    (),
    [[]],
    [[], [1.0], [[2.0, 3.0]]],
    {},
    {"a": {"b": {"c": [1.0, {"d": ()}]}, "e": []}, "\u00e9": [-0.0]},
    # keys and strings that need escaping: a quote, a backslash, control characters, non-ASCII
    {"q\"uote": "a\"b", "back\\slash": "c\\d", "new\nline": "e\nf", "unit\x1fsep": "g\x1fh"},
    {"\u00e9t\u00e9": "caf\u00e9", "\U0001f600": ["\U0001f600", 0.5, "\"\\\n\x1f\u00e9\U0001f600"]},
    ["\"", "\\", "\n", "\x1f", "\u00e9", "\U0001f600", ""],
])
def test_dump_json_matches_the_recursive_reference(obj):
    assert ser.dump_json(obj) == reference_json(obj)


def test_dump_json_refuses_what_the_reference_refuses():
    for bad in ([1.0, object()], {"k": {1.0}}, [1j]):
        with pytest.raises(ValidationError, match="cannot serialize"):
            ser.dump_json(bad)


@pytest.mark.parametrize("n", [1, 4, 7])
def test_coeff_sos_and_info_json_match_the_reference(n, tmp_path, capsys, monkeypatch):
    R = random_operator(np.random.default_rng(40 + n), n)
    cm = coeff_matrix(R)
    sos = sos_decompose(cm)
    coeff_ref = {"n": cm.n, "H_re": _reference_rows(cm.H, "re"), "H_im": _reference_rows(cm.H, "im"),
                 "asymmetry": cm.asymmetry, "norm": cm.norm}
    sos_ref = {"d": [float(x) for x in sos.d], "U_re": _reference_rows(sos.U, "re"),
               "U_im": _reference_rows(sos.U, "im"), "kind": sos.kind}
    assert ser.dump_json(ser.coeff_to_dict(cm)) == reference_json(coeff_ref)
    assert ser.dump_json(ser.sos_to_dict(sos)) == reference_json(sos_ref)

    payloads = []
    dump_json = ser.dump_json

    def recorded(obj):
        payloads.append(obj)
        return dump_json(obj)

    op = write_operator(tmp_path / "r.json", R)
    monkeypatch.setattr(ser, "dump_json", recorded)
    assert main(["info", op, "--json"]) == 0
    assert len(payloads) == 1
    assert capsys.readouterr().out == reference_json(payloads[0])


# ---------------------------------------------------------------- write_text

def test_write_text_overwrites_longer_file_exactly(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"x" * 4096)
    ser.write_text(str(path), "short\nlambda \u03bb\n")
    assert path.read_bytes() == "short\nlambda \u03bb\n".encode("utf-8")


def test_write_text_to_dev_null():
    ser.write_text(os.devnull, "discarded\n")


def _record_os_open(monkeypatch) -> list:
    flags = []
    real_open = os.open

    def recording(path, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording)
    return flags


def test_write_text_unencodable_content_leaves_file_untouched(tmp_path, monkeypatch):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old bytes\n")
    flags = _record_os_open(monkeypatch)
    with pytest.raises(UnicodeEncodeError):
        ser.write_text(str(path), "lone surrogate \ud800\n")
    assert flags == []
    assert path.read_bytes() == b"old bytes\n"


def test_write_text_opens_without_o_trunc(tmp_path, monkeypatch):
    path = tmp_path / "out.txt"
    path.write_bytes(b"y" * 100)
    flags = _record_os_open(monkeypatch)
    ser.write_text(str(path), "new\n")
    assert len(flags) == 1 and not flags[0] & os.O_TRUNC
    assert path.read_bytes() == b"new\n"


def test_write_text_failed_write_leaves_empty_file(tmp_path, monkeypatch):
    path = tmp_path / "out.txt"
    path.write_bytes(b"z" * 4096)
    real_write = os.write

    def failing(fd, data):
        real_write(fd, bytes(data[:10]))
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "write", failing)
    with pytest.raises(OSError):
        ser.write_text(str(path), "a" * 100)
    monkeypatch.undo()
    assert path.read_bytes() == b""


# ----------------------------------------------------------------------- cli

def test_cli_info_text(tmp_path, capsys):
    op = write_operator(tmp_path / "eps.json", eps_operator())
    assert main(["info", op]) == 0
    out = capsys.readouterr().out
    assert "indefinite" in out
    assert "operator_norm: 1" in out


def test_cli_info_text_lines_are_the_json_keys_in_order(tmp_path, capsys):
    for name, R in (("eps", eps_operator()), ("tau", conjugation(1))):
        op = write_operator(tmp_path / f"{name}.json", R)
        assert main(["info", op, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert main(["info", op]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(": ", 1)[0] for line in lines] == list(payload)
        assert f"classification: {payload['classification']}" in lines


def test_cli_info_json(tmp_path, capsys):
    op = write_operator(tmp_path / "eps.json", eps_operator())
    assert main(["info", op, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(np.round(payload["h_eigenvalues"], 6)) == [-1.0, 1.0, 1.0]
    assert payload["det_complexification"] == pytest.approx(1.0)
    assert payload["classification"].startswith("indefinite")


def test_cli_info_takes_three_svds(tmp_path, capsys, monkeypatch):
    # one operator norm inside coeff_matrix, which the payload reuses, and
    # both Schatten norms from one SVD of C and one of B
    R = random_operator(np.random.default_rng(15), 5)
    op = write_operator(tmp_path / "r.json", R)
    svd = np.linalg.svd
    shapes = []

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    assert main(["info", op, "--json"]) == 0
    assert sorted(shapes) == [(5, 5), (5, 5), (10, 10)]
    payload = json.loads(capsys.readouterr().out)
    monkeypatch.undo()
    assert payload["operator_norm"] == operator_norm(R)
    sC = np.linalg.svd(R.C, compute_uv=False)
    sB = np.linalg.svd(R.B, compute_uv=False)
    assert payload["schatten_1"] == pytest.approx(np.sum(sC) + np.sum(sB), rel=1e-14)
    assert payload["schatten_2"] == pytest.approx(np.linalg.norm(sC) + np.linalg.norm(sB), rel=1e-14)


def record_linalg(monkeypatch):
    """Record ``(name, matrices, rows, cols)`` of every ``np.linalg`` call.

    ``matrices`` is the product of the leading batch dimensions, so a single
    matrix and a stack of one are the same LAPACK work.
    """
    calls = []

    def wrap(name, fn):
        def recorded(a, *args, **kwargs):
            shape = np.shape(a)
            calls.append((name, int(np.prod(shape[:-2])), *shape[-2:]))
            return fn(a, *args, **kwargs)
        return recorded

    for name in dir(np.linalg):
        fn = getattr(np.linalg, name)
        if name.startswith("_") or name == "test" or isinstance(fn, type) or not callable(fn):
            continue
        monkeypatch.setattr(np.linalg, name, wrap(name, fn))
    return calls


@pytest.mark.parametrize("n, zeros", [(1, (True, True)), (4, (True, False)), (7, (True, True))],
                         ids=["n1", "n4", "n7"])
def test_cli_charpoly_and_info_lapack_work_is_pinned(tmp_path, capsys, monkeypatch, n, zeros):
    # The LAPACK calls of `charpoly --out --sos` and `info --json`, in order,
    # at the smallest and largest general sizes of the certify benchmark and
    # at n = 4; glue around them may change, these may not.  H extraction
    # samples the n+1 torus points and validates at 2n+3; `info` solves
    # realify(R) once, for the real-axis zero and the determinant alike.  An
    # antilinear operator (C = 0) extracts H from one eigen solve of B conj(B).
    # `zeros` says whether each operator's report has a real-axis zero: with
    # one or without, the calls are the same.
    m, k = 2 * n, n + 1
    general = [("svd", 1, m, m), ("solve", k, n, n), ("eigvals", k, n, n), ("det", k, n, n),
               ("slogdet", 2 * n + 3, m, m)]
    antilinear = [("svd", 1, m, m), ("eigvals", 1, n, n), ("slogdet", 2 * n + 3, m, m)]
    calls = record_linalg(monkeypatch)
    for make, extract, zero in ((random_operator, general, zeros[0]),
                                (random_antilinear, antilinear, zeros[1])):
        op = write_operator(tmp_path / "r.json", make(np.random.default_rng(2), n))
        calls.clear()
        assert main(["charpoly", op, "--out", str(tmp_path / "H.json"),
                     "--sos", str(tmp_path / "sos.json")]) == 0
        assert calls == extract + [("eigh", 1, k, k)]
        calls.clear()
        assert main(["info", op, "--json"]) == 0
        assert calls == extract + [("eigvalsh", 1, k, k), ("eigvals", 1, m, m),
                                   ("eigvalsh", 1, k, k), ("svd", 1, n, n), ("svd", 1, n, n)]
        assert (json.loads(capsys.readouterr().out)["real_axis_zero"] is not None) == zero


def test_cli_info_identity(tmp_path, capsys):
    op = write_operator(tmp_path / "id.json", identity(1))
    assert main(["info", op, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["det_complexification"] == pytest.approx(1.0)
    assert payload["h_eigenvalues"] == pytest.approx([0.0, 2.0], abs=1e-9)


def test_cli_info_text_prints_the_real_axis_point(tmp_path, capsys):
    op = write_operator(tmp_path / "tau.json", conjugation(1))
    assert main(["info", op]) == 0
    out = capsys.readouterr().out
    assert "real-axis spectral point found" in out
    assert "real_axis_zero: 1.0\n" in out


def test_cli_info_skew_positive_definite(tmp_path, capsys):
    skew = RealLinearOperator(np.zeros((2, 2)), [[0.0, 1.0], [-1.0, 0.0]])
    op = write_operator(tmp_path / "skew.json", skew)
    assert main(["info", op]) == 0
    out = capsys.readouterr().out
    assert "positive definite (spectrum empty)" in out


def test_cli_charpoly_files(tmp_path):
    op = write_operator(tmp_path / "eps.json", eps_operator())
    hpath = tmp_path / "H.json"
    spath = tmp_path / "S.json"
    assert main(["charpoly", op, "--out", str(hpath), "--sos", str(spath)]) == 0
    H = coeff_h(ser.read_json(str(hpath)))
    assert np.max(np.abs(H - np.diag([1.0, -1.0, 1.0]))) < 1e-9
    sos = ser.read_json(str(spath))
    assert sos["kind"] == "eigen"
    assert sorted(np.round(sos["d"], 9)) == [-1.0, 1.0, 1.0]


def test_cli_charpoly_rewrite_over_larger_file_matches_stdout(tmp_path, capsys):
    op = write_operator(tmp_path / "r.json", random_operator(np.random.default_rng(16), 4))
    assert main(["charpoly", op, "--out", "-"]) == 0
    expected = capsys.readouterr().out.encode("utf-8")
    hpath = tmp_path / "H.json"
    hpath.write_bytes(b" " * (3 * len(expected)))
    for _ in range(2):
        assert main(["charpoly", op, "--out", str(hpath)]) == 0
        assert hpath.read_bytes() == expected


def test_cli_charpoly_exact_matches_default(tmp_path):
    # the written H against the exact oracle of the operator read back
    rng = np.random.default_rng(5)
    op = write_operator(tmp_path / "r.json", random_operator(rng, 3))
    h1 = tmp_path / "h1.json"
    assert main(["charpoly", op, "--out", str(h1)]) == 0
    H1 = coeff_h(ser.read_json(str(h1)))
    assert np.max(np.abs(H1 - exact_h(ser.load_operator(op)))) < 1e-8


def test_cli_charpoly_refuses_the_retired_exact(tmp_path, capsys):
    # the exact oracle lives with the tests (tests/exact_oracle.py)
    op = write_operator(tmp_path / "r.json", random_operator(np.random.default_rng(5), 3))
    assert main(["charpoly", op, "--exact", "--error-json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["type"] == "ValidationError" and payload["exit_code"] == 2
    assert payload["error"] == "unrecognized arguments: --exact"


def test_cli_spectrum_csv_and_svg(tmp_path):
    op = write_operator(tmp_path / "tau.json", conjugation(1))
    out = tmp_path / "spec.csv"
    svg = tmp_path / "spec.svg"
    assert main(["spectrum", op, "--rays", "64", "--out", str(out), "--svg", str(svg)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 65  # header + 64 circle samples
    for row in lines[1:]:
        assert float(row.split(",")[1]) == pytest.approx(1.0, abs=1e-10)
    assert "<svg" in svg.read_text()


def test_cli_spectrum_svg_takes_one_svd(tmp_path, monkeypatch):
    # the SVG's bounding circle reuses the ||R|| of the sweep's tolerance test
    R = random_operator(np.random.default_rng(17), 8)
    op = write_operator(tmp_path / "r.json", R)
    svg = tmp_path / "spec.svg"
    real_svd = np.linalg.svd
    shapes = []

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    assert main(["spectrum", op, "--out", str(tmp_path / "s.csv"), "--svg", str(svg)]) == 0
    assert shapes == [(16, 16)]
    monkeypatch.undo()
    cloud = spectrum_sweep(R, 64)
    assert cloud.norm == operator_norm(R)
    assert svg.read_text() == ser.spectrum_svg(cloud)


def test_cli_spectrum_svg_dash_is_stdout(tmp_path, monkeypatch, capsys):
    # '-' means standard output for --svg as for --out, never a file named '-'
    op = write_operator(tmp_path / "tau.json", conjugation(1))
    monkeypatch.chdir(tmp_path)
    assert main(["spectrum", op, "--rays", "8", "--out", "s.csv", "--svg", "-"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("<svg") and out.rstrip().endswith("</svg>")
    assert not (tmp_path / "-").exists()
    assert (tmp_path / "s.csv").read_text().startswith("theta")


def test_cli_spectrum_deterministic(tmp_path):
    rng = np.random.default_rng(6)
    opf = write_operator(tmp_path / "r.json", random_operator(rng, 4))
    o1, o2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["spectrum", opf, "--out", str(o1)]) == 0
    assert main(["spectrum", opf, "--out", str(o2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()


def test_cli_numfun_json(tmp_path, capsys):
    op = write_operator(tmp_path / "eps.json", eps_operator())
    assert main(["numfun", op, "--rays", "64"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["range_est"] == pytest.approx([1.0 / 3.0, 1.0], abs=1e-8)
    assert payload["fov"] == pytest.approx([-1.0, 1.0], abs=1e-9)
    assert payload["uncovered_low"] == pytest.approx(4.0 / 3.0, abs=1e-8)


def test_cli_numfun_ray_csv(tmp_path):
    op = write_operator(tmp_path / "eps.json", eps_operator())
    out = tmp_path / "rays.csv"
    assert main(["numfun", op, "--rays", "8", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "theta,r_min_F,F_min"
    assert len(lines) == 9
    for row in lines[1:]:
        _, rmin, fmin = row.split(",")
        assert float(rmin) == pytest.approx(1.0, abs=1e-8)
        assert float(fmin) == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_cli_numfun_ray_csv_matches_per_ray_minima(tmp_path):
    R = random_operator(np.random.default_rng(12), 3)
    op = write_operator(tmp_path / "r.json", R)
    out = tmp_path / "rays.csv"
    assert main(["numfun", op, "--rays", "12", "--out", str(out)]) == 0
    rows = range_and_coverage(R, 12).ray_minima
    assert out.read_text() == ser.ray_minima_csv(rows)
    assert [th for th, _, _ in rows] == [np.pi * k / 6 for k in range(6)] + [
        np.pi * k / 6 + np.pi for k in range(6)
    ]
    for theta, r_min, f_min in rows:
        r_ref, f_ref = min(ray_extrema(R, theta), key=lambda t: t[1])
        assert abs(r_min - r_ref) <= 1e-12 * max(1.0, r_ref)
        assert abs(f_min - f_ref) <= 1e-12 * max(1.0, abs(f_ref))


def test_cli_info_reports_certificate_spectrum(tmp_path, capsys):
    R = random_operator(np.random.default_rng(13), 3)
    op = write_operator(tmp_path / "r.json", R)
    assert main(["info", op, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["h_eigenvalues"] == np.linalg.eigvalsh(coeff_matrix(R).H).tolist()


def test_cli_friedrichs_hankel(tmp_path):
    sym = write_symbol(
        tmp_path / "sym.json",
        SymbolSeries.circle_hankel(0.5 ** np.arange(8), DecaySpec("geometric", 0.5)),
    )
    out = tmp_path / "op.json"
    assert main(["friedrichs", "--symbol", sym, "--n", "2", "--out", str(out)]) == 0
    R = ser.load_operator(str(out))
    assert np.allclose(R.B, [[1.0, 0.5], [0.5, 0.25]])


def test_cli_friedrichs_n16_then_info(tmp_path, capsys):
    # the README flow: truncate a Hankel symbol at n = 16, then certify it
    sym = write_symbol(
        tmp_path / "sym.json",
        SymbolSeries.circle_hankel(0.5 ** np.arange(40), DecaySpec("geometric", 0.5)),
    )
    op = tmp_path / "op.json"
    assert main(["friedrichs", "--symbol", sym, "--n", "16", "--out", str(op)]) == 0
    capsys.readouterr()
    assert main(["info", str(op), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 16 and len(payload["h_eigenvalues"]) == 17


def test_cli_friedrichs_disk(tmp_path):
    sym = write_symbol(tmp_path / "sym.json", SymbolSeries.disk_monomial(1))
    out = tmp_path / "op.json"
    assert main(["friedrichs", "--symbol", sym, "--n", "2", "--out", str(out)]) == 0
    R = ser.load_operator(str(out))
    assert np.allclose(R.B, [[0.0, np.sqrt(2) / 2], [np.sqrt(2) / 2, 0.0]])


def test_cli_charfun_rank_one_constant_columns(tmp_path):
    coeffs = np.zeros(20)
    coeffs[0] = 0.5
    sym = write_symbol(tmp_path / "sym.json", SymbolSeries.circle_hankel(coeffs))
    out = tmp_path / "phi.csv"
    assert main(["charfun", "--symbol", sym, "--nmax", "4", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "lambda_re,lambda_im,n1,n2,n4"
    for row in lines[1:]:
        vals = [float(x) for x in row.split(",")[2:]]
        assert max(vals) - min(vals) < 1e-13


def test_cli_charfun_sizes_double_up_to_nmax(tmp_path, capsys):
    sym = write_symbol(tmp_path / "sym.json", SymbolSeries.disk_monomial(1))
    assert main(["charfun", "--symbol", sym, "--nmax", "6"]) == 0
    assert capsys.readouterr().out.split("\n")[0] == "lambda_re,lambda_im,n1,n2,n4,n6"
    assert exits_2_with_validation_error(capsys, ["charfun", "--symbol", sym, "--nmax", "0"])


def test_cli_phi_alias(tmp_path):
    coeffs = np.zeros(20)
    coeffs[0] = 0.5
    sym = write_symbol(tmp_path / "sym.json", SymbolSeries.circle_hankel(coeffs))
    out = tmp_path / "phi.csv"
    assert main(["phi", "--symbol", sym, "--nmax", "2", "--out", str(out)]) == 0
    assert out.read_text().startswith("lambda_re,lambda_im,n1,n2")


def test_cli_missing_file_exits_2(capsys):
    assert main(["info", "/nonexistent/op.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_out_into_a_missing_directory_exits_2(tmp_path, capsys):
    op = write_operator(tmp_path / "tau.json", conjugation(1))
    code = main(["charpoly", op, "--out", str(tmp_path / "missing" / "H.json"), "--error-json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2 and payload["exit_code"] == 2
    assert payload["type"] == "FileNotFoundError"


def test_cli_bad_json_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["info", str(p)]) == 2


def test_cli_bad_rays_exits_2(tmp_path):
    op = write_operator(tmp_path / "tau.json", conjugation(1))
    assert main(["spectrum", op, "--rays", "0"]) == 2


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("spectrum", "--tol", "0"),
        ("spectrum", "--rays", "0"),
        # the retired --validate-tol is refused as an unrecognized argument
        ("info", "--validate-tol", "-1e-6"),
        ("charpoly", "--validate-tol", "0"),
        ("numfun", "--validate-tol", "nan"),
        ("numfun", "--rays", "-3"),
    ],
)
def test_cli_bad_option_value_exits_2_with_error_json(tmp_path, capsys, command, option, value):
    op = write_operator(tmp_path / "tau.json", conjugation(1))
    assert main([command, op, option, value, "--error-json"]) == 2
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["exit_code"] == 2
    assert payload["type"] == "ValidationError"
    assert option in payload["error"]
    assert "error:" in captured.err


def exits_2_with_validation_error(capsys, argv):
    code = main([*argv, "--error-json"])
    payload = json.loads(capsys.readouterr().out)
    return code == 2 and payload["exit_code"] == 2 and payload["type"] == "ValidationError"


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("command", ["info", "charpoly", "spectrum", "numfun"])
def test_cli_non_finite_operator_exits_2(tmp_path, capsys, command, literal):
    # Python's json reads NaN and Infinity; the SVD of ||R|| used to fail on them (exit 3)
    op = tmp_path / "op.json"
    op.write_text(f'{{"n": 1, "C_re": [[0.5]], "C_im": [[0.0]], "B_re": [[{literal}]], "B_im": [[0.0]]}}')
    assert exits_2_with_validation_error(capsys, [command, str(op)])


def test_cli_non_finite_symbol_exits_2(tmp_path, capsys):
    # a NaN coefficient used to give a table of 1.0
    sym = tmp_path / "sym.json"
    sym.write_text('{"kind": "circle-hankel", "coeffs_re": [0.5, NaN], "coeffs_im": [0.0, 0.0]}')
    assert exits_2_with_validation_error(capsys, ["charfun", "--symbol", str(sym), "--nmax", "2"])


@pytest.mark.parametrize("spec", ["0.5:inf:2:2", "nan:1:2:2", "0.5:nan:2:2"])
def test_cli_non_finite_grid_exits_2(tmp_path, capsys, spec):
    # an infinite radius used to write NaN rows
    sym = write_symbol(tmp_path / "s.json", SymbolSeries.disk_monomial(1))
    assert exits_2_with_validation_error(capsys, ["charfun", "--symbol", sym, "--nmax", "2", "--grid", spec])


@pytest.mark.parametrize("tol", ["1e-6", "0.5"])
def test_cli_spectrum_tol_reaches_the_sweep(tmp_path, capsys, tol):
    op = write_operator(tmp_path / "r.json", random_operator(np.random.default_rng(3), 3))
    R = ser.load_operator(op)
    assert main(["spectrum", op, "--tol", tol]) == 0
    out = capsys.readouterr().out
    assert out == ser.spectrum_csv(spectrum_sweep(R, 64, tol=float(tol)))
    # a loose tol keeps near-real eigenvalues the default refuses
    assert (out == ser.spectrum_csv(spectrum_sweep(R, 64))) == (tol == "1e-6")


@pytest.mark.parametrize("tol", ["inf", "1", "1.5", "nan"])
def test_cli_spectrum_tol_of_1_or_more_exits_2(tmp_path, capsys, tol):
    # the residual is below 1, so a tol of 1 or more kept every eigenvalue
    op = write_operator(tmp_path / "r.json", random_operator(np.random.default_rng(3), 3))
    assert exits_2_with_validation_error(capsys, ["spectrum", op, "--tol", tol])


@pytest.mark.parametrize("lam_min", ["nan", "inf", "-0.5"])
def test_cli_charfun_lam_min_must_be_finite_and_nonnegative(tmp_path, capsys, lam_min):
    # a NaN cutoff used to turn off the near-origin refusal
    sym = write_symbol(tmp_path / "s.json", SymbolSeries.disk_monomial(1))
    argv = ["charfun", "--symbol", sym, "--nmax", "2", "--grid", "0.01:1:2:2", "--lam-min", lam_min]
    assert exits_2_with_validation_error(capsys, argv)


def test_cli_info_refuses_the_retired_pd_threshold(tmp_path, capsys):
    op = write_operator(tmp_path / "tau.json", conjugation(1))
    assert main(["info", op, "--pd-threshold", "1e-10", "--error-json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["type"] == "ValidationError"
    assert payload["error"].startswith("unrecognized arguments")


def test_cli_refuses_the_retired_validate_tol(tmp_path, capsys):
    # validation runs at its one tolerance, 1e-6
    op = write_operator(tmp_path / "tau.json", conjugation(1))
    for command in ("info", "charpoly", "numfun"):
        assert main([command, op, "--validate-tol", "1e-6", "--error-json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["type"] == "ValidationError"
        assert payload["error"] == "unrecognized arguments: --validate-tol 1e-6"


@pytest.mark.parametrize("s", [1e-6, 1.0, 1e6])
def test_cli_info_skew_is_positive_definite_at_every_scale(tmp_path, capsys, s):
    # H = diag(s**4, 2 s**2, 1) is positive definite at every s; G does not
    # depend on s
    skew = RealLinearOperator(np.zeros((2, 2)), [[0.0, s], [-s, 0.0]])
    assert main(["info", write_operator(tmp_path / "skew.json", skew), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["classification"] == "positive definite (spectrum empty)"
    ref = emptiness_certificates(RealLinearOperator(np.zeros((2, 2)), [[0.0, 1.0], [-1.0, 0.0]]))
    assert payload["g_min_eigenvalue"] == pytest.approx(ref.g_min_eigenvalue, rel=1e-12)
    assert 0.0 < payload["eps_g"] < 1e-12


def test_cli_numerical_failure_exits_3_with_error_json(tmp_path, capsys):
    # at ||R|| = 1e80, H[0, 0] = det of the complexification is about 1e637
    R = random_operator(np.random.default_rng(7), 4)
    s = 1e80 / operator_norm(R)
    op = write_operator(tmp_path / "r.json", RealLinearOperator(s * R.C, s * R.B))
    code = main(["charpoly", op, "--error-json"])
    assert code == 3
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["exit_code"] == 3
    assert payload["type"] == "NumericalFailure"
    assert "overflows double range" in payload["error"]
    assert "error:" in captured.err


def test_error_json_is_an_option_of_every_subcommand(capsys):
    usage = {}
    for command in ("info", "charpoly", "spectrum", "numfun", "friedrichs", "charfun", "phi"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        usage[command] = capsys.readouterr().out
        assert "--error-json" in usage[command]
    assert usage["info"].startswith("usage: rlspec info [-h] [--error-json] [--json] opfile\n")


def test_cli_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    assert build_parser() is build_parser()
    op = write_operator(tmp_path / "r.json", random_operator(np.random.default_rng(14), 3))
    calls = [
        ["info", op, "--json"],
        ["spectrum", op, "--tol", "0", "--error-json"],
        ["charpoly", op],
        ["info", op, "--json"],
    ]

    def run(cli_main, argv):
        code = cli_main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def fresh_main():
        # a new copy of the module, with a parser not yet built
        spec = importlib.util.find_spec("rlspec.cli")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.main

    shared = [run(main, argv) for argv in calls]
    assert shared == [run(fresh_main(), argv) for argv in calls]
    assert [code for code, _, _ in shared] == [0, 2, 0, 0]
    assert json.loads(shared[1][1])["type"] == "ValidationError"


@pytest.mark.parametrize("argv", [
    ["info", "op.json", "--json"],
    ["info", "--json", "--error-json", "op.json"],
    ["info", "op.json", "--js"],
    ["charpoly", "op.json", "--out=H.json", "--sos", "S.json"],
    ["charpoly", "op.json", "--so=S.json", "--error-json"],
    ["spectrum", "--rays=16", "op.json", "--tol", "1e-6", "--svg=-"],
    ["spectrum", "op.json", "--ra", "8", "--out", "spec.csv"],
    ["numfun", "op.json", "--rays", "5", "--out=rays.csv"],
    ["numfun", "--rays=7", "op.json"],
    ["friedrichs", "--symbol", "sym.json", "--n=4"],
    ["friedrichs", "--n", "3", "--symbol=sym.json", "--out", "-", "--error-json"],
    ["charfun", "--symbol", "sym.json", "--nmax", "8", "--lam-min=0.1"],
    ["charfun", "--nm", "4", "--symbol", "sym.json", "--grid=0.5:1:2:2"],
    ["phi", "--symbol=sym.json", "--nmax", "2", "--out", "phi.csv"],
])
def test_main_parses_a_subcommand_once_into_the_full_parse_namespace(monkeypatch, argv):
    # a known subcommand goes straight to its own parser: one parse, not the
    # top-level parse and then the subcommand's again, with the same namespace
    parsed, passes = [], []
    parse_args, parse_known_args = argparse.ArgumentParser.parse_args, argparse.ArgumentParser.parse_known_args

    def spy_parse_args(self, *a, **k):
        ns = parse_args(self, *a, **k)
        parsed.append(dict(vars(ns)))
        ns.fn = lambda args: 0  # parse only; the files need not exist
        return ns

    def spy_parse_known_args(self, *a, **k):
        passes.append(self.prog)
        return parse_known_args(self, *a, **k)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy_parse_args)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy_parse_known_args)
    assert main(argv) == 0
    assert len(parsed) == 1 and len(passes) == 1
    monkeypatch.undo()
    full = vars(build_parser().parse_args(argv))
    assert parsed[0] == full
    assert full["command"] == argv[0]


def run_main(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CHOICES = "'info', 'charpoly', 'spectrum', 'numfun', 'friedrichs', 'charfun', 'phi'"


@pytest.mark.parametrize("argv, code, payload", [
    ([], 2, None),
    (["--help"], 0, None),
    (["bogus"], 2, None),
    (["bogus", "--error-json"], 2,
     {"error": f"argument command: invalid choice: 'bogus' (choose from {CHOICES})",
      "type": "ValidationError", "exit_code": 2}),
    # --error-json is an option of the subcommands, not of the top level
    (["--error-json", "info", "OP"], 2,
     {"error": "unrecognized arguments: --error-json", "type": "ValidationError", "exit_code": 2}),
    (["info", "OP", "--bogus"], 2, None),
    (["info", "OP", "--bogus", "--error-json"], 2,
     {"error": "unrecognized arguments: --bogus", "type": "ValidationError", "exit_code": 2}),
    (["spectrum", "OP", "--rays", "0"], 2, None),
    (["spectrum", "OP", "--rays", "0", "--error-json"], 2,
     {"error": "argument --rays: must be >= 1, got '0'", "type": "ValidationError", "exit_code": 2}),
])
def test_cli_argument_errors_keep_their_exit_code_and_error_object(tmp_path, capsys, argv, code, payload):
    op = write_operator(tmp_path / "op.json", conjugation(1))
    argv = [op if a == "OP" else a for a in argv]
    got_code, out, err = run_main(argv, capsys)
    assert got_code == code
    if argv == ["--help"]:
        assert out.startswith("usage: rlspec [-h] {info,charpoly,spectrum,numfun,friedrichs,charfun,phi} ...\n")
    elif payload is None:
        assert out == ""
    else:
        assert json.loads(out) == payload
    if code == 2:
        assert err.startswith("usage: rlspec") and "\nerror: " in err
    if payload is not None:
        assert err.endswith(f"\nerror: {payload['error']}\n")


def test_unrecognized_argument_after_a_subcommand_prints_its_usage(tmp_path, capsys):
    # the one visible effect of parsing a known subcommand with its own parser
    op = write_operator(tmp_path / "op.json", conjugation(1))
    code, out, err = run_main(["info", op, "--bogus"], capsys)
    assert code == 2 and out == ""
    assert err == (
        "usage: rlspec info [-h] [--error-json] [--json] opfile\n"
        "error: unrecognized arguments: --bogus\n"
    )


@pytest.mark.parametrize("command", [None, "info", "charpoly", "spectrum", "numfun", "friedrichs", "charfun", "phi"])
def test_help_is_what_the_full_parse_prints(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--help"] if command is None else [command, "--help"]
    got = run_main(argv, capsys)
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert got == (exc.value.code, *capsys.readouterr()) and got[0] == 0 and got[1].startswith("usage: rlspec")


@pytest.mark.parametrize("argv", [
    ["info", "{op}"], ["charpoly", "{op}"], ["spectrum", "{op}"], ["numfun", "{op}"],
    ["friedrichs", "--symbol", "{op}", "--n", "2"], ["charfun", "--symbol", "{op}", "--nmax", "2"],
])
def test_cli_non_utf8_input_file_exits_2(tmp_path, capsys, argv):
    # a \xff byte used to escape read_json as a raw UnicodeDecodeError (exit 1, a traceback)
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"n": 1, "C_re": [[0.5\xff]]}')
    code, out, err = run_main([a.format(op=bad) for a in argv] + ["--error-json"], capsys)
    assert code == 2
    assert json.loads(out) == {"error": f"{bad}: byte 22: not UTF-8 (invalid start byte)",
                               "type": "ValidationError", "exit_code": 2}


DIGITS = "1" + "0" * 5000


@pytest.mark.parametrize("argv, text", [
    (["charfun", "--symbol", "{f}", "--nmax", "2"], '{"kind": "disk-monomial", "m": %s}' % DIGITS),
    (["info", "{f}"], '{"n": %s, "C_re": [[0.5]], "C_im": [[0.0]], "B_re": [[0.25]], "B_im": [[0.0]]}' % DIGITS),
    (["spectrum", "{f}"], '{"n": %s, "C_re": [[0.5]], "C_im": [[0.0]], "B_re": [[0.25]], "B_im": [[0.0]]}' % DIGITS),
], ids=["charfun-m", "info-n", "spectrum-n"])
def test_cli_integer_of_5001_digits_exits_2(tmp_path, capsys, argv, text):
    # json.loads refuses an integer literal beyond Python's digit limit with a
    # plain ValueError, which escaped read_json (exit 1, a traceback); where
    # the limit is off, m fails its 2**24 bound and n its 2**63 bound instead
    path = tmp_path / "big.json"
    path.write_text(text)
    code, out, err = run_main([a.format(f=path) for a in argv] + ["--error-json"], capsys)
    payload = json.loads(out)
    assert code == 2 and payload["type"] == "ValidationError" and payload["exit_code"] == 2
    if getattr(sys, "get_int_max_str_digits", lambda: 0)():
        assert payload["error"].startswith(f"{path}: Exceeds the limit (")


@pytest.mark.parametrize("n", [10**5000, -10**5000, 1e300], ids=["5001-digits", "negative", "1e300"])
def test_operator_n_beyond_any_dimension_is_named_not_quoted(n):
    # n must be below 2**63 and is refused by its bit count: quoted in full, a
    # 5,001-digit n made a message of over 10,000 characters where Python's
    # integer digit limit is off, and 1e300 one of over 600
    doc = {"n": n, "C_re": [[0.5]], "C_im": [[0.0]], "B_re": [[0.25]], "B_im": [[0.0]]}
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        with pytest.raises(ValidationError, match="operator JSON: field 'n': ") as exc:
            ser.operator_from_dict(doc)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    assert len(str(exc.value)) <= 200


def test_cli_operator_norm_beyond_double_range_exits_3(tmp_path, capsys):
    R = RealLinearOperator(np.zeros((2, 2)), 1.7e308 * np.array([[1.0, 1.0], [1.0, -1.0]]))
    op = write_operator(tmp_path / "huge.json", R)
    code, out, _ = run_main(["info", op, "--json", "--error-json"], capsys)
    assert code == 3
    assert json.loads(out) == {"error": "operator norm overflows double range (n=2)",
                               "type": "NumericalFailure", "exit_code": 3}


@pytest.mark.parametrize("spec", ["0.5:3.0:6:8", "0.1:0.1:1:1", "1e-3:7.25:13:17"])
def test_charfun_grid_is_radius_major_and_matches_the_loop(spec):
    rmin, rmax, nr, na = spec.split(":")
    radii = np.linspace(float(rmin), float(rmax), int(nr))
    angles = 2.0 * np.pi * np.arange(int(na)) / int(na)
    loop = np.array([r * np.exp(1j * t) for r in radii for t in angles])
    grid = _parse_grid(spec)
    assert grid.dtype == loop.dtype and grid.tobytes() == loop.tobytes()


def test_cli_charfun_bad_grid_spec(tmp_path):
    sym = write_symbol(tmp_path / "s.json", SymbolSeries.disk_monomial(0))
    assert main(["charfun", "--symbol", sym, "--nmax", "2", "--grid", "nope"]) == 2
    assert main(["charfun", "--symbol", sym, "--nmax", "2", "--grid", "0:1:2"]) == 2
