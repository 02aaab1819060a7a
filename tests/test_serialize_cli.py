"""Wire formats and the command line front end."""

import errno
import importlib.util
import json
import os

import numpy as np
import pytest

from randops import op_maxdiff, random_operator
from rlspec import (
    DecaySpec,
    RealLinearOperator,
    SymbolSeries,
    ValidationError,
    coeff_matrix,
    conjugation,
    identity,
    operator_norm,
    range_and_coverage,
    ray_extrema,
    spectrum_sweep,
)
from rlspec import serialize as ser
from rlspec.cli import build_parser, main


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


def test_coeff_json_round_trip():
    cm = coeff_matrix(eps_operator())
    d = json.loads(ser.dump_json(ser.coeff_to_dict(cm)))
    back = ser.coeff_from_dict(d)
    assert back.n == cm.n
    assert np.max(np.abs(back.H - cm.H)) == 0.0
    assert back.asymmetry == cm.asymmetry


def test_symbol_json_round_trip_both_kinds():
    s1 = SymbolSeries.circle_hankel([1.0, 0.5 + 0.1j], DecaySpec("geometric", 0.5))
    back = ser.symbol_from_dict(json.loads(ser.dump_json(ser.symbol_to_dict(s1))))
    assert back.kind == "circle-hankel"
    assert np.allclose(back.coeffs, s1.coeffs)
    assert back.decay == s1.decay

    s2 = SymbolSeries.disk_monomial(3)
    back = ser.symbol_from_dict(json.loads(ser.dump_json(ser.symbol_to_dict(s2))))
    assert back.kind == "disk-monomial" and back.m == 3


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


def test_svg_scatter_contains_points_and_circle():
    cloud = spectrum_sweep(conjugation(1), 8)
    svg = ser.spectrum_svg(cloud, 1.0)
    assert svg.startswith("<svg")
    assert svg.count("<circle") == 1 + len(cloud.points)


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
    assert "operator norm: 1" in out


def test_cli_info_json(tmp_path, capsys):
    op = write_operator(tmp_path / "eps.json", eps_operator())
    assert main(["info", op, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(np.round(payload["h_eigenvalues"], 6)) == [-1.0, 1.0, 1.0]
    assert payload["det_complexification"] == pytest.approx(1.0)
    assert payload["classification"].startswith("indefinite")


def test_cli_info_takes_four_svds(tmp_path, capsys, monkeypatch):
    # one operator norm inside coeff_matrix, one for the payload, and both
    # Schatten norms from one SVD of C and one of B
    R = random_operator(np.random.default_rng(15), 5)
    op = write_operator(tmp_path / "r.json", R)
    svd = np.linalg.svd
    shapes = []

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    assert main(["info", op, "--json"]) == 0
    assert sorted(shapes) == [(5, 5), (5, 5), (10, 10), (10, 10)]
    payload = json.loads(capsys.readouterr().out)
    monkeypatch.undo()
    sC = np.linalg.svd(R.C, compute_uv=False)
    sB = np.linalg.svd(R.B, compute_uv=False)
    assert payload["schatten_1"] == pytest.approx(np.sum(sC) + np.sum(sB), rel=1e-14)
    assert payload["schatten_2"] == pytest.approx(np.linalg.norm(sC) + np.linalg.norm(sB), rel=1e-14)


def test_cli_info_identity(tmp_path, capsys):
    op = write_operator(tmp_path / "id.json", identity(1))
    assert main(["info", op, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["det_complexification"] == pytest.approx(1.0)
    assert payload["h_eigenvalues"] == pytest.approx([0.0, 2.0], abs=1e-9)


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
    cm = ser.coeff_from_dict(ser.read_json(str(hpath)))
    assert np.max(np.abs(cm.H - np.diag([1.0, -1.0, 1.0]))) < 1e-9
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
    rng = np.random.default_rng(5)
    op = write_operator(tmp_path / "r.json", random_operator(rng, 3))
    h1, h2 = tmp_path / "h1.json", tmp_path / "h2.json"
    assert main(["charpoly", str(tmp_path / "r.json"), "--out", str(h1)]) == 0
    assert main(["charpoly", str(tmp_path / "r.json"), "--exact", "--out", str(h2)]) == 0
    H1 = ser.coeff_from_dict(ser.read_json(str(h1))).H
    H2 = ser.coeff_from_dict(ser.read_json(str(h2))).H
    assert np.max(np.abs(H1 - H2)) < 1e-8


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
    assert svg.read_text() == ser.spectrum_svg(spectrum_sweep(R, 64), operator_norm(R))


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
        ("info", "--pd-threshold", "0"),
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


def test_cli_numerical_failure_exits_3_with_error_json(tmp_path, capsys):
    rng = np.random.default_rng(7)
    op = write_operator(tmp_path / "r.json", random_operator(rng, 4))
    code = main(["charpoly", op, "--validate-tol", "1e-30", "--error-json"])
    assert code == 3
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["exit_code"] == 3
    assert payload["type"] == "NumericalFailure"
    assert "error:" in captured.err


def test_cli_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    assert build_parser() is build_parser()
    op = write_operator(tmp_path / "r.json", random_operator(np.random.default_rng(14), 3))
    calls = [
        ["info", op, "--json"],
        ["info", op, "--validate-tol", "0", "--error-json"],
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


def test_cli_charfun_bad_grid_spec(tmp_path):
    sym = write_symbol(tmp_path / "s.json", SymbolSeries.disk_monomial(0))
    assert main(["charfun", "--symbol", sym, "--nmax", "2", "--grid", "nope"]) == 2
    assert main(["charfun", "--symbol", sym, "--nmax", "2", "--grid", "0:1:2"]) == 2
