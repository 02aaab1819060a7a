"""Command line front end.

Subcommands load operator/symbol JSON files, run the library analyses, and
emit JSON/CSV/SVG artifacts.  Outputs are deterministic: identical inputs
and options produce byte-identical files at a fixed BLAS thread count.  Exit
codes: 0 success, 2 input validation failure, 3 numerical failure.  ``info``
prints the fields of its ``--json`` object, in order, one ``key: value`` line
each, the value as its ``str``.  The
argument parser is built once per process, on the first ``main`` call, and
reused by later calls; parsing keeps no state between calls.

An argv whose first word names a subcommand (or the ``phi`` alias) is parsed
once, by that subcommand's own parser, which sets ``command`` as the
top-level parser would.  Every other argv (empty, ``-h``, an option such as
``--error-json`` before the command, or an unknown command) goes to the
top-level parser, which reports it as it always has.  The two routes give the
same namespace, help text, error object and exit code; only an unrecognized
argument after a valid subcommand prints that subcommand's usage line on
stderr rather than the top-level one.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import serialize as ser
from .charpoly import _check_count, coeff_matrix, emptiness_certificates, sos_decompose
from .errors import NumericalFailure, ValidationError
from .numfun import range_and_coverage
from .operators import _schatten_norms
from .spectrum import spectrum_sweep
from .traceclass import charfun_convergence, disk_truncation, hankel_truncation

__all__ = ["main"]


def _unit_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {text!r}")
    return value


def _ray_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """Report argument errors as ValidationError, so they exit 2 through main's handler."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


# The text of each EmptinessCertificates.verdict in the info report.
_CLASSIFICATION = {
    "empty": "positive definite (spectrum empty)",
    "nonempty": "indefinite (real-axis spectral point found: spectrum nonempty)",
    "inconclusive": "indefinite (certificates inconclusive)",
}


def _out(path: str, content: str) -> None:
    if path == "-":
        sys.stdout.write(content)
    else:
        ser.write_text(path, content)


def _cmd_info(args) -> int:
    R = ser.load_operator(args.opfile)
    cm = coeff_matrix(R)
    cert = emptiness_certificates(R, coeff=cm)
    schatten_1, schatten_2 = _schatten_norms(R, 1.0, 2.0)
    payload = {
        "n": R.n,
        "operator_norm": cm.norm,
        "schatten_1": schatten_1,
        "schatten_2": schatten_2,
        "det_complexification": cert.det_complexification,
        "h_eigenvalues": list(cert.h_eigenvalues),
        "h_asymmetry": cm.asymmetry,
        "g_min_eigenvalue": cert.g_min_eigenvalue,
        "eps_g": cert.eps_g,
        "classification": _CLASSIFICATION[cert.verdict],
        "real_axis_zero": cert.real_axis_zero,
    }
    if args.json:
        sys.stdout.write(ser.dump_json(payload))
    else:
        sys.stdout.write("".join(f"{key}: {value}\n" for key, value in payload.items()))
    return 0


def _cmd_charpoly(args) -> int:
    R = ser.load_operator(args.opfile)
    mode = "exact" if args.exact else "interpolation"
    cm = coeff_matrix(R, mode=mode)
    _out(args.out, ser.dump_json(ser.coeff_to_dict(cm)))
    if args.sos is not None:
        _out(args.sos, ser.dump_json(ser.sos_to_dict(sos_decompose(cm))))
    return 0


def _cmd_spectrum(args) -> int:
    R = ser.load_operator(args.opfile)
    cloud = spectrum_sweep(R, args.rays, tol=args.tol)
    _out(args.out, ser.spectrum_csv(cloud))
    if args.svg is not None:
        _out(args.svg, ser.spectrum_svg(cloud))
    return 0


def _cmd_numfun(args) -> int:
    rep = range_and_coverage(ser.load_operator(args.opfile), n_rays=args.rays)
    if args.out.endswith(".csv"):
        _out(args.out, ser.ray_minima_csv(rep.ray_minima))
    else:
        _out(args.out, ser.dump_json(ser.report_to_dict(rep)))
    return 0


def _cmd_friedrichs(args) -> int:
    sym = ser.load_symbol(args.symbol)
    build = hankel_truncation if sym.kind == "circle-hankel" else disk_truncation
    R = build(sym, args.n)
    _out(args.out, ser.dump_json(ser.operator_to_dict(R)))
    return 0


def _parse_grid(spec: str) -> np.ndarray:
    try:
        rmin_s, rmax_s, nr_s, na_s = spec.split(":")
        rmin, rmax = float(rmin_s), float(rmax_s)
        nr, na = int(nr_s), int(na_s)
    except ValueError:
        raise ValidationError(
            f"grid spec must look like 'rmin:rmax:nr:nangles', got {spec!r}"
        )
    if not (0 < rmin <= rmax < np.inf) or nr < 1 or na < 1:
        raise ValidationError(f"grid spec values out of range: {spec!r}")
    radii = np.linspace(rmin, rmax, nr)
    angles = 2.0 * np.pi * np.arange(na) / na
    return (radii[:, None] * np.exp(1j * angles)).ravel()


def _cmd_charfun(args) -> int:
    sym = ser.load_symbol(args.symbol)
    _check_count(args.nmax, "--nmax", 1)
    sizes = sorted({1 << k for k in range(args.nmax.bit_length())} | {args.nmax})
    grid = _parse_grid(args.grid)
    table = charfun_convergence(sym, grid, sizes, lam_min=args.lam_min)
    _out(args.out, ser.charfun_csv(table))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later ``main`` call."""
    parser = _Parser(
        prog="rlspec",
        description="Spectral analyses of finite-rank real linear operators z -> Cz + B conj(z).",
    )
    common = _Parser(add_help=False)
    common.add_argument("--error-json", action="store_true",
                        help="on failure, print a machine-readable error object to stdout")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices
    add_parser = functools.partial(sub.add_parser, parents=[common])

    p = add_parser("info", help="norms, determinant, coefficient spectrum, certificates")
    p.add_argument("opfile")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.set_defaults(fn=_cmd_info)

    p = add_parser("charpoly", help="extract the coefficient matrix (and optional SOS)")
    p.add_argument("opfile")
    p.add_argument("--exact", action="store_true", help="use the exact minor-expansion oracle")
    p.add_argument("--out", default="-", help="coefficient JSON path ('-' for stdout)")
    p.add_argument("--sos", default=None, help="also write the eigen-kind SOS JSON here")
    p.set_defaults(fn=_cmd_charpoly)

    p = add_parser("spectrum", help="ray-sweep the spectrum into CSV (and optional SVG)")
    p.add_argument("opfile")
    p.add_argument("--rays", type=_ray_count, default=64, help="ray directions on the full circle")
    p.add_argument(
        "--tol", type=_unit_float, default=1e-8,
        help="bound in (0, 1) on |Im mu| / (||R|| + |mu|) of line eigenvalues mu (a backward error)",
    )
    p.add_argument("--out", default="-", help="CSV path ('-' for stdout)")
    p.add_argument("--svg", default=None, help="optional scatter SVG path ('-' for stdout)")
    p.set_defaults(fn=_cmd_spectrum)

    p = add_parser("numfun", help="numerical function range and field-of-values coverage")
    p.add_argument("opfile")
    p.add_argument("--rays", type=_ray_count, default=128,
                   help="ray directions on the full circle; odd counts round up")
    p.add_argument(
        "--out",
        default="-",
        help="report path: *.csv emits per-ray minima, anything else the JSON report",
    )
    p.set_defaults(fn=_cmd_numfun)

    p = add_parser("friedrichs", help="materialize a symbol truncation as an operator file")
    p.add_argument("--symbol", required=True, help="symbol JSON path")
    p.add_argument("--n", type=int, required=True, help="truncation size")
    p.add_argument("--out", default="-", help="operator JSON path ('-' for stdout)")
    p.set_defaults(fn=_cmd_friedrichs)

    p = add_parser("charfun", aliases=["phi"],
                   help="characteristic function table over doubling truncation sizes")
    p.add_argument("--symbol", required=True)
    p.add_argument("--nmax", type=int, required=True, help="largest truncation size")
    p.add_argument("--grid", default="0.5:3.0:6:8", help="lambda grid as rmin:rmax:nr:nangles")
    p.add_argument("--lam-min", type=float, default=None, help="override the near-origin cutoff")
    p.add_argument("--out", default="-", help="CSV path ('-' for stdout)")
    p.set_defaults(fn=_cmd_charfun)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = None
    try:
        parser = build_parser()
        command = parser.commands.get(argv[0]) if argv else None
        if command is None:
            args = parser.parse_args(argv)
        else:
            args = command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
        return args.fn(args)
    except (ValidationError, OSError) as exc:
        return _fail(args, argv, exc, 2)
    except (NumericalFailure, np.linalg.LinAlgError) as exc:
        return _fail(args, argv, exc, 3)


def _fail(args, argv: list, exc: Exception, code: int) -> int:
    # Before parsing succeeds there is no namespace; look for the flag itself.
    if getattr(args, "error_json", "--error-json" in argv):
        sys.stdout.write(
            ser.dump_json({"error": str(exc), "type": type(exc).__name__, "exit_code": code})
        )
    print(f"error: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
