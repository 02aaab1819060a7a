"""Span tracer for the traced run, installed from outside the package.

The tracer wraps public functions of the rlspec modules and the
``numpy.linalg`` functions the package calls.  A wrapper is bound under
every name that refers to the original in any ``rlspec`` module, because
the modules import each other's functions by name (``charpoly_eval`` lives
in both ``rlspec.charpoly`` and ``rlspec.spectrum``).  Wrappers are bound
only for the traced rounds and unbound after, so untraced rounds run the
package unchanged.

A span records its function, start, end, parent span and op id.  Self time
is a span's duration minus the durations of its child spans, so the self
times of one op's spans add up to the duration of its root ``cli.main``
span.
"""

from __future__ import annotations

import functools
import gzip
import math
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# Public functions wrapped per package module.  Besides those the per-layer
# metrics name, the CLI's other direct calls are wrapped so that their time
# is not counted as `cli.main` glue.
PACKAGE_FUNCTIONS = {
    "cli": ("main",),
    "serialize": ("load_operator", "load_symbol", "dump_json", "spectrum_csv", "charfun_csv",
                  "write_text", "coeff_to_dict", "sos_to_dict", "report_to_dict"),
    "operators": ("complexify", "operator_norm", "realify", "rotate", "schatten_norm"),
    "charpoly": ("coeff_matrix", "charpoly_eval", "emptiness_certificates", "cholesky_sos",
                 "sos_decompose"),
    "spectrum": ("spectrum_sweep", "ray_spectrum", "no_eigenvalue_certificate"),
    "numfun": ("range_and_coverage", "ray_extrema"),
    "traceclass": ("charfun_convergence", "charfun_eval", "hankel_truncation", "disk_truncation"),
}
LINALG_FUNCTIONS = ("det", "slogdet", "eigvals", "eigvalsh", "svd", "lstsq", "cond", "cholesky")

# Computed, not measured: real floating-point operations per matrix of
# order m (LAPACK's leading terms; complex arithmetic counts 4 each).
_FLOPS_PER_ORDER_CUBED = {
    "det": 2 / 3, "slogdet": 2 / 3,       # LU factorization
    "eigvals": 10.0,                      # Hessenberg + QR, eigenvalues only
    "eigvalsh": 4 / 3,                    # tridiagonal reduction
    "svd": 8 / 3, "lstsq": 8 / 3, "cond": 8 / 3,  # bidiagonal reduction
    "cholesky": 1 / 3,
}

# Warning messages the package emits, and the per-layer counter of each.
WARNING_COUNTERS = {
    "critical point solve failed": "numfun.root_warnings",
    "coefficients violate the declared": "traceclass.decay_warnings",
}


def warning_counter(message: str) -> str | None:
    for prefix, counter in WARNING_COUNTERS.items():
        if message.startswith(prefix):
            return counter
    return None


def _linalg_work(name: str, args) -> tuple[int, float]:
    """Matrix count (product of the leading batch dimensions) and flop estimate."""
    a = np.asarray(args[0])
    shape = a.shape
    matrices = math.prod(shape[:-2]) if len(shape) > 2 else 1
    m, k = (shape[-2], shape[-1]) if len(shape) >= 2 else (1, 1)
    if name in ("svd", "lstsq"):
        big, small = max(m, k), min(m, k)
        per = 4.0 * big * small**2 - 4.0 / 3.0 * small**3
    else:
        per = _FLOPS_PER_ORDER_CUBED[name] * m**3
    return matrices, matrices * per * (4.0 if np.iscomplexobj(a) else 1.0)


class Tracer:
    """Spans and boundary counters of the traced rounds of one run."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[list] = []
        self._next_id = 0
        self.spans = {key: array(code) for key, code in
                      (("id", "q"), ("parent", "q"), ("op", "q"), ("fn", "H"),
                       ("start", "d"), ("end", "d"))}
        self._patches: list[tuple[object, str, object, object]] = []

    def _wrap(self, name: str, fn, on_call=None, on_result=None):
        idx = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args)
            sid = self._next_id
            self._next_id += 1
            frame = [sid, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                self.calls[idx] += 1
                self.self_s[idx] += dur - frame[1]
                for key, value in (("id", sid), ("parent", parent), ("op", self.op),
                                   ("fn", idx), ("start", start), ("end", end)):
                    spans[key].append(value)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def prepare(self) -> None:
        """Build the wrappers against the imported rlspec modules."""
        counts = self.counts
        hooks = {
            "charpoly.coeff_matrix": lambda r: counts.update(["charpoly.coeff_matrix.ok"]),
            "spectrum.ray_spectrum": lambda r: counts.update({"spectrum.hits": len(r)}),
            "spectrum.spectrum_sweep":
                lambda r: counts.update({"spectrum.points_kept": len(r.points)}),
            "numfun.ray_extrema": lambda r: counts.update({"numfun.critical_points": len(r) - 2}),
            "traceclass.charfun_convergence":
                lambda r: counts.update({"traceclass.stalls": len(r.stalls)}),
        }
        for fn in ("dump_json", "spectrum_csv", "charfun_csv"):
            hooks[f"serialize.{fn}"] = lambda r: counts.update({"serialize.bytes_out": len(r)})

        modules = [m for name, m in sys.modules.items()
                   if name == "rlspec" or name.startswith("rlspec.")]
        for layer, fnames in PACKAGE_FUNCTIONS.items():
            home = sys.modules[f"rlspec.{layer}"]
            for fname in fnames:
                orig = getattr(home, fname)
                w = self._wrap(f"{layer}.{fname}", orig, on_result=hooks.get(f"{layer}.{fname}"))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._patches.append((m, attr, orig, w))
        for fname in LINALG_FUNCTIONS:
            def on_call(args, fname=fname):
                matrices, flops = _linalg_work(fname, args)
                counts.update({f"linalg.{fname}.matrices": matrices,
                               f"linalg.{fname}.flops_est": flops})
            orig = getattr(np.linalg, fname)
            self._patches.append((np.linalg, fname, orig,
                                  self._wrap(f"linalg.{fname}", orig, on_call=on_call)))

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, orig, _ in reversed(self._patches):
            setattr(module, attr, orig)

    def op_self_sums(self) -> dict[int, float]:
        """Sum of span self times per op id."""
        sums: dict[int, float] = {}
        child: dict[int, float] = {}
        sp = self.spans
        for parent, start, end in zip(sp["parent"], sp["start"], sp["end"]):
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (end - start)
        for sid, op, start, end in zip(sp["id"], sp["op"], sp["start"], sp["end"]):
            sums[op] = sums.get(op, 0.0) + (end - start) - child.get(sid, 0.0)
        return sums

    def write_spans(self, path) -> int:
        """Write every span as gzipped CSV, ordered by span id; returns the span count."""
        sp = self.spans
        order = np.argsort(np.frombuffer(sp["id"], dtype=np.int64), kind="stable")
        t0 = min(sp["start"], default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,parent,op,name,start_us,end_us\n")
            for i in order:
                fh.write(f"{sp['id'][i]},{sp['parent'][i]},{sp['op'][i]},{self.names[sp['fn'][i]]},"
                         f"{(sp['start'][i] - t0) * 1e6:.1f},{(sp['end'][i] - t0) * 1e6:.1f}\n")
        return len(order)

    def stat(self, name: str) -> tuple[int, float]:
        i = self.names.index(name)
        return self.calls[i], self.self_s[i]


def _ratio(num: float, den: float) -> float:
    """A ratio, 0 when its base is 0 (the base is printed with it)."""
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, rounds: int, overhead: float, coverage: float) -> dict:
    """Per-layer metrics per round of traced work: name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}

    def calls(name):
        out[f"{name}.calls"] = (tr.stat(name)[0] / rounds, "count")

    def self_ms(name):
        out[f"{name}.self_ms"] = (tr.stat(name)[1] * 1e3 / rounds, "ms")

    def count(name):
        out[name] = (tr.counts[name] / rounds, "count")

    self_ms("cli.main")
    for fn in ("load_operator", "load_symbol", "dump_json", "spectrum_csv", "charfun_csv",
               "write_text"):
        self_ms(f"serialize.{fn}")
    out["serialize.bytes_out"] = (tr.counts["serialize.bytes_out"] / rounds, "bytes")
    for fn in ("complexify", "operator_norm", "realify", "rotate"):
        calls(f"operators.{fn}")
        self_ms(f"operators.{fn}")
    for fn in ("coeff_matrix", "charpoly_eval"):
        calls(f"charpoly.{fn}")
        self_ms(f"charpoly.{fn}")
    for fn in ("emptiness_certificates", "cholesky_sos", "sos_decompose"):
        self_ms(f"charpoly.{fn}")
    out["charpoly.extract_ok_ratio"] = (
        _ratio(tr.counts["charpoly.coeff_matrix.ok"], tr.stat("charpoly.coeff_matrix")[0]), "ratio")
    self_ms("spectrum.spectrum_sweep")
    calls("spectrum.ray_spectrum")
    self_ms("spectrum.ray_spectrum")
    self_ms("spectrum.no_eigenvalue_certificate")
    count("spectrum.hits")
    count("spectrum.points_kept")
    out["spectrum.keep_ratio"] = (
        _ratio(tr.counts["spectrum.points_kept"], tr.counts["spectrum.hits"]), "ratio")
    self_ms("numfun.range_and_coverage")
    calls("numfun.ray_extrema")
    self_ms("numfun.ray_extrema")
    count("numfun.critical_points")
    count("numfun.root_warnings")
    self_ms("traceclass.charfun_convergence")
    calls("traceclass.charfun_eval")
    self_ms("traceclass.charfun_eval")
    calls("traceclass.hankel_truncation")
    calls("traceclass.disk_truncation")
    count("traceclass.stalls")
    count("traceclass.decay_warnings")
    for fn in LINALG_FUNCTIONS:
        calls(f"linalg.{fn}")
        count(f"linalg.{fn}.matrices")
        self_ms(f"linalg.{fn}")
        out[f"linalg.{fn}.flops_est"] = (tr.counts[f"linalg.{fn}.flops_est"] / rounds, "flop")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    out["trace.self_coverage"] = (coverage, "ratio")
    return out
