"""Set-up, the closed measuring loop, oracle bookkeeping and reports."""

from __future__ import annotations

import ctypes
import glob
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
import warnings
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import oracles
import speed
import tracing
import workloads

# Set-up (import, inputs, warm-up) is repeated this many times; the median is reported.
SETUP_REPEATS = 5


@dataclass
class OpResult:
    wall: float
    code: int | None
    stdout: str
    exception: str | None
    warnings: list[str]


def _fresh_cli():
    """Import the package anew, so set-up pays for ``import rlspec`` every time."""
    for name in [m for m in sys.modules if m == "rlspec" or m.startswith("rlspec.")]:
        del sys.modules[name]
    importlib.import_module("rlspec")
    return importlib.import_module("rlspec.cli")


def _call(cli, op) -> OpResult:
    out, err = io.StringIO(), io.StringIO()
    code, exc = None, None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with redirect_stdout(out), redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = cli.main(list(op.argv))
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 1
            except Exception as e:  # a crash is recorded as a failed op, not raised
                exc = f"{type(e).__name__}: {e}\n{traceback.format_exc()}"
            wall = perf_counter() - t0
    return OpResult(wall, code, out.getvalue(), exc, [str(w.message) for w in caught])


def _error_type(stdout: str) -> str:
    """Exception type from the ``--error-json`` object, if one was printed."""
    for line in reversed(stdout.strip().splitlines()):
        try:
            return json.loads(line).get("type", "unknown")
        except (json.JSONDecodeError, AttributeError):
            continue
    return "unknown"


class Checker:
    """Runs the oracle on each op's output and keeps the failure counters.

    Outputs are deterministic, so an output byte-identical to one already
    checked reuses that verdict; any other output is checked afresh.

    A wrong answer (an oracle mismatch) and a typed refusal (exit code 2 or
    3 with an error object) are failed ops, counted by reason.  A crash (an
    exception escaping ``cli.main``) or an output the oracle cannot read is
    also a failed op, and marks the run as not correct.
    """

    def __init__(self):
        self.latest: dict[str, str] = {}
        self.verdicts: dict[tuple, list[str]] = {}
        self.reasons: Counter = Counter()
        self.failed_ops: dict[str, str] = {}
        self.warnings: Counter = Counter()
        self.crashes: list[str] = []
        self.malformed: list[str] = []
        self.mismatches: list[str] = []

    def judge(self, index: int, op, res: OpResult) -> bool:
        for msg in res.warnings:
            self.warnings[tracing.warning_counter(msg) or msg.split(":")[0][:60]] += 1
        outcome = self._outcome(index, op, res)
        if outcome != "ok":
            self.reasons[outcome] += 1
            self.failed_ops[op.label] = outcome
        return outcome == "ok"

    def _outcome(self, index: int, op, res: OpResult) -> str:
        if res.exception is not None:
            if len(self.crashes) < 3:
                self.crashes.append(f"{op.label}: {res.exception}")
            return f"exception:{res.exception.split(':')[0]}"
        if res.code != 0:
            return f"exit{res.code}:{_error_type(res.stdout)}"
        try:
            files = {path: Path(path).read_text(encoding="utf-8") for path in op.outputs}
        except OSError as e:
            self.malformed.append(f"{op.label}: output missing: {e}")
            return f"malformed:{op.kind}"
        self.latest.update(files)
        key = (index, res.stdout, tuple(files.values()), self.latest.get(op.data.get("H")))
        if key not in self.verdicts:
            try:
                bad = oracles.CHECKS[op.kind](op.data, res.stdout, self.latest)
            except (ValueError, KeyError, IndexError, TypeError) as e:
                bad = None
                self.malformed.append(f"{op.label}: output not readable: {type(e).__name__}: {e}")
            if bad:
                self.mismatches.append(f"{op.label}: {'; '.join(bad[:3])}")
            self.verdicts[key] = bad
        bad = self.verdicts[key]
        if bad is None:
            return f"malformed:{op.kind}"
        return f"oracle:{op.kind}" if bad else "ok"


def _blas_threads() -> int | None:
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _sizes(ops) -> dict:
    sizes = Counter(f"{op.kind} n={op.n}" if op.kind != "charfun" else f"charfun nmax={op.n}"
                    for op in ops)
    return dict(sorted(sizes.items()))


def _environment(args, ops, probes) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "rlspec_threads": os.environ.get("RLSPEC_THREADS"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": _sizes(ops),
        "probe_inputs": _sizes(probes),
    }


def _setup(workload: str, seed: int, inputs: Path):
    """Import the package, write the inputs and warm up one timed op of each kind."""
    t0 = perf_counter()
    cli = _fresh_cli()
    shutil.rmtree(inputs, ignore_errors=True)
    ops = workloads.build(workload, seed, inputs)
    timed = [op for op in ops if not op.probe]
    seen = set()
    for op in timed:
        if op.kind not in seen:
            seen.add(op.kind)
            _call(cli, op)
    return perf_counter() - t0, cli, timed, [op for op in ops if op.probe]


def run(args, out_dir: Path) -> int:
    inputs = out_dir / f"inputs-{args.workload}-s{args.seed}-p{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(args, out_dir, inputs)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)


@dataclass
class Sample:
    label: str
    traced: bool
    ok: bool
    wall: float


def _loop(args, cli, ops, checker: Checker, tracer) -> tuple[list[Sample], list[float]]:
    """Run whole rounds until ``args.seconds`` of op time is spent.

    With a tracer, untraced and traced rounds alternate and the run ends
    after a traced one.  The speed probe runs before the first op and then
    whenever ``speed.PROBE_EVERY_S`` of op time has passed, outside the timed
    region.  Returns the samples and the speed scale factor of each.
    """
    samples: list[Sample] = []
    probes = [speed.probe()]
    interval: list[int] = []            # sample -> index of its probe interval
    spent = since_probe = 0.0
    while True:
        traced = tracer is not None and bool(samples) and not samples[-1].traced
        if traced:
            tracer.install()
        try:
            for i, op in enumerate(ops):
                if traced:
                    tracer.op = len(samples)
                res = _call(cli, op)
                if traced:
                    tracer.op = -1
                    tracer.counts.update(filter(None, map(tracing.warning_counter, res.warnings)))
                samples.append(Sample(op.label, traced, checker.judge(i, op, res), res.wall))
                interval.append(len(probes) - 1)
                spent += res.wall
                since_probe += res.wall
                if since_probe >= speed.PROBE_EVERY_S:
                    probes.append(speed.probe())
                    since_probe = 0.0
        finally:
            if traced:
                tracer.uninstall()
        if spent >= args.seconds and (tracer is None or traced):
            break
    if since_probe:
        probes.append(speed.probe())
    factors = speed.factors(probes)
    return samples, [factors[k] for k in interval]


def _end_to_end(samples: list[Sample], scale: list[float], setups: list[float]) -> dict:
    """End-to-end metrics of the untraced ops: name -> (value, unit, sample count)."""
    plain = [(s, f) for s, f in zip(samples, scale) if not s.traced]
    lat = [s.wall * f for s, f in plain if s.ok]
    pct = (lambda q: float(np.percentile(lat, q)) * 1e3) if lat else (lambda q: 0.0)
    return {
        "ops_per_s": (len(plain) / sum(s.wall * f for s, f in plain), "1/s", len(plain)),
        "latency_p50_ms": (pct(50), "ms", len(lat)),
        "latency_p90_ms": (pct(90), "ms", len(lat)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }


def _measure(args, out_dir: Path, inputs: Path) -> int:
    setups, setup_probes = [], [speed.probe()]
    for _ in range(SETUP_REPEATS):
        dt, cli, ops, probes = _setup(args.workload, args.seed, inputs)
        setups.append(dt)
        setup_probes.append(speed.probe())
    setups_scaled = [t * f for t, f in zip(setups, speed.factors(setup_probes))]

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.prepare()
    checker = Checker()
    samples, scale = _loop(args, cli, ops, checker, tracer)
    # the probe ops run once, untraced and outside the timed region
    probe_checker = Checker()
    for i, op in enumerate(probes):
        probe_checker.judge(i, op, _call(cli, op))
    probe_failed = sum(probe_checker.reasons.values())
    e2e = _end_to_end(samples, scale, setups_scaled)
    raw = _end_to_end(samples, [1.0] * len(samples), setups)
    attempted = len(samples)
    failed = sum(not s.ok for s in samples)
    rounds = {k: sum(s.traced == k for s in samples) // len(ops) for k in (False, True)}

    env = _environment(args, ops, probes)
    per_op: dict[str, list[float]] = {}
    for s in samples:
        per_op.setdefault(s.label, []).append(s.wall)
    record = {"environment": env, "rounds": {"untraced": rounds[False], "traced": rounds[True]},
              "attempted": attempted, "failed": failed, "fail_share": failed / attempted,
              "failures": dict(checker.reasons), "failed_ops": checker.failed_ops,
              "warnings": dict(checker.warnings),
              "oracle_mismatches": checker.mismatches, "malformed": checker.malformed,
              "crashes": checker.crashes,
              "probe": {"attempted": len(probes), "failed": probe_failed,
                        "failures": dict(probe_checker.reasons),
                        "failed_ops": probe_checker.failed_ops,
                        "warnings": dict(probe_checker.warnings),
                        "oracle_mismatches": probe_checker.mismatches,
                        "malformed": probe_checker.malformed, "crashes": probe_checker.crashes},
              "speed_scale_median": statistics.median(scale),
              "setup_runs_s": setups,
              "op_median_raw_ms": {k: statistics.median(v) * 1e3 for k, v in per_op.items()},
              "end_to_end": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in e2e.items()},
              "end_to_end_raw": {k: {"value": v, "unit": u} for k, (v, u, _) in raw.items()}}

    print(f"rlspec benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items() if "inputs" not in k))
    print("inputs per round: " + ", ".join(f"{k} x{v}" for k, v in env["inputs"].items()))
    if probes:
        print("probe inputs, once per run: "
              + ", ".join(f"{k} x{v}" for k, v in env["probe_inputs"].items()))
    print(f"rounds: {rounds[False]} untraced, {rounds[True]} traced; "
          f"{attempted} ops attempted, {failed} failed (fail_share {failed / attempted:.4f})")
    print(f"speed probe: times below are scaled to the reference box's speed "
          f"(median factor {statistics.median(scale):.4f})")
    print(f"  {'metric':16s} {'value':>14s} {'unit':6s} {'raw':>14s}")
    for name, (value, unit, n) in e2e.items():
        print(f"  {name:16s} {value:14.6g} {unit:6s} {raw[name][0]:14.6g}  samples={n}")
    for reason, n in sorted(checker.reasons.items()):
        print(f"  failure {reason}: {n}")
    for reason, n in sorted(checker.warnings.items()):
        print(f"  warning {reason}: {n}")
    for line in checker.mismatches + checker.malformed + checker.crashes:
        print(f"  ! {line}")
    if probes:
        print(f"probe (untimed, not in attempted or failed): {len(probes)} ops, "
              f"{probe_failed} failed (fail_share {probe_failed / len(probes):.4f})")
        for reason, n in sorted(probe_checker.reasons.items()):
            print(f"  failure {reason}: {n}")
        for line in probe_checker.mismatches[:5] + probe_checker.malformed + probe_checker.crashes:
            print(f"  ! {line}")

    if tracer is None:
        metrics = {k: (v, u) for k, (v, u, _) in e2e.items()}
    else:
        metrics = _traced_metrics(tracer, samples, scale, rounds[True])
        metrics["probe.failed"] = (float(probe_failed), "count")
        spans_path = out_dir / f"spans-{args.workload}-s{args.seed}.csv.gz"
        record["spans"] = {"file": spans_path.name, "count": tracer.write_spans(spans_path)}
        print(f"spans: {record['spans']['count']} written to {spans_path.name}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:48s} {value:14.6g} {unit}")
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    (out_dir / f"result-{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    correct = not checker.crashes and not checker.malformed
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


def _traced_metrics(tracer, samples: list[Sample], scale: list[float], rounds: int) -> dict:
    """Per-layer metrics, with the overhead and the self-time closure of the traced ops."""
    time = {k: sum(s.wall * f for s, f in zip(samples, scale) if s.traced == k)
            for k in (False, True)}
    overhead = time[True] / time[False] - 1.0
    sums = tracer.op_self_sums()
    traced = {i: s.wall for i, s in enumerate(samples) if s.traced}
    coverage = sum(sums.get(i, 0.0) for i in traced) / sum(traced.values())
    gap = max(abs(sums.get(i, 0.0) - w) for i, w in traced.items())
    print(f"self-time closure: spans cover {coverage:.6f} of traced op wall; "
          f"largest per-op gap {gap * 1e6:.1f} us")
    return tracing.layer_metrics(tracer, rounds, overhead, coverage)
