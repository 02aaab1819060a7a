"""Seeded inputs and op lists for the three benchmark workloads.

Every input file is written by this module from a numpy generator seeded
with ``(seed, workload)``, so the same seed always gives the same files.
The program under test receives only those files, through its command line.

One *round* is one pass over a workload's timed ops.  A run repeats whole
rounds, so every run measures the same mix of ops.

The classes and sizes at which the package fails on some draws (a typed
refusal or an oracle mismatch) are *probe* ops: they run once per run,
outside the timed region, and are reported apart from the timed ops, which
must all succeed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from oracles import realify

WORKLOADS = ("certify", "rays", "truncate")

# `certify` and `rays` draw this many independent operators (and Hankel
# symbols) per class and size.  How many spectral points a sweep finds, and
# how many probe ops fail, depend on the draw; replicas keep the mix of timed
# ops and the probe's failed share steady from seed to seed.
REPLICAS = 4
# Each replica's Hankel truncations come from one geometric symbol with this ratio.
_CERTIFY_HANKEL_Q = 0.6
# Circle-Hankel symbols in `truncate` are scaled to this coefficient sum, so
# the CLI's near-origin cutoff (a tenth of the sum) stays inside the default
# grid's smallest radius 0.5.
_TRUNCATE_SYMBOL_SCALE = 2.0
TRUNCATE_NMAX = (64, 128, 256)

# (class, n) of the probe ops.  In `certify`, H extraction gives an H that
# misses the oracle on some draws from n = 7 on for Hankel operators and at
# n = 8 for the others (antilinear n = 7 comes within 3x of the tolerance),
# refuses some Hankel draws from n = 9 on, and refuses `info` on some norm-10
# draws from n = 6 on.  In `rays`, `spectrum` refuses every norm-10
# operator, and `numfun` reports a wrong f0 at n = 8.
_CERTIFY_PROBES = {("general", 8), ("antilinear", 7), ("antilinear", 8), ("norm10", 6),
                   ("norm10", 8), *(("hankel", n) for n in range(7, 13))}
_RAYS_PROBES = {("norm10", 8), ("norm10", 16), ("norm10", 32), ("numfun", 8)}


@dataclass(frozen=True, eq=False)
class Op:
    """One CLI call: ``label`` names it in reports, ``kind`` is its subcommand
    and oracle, ``outputs`` the files it writes."""

    label: str
    kind: str
    n: int
    argv: tuple[str, ...]
    outputs: tuple[str, ...] = ()
    data: dict = field(default_factory=dict)
    probe: bool = False


def _random_complex(rng, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _with_norm(C: np.ndarray, B: np.ndarray, norm: float) -> tuple[np.ndarray, np.ndarray]:
    s = norm / np.linalg.svd(realify(C, B), compute_uv=False)[0]
    return C * s, B * s


def _operator(rng, n: int, cls: str) -> tuple[np.ndarray, np.ndarray]:
    C = _random_complex(rng, n)
    B = _random_complex(rng, n)
    if cls == "antilinear":
        C = np.zeros((n, n), dtype=complex)
    return _with_norm(C, B, 10.0 if cls == "norm10" else 1.0)


def _hankel_coeffs(rng, count: int, decay: str, param: float) -> np.ndarray:
    k = np.arange(count)
    envelope = param**k if decay == "geometric" else (k + 1.0) ** -param
    mags = rng.uniform(0.2, 1.0, count) * envelope
    return mags * np.exp(2j * np.pi * rng.uniform(size=count))


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj), encoding="utf-8")


def _write_operator(path: Path, C: np.ndarray, B: np.ndarray) -> None:
    _write_json(path, {
        "n": int(C.shape[0]),
        "C_re": C.real.tolist(), "C_im": C.imag.tolist(),
        "B_re": B.real.tolist(), "B_im": B.imag.tolist(),
    })


def _certify(rng, d: Path) -> list[Op]:
    cases = []
    for _ in range(REPLICAS):
        for cls in ("general", "antilinear"):
            for n in range(2, 9):
                cases.append((cls, n, *_operator(rng, n, cls)))
        a = _hankel_coeffs(rng, 2 * 12 - 1, "geometric", _CERTIFY_HANKEL_Q)
        for n in range(2, 13):
            idx = np.add.outer(np.arange(n), np.arange(n))
            cases.append(("hankel", n, np.zeros((n, n), dtype=complex), a[idx]))
        for n in (4, 6, 8):
            cases.append(("norm10", n, *_operator(rng, n, "norm10")))

    ops = []
    for i, (cls, n, C, B) in enumerate(cases):
        stem = f"{i:03d}-{cls}-n{n}"
        opfile, hfile, sfile = (str(d / f"{stem}{ext}") for ext in (".json", ".H.json", ".sos.json"))
        _write_operator(Path(opfile), C, B)
        data = {"C": C, "B": B, "H": hfile, "sos": sfile}
        probe = (cls, n) in _CERTIFY_PROBES
        # charpoly runs first so that the oracle of `info` can read its H
        ops.append(Op(f"charpoly {cls} n={n} #{i}", "charpoly", n,
                      ("charpoly", opfile, "--out", hfile, "--sos", sfile), (hfile, sfile), data,
                      probe))
        ops.append(Op(f"info {cls} n={n} #{i}", "info", n, ("info", opfile, "--json"), (), data,
                      probe))
    return ops


def _rays(rng, d: Path) -> list[Op]:
    ops = []
    for r in range(REPLICAS):
        for cls in ("general", "antilinear", "norm10"):
            for n in (8, 16, 32):
                C, B = _operator(rng, n, cls)
                stem = f"spec-{cls}-n{n}-{r}"
                opfile, out = str(d / f"{stem}.json"), str(d / f"{stem}.csv")
                _write_operator(Path(opfile), C, B)
                ops.append(Op(f"spectrum {cls} n={n} #{r}", "spectrum", n,
                              ("spectrum", opfile, "--rays", "64", "--out", out), (out,),
                              {"C": C, "B": B, "out": out}, (cls, n) in _RAYS_PROBES))
        for n in (4, 6, 8):
            C, B = _operator(rng, n, "general")
            stem = f"numfun-n{n}-{r}"
            opfile, out = str(d / f"{stem}.json"), str(d / f"{stem}.report.json")
            _write_operator(Path(opfile), C, B)
            ops.append(Op(f"numfun general n={n} #{r}", "numfun", n,
                          ("numfun", opfile, "--rays", "128", "--out", out), (out,),
                          {"C": C, "B": B, "out": out}, ("numfun", n) in _RAYS_PROBES))
    return ops


def _truncate(rng, d: Path) -> list[Op]:
    count = 2 * max(TRUNCATE_NMAX) - 1
    symbols = []
    for decay, param in (("geometric", 0.5), ("geometric", 0.8), ("polynomial", 3.0)):
        a = _hankel_coeffs(rng, count, decay, param)
        a *= _TRUNCATE_SYMBOL_SCALE / np.sum(np.abs(a))
        symbols.append((f"hankel-{decay}-{param:g}", {
            "kind": "circle-hankel", "coeffs_re": a.real.tolist(), "coeffs_im": a.imag.tolist(),
            "m": None, "decay": {"tag": decay, "param": param}}, {"coeffs": a}))
    for m in (1, 3):
        symbols.append((f"disk-m{m}", {
            "kind": "disk-monomial", "coeffs_re": [], "coeffs_im": [], "m": m,
            "decay": {"tag": "finite", "param": None}}, {"m": m}))

    ops = []
    for name, sym, data in symbols:
        symfile = d / f"{name}.sym.json"
        _write_json(symfile, sym)
        for nmax in TRUNCATE_NMAX:
            out = str(d / f"{name}-nmax{nmax}.csv")
            ops.append(Op(f"charfun {name} nmax={nmax}", "charfun", nmax,
                          ("charfun", "--symbol", str(symfile), "--nmax", str(nmax), "--out", out),
                          (out,), {**data, "nmax": nmax, "out": out}))
    return ops


def build(workload: str, seed: int, directory: Path) -> list[Op]:
    """Write the workload's inputs under ``directory`` and return its ops,
    timed and probe ones, in the order they run.

    Every op also passes ``--error-json``, so a failure reports its
    exception type on standard output.
    """
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    make = {"certify": _certify, "rays": _rays, "truncate": _truncate}[workload]
    return [replace(op, argv=op.argv + ("--error-json",)) for op in make(rng, directory)]
