"""Benchmark of the rlspec command line, driven in-process.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``.  The benchmark writes seeded operator and symbol files under
``perfbench/out/``, then calls ``rlspec.cli.main(argv)`` as a closed loop
with one client, in whole rounds (one pass over the workload's op list)
until ``--seconds`` of op time is spent.  Every op's output is checked by
an independent oracle outside the timed region; an op fails if it exits
nonzero or its output fails the oracle, and failed ops are counted, never
skipped.

Times are scaled to the reference box's speed by a probe timed between
ops (see ``speed.py``); the raw times are reported too.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics of the traced rounds, with the tracing overhead against
the untraced ones.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record, with the
environment and the failure reasons, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# BLAS threads for every run; at most the two cores of the reference box,
# and one keeps the small LAPACK calls that dominate steady.
BLAS_THREADS = 1


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("certify", "rays", "truncate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "rlspec" / "__init__.py").is_file():
        print(f"error: no rlspec package under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("RLSPEC_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    # numpy reads the thread variables when it is first imported
    import harness

    return harness.run(args, OUT_DIR)


if __name__ == "__main__":
    sys.exit(main())
