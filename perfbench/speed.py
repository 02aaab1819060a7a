"""Machine-speed probe: scales measured times to the reference box's speed.

The reference box (2 vCPUs) runs the same code up to about 30% faster or
slower in stretches of several seconds; thread CPU time follows wall time,
so the cause is the shared host, not this process.  Averaged over a run,
such stretches moved `ops_per_s` by 25% between runs.  A fixed kernel,
independent of rlspec and shaped like its work (determinants of small block
matrices, an eigen solve, a log-determinant and a Python loop), is timed
between ops, outside the timed region.  Each op's time is multiplied by
``REFERENCE_S`` over the median kernel time around it, which expresses it
at the reference box's usual speed.  The raw times are reported as well.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Median kernel time on the reference box: x86_64, 2 vCPUs, numpy 2.4.6 with
# OpenBLAS 0.3.31 on one thread.
REFERENCE_S = 3.7e-3
# Kernel times around an interval that its scale factor uses (a median):
# enough to smooth the kernel's own jitter, few enough to follow stretches
# of several seconds.
WINDOW = 32
# Op time between two probes: long enough that probing costs about a tenth
# of the run, short against the stretches of several seconds it tracks.
PROBE_EVERY_S = 0.025

# Bound before the tracer can rebind numpy.linalg, so the kernel never changes.
_det, _eigvals, _slogdet = np.linalg.det, np.linalg.eigvals, np.linalg.slogdet
_rng = np.random.default_rng(12345)
_A8, _B8, _A32, _A256 = (_rng.standard_normal((n, n)) + 1j * _rng.standard_normal((n, n))
                         for n in (8, 8, 32, 256))


def _kernel() -> float:
    for _ in range(8):
        _det(np.block([[_A8, _B8], [_B8.conj(), _A8.conj()]]))
    _eigvals(_A32)
    _slogdet(_A256)
    s = 0.0
    for i in range(2000):
        s += i * 0.5
    return s


def probe() -> float:
    """Time one run of the kernel, in seconds."""
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


def factors(probes: list[float]) -> list[float]:
    """Scale factor for each interval between consecutive probes."""
    half = WINDOW // 2
    return [REFERENCE_S / statistics.median(probes[max(0, i + 1 - half): i + 1 + half])
            for i in range(len(probes) - 1)]
