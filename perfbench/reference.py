"""A fixed reference computation that gauges how fast this host runs right now.

A shared host's speed drifts by tens of percent over tens of seconds,
so the wall time of a CLI invocation says as much about the neighbours
as about the program.  child.py times this fixed work right before each
invocation, in the same process; wall_rel, the invocations' wall time
divided by the reference's, cancels the drift that both see.  It
cancels only drift slower than an invocation, which is why the
workloads keep an invocation under about a second.

The work uses Python and numpy only, never hurstscan, so no change to
the program changes it.  Its mix resembles the program's: detrending
many short segments with small numpy arrays, as MF-DFA does, and a
scalar Python recursion, as the GARCH likelihood does.  Its inputs are
fixed, not drawn from the benchmark's seed.
"""
from __future__ import annotations

import math
import time

import numpy as np

REPEATS = 40  # about 0.2 s on a 2-vCPU x86-64 cloud host
_SERIES = np.random.default_rng(20120322).standard_normal(500) * 0.01
_SCALES = range(10, 51)
_LONG = np.tile(_SERIES, 10)  # the recursion does close to half the work


def _detrend(x: np.ndarray) -> float:
    profile = np.cumsum(x - x.mean())
    total = 0.0
    for s in _SCALES:
        n = profile.size // s
        segments = np.concatenate(
            [profile[: n * s].reshape(n, s), profile[profile.size - n * s :].reshape(n, s)]
        )
        basis = np.linalg.qr(np.vander(np.arange(s, dtype=float), 2, increasing=True))[0]
        residuals = segments - (segments @ basis) @ basis.T
        total += math.log(float(np.mean(residuals**2)))
    return total


def _recursion(x: np.ndarray) -> float:
    h, ll = float(np.var(x)), 0.0
    for r in x.tolist():
        ll -= 0.5 * (math.log(h) + r * r / h)
        h = 1e-6 + 0.08 * r * r + 0.91 * h
    return ll


def run(repeats: int = REPEATS) -> float:
    """Wall seconds of `repeats` passes over the fixed work."""
    t0 = time.perf_counter()
    for _ in range(repeats):
        _detrend(_SERIES)
        _recursion(_LONG)
    return time.perf_counter() - t0
