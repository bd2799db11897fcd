"""A fixed reference computation that measures how fast this machine runs
right now, independent of ptasynth.

On a shared machine the speed of one core drifts by tens of percent within
seconds and between minutes, which no amount of repetition inside one run
averages out.  While an engine runs, a ``SpeedMeter`` times this probe
from a timer signal every ``INTERVAL_S``; the benchmark subtracts the
probes' own time from the engine's and scales the rest by
``REFERENCE_S / mean probe time``, so that a time reads as it would at the
speed where the probe takes ``REFERENCE_S``.

The mix follows the engines' own work: small-integer matrix relaxations
in pure Python (the symbolic engine) and closures of small int64 arrays
with numpy (the enumeration engine).
"""

from __future__ import annotations

import signal
import time

import numpy as np

# probe time on the 2-core Xeon (2.1 GHz) virtual machine the benchmark
# was defined on
REFERENCE_S = 0.0045
INTERVAL_S = 0.25


_MATRIX = [[(i * 3 + j * 5) % 11 - 2 for j in range(5)] for i in range(5)]
_TABLE = [[(a * 7 + b) % 256 for b in range(40)] for a in range(40)]
_BASE = np.arange(16, dtype=np.int64).reshape(4, 4)
_M = np.empty((4, 4), dtype=np.int64)
_SUMS = np.empty((4, 4), dtype=np.int64)


# The probe runs inside the engine's process, so it must not depend on the
# engine's heap: every int it computes is below 256 (CPython keeps those
# cached) and the arrays it writes are allocated once above.  It allocates
# nothing but loop iterators and array views, which go back to the free
# lists at once, and so never triggers a garbage collection.

def _python_part() -> int:
    m, table = _MATRIX, _TABLE
    total = 0
    for _ in range(160):
        for k in range(5):
            row_k = m[k]
            for i in range(5):
                row = table[m[i][k] % 40]
                for j in range(5):
                    total ^= row[row_k[j] % 40]
    return total


def _numpy_part() -> int:
    m, sums = _M, _SUMS
    for seed in range(3, 103):
        np.multiply(_BASE, seed, out=m)
        np.remainder(m, 13, out=m)
        for k in range(4):
            np.add(m[:, k, None], m[None, k, :], out=sums)
            np.minimum(m, sums, out=m)
    return int(m[3, 3])


def probe() -> float:
    """Seconds one run of the reference computation takes."""
    t0 = time.perf_counter()
    _python_part()
    _numpy_part()
    return time.perf_counter() - t0


class SpeedMeter:
    """Times the probe on entry, on exit and every ``INTERVAL_S`` of wall
    time in between, from a SIGALRM handler in the main thread.  The first
    sample is taken right after entry, so it reads the speed of the moments
    before it.

    ``samples`` holds the probe times and ``spent`` their sum, which callers
    subtract from the time they measured around the work; ``on_sample``, if
    given, is called with each probe's time."""

    def __init__(self, on_sample=None):
        self.on_sample = on_sample
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        self.samples.append(probe())
        took = time.perf_counter() - t0
        self.spent += took
        if self.on_sample is not None:
            self.on_sample(took)

    def __enter__(self) -> "SpeedMeter":
        probe()  # the first run pays one-off costs; time warm runs only
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
