"""Pure numpy twin of the compiled zone-closure kernel ``_zonecore.c``.

Same contract as the compiled module: ``close(m, pivots=None)`` and
``close_many(ms, ok)`` close in place and report emptiness.  ``close`` runs
Floyd-Warshall over every clock, or over the clocks in ``pivots`` only; the
pivot closure is exact when the matrix was canonical before the entries
between pivot clocks were tightened (every shortest path that uses a
tightened entry then has all its inner vertices among the pivots).  It is
the path that runs without a C compiler and under ``PTASYNTH_PURE=1``, and
the reference the compiled kernel is tested against.  The closure loops are
vectorized per pivot row/column, so it is fast enough for the test suite
but much slower than the compiled kernel on the per-state call pattern of
the enumeration engine.
"""

import operator

import numpy as np

INF = 1 << 40

_ZERO_WEAK = 1


def _clock_indices(pivots, n):
    """The pivots as clock indices below ``n``; ValueError for anything
    else, raised before any write, as in the compiled kernel."""
    try:
        items = list(pivots)
    except TypeError:
        raise ValueError("pivots must be a sequence of clock indices") from None
    for t, item in enumerate(items):
        try:
            k = operator.index(item)
        except TypeError:
            k = -1
        if not 0 <= k < n:
            raise ValueError(f"pivot {t} is not a clock index below {n}")
    return items


def close(m, pivots=None):
    n = m.shape[0]
    for k in range(n) if pivots is None else _clock_indices(pivots, n):
        col = m[:, k, None]
        row = m[None, k, :]
        s = col + row - ((col | row) & 1)
        np.copyto(s, INF, where=(col >= INF) | (row >= INF))
        np.minimum(m, s, out=m)
    return bool((np.diagonal(m) >= _ZERO_WEAK).all())


def close_many(ms, ok):
    for k in range(ms.shape[1]):
        col = ms[:, :, k, None]
        row = ms[:, None, k, :]
        s = col + row - ((col | row) & 1)
        np.copyto(s, INF, where=(col >= INF) | (row >= INF))
        np.minimum(ms, s, out=ms)
    good = (np.diagonal(ms, axis1=1, axis2=2) >= _ZERO_WEAK).all(axis=1)
    ok[:] = good.astype(np.uint8)
