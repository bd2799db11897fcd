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

import numpy as np

INF = 1 << 40

_ZERO_WEAK = 1


def close(m, pivots=None):
    for k in range(m.shape[0]) if pivots is None else pivots:
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
