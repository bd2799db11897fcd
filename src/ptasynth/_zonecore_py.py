"""Pure numpy twin of the compiled zone-closure kernel ``_zonecore.c``.

Same contract as the compiled module: ``close_many(ms, ok)`` closes a
``(count, n, n)`` stack in place by full Floyd-Warshall and sets ``ok[t]``
to 1 when matrix ``t`` is non-empty.  It is the path that runs without a C
compiler and under ``PTASYNTH_PURE=1``, and the reference the compiled
kernel is tested against.  Each of the ``n`` relaxation rounds (one per
intermediate clock) is vectorized over the whole stack, so a batch costs
``n`` numpy passes whatever its length.
"""

import numpy as np

INF = 1 << 40

_ZERO_WEAK = 1


def close_many(ms, ok):
    for k in range(ms.shape[1]):
        col = ms[:, :, k, None]
        row = ms[:, None, k, :]
        s = col + row - ((col | row) & 1)
        np.copyto(s, INF, where=(col >= INF) | (row >= INF))
        np.minimum(ms, s, out=ms)
    good = (np.diagonal(ms, axis1=1, axis2=2) >= _ZERO_WEAK).all(axis=1)
    ok[:] = good.astype(np.uint8)
