"""Concrete difference-bound matrices over integers.

A zone over ``n`` clock slots (index 0 is the constant-zero clock) is an
``(n, n)`` int64 array whose entry ``(i, j)`` encodes the bound on
``x_i - x_j``.  Encoding: ``(value << 1) | weak`` with ``weak = 1`` for
``<=``; infinity is a large sentinel.  Smaller encoded value = tighter
bound, and bound addition is ``a + b - ((a | b) & 1)``.

The closure loops live in ``_zonecore``, a hand-written C extension that
``setup.py`` builds when a C compiler is available; without it they run in
the numpy twin ``_zonecore_py``.  Set ``PTASYNTH_PURE=1`` to force the pure
fallback.  Both export one closure, ``close_many``: full Floyd-Warshall
over a stack of matrices, in place, with one emptiness flag per matrix.
"""

from __future__ import annotations

import os

import numpy as np

if os.environ.get("PTASYNTH_PURE"):
    from . import _zonecore_py as _core

    BACKEND = "python"
else:
    try:
        from . import _zonecore as _core

        BACKEND = "compiled"
    except ImportError:
        from . import _zonecore_py as _core

        BACKEND = "python"

INF = _core.INF
ZERO_WEAK = 1


def encode(value: int, strict: bool) -> int:
    return (value << 1) | (0 if strict else 1)


def close(m: np.ndarray) -> bool:
    """Close one (n, n) matrix in place; False when the zone is empty."""
    return bool(close_many(m[None])[0])


def close_many(ms: np.ndarray) -> np.ndarray:
    """Close a (count, n, n) batch in place; returns a boolean non-empty mask.
    A batch that is not C-contiguous is closed in a copy and copied back."""
    ok = np.empty(ms.shape[0], dtype=np.uint8)
    if ms.shape[0]:
        work = np.ascontiguousarray(ms)
        _core.close_many(work, ok)
        if work is not ms:
            ms[...] = work
    return ok.astype(bool)


def up(m: np.ndarray) -> None:
    """Remove upper bounds on all clocks (time successor), of one matrix or
    of every matrix in a stack."""
    m[..., 1:, 0] = INF


def extrapolate(m: np.ndarray, bounds: np.ndarray):
    """Widen entries past the per-clock maxima, of one matrix or of every
    matrix in a stack, in place: entries above the row clock's maximum
    become infinite, entries below minus the column clock's maximum are
    floored to a strict bound there.  ``bounds`` holds the maxima, one
    vector (n,) for every matrix or a (count, n) stack with one row per
    matrix.  Returns whether each matrix changed (the caller re-closes
    those)."""
    finite = m < INF
    vals = m >> 1
    hi = finite & (vals > bounds[..., :, None])
    lo = finite & ~hi & (vals < -bounds[..., None, :])
    changed = (hi | lo).any(axis=(-2, -1))
    if changed.any():
        m[hi] = INF
        m[lo] = np.broadcast_to(((-bounds) << 1)[..., None, :], m.shape)[lo]
    return changed

