"""Concrete difference-bound matrices over integers.

A zone over ``n`` clock slots (index 0 is the constant-zero clock) is an
``(n, n)`` int64 array whose entry ``(i, j)`` encodes the bound on
``x_i - x_j``.  Encoding: ``(value << 1) | weak`` with ``weak = 1`` for
``<=``; infinity is a large sentinel.  Smaller encoded value = tighter
bound, and bound addition is ``a + b - ((a | b) & 1)``.

The closure loops live in ``_zonecore``, a hand-written C extension that
``setup.py`` builds when a C compiler is available; without it they run in
the numpy twin ``_zonecore_py``.  Set ``PTASYNTH_PURE=1`` to force the pure
fallback.  Both close in place and report emptiness the same way, and both
take the same optional pivot list (see ``close``).
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


def decode(enc: int) -> tuple[int, bool] | None:
    if enc >= INF:
        return None
    return (enc >> 1, not (enc & 1))


def zero_zone(n: int) -> np.ndarray:
    """All clocks equal to zero."""
    return np.full((n, n), ZERO_WEAK, dtype=np.int64)


def close(m: np.ndarray, pivots=None) -> bool:
    """Close in place by Floyd-Warshall over the clocks in ``pivots``, or
    over every clock when it is None; False when the zone is empty.

    Closing through the pivots only is exact when the matrix was canonical
    before the entries between pivot clocks were tightened: a shortest path
    then needs no inner vertex outside the pivots (Bengtsson and Yi's
    incremental closure).  Entries of an empty zone are unspecified."""
    return _core.close(m, pivots)


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


def reset(m: np.ndarray, clocks) -> None:
    """Reset ``clocks`` to zero; requires a closed matrix."""
    for r in sorted(clocks):
        m[r, :] = m[0, :]
        m[:, r] = m[:, 0]
        m[r, r] = ZERO_WEAK


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


def dump(m: np.ndarray, names) -> str:
    """One line per finite off-diagonal entry, ``xi - xj <op> value``."""
    n = m.shape[0]
    lines = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = decode(int(m[i, j]))
            if d is None:
                continue
            v, strict = d
            lines.append(f"{names[i]} - {names[j]} {'<' if strict else '<='} {v}")
    return "\n".join(lines)
