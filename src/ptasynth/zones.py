"""Concrete difference-bound matrices over integers.

A zone over ``n`` clock slots (index 0 is the constant-zero clock) is an
``(n, n)`` int64 array whose entry ``(i, j)`` encodes the bound on
``x_i - x_j``.  Encoding (``encode``): ``(value << 1) | weak`` with
``weak = 1`` for ``<=``; infinity is a large sentinel.  Smaller encoded
value = tighter bound, and bound addition is ``a + b - ((a | b) & 1)``.

The closure loop lives in ``_zonecore``, a hand-written C extension that
``setup.py`` builds when a C compiler is available; without it it runs in
the numpy twin ``_zonecore_py``.  Set ``PTASYNTH_PURE=1`` to force the pure
fallback.  Both export one kernel over a C-contiguous stack of matrices,
in place, with one emptiness flag per matrix: ``constrain_many``, which
tightens matrices by atoms and re-closes each through the entry of every
atom that is finite and not looser than it, one O(n^2) pass per atom.
Here ``constrain_many`` applies it to canonical matrices, and full
closure, ``close_many``, applies it to the diagonal atoms ``(k, k)`` at
``(0, <=)`` for k = 0 .. n-1: re-closing through diagonal entry k is
round k of Floyd-Warshall.
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
    """Close a C-contiguous (count, n, n) stack in place; returns a boolean
    non-empty mask.  The kernel re-closes each matrix through its diagonal
    entries in order, at (0, <=), which is Floyd-Warshall."""
    count, n, _ = ms.shape
    pos = np.tile(np.arange(0, n * n, n + 1, dtype=np.int64), (count, 1))
    return constrain_many(ms, pos, np.full_like(pos, ZERO_WEAK))


def constrain_many(ms: np.ndarray, pos: np.ndarray,
                   enc: np.ndarray) -> np.ndarray:
    """Tighten a C-contiguous (count, n, n) stack of canonical non-empty
    matrices in place: matrix ``t`` takes each atom of row ``t`` of the
    C-contiguous ``pos`` and ``enc`` (count, k) in turn, the flat entry
    ``pos[t, a]`` bounded by the encoded ``enc[t, a]``, and stays
    canonical.  Returns a boolean non-empty mask.  A position may repeat
    in a row, and atom (0, INF) pads a row; a matrix whose atoms tighten
    nothing is left unchanged.  Arrays that are not C-contiguous int64
    raise ValueError."""
    ok = np.empty(ms.shape[0], dtype=np.uint8)
    if len(ok):
        _core.constrain_many(ms, pos, enc, ok)
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
        np.copyto(m, encode(-bounds, True)[..., None, :], where=lo)
    return changed

