"""Pure numpy twin of the compiled zone kernel ``_zonecore.c``.

Same contract as the compiled module, one function on a ``(count, n, n)``
int64 stack, in place: ``constrain_many(ms, pos, enc, ok)``.  ``pos`` and
``enc`` are ``(count, k)`` int64 arrays: atom column ``a`` of row ``t``
bounds the flat entry ``pos[t, a]`` by the encoded ``enc[t, a]``.  Columns
are applied in order, each in one pass over the stack that re-closes
every matrix through its entry ``(i, j)`` at the tighter of atom and entry
(Bengtsson and Yi, *Timed Automata: Semantics, Algorithms and Tools*,
2004): ``m[a, b] = min(m[a, b], m[a, i] + c + m[j, b])``; a column whose
atoms are all looser than their entries or infinite is skipped.  A
canonical matrix re-closed through its own entry keeps every byte, so on
canonical non-empty input a row whose atoms tighten nothing is left as it
was, and so is padding, atom ``(0, INF)``.  Re-closing through diagonal
entry ``k`` at ``(0, <=)`` is round ``k`` of Floyd-Warshall, so the same
function closes any matrix in full.  ``ok[t]`` (uint8) is set to 1 when
matrix ``t`` is non-empty, read off its diagonal at the end.  Bad shapes,
dtypes or positions raise ``ValueError`` before any write.

It is the path that runs without a C compiler and under
``PTASYNTH_PURE=1``, and the reference the compiled kernel is tested
against.
"""

import numpy as np

INF = 1 << 40

_ZERO_WEAK = 1
_BIG = INF << 8  # stands for infinity in sums: above INF whatever is added


def _check_constrain(ms, pos, enc, ok):
    """The compiled kernel's argument checks: ValueError on any failure."""
    for a, ndim, dtype in ((ms, 3, np.int64), (pos, 2, np.int64),
                           (enc, 2, np.int64), (ok, 1, np.uint8)):
        if (not isinstance(a, np.ndarray) or a.ndim != ndim
                or a.dtype != dtype or not a.flags.c_contiguous):
            raise ValueError(f"expected a C-contiguous {ndim}-d "
                             f"{np.dtype(dtype).name} array")
    if not (ms.flags.writeable and ok.flags.writeable):
        raise ValueError("expected a writable array")
    count, n, n2 = ms.shape
    if n != n2:
        raise ValueError("expected square matrices")
    if pos.shape != enc.shape or pos.shape[0] != count or len(ok) != count:
        raise ValueError(f"pos {pos.shape}, enc {enc.shape} and ok "
                         f"{ok.shape} do not fit {count} matrices")
    if (pos.view(np.uint64) >= n * n).any():
        raise ValueError(f"an atom position lies outside [0, {n * n})")


def constrain_many(ms, pos, enc, ok):
    _check_constrain(ms, pos, enc, ok)
    count, n, _ = ms.shape
    flat = ms.reshape(count, n * n)
    rows = np.arange(count)
    # earlier columns only lower entries, so a column whose atoms are all
    # looser than the input's entries or infinite stays so later
    cur = flat[rows[:, None], pos]
    live = ((enc <= cur) & (enc < INF)).any(axis=0).nonzero()[0].tolist()
    if live:
        # every row is re-closed through its entry at the tighter of atom
        # and input entry: a canonical matrix re-closed through an entry
        # at that entry's bound or looser keeps every byte, so rows whose
        # atom tightens nothing stay as they are.  Infinity is _BIG until
        # the end, so that no sum through an infinite bound wins a minimum
        through = np.minimum(enc, cur)
        np.putmask(through, through >= INF, _BIG)
        np.putmask(ms, ms >= INF, _BIG)
        i_of, j_of = np.divmod(pos, n)
        for a in live:
            c = through[:, a, None]
            to = ms[rows, :, i_of[:, a]]
            to = (to + c - ((to | c) & 1))[:, :, None]
            fro = ms[rows, j_of[:, a]][:, None, :]
            s = to + fro
            w = to | fro
            w &= 1
            s -= w
            np.minimum(ms, s, out=ms)
        np.minimum(ms, INF, out=ms)
    # a bound that empties a zone closes a negative cycle through its
    # entry, which the pass writes onto the diagonal; no later pass raises
    # it again
    ok[:] = flat[:, ::n + 1].min(axis=1) >= _ZERO_WEAK
