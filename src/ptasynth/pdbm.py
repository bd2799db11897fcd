"""Parametric difference-bound matrices constrained by parameter sets.

A constrained matrix pairs a zone matrix whose entries are affine bounds
over the parameters with the extension of a constraint set: an int whose
bits are the box points it describes.  Operations whose effect depends
on the parameters fork the extension into complementary branches, so
most operations here return a list of matrices with pairwise-disjoint,
non-empty extensions.

An entry is the id that a ``BoundTable`` gives its bound, 0 for
infinity, so the loops here read and compare small ints and look sums,
comparisons and widening windows up by them.  The table belongs to the
graph (``explore.build_graph`` makes one per run) and knows its box;
every operation here takes it.  ``matrix_of`` and the guard atoms take
bounds in; ``dump`` and ``evaluate_all`` read the ids back.

Strictness bookkeeping follows the difference-bound order throughout: at
equal values a strict bound is tighter than a weak one, and the sum of two
bounds is weak only when both summands are.

Each operation wraps a row helper that works on a branch's own rows in
place (guard and reset copy tuple rows first) and copies them at a fork.
``transition`` runs a whole edge on them, making one matrix per branch;
it is also where the target's inactive clocks are freed and the non-Zeno
gate clock's lower bounds are dropped.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import zones
from .errors import SoundnessError
from .params import (
    INF_BOUND,
    INF_ID,
    ZERO_LE_ID,
    BoundTable,
    StrictBound,
    ValuationSet,
)
# not called here: perfbench/tracer.py replaces them (test_bench_hooks.py)
from .params import bound_le_constraint, covers  # noqa: F401

# an atomic clock constraint x_i - x_j < / <= e
Atom = tuple[int, int, StrictBound]

# bound ids of a BoundTable
Matrix = tuple[tuple[int, ...], ...]


class CPDBM(NamedTuple):
    """Zone matrix plus the valuations under which it is read: ``bits``
    is their extension over the box."""

    bits: int
    mat: Matrix
    canonical: bool = False

    @property
    def n(self) -> int:
        return len(self.mat)


def matrix_of(n: int, entries: Mapping[tuple[int, int], StrictBound],
              table: BoundTable) -> Matrix:
    """Matrix with (0, <=) everywhere except the given entries, as the
    ids ``table`` gives them."""
    ids = {ij: table.intern(b) for ij, b in entries.items()}
    return tuple(tuple(ids.get((i, j), ZERO_LE_ID) for j in range(n))
                 for i in range(n))


def initial_cpdbm(n_clocks: int, table: BoundTable) -> CPDBM:
    """All clocks equal and non-negative with time already released, at
    every point of the table's box."""
    n = n_clocks + 1
    mat = matrix_of(n, {(i, 0): INF_BOUND for i in range(1, n)}, table)
    return CPDBM(ValuationSet.full(table.box).bits, mat, canonical=True)


def _interned(atoms: Sequence[Atom], table: BoundTable) -> tuple:
    """The atoms with their bounds' ids, and their sorted clocks."""
    return ([(i, j, table.intern(g)) for i, j, g in atoms],
            sorted({c for i, j, _ in atoms for c in (i, j)}))


def apply_guard(z: CPDBM, atoms: Sequence[Atom],
                table: BoundTable) -> list[CPDBM]:
    """Left fold of a conjunction of guard atoms, with a three-way outcome
    per atom on whether the current bound already lies within the atom's:
    keep the matrix, replace the entry, or fork the extension into both
    cases, the unchanged branch first.  Empty branches are dropped."""
    return [CPDBM(ext, tuple(map(tuple, rows)), z.canonical and not changed)
            for rows, ext, changed in _guard_rows(
                z.mat, z.bits, _interned(atoms, table)[0], table)]


def _guard_rows(rows, ext: int, atoms: Sequence[Atom],
                table: BoundTable) -> list:
    """``apply_guard`` of atoms with bound ids on one branch's rows: its
    branches as (rows, ext, changed); an unchanged branch keeps ``rows``.
    A clock-free atom ``0 - 0 < e`` narrows ``ext`` and writes no entry."""
    branches = [(rows, ext, False)]
    for i, j, g in atoms:
        nxt = []
        for rows, ext, changed in branches:
            within = ext & table.le_bits(rows[i][j], g)
            if i == j:  # the diagonal entry is (0, <=)
                ext = within
            elif within != ext:
                if within:
                    nxt.append((rows, within, changed))
                    rows, ext = [list(r) for r in rows], ext & ~within
                elif type(rows) is tuple:
                    rows = [list(r) for r in rows]
                rows[i][j] = g
                changed = True
            if ext:
                nxt.append((rows, ext, changed))
        branches = nxt
    return branches


def canonicalize(z: CPDBM, table: BoundTable) -> list[CPDBM]:
    """Tighten every entry to the strongest derivable bound, forking the
    extension whenever a relaxation's outcome depends on the parameters.

    Floyd-Warshall on every branch: entry (i, j) takes (i, k) + (k, j)
    where that is strictly tighter; ties never fork, and on a fork the
    tighter-or-tie valuations come first.  A tighter diagonal empties the
    zone there.  The branches are canonical and non-empty, in the order a
    step-by-step pass over all branches would list them.
    """
    if z.canonical:
        return [z]
    return [CPDBM(ext, tuple(map(tuple, rows)), canonical=True)
            for rows, ext in _close([list(r) for r in z.mat], z.bits,
                                    range(z.n), table)]


def _close(rows: list, ext: int, ks: Sequence[int],
           table: BoundTable) -> list:
    """``canonicalize`` of a branch's own rows through pivots ``ks``."""
    n = len(rows)
    sums, les = table.sums, table.les
    out = []
    # depth first: a fork goes on with its first branch; the second restarts
    # the current pivot, whose earlier relaxations are no-ops on it
    todo = [(0, rows, ext)]
    while todo:
        at, rows, ext = todo.pop()
        for kpos in range(at, len(ks)):
            k = ks[kpos]
            row_k = rows[k]
            for i in range(n):
                if i == k:
                    continue  # a clean diagonal cannot tighten
                a = rows[i][k]
                if not a:
                    continue
                plus_a = sums[a]
                row_i = rows[i]
                for j in range(n):
                    b = row_k[j]
                    if j == k or not b:
                        continue
                    # a sum of finite bounds is finite: never 0
                    cand = plus_a.get(b) or table.add(a, b)
                    cur = row_i[j]
                    if cand == cur:
                        continue
                    le = les[cur].get(cand)
                    if le is None:
                        le = table.le_bits(cur, cand)
                    kept = ext & le  # where the candidate is not tighter
                    if kept == ext:
                        continue
                    if i == j:
                        ext = kept  # 0 when the zone is empty everywhere
                        if not ext:
                            break
                        continue
                    if kept:
                        tie = les[cand].get(cur)
                        if tie is None:
                            tie = table.le_bits(cand, cur)
                        if ext & tie != ext:
                            todo.append((kpos, [r[:] for r in rows],
                                         ext & ~tie))
                            ext &= tie
                    row_i[j] = cand
                if not ext:
                    break
            if not ext:
                break
        else:
            out.append((rows, ext))
    return out


def constrain(z: CPDBM, atoms: Sequence[Atom],
              table: BoundTable) -> list[CPDBM]:
    """Apply a guard to a canonical matrix and restore canonical form.

    Only entries between the guard's clocks are tightened, so a shorter
    path runs through them, and closing through them alone is exact: the
    incremental closure of Bengtsson and Yi, O(|clocks| * n^2) per branch.
    Raises SoundnessError when ``z`` is not marked canonical.
    """
    if not z.canonical:
        raise SoundnessError("constrain needs a canonical matrix")
    return [CPDBM(ext, tuple(map(tuple, rows)), canonical=True) for rows, ext
            in _constrain_rows(z.mat, z.bits, *_interned(atoms, table), table)]


def _constrain_rows(rows, ext: int, atoms: Sequence[Atom],
                    pivots: Sequence[int], table: BoundTable) -> list:
    """``constrain`` of atoms with bound ids on canonical rows, as
    (rows, ext)."""
    out = []
    for rows, ext, changed in _guard_rows(rows, ext, atoms, table):
        out.extend(_close(rows, ext, pivots, table) if changed
                   else [(rows, ext)])
    return out


def _reset_rows(rows, clocks: Sequence[int], release: bool) -> list:
    """Reset the sorted ``clocks`` to zero on one branch's rows, lowest
    index first, then with ``release`` remove all clock upper bounds (time
    successor); keeps canonical form."""
    if type(rows) is tuple:
        rows = [list(r) for r in rows]
    for r in clocks:
        rows[r][:r] = rows[0][:r]
        rows[r][r + 1:] = rows[0][r + 1:]
        for i, row in enumerate(rows):
            if i != r:
                row[r] = row[0]
    if release:
        for row in rows[1:]:
            row[0] = INF_ID
    return rows


def _free_rows(rows: list, clocks: Sequence[int]) -> list:
    """Free the ``clocks`` on one branch's own rows: each keeps no bound
    but its lower bound 0, in relation to no other clock (existential
    projection, Daws and Yovine's inactive clocks); keeps canonical
    form."""
    for c in clocks:
        for row in rows:
            row[c] = row[0]
        rows[c] = [INF_ID] * len(rows)
        rows[c][c] = ZERO_LE_ID
    return rows


def _unbound_below(rows: list, g: int) -> list:
    """Drop every lower bound of clock ``g`` on one branch's own rows but
    ``g >= 0``, its differences with the other clocks included: its
    column becomes the zero clock's, so the zone also holds every point
    with a smaller ``g``, while its row, and so its upper bounds, stay.
    Keeps canonical form where every clock is non-negative, as in every
    zone the engines reach.  No-op for ``g`` 0."""
    if g:
        for i, row in enumerate(rows):
            if i != g:
                row[g] = row[0]
    return rows


def extrapolate(z: CPDBM, maxima: Sequence[int],
                table: BoundTable) -> list[CPDBM]:
    """Widen bounds past the per-clock maxima so that finite entries only
    ever evaluate inside [-maxima[j], maxima[i]]: per off-diagonal entry,
    bounds above the row clock's maximum become infinite and bounds below
    minus the column clock's maximum are floored to a strict bound there,
    forking the extension where that depends on the valuation (kept branch
    first, floored next, widened last).  Changed results are non-canonical."""
    branches = _widen_rows([list(r) for r in z.mat], z.bits,
                           widening(maxima, table), table)
    return [CPDBM(ext, tuple(map(tuple, rows)) if changed else z.mat,
                  canonical=z.canonical and not changed)
            for rows, ext, changed in branches]


def widening(maxima: Sequence[int], table: BoundTable) -> tuple:
    """A clock-bound vector with its window memos and floors."""
    return (maxima, table.windows(maxima), [table.floor(m) for m in maxima])


def _widen_rows(rows: list, ext: int, widen: tuple,
                table: BoundTable) -> list:
    """``extrapolate`` of one branch's own rows, with the ``widening`` of
    the clock bounds: its branches as (rows, ext, changed)."""
    maxima, windows, floors = widen
    n = len(rows)
    out = []
    # depth first, as in _close: a fork leaves its other branches to
    # restart the current row, whose earlier cells are no-ops on them
    todo = [(0, rows, ext, False)]
    while todo:
        at, rows, ext, changed = todo.pop()
        for i in range(at, n):
            row = rows[i]
            memos = windows[i]
            for j in range(n):
                e = row[j]
                if i == j or not e:
                    continue
                win = memos[j].get(e) or \
                    table.window_bits(e, maxima[i], -maxima[j])
                below = ext & win[0]
                if below == ext and ext & win[1] == ext:
                    continue
                if below != ext:
                    if not below:
                        row[j] = INF_ID
                        changed = True
                        continue
                    todo.append(_fork(i, rows, j, INF_ID, ext & ~below))
                    ext = below
                above = ext & win[1]
                if above != ext:
                    if not above:
                        row[j] = floors[j]
                        changed = True
                    else:  # pops before the widened fork
                        todo.append(_fork(i, rows, j, floors[j], ext & ~above))
                        ext = above
        out.append((rows, ext, changed))
    return out


def _fork(i: int, rows: list, j: int, b: int, ext: int) -> tuple:
    """A copy of ``rows`` with entry (i, j) set to ``b``, restarting row i."""
    rows = [r[:] for r in rows]
    rows[i][j] = b
    return (i, rows, ext, True)


def transition_plan(atoms: Sequence[Atom], resets: Iterable[int],
                    inv: Sequence[Atom], maxima: Sequence[int],
                    free: Sequence[int], gate: int,
                    table: BoundTable) -> tuple:
    """What ``transition`` reads of one edge: guard and target invariant
    with bound ids and their clocks, sorted resets, the target's inactive
    clocks ``free``, the non-Zeno ``gate`` clock (``model.make_nonzeno``;
    0 for none) and the target's ``widening``."""
    return (*_interned(atoms, table), sorted(resets), *_interned(inv, table),
            tuple(free), gate, widening(maxima, table))


def transition(z: CPDBM, plan: tuple, table: BoundTable,
               counts: dict[str, int]) -> list[CPDBM]:
    """The successor branches of the canonical ``z`` along the edge of
    ``plan`` in one pass over its rows: those, in order, of ``constrain`` by
    the guard, the reset with time release (``_reset_rows``), ``constrain``
    by the invariant, freeing the target's inactive clocks (``_free_rows``),
    dropping the gate clock's lower bounds (``_unbound_below``) and
    ``extrapolate``, with their added branches tallied in ``counts``.
    Freeing and dropping never fork, and a freed clock's bound is 0 at the
    target, so its entries lie inside the target's widening window.

    Dropping is exact for the gate clock, which only its lower-bound guard
    ``>= 1`` reads: with the LU bounds of Behrmann, Bouyer, Larsen and
    Pelanek (TACAS 2004) L = 1 and U = -infinity for it, every added point
    is LU-simulated by a point of the zone with the same other clocks and
    a larger gate clock, so the step lies inside Extra_LU, which keeps
    Buchi emptiness.  The other clocks' projection is unchanged, so the
    deadlock fold, which the gate never decides, sees the same points."""
    if not z.canonical:
        raise SoundnessError("transition needs a canonical matrix")
    guard, guard_ks, resets, inv, inv_ks, free, gate, widen = plan
    out = []
    g1 = _constrain_rows(z.mat, z.bits, guard, guard_ks, table)
    _tally(counts, "guard", len(g1))
    for rows, ext in g1:
        g2 = _constrain_rows(_reset_rows(rows, resets, True), ext, inv,
                             inv_ks, table)
        _tally(counts, "guard", len(g2))
        for rows, ext in g2:
            ex = _widen_rows(_unbound_below(_free_rows(rows, free), gate),
                             ext, widen, table)
            _tally(counts, "extrapolate", len(ex))
            out.extend(CPDBM(ext, tuple(map(tuple, rows)), not changed)
                       for rows, ext, changed in ex)
    return out


def _tally(counts: dict[str, int], tag: str, n: int) -> None:
    if n > 1:
        counts[tag] = counts.get(tag, 0) + n - 1


def negate_atom(atom: Atom) -> Atom:
    """Complement of a finite atomic constraint: not(xi - xj < e) is
    xj - xi <= -e and dually for weak bounds."""
    i, j, b = atom
    return (j, i, StrictBound(-b.expr, not b.strict))


def evaluate_all(z: CPDBM, table: BoundTable) -> np.ndarray:
    """Encoded matrices at every box point: shape (box.size, n, n)."""
    box = table.box
    out = np.empty((box.size, z.n, z.n), dtype=np.int64)
    for i, row in enumerate(z.mat):
        for j, b in enumerate(map(table.bound, row)):
            out[:, i, j] = zones.INF if b.expr is None else \
                zones.encode(box.values(b.expr), b.strict)
    return out


def atom_text(names: Sequence[str], i: int, j: int, b: StrictBound) -> str:
    """The clock atom (i, j, b) as ``x - y < e``, clocks named by ``names``."""
    return f"{names[i]} - {names[j]} {'<' if b.strict else '<='} {b.expr}"


def dump(z: CPDBM, table: BoundTable,
         names: Sequence[str] | None = None) -> str:
    """Debug text: one line per finite entry, then one line per valuation
    of the extension."""
    names = names or [f"x{i}" for i in range(z.n)]
    lines = [atom_text(names, i, j, b) for i, row in enumerate(z.mat)
             for j, b in enumerate(map(table.bound, row))
             if i != j and not b.is_inf]
    lines.append("where:")
    lines += ["  " + ", ".join(f"{p}={x}" for p, x in v.items())
              for v in ValuationSet(table.box, z.bits)]
    return "\n".join(lines)
