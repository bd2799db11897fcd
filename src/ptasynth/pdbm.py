"""Parametric difference-bound matrices constrained by parameter sets.

A constrained matrix pairs a zone matrix whose entries are affine bounds
over the parameters with the extension of a constraint set: an int whose
bits are the box points it describes.  Operations whose effect depends
on the parameters fork the extension into complementary branches, so
most operations here return a list of matrices with pairwise-disjoint,
non-empty extensions.

Strictness bookkeeping follows the difference-bound order throughout: at
equal values a strict bound is tighter than a weak one, and the sum of two
bounds is weak only when both summands are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import zones
from .errors import SoundnessError
from .params import (
    BoundTable,
    INF_BOUND,
    ParamBox,
    StrictBound,
    ValuationSet,
    ZERO_LE,
)
# not called here: the benchmark tracer (perfbench/tracer.py) replaces
# these two names on this module, and tests/test_bench_hooks.py fails
# while it cannot
from .params import bound_le_constraint, covers  # noqa: F401

# an atomic clock constraint x_i - x_j < / <= e
Atom = tuple[int, int, StrictBound]

Matrix = tuple[tuple[StrictBound, ...], ...]


@dataclass(frozen=True)
class CPDBM:
    """Zone matrix plus the valuations under which it is read: ``bits``
    is their extension over the box."""

    bits: int
    mat: Matrix
    canonical: bool = False

    @property
    def n(self) -> int:
        return len(self.mat)

    def with_entry(self, i: int, j: int, b: StrictBound) -> "CPDBM":
        rows = list(self.mat)
        row = list(rows[i])
        row[j] = b
        rows[i] = tuple(row)
        return CPDBM(self.bits, tuple(rows), canonical=False)


def matrix_of(n: int, entries: Mapping[tuple[int, int], StrictBound]) -> Matrix:
    """Matrix with (0, <=) everywhere except the given entries."""
    return tuple(
        tuple(entries.get((i, j), ZERO_LE) for j in range(n)) for i in range(n)
    )


def initial_cpdbm(n_clocks: int, box: ParamBox) -> CPDBM:
    """All clocks equal and non-negative with time already released, at
    every point of the box."""
    n = n_clocks + 1
    mat = matrix_of(n, {(i, 0): INF_BOUND for i in range(1, n)})
    return CPDBM(ValuationSet.full(box).bits, mat, canonical=True)


def apply_atomic_guard(z: CPDBM, atom: Atom, box: ParamBox) -> list[CPDBM]:
    """Constrain one entry by a guard atom.

    Three-way outcome on whether the current bound already lies within the
    guard bound: keep the matrix, replace the entry, or fork the extension
    into both cases.  The unchanged branch is listed first.
    """
    i, j, g = atom
    table = box.bounds
    g = table.intern(g)
    ext = z.bits
    within = ext & table.le_bits(z.mat[i][j], g)
    if within == ext:
        return [z]
    if not within:
        return [z.with_entry(i, j, g)]
    keep = CPDBM(within, z.mat, canonical=z.canonical)
    repl = CPDBM(ext & ~within, z.mat).with_entry(i, j, g)
    return [keep, repl]


def apply_guard(z: CPDBM, atoms: Sequence[Atom], box: ParamBox) -> list[CPDBM]:
    """Left fold of the atomic application over a conjunction of atoms;
    branches whose extension is empty are dropped."""
    branches = [z]
    for atom in atoms:
        nxt: list[CPDBM] = []
        for b in branches:
            nxt.extend(apply_atomic_guard(b, atom, box))
        branches = [b for b in nxt if b.bits]
    return branches


def canonicalize(z: CPDBM, box: ParamBox,
                 pivots: Sequence[int] | None = None) -> list[CPDBM]:
    """Tighten every entry to the strongest derivable bound, forking the
    extension whenever a relaxation's outcome depends on the parameters.

    This is Floyd-Warshall on every branch: entry (i, j) is relaxed with
    the candidate (i, k) + (k, j) for each pivot clock k.  The entry is
    rewritten only where the candidate is strictly tighter somewhere; pure
    ties never fork.  On a fork the tighter-or-tie valuations take the
    candidate (the bounds agree on ties, which keeps the branch count
    minimal) and come first, the rest keep the entry.  A diagonal entry
    is never rewritten: a tighter candidate there means the zone is empty,
    so those valuations are dropped and only the rest of the branch goes
    on.  Surviving branches are canonical and satisfiable at every
    valuation of their extension, in the order a step-by-step pass over
    all branches would list them.

    ``pivots`` limits the pivots to the given clocks.  That closes a
    matrix exactly only when it was canonical before the entries between
    pivot clocks were tightened; ``constrain`` is the entry point that
    holds to this.  Without it every clock is a pivot.
    """
    if z.canonical:
        return [z]
    ks = range(z.n) if pivots is None else pivots
    out: list[CPDBM] = []
    # depth first: a fork goes on with its first branch and leaves the
    # second to restart the current pivot, whose earlier relaxations are
    # no-ops on it
    todo = [(0, [list(r) for r in z.mat], z.bits)]
    while todo:
        at, rows, ext = todo.pop()
        ext = _close_branch(rows, ext, ks, at, todo, box.bounds)
        if ext:
            out.append(CPDBM(ext, tuple(map(tuple, rows)), canonical=True))
    return out


def _close_branch(rows: list, ext: int, ks: Sequence[int], at: int,
                  todo: list, table: BoundTable) -> int:
    """Relax ``rows`` in place through the pivots ``ks[at:]``; returns the
    branch's extension, 0 when the zone is empty everywhere on it.  Forks
    push their second branch on ``todo``."""
    n = len(rows)
    inf = INF_BOUND
    sums, les = table.sums, table.les
    for kpos in range(at, len(ks)):
        k = ks[kpos]
        row_k = rows[k]
        for i in range(n):
            if i == k:
                continue  # relaxing through a clean diagonal cannot tighten
            a = rows[i][k]
            if a is inf:
                continue
            plus_a = sums.get(id(a))
            if plus_a is None:
                plus_a = table.plus(a)
            row_i = rows[i]
            for j in range(n):
                b = row_k[j]
                if j == k or b is inf:
                    continue
                cand = plus_a.get(id(b))
                if cand is None:
                    cand = table.add(a, b)
                cur = row_i[j]
                if cand is cur or cand is inf:
                    continue
                le = les.get(id(cur) << 64 | id(cand))
                if le is None:
                    le = table.le_bits(cur, cand)
                kept = ext & le  # where the candidate is not tighter
                if kept == ext:
                    continue
                if i == j:
                    if not kept:
                        return 0
                    ext = kept
                    continue
                if kept:
                    tie = les.get(id(cand) << 64 | id(cur))
                    if tie is None:
                        tie = table.le_bits(cand, cur)
                    if ext & tie != ext:
                        todo.append((kpos, [r[:] for r in rows], ext & ~tie))
                        ext &= tie
                row_i[j] = cand
    return ext


def constrain(z: CPDBM, atoms: Sequence[Atom], box: ParamBox) -> list[CPDBM]:
    """Apply a guard to a canonical matrix and restore canonical form.

    Only entries between the guard's clocks are tightened, so a shortest
    path that improves on the old canonical matrix runs through those
    clocks, and closing through them alone as pivots is exact: the
    incremental closure of Bengtsson and Yi, O(|clocks| * n^2) per branch
    instead of O(n^3).  Raises SoundnessError when ``z`` is not marked
    canonical.
    """
    if not z.canonical:
        raise SoundnessError("constrain needs a canonical matrix")
    pivots = sorted({c for i, j, _ in atoms for c in (i, j)})
    out: list[CPDBM] = []
    for w in apply_guard(z, atoms, box):
        out.extend(canonicalize(w, box, pivots))
    return out


def reset(z: CPDBM, clocks: Iterable[int], release: bool = False) -> CPDBM:
    """Reset clocks to zero, lowest index first, and with ``release`` then
    remove all clock upper bounds (``up``) in the same copy; preserves
    canonical form."""
    rows = [list(r) for r in z.mat]
    n = z.n
    for r in sorted(clocks):
        for j in range(n):
            if j != r:
                rows[r][j] = rows[0][j]
        for i in range(n):
            if i != r:
                rows[i][r] = rows[i][0]
    if release:
        for i in range(1, n):
            rows[i][0] = INF_BOUND
    return CPDBM(z.bits, tuple(map(tuple, rows)), canonical=z.canonical)


def up(z: CPDBM) -> CPDBM:
    """Remove all clock upper bounds (time successor); preserves canonical
    form."""
    return reset(z, (), release=True)


def extrapolate(z: CPDBM, maxima: Sequence[int], box: ParamBox) -> list[CPDBM]:
    """Widen bounds past the per-clock maxima so that finite entries only
    ever evaluate inside [-maxima[j], maxima[i]].

    Per entry: bounds above the row clock's maximum become infinite, bounds
    below minus the column clock's maximum are floored to a strict bound
    there, and valuation-dependent cases fork the extension (kept
    branch first, floored next, widened last).  The diagonal and infinite
    entries are untouched.  Results are marked non-canonical when an entry
    changed.
    """
    n = z.n
    table = box.bounds
    windows = table.windows(maxima)
    floors = [table.floor(m) for m in maxima]
    out: list[CPDBM] = []
    # depth first, as in canonicalize: a fork leaves its other branches to
    # restart the current row, whose earlier cells are no-ops on them
    todo = [(0, [list(r) for r in z.mat], z.bits, False)]
    while todo:
        at, rows, ext, changed = todo.pop()
        for i in range(at, n):
            row = rows[i]
            memos = windows[i]
            for j in range(n):
                e = row[j]
                if i == j or e.expr is None:
                    continue
                win = memos[j].get(id(e))
                if win is None:
                    win = table.window_bits(e, maxima[i], -maxima[j])
                below = ext & win[0]
                if below == ext and ext & win[1] == ext:
                    continue
                forks = []
                if below != ext:
                    if not below:
                        row[j] = INF_BOUND
                        changed = True
                        continue
                    forks.append(_fork(i, rows, j, INF_BOUND, ext & ~below))
                    ext = below
                above = ext & win[1]
                if above != ext:
                    if not above:
                        row[j] = floors[j]
                        changed = True
                    else:
                        forks.append(_fork(i, rows, j, floors[j],
                                           ext & ~above))
                        ext = above
                todo.extend(forks)  # the floored branch pops first
        mat = tuple(map(tuple, rows)) if changed else z.mat
        out.append(CPDBM(ext, mat, canonical=z.canonical and not changed))
    return out


def _fork(i: int, rows: list, j: int, b: StrictBound, ext: int):
    """A changed branch of ``extrapolate`` that restarts row ``i``: a copy
    of ``rows`` with entry (i, j) set to ``b``."""
    rows = [r[:] for r in rows]
    rows[i][j] = b
    return (i, rows, ext, True)


def merge(branches: list[CPDBM]) -> list[CPDBM]:
    """Unite branches with equal matrices, in order of first occurrence.

    The united branch's extension is the union of the extensions, and the
    result is canonical only when every united branch is.  Every operation
    here acts on each valuation separately, so a matrix means the same zone
    at every valuation of either extension and the union denotes exactly
    the branches it replaces.
    """
    if len(branches) < 2:
        return branches  # hashing a matrix is the cost; skip it when alone
    out: list[CPDBM] = []
    at: dict[Matrix, int] = {}
    for z in branches:
        k = at.setdefault(z.mat, len(out))
        if k == len(out):
            out.append(z)
        else:
            w = out[k]
            out[k] = CPDBM(w.bits | z.bits, z.mat, w.canonical and z.canonical)
    return out


def negate_atom(atom: Atom) -> Atom:
    """Complement of a finite atomic constraint: not(xi - xj < e) is
    xj - xi <= -e and dually for weak bounds."""
    i, j, b = atom
    return (j, i, StrictBound(-b.expr, not b.strict))


def evaluate_all(z: CPDBM, box: ParamBox) -> np.ndarray:
    """Encoded matrices at every box point: shape (box.size, n, n).

    One matrix product: rows are the [constant, coefficients] vectors of
    the finite entries, columns of the grid are the box points."""
    n = z.n
    grid = box.grid
    size = grid.shape[1]
    k = len(box.params)
    pidx = {p: a for a, p in enumerate(box.params)}
    coefs = np.zeros((n * n, k + 1), dtype=np.int64)
    weak = np.zeros((n * n, 1), dtype=np.int64)
    inf_rows = np.zeros(n * n, dtype=bool)
    for i in range(n):
        for j in range(n):
            row = i * n + j
            b = z.mat[i][j]
            if b.expr is None:
                inf_rows[row] = True
                continue
            coefs[row, 0] = b.expr.const
            for p, zc in b.expr.coeffs:
                coefs[row, 1 + pidx[p]] = zc
            weak[row, 0] = 0 if b.strict else 1
    aug = np.empty((k + 1, size), dtype=np.int64)
    aug[0] = 1
    if k:
        aug[1:] = grid
    out = (coefs @ aug) * 2 + weak
    out[inf_rows] = zones.INF
    return out.reshape(n, n, size).transpose(2, 0, 1)


def dump(z: CPDBM, box: ParamBox, names: Sequence[str] | None = None) -> str:
    """Debug text: one line per finite entry, then one line per valuation
    of the extension."""
    n = z.n
    names = names or [f"x{i}" for i in range(n)]
    lines = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            b = z.mat[i][j]
            if b.is_inf:
                continue
            op = "<" if b.strict else "<="
            lines.append(f"{names[i]} - {names[j]} {op} {b.expr}")
    lines.append("where:")
    for v in ValuationSet(box, z.bits):
        lines.append("  " + ", ".join(f"{p}={x}" for p, x in v.items()))
    return "\n".join(lines)
