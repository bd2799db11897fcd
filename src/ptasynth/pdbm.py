"""Parametric difference-bound matrices constrained by parameter sets.

A constrained matrix pairs a zone matrix whose entries are affine bounds
over the parameters with a constraint set restricting the valuations it
describes.  Operations whose effect depends on the parameters fork the
constraint set into complementary branches, so most operations here return
a list of matrices with pairwise-disjoint, non-empty extensions.

Strictness bookkeeping follows the difference-bound order throughout: at
equal values a strict bound is tighter than a weak one, and the sum of two
bounds is weak only when both summands are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import zones
from .errors import EvaluationError
from .params import (
    AffineExpr,
    ConstraintSet,
    Cover,
    INF_BOUND,
    ParamBox,
    StrictBound,
    ZERO_LE,
    Constraint,
    bound,
    bound_add,
    bound_eval,
    bound_le_constraint,
    covers,
)

# an atomic clock constraint x_i - x_j < / <= e
Atom = tuple[int, int, StrictBound]

Matrix = tuple[tuple[StrictBound, ...], ...]


@dataclass(frozen=True)
class CPDBM:
    """Zone matrix plus the parameter constraints under which it is read."""

    cset: ConstraintSet
    mat: Matrix
    canonical: bool = False

    @property
    def n(self) -> int:
        return len(self.mat)

    def entry(self, i: int, j: int) -> StrictBound:
        return self.mat[i][j]

    def with_entry(self, i: int, j: int, b: StrictBound) -> "CPDBM":
        rows = list(self.mat)
        row = list(rows[i])
        row[j] = b
        rows[i] = tuple(row)
        return CPDBM(self.cset, tuple(rows), canonical=False)


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
    return CPDBM(ConstraintSet.of(box), mat, canonical=True)


def apply_atomic_guard(z: CPDBM, atom: Atom, box: ParamBox) -> list[CPDBM]:
    """Constrain one entry by a guard atom.

    Three-way outcome on whether the current bound already lies within the
    guard bound: keep the matrix, replace the entry, or fork the constraint
    set into both cases.  The unchanged branch is listed first.
    """
    i, j, g = atom
    cur = z.mat[i][j]
    c = bound_le_constraint(cur, g)
    out = covers(z.cset, c, box)
    if out is Cover.COVERS:
        return [z]
    if out is Cover.COVERS_NEGATION:
        return [z.with_entry(i, j, g)]
    keep = CPDBM(z.cset.extended(c, box), z.mat, canonical=z.canonical)
    repl = CPDBM(z.cset.extended(c.negated(), box), z.mat).with_entry(i, j, g)
    return [keep, repl]


def apply_guard(z: CPDBM, atoms: Sequence[Atom], box: ParamBox) -> list[CPDBM]:
    """Left fold of the atomic application over a conjunction of atoms;
    branches whose constraint extension is empty are dropped."""
    branches = [z]
    for atom in atoms:
        nxt: list[CPDBM] = []
        for b in branches:
            nxt.extend(apply_atomic_guard(b, atom, box))
        branches = [b for b in nxt if b.cset.bits]
    return branches


def _relax(z: CPDBM, i: int, j: int, cand: StrictBound, box: ParamBox) -> list[CPDBM]:
    """One shortest-path relaxation of entry (i, j) with a candidate bound.

    The entry is only rewritten where the candidate is strictly tighter
    somewhere; pure ties never fork.  When a fork is needed, tie valuations
    go with the replacement branch (the two bounds agree there, and this
    keeps the output branch count minimal) -- except on the diagonal, where
    ties must stay with the kept entry so that a replaced diagonal is a
    reliable per-branch emptiness witness.
    """
    cur = z.mat[i][j]
    if cand is cur or cand == cur:
        return [z]
    not_tighter = bound_le_constraint(cur, cand)
    out = covers(z.cset, not_tighter, box)
    if out is Cover.COVERS:
        return [z]
    if i == j:
        # a tightened diagonal is below (0, <=) on the whole branch: the
        # zone is empty there, so only the untightened part survives
        if out is Cover.COVERS_NEGATION:
            return []
        return [CPDBM(z.cset.extended(not_tighter, box), z.mat,
                      canonical=z.canonical)]
    if out is Cover.COVERS_NEGATION:
        return [z.with_entry(i, j, cand)]
    tighter_or_tie = bound_le_constraint(cand, cur)
    if covers(z.cset, tighter_or_tie, box) is Cover.COVERS:
        return [z.with_entry(i, j, cand)]
    repl = CPDBM(z.cset.extended(tighter_or_tie, box), z.mat) \
        .with_entry(i, j, cand)
    keep = CPDBM(z.cset.extended(tighter_or_tie.negated(), box), z.mat,
                 canonical=z.canonical)
    return [repl, keep]


def canonicalize(z: CPDBM, box: ParamBox) -> list[CPDBM]:
    """Tighten every entry to the strongest derivable bound, forking the
    constraint set whenever a relaxation's outcome depends on the
    parameters.

    A relaxation that tightens a diagonal entry makes the zone empty for
    every valuation of that branch (the fork discipline keeps the sign of
    the diagonal uniform per branch), so such branches are dropped as soon
    as they appear.  Surviving branches are canonical and satisfiable at
    every valuation of their extension.
    """
    if z.canonical:
        return [z]
    branches = [z]
    n = z.n
    for k in range(n):
        for i in range(n):
            if i == k:
                continue  # relaxing through a clean diagonal cannot tighten
            for j in range(n):
                if j == k:
                    continue
                nxt: list[CPDBM] = []
                for w in branches:
                    cand = bound_add(w.mat[i][k], w.mat[k][j])
                    if cand.expr is None:
                        nxt.append(w)
                        continue
                    nxt.extend(_relax(w, i, j, cand, box))
                branches = nxt
    return [CPDBM(w.cset, w.mat, canonical=True) for w in branches]


def reset(z: CPDBM, clocks: Iterable[int]) -> CPDBM:
    """Reset clocks to zero, lowest index first; preserves canonical form."""
    rows = [list(r) for r in z.mat]
    n = z.n
    for r in sorted(clocks):
        for j in range(n):
            if j != r:
                rows[r][j] = rows[0][j]
        for i in range(n):
            if i != r:
                rows[i][r] = rows[i][0]
    return CPDBM(z.cset, tuple(tuple(r) for r in rows), canonical=z.canonical)


def up(z: CPDBM) -> CPDBM:
    """Remove all clock upper bounds (time successor); preserves canonical
    form."""
    rows = [list(r) for r in z.mat]
    for i in range(1, z.n):
        rows[i][0] = INF_BOUND
    return CPDBM(z.cset, tuple(tuple(r) for r in rows), canonical=z.canonical)


def extrapolate(z: CPDBM, maxima: Sequence[int], box: ParamBox) -> list[CPDBM]:
    """Widen bounds past the per-clock maxima so that finite entries only
    ever evaluate inside [-maxima[j], maxima[i]].

    Per entry: bounds above the row clock's maximum become infinite, bounds
    below minus the column clock's maximum are floored to a strict bound
    there, and valuation-dependent cases fork the constraint set.  The
    diagonal and infinite entries are untouched.  Results are marked
    non-canonical when an entry changed.
    """
    n = z.n
    branches: list[tuple[CPDBM, bool]] = [(z, False)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            nxt: list[tuple[CPDBM, bool]] = []
            for w, changed in branches:
                nxt.extend(_extrapolate_entry(w, changed, i, j, maxima, box))
            branches = nxt
    return [
        CPDBM(w.cset, w.mat, canonical=w.canonical and not changed)
        for w, changed in branches
    ]


_EXTRAP_HI: dict = {}
_EXTRAP_LO: dict = {}


def _hi_constraint(expr: AffineExpr, m: int) -> Constraint:
    key = (expr, m)
    got = _EXTRAP_HI.get(key)
    if got is None:
        got = _EXTRAP_HI[key] = Constraint.le(expr, m)
    return got


def _lo_constraint(expr: AffineExpr, m: int) -> Constraint:
    key = (expr, m)
    got = _EXTRAP_LO.get(key)
    if got is None:
        got = _EXTRAP_LO[key] = Constraint.le(-m, expr)
    return got


def _extrapolate_entry(w: CPDBM, changed: bool, i: int, j: int,
                       maxima: Sequence[int], box: ParamBox):
    """Widen one finite entry; kept branch first, widened branches after."""
    e = w.mat[i][j]
    if e.expr is None:
        return [(w, changed)]
    out: list[tuple[CPDBM, bool]] = []
    hi = _hi_constraint(e.expr, maxima[i])
    out_hi = covers(w.cset, hi, box)
    wide = None
    if out_hi is Cover.COVERS_NEGATION:
        return [(w.with_entry(i, j, INF_BOUND), True)]
    if out_hi is Cover.SPLIT:
        wide = (CPDBM(w.cset.extended(hi.negated(), box), w.mat)
                .with_entry(i, j, INF_BOUND), True)
        w = CPDBM(w.cset.extended(hi, box), w.mat, canonical=w.canonical)
    lo = _lo_constraint(e.expr, maxima[j])
    out_lo = covers(w.cset, lo, box)
    floor = bound(-maxima[j], strict=True)
    if out_lo is Cover.COVERS:
        out.append((w, changed))
    elif out_lo is Cover.COVERS_NEGATION:
        out.append((w.with_entry(i, j, floor), True))
    else:
        out.append(
            (CPDBM(w.cset.extended(lo, box), w.mat, canonical=w.canonical), changed))
        out.append(
            (CPDBM(w.cset.extended(lo.negated(), box), w.mat)
             .with_entry(i, j, floor), True))
    if wide is not None:
        out.append(wide)
    return out


def merge(branches: list[CPDBM]) -> list[CPDBM]:
    """Unite branches with equal matrices, in order of first occurrence.

    The united constraint set is the union of the extensions, and the
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
            out[k] = CPDBM(ConstraintSet(w.cset.bits | z.cset.bits), z.mat,
                           canonical=w.canonical and z.canonical)
    return out


def negate_atom(atom: Atom) -> Atom:
    """Complement of a finite atomic constraint: not(xi - xj < e) is
    xj - xi <= -e and dually for weak bounds."""
    i, j, b = atom
    return (j, i, StrictBound(-b.expr, not b.strict))


def evaluate(z: CPDBM, v: Mapping[str, int], box: ParamBox | None = None) -> np.ndarray:
    """Concrete encoded matrix of the zone at one valuation."""
    if box is not None and v not in z.cset.extension(box):
        raise EvaluationError("valuation outside the constraint extension")
    n = z.n
    m = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            got = bound_eval(z.mat[i][j], v)
            m[i, j] = zones.INF if got is None else zones.encode(*got)
    return m


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


def is_canonical(z: CPDBM, box: ParamBox) -> bool:
    """Exact check of the canonical-form condition at every triangle."""
    n = z.n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c = bound_le_constraint(z.mat[i][j], bound_add(z.mat[i][k], z.mat[k][j]))
                if covers(z.cset, c, box) is not Cover.COVERS:
                    return False
    return True


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
    for v in z.cset.extension(box):
        lines.append("  " + ", ".join(f"{p}={x}" for p, x in v.items()))
    return "\n".join(lines)
