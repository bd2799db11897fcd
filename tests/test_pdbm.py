"""Constrained parametric matrices against the per-valuation oracle.

Every operation that can fork the constraint set is validated the same
way: for each valuation of the input extension, the branches that contain
it must be exactly one, and evaluating that branch must equal applying the
concrete (oracle) transformation to the evaluated input.
"""

import pytest

import oracle_dbm as od
from conftest import free_zone, from_oracle, reset_zone, unbound_zone
from ptasynth import pdbm
from ptasynth.errors import SoundnessError
from ptasynth.params import (
    AffineExpr,
    BoundTable,
    Constraint,
    ConstraintSet,
    INF_BOUND,
    ParamBox,
    ValuationSet,
    ZERO_LE,
    bound,
)

P = AffineExpr.var("p")
Q = AffineExpr.var("q")


def mk(entries, table, n=3, canonical=False):
    return pdbm.CPDBM(ValuationSet.full(table.box).bits,
                      pdbm.matrix_of(n, entries, table), canonical)


def ext(box, *cs):
    """Extension of the conjunction of ``cs`` over ``box``."""
    return ConstraintSet.of(box, cs).bits


def branches_disjoint(branches, box):
    seen = 0
    for b in branches:
        bits = b.bits
        assert bits, "empty branch extension"
        assert seen & bits == 0, "branch extensions overlap"
        seen |= bits
    return seen


def branch_at(branches, v, box):
    hits = [b for b in branches if v in ValuationSet(box, b.bits)]
    assert len(hits) <= 1
    return hits[0] if hits else None


class TestAtomicGuard:
    BOX = ParamBox.of({"p": (0, 7), "q": (0, 7)})
    TABLE = BoundTable(BOX)

    def test_split_case(self):
        z = mk({(1, 0): bound(P)}, self.TABLE, n=2, canonical=True)
        out = pdbm.apply_guard(z, [(1, 0, bound(Q))], self.TABLE)
        assert len(out) == 2
        keep, repl = out
        assert keep.bits == ext(self.BOX, Constraint.le(P, Q))
        assert od.bounds_of(keep, self.TABLE)[1][0] == bound(P)
        assert repl.bits == ext(self.BOX, Constraint.lt(Q, P))
        assert od.bounds_of(repl, self.TABLE)[1][0] == bound(Q)
        # per-valuation: entry-wise minimum with the guard bound
        for v in ValuationSet.full(self.BOX):
            m = od.from_valuation(z, v, self.TABLE)
            od.constrain(m, 1, 0, (v["q"], False))
            got = branch_at(out, v, self.BOX)
            assert od.from_valuation(got, v, self.TABLE) == m

    def test_covers_case_unchanged(self):
        z = mk({(1, 0): bound(3)}, self.TABLE, n=2, canonical=True)
        out = pdbm.apply_guard(z, [(1, 0, bound(5))], self.TABLE)
        assert out == [z]

    def test_covers_negation_replaces_infinite(self):
        z = mk({(1, 0): INF_BOUND}, self.TABLE, n=2, canonical=True)
        out = pdbm.apply_guard(z, [(1, 0, bound(2, strict=True))], self.TABLE)
        assert len(out) == 1
        assert od.bounds_of(out[0], self.TABLE)[1][0] == bound(2, strict=True)
        assert not out[0].canonical


class TestGuardConjunction:
    BOX = ParamBox.of({"p": (0, 5), "q": (0, 5)})
    TABLE = BoundTable(BOX)

    def test_empty_conjunction_identity(self):
        z = pdbm.initial_cpdbm(2, self.TABLE)
        assert pdbm.apply_guard(z, [], self.TABLE) == [z]

    def test_two_splitting_conjuncts(self):
        z = mk({(1, 0): bound(P), (2, 0): bound(P)}, self.TABLE,
               canonical=True)
        atoms = [(1, 0, bound(Q)), (2, 0, bound(3))]
        out = pdbm.apply_guard(z, atoms, self.TABLE)
        assert 1 <= len(out) <= 4
        branches_disjoint(out, self.BOX)
        for v in ValuationSet.full(self.BOX):
            m = od.from_valuation(z, v, self.TABLE)
            od.constrain(m, 1, 0, (v["q"], False))
            od.constrain(m, 2, 0, (3, False))
            got = branch_at(out, v, self.BOX)
            assert got is not None
            assert od.from_valuation(got, v, self.TABLE) == m

    def test_contradicting_guard_kept_until_canonical_form(self):
        # x <= 1 and x >= 3: branches survive guard application with empty
        # zones; the canonical form then drops them all
        z = pdbm.initial_cpdbm(1, self.TABLE)
        atoms = [(1, 0, bound(1)), (0, 1, bound(-3))]
        mid = pdbm.apply_guard(z, atoms, self.TABLE)
        assert mid
        out = []
        for b in mid:
            out.extend(pdbm.canonicalize(b, self.TABLE))
        assert out == []


class TestCanonicalForm:
    BOX = ParamBox.of({"p": (0, 7), "q": (0, 7)})
    TABLE = BoundTable(BOX)

    def test_two_branch_golden(self):
        # zone x <= p, y <= q, x = y: the canonical set splits on which
        # parameter is smaller and tightens both upper bounds to it
        z = mk({(1, 0): bound(P), (2, 0): bound(Q)}, self.TABLE)
        out = pdbm.canonicalize(z, self.TABLE)
        assert len(out) == 2
        first, second = out
        assert first.bits == ext(self.BOX, Constraint.le(P, Q))
        at = od.bounds_of(first, self.TABLE)
        assert at[1][0] == bound(P) and at[2][0] == bound(P)
        assert second.bits == ext(self.BOX, Constraint.lt(Q, P))
        at = od.bounds_of(second, self.TABLE)
        assert at[1][0] == bound(Q) and at[2][0] == bound(Q)
        for b in out:
            assert b.canonical and od.is_canonical(b, self.TABLE)
        assert branches_disjoint(out, self.BOX) == \
            ValuationSet.full(self.BOX).bits

    def test_already_canonical_unchanged(self):
        z = mk({(1, 0): bound(4), (2, 0): bound(4), (1, 2): bound(1),
                (2, 1): bound(2)}, self.TABLE, canonical=False)
        out = pdbm.canonicalize(z, self.TABLE)
        assert len(out) == 1
        assert od.is_canonical(out[0], self.TABLE)

    def test_matches_concrete_closure(self, rng):
        box = ParamBox.of({"p": (0, 5), "q": (0, 5)})
        table = BoundTable(box)
        for _ in range(60):
            z = random_cpdbm(rng, table, n=rng.randrange(2, 4))
            out = pdbm.canonicalize(z, table)
            branches_disjoint(out, box)
            for v in ValuationSet(box, z.bits):
                m = od.from_valuation(z, v, table)
                ok = od.close(m)
                got = branch_at(out, v, box)
                if not ok:
                    assert got is None
                else:
                    assert got is not None
                    assert od.from_valuation(got, v, table) == m
                    assert got.canonical


def random_expr(rng, box):
    return AffineExpr.of(
        rng.randrange(-3, 7),
        {p: rng.randrange(-2, 3) for p in box.params
         if rng.random() < 0.5})


def random_cpdbm(rng, table, n=3):
    """Arbitrary matrix over the table's box; not necessarily
    satisfiable."""
    box = table.box
    entries = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            r = rng.random()
            if r < 0.25:
                entries[(i, j)] = INF_BOUND
            elif i == 0 and rng.random() < 0.6:
                # keep most lower bounds sane so zones are often non-empty
                entries[(i, j)] = ZERO_LE
            else:
                entries[(i, j)] = bound(random_expr(rng, box),
                                        rng.random() < 0.4)
    return pdbm.CPDBM(ValuationSet.full(box).bits,
                      pdbm.matrix_of(n, entries, table))


def canonical_samples(rng, table, n, count):
    out = []
    while len(out) < count:
        for b in pdbm.canonicalize(random_cpdbm(rng, table, n), table):
            out.append(b)
            if len(out) == count:
                break
    return out


class TestConstrain:
    """A guard on a canonical matrix, closed through the guard's clocks
    only, against the full closure and the oracle."""

    BOX = ParamBox.of({"p": (0, 5), "q": (0, 5)})
    TABLE = BoundTable(BOX)

    def random_atom(self, rng, z):
        i, j = rng.sample(range(z.n), 2)
        back = od.bounds_of(z, self.TABLE)[j][i]
        if rng.random() < 0.3 and back.expr is not None:
            # x_i - x_j below minus the bound on x_j - x_i: a negative
            # cycle through the diagonal empties the zone everywhere
            return (i, j, bound(-back.expr - 1, rng.random() < 0.5))
        return (i, j, bound(random_expr(rng, self.BOX), rng.random() < 0.5))

    def test_matches_full_closure_and_oracle(self, rng):
        emptied = kept = 0
        for n in (2, 3, 4, 6):
            for z in canonical_samples(rng, self.TABLE, n, 30):
                atoms = [self.random_atom(rng, z)
                         for _ in range(rng.randrange(1, 3))]
                got = pdbm.constrain(z, atoms, self.TABLE)
                full = [c for w in pdbm.apply_guard(z, atoms, self.TABLE)
                        for c in pdbm.canonicalize(w, self.TABLE)]
                branches_disjoint(got, self.BOX)
                assert all(b.canonical for b in got)
                for v in ValuationSet(self.BOX, z.bits):
                    m = od.from_valuation(z, v, self.TABLE)
                    for i, j, g in atoms:
                        od.constrain(m, i, j, (g.expr.eval(v), g.strict))
                    mine = branch_at(got, v, self.BOX)
                    ref = branch_at(full, v, self.BOX)
                    if not od.close(m):
                        emptied += 1
                        assert mine is None and ref is None
                    else:
                        kept += 1
                        assert od.from_valuation(mine, v, self.TABLE) == m
                        assert od.from_valuation(ref, v, self.TABLE) == m
        assert emptied and kept

    def test_non_canonical_refused(self):
        z = mk({(1, 0): bound(P)}, self.TABLE, n=2, canonical=False)
        with pytest.raises(SoundnessError,
                           match="^constrain needs a canonical matrix$"):
            pdbm.constrain(z, [(1, 0, bound(Q))], self.TABLE)


class TestParameterGuard:
    """An atom ``0 - 0 < e``, which a guard with no real clock parses to,
    constrains the parameters alone."""

    BOX = ParamBox.of({"p": (0, 5), "q": (0, 5)})
    TABLE = BoundTable(BOX)

    def test_keeps_exactly_the_valuations_where_it_holds(self, rng):
        table = self.TABLE
        narrowed = emptied = 0
        for z in canonical_samples(rng, table, 3, 40):
            e, strict = random_expr(rng, self.BOX), rng.random() < 0.5
            atom = (0, 0, bound(e, strict))
            where = z.bits & ext(self.BOX, Constraint(-e, strict))
            kept = [pdbm.CPDBM(where, z.mat, True)] if where else []
            assert pdbm.constrain(z, [atom], table) == kept
            counts: dict = {}
            plan = pdbm.transition_plan([atom], [1], [], [0, 3, 3], [], 0,
                                        table)
            got = pdbm.transition(z, plan, table, counts)
            plain = pdbm.transition_plan([], [1], [], [0, 3, 3], [], 0,
                                         table)
            assert got == [b for k in kept
                           for b in pdbm.transition(k, plain, table, {})]
            assert "guard" not in counts
            narrowed += 0 < where != z.bits
            emptied += not where
        assert narrowed and emptied


class TestResetUp:
    BOX = ParamBox.of({"p": (0, 5), "q": (0, 5)})
    TABLE = BoundTable(BOX)

    def test_reset_single_clock(self):
        z = pdbm.canonicalize(
            mk({(1, 0): bound(P), (2, 0): bound(3), (0, 2): bound(-1)},
               self.TABLE),
            self.TABLE)[0]
        got = reset_zone(z, [1])
        at = od.bounds_of(got, self.TABLE)
        assert at[1][0] == ZERO_LE and at[0][1] == ZERO_LE
        assert got.mat[1][2] == z.mat[0][2]
        assert got.mat[2][1] == z.mat[2][0]
        assert got.canonical

    def test_reset_empty_identity(self):
        z = pdbm.initial_cpdbm(2, self.TABLE)
        assert reset_zone(z, []) == z

    def test_up_removes_upper_bounds(self):
        z = pdbm.initial_cpdbm(2, self.TABLE)
        got = reset_zone(reset_zone(z, [1, 2]), (), release=True)
        at = od.bounds_of(got, self.TABLE)
        assert at[1][0] is INF_BOUND and at[2][0] is INF_BOUND
        assert reset_zone(got, (), release=True) == got  # idempotent

    def test_match_concrete(self, rng):
        for z in canonical_samples(rng, self.TABLE, 3, 40):
            clocks = [c for c in (1, 2) if rng.random() < 0.6]
            got_r = reset_zone(z, clocks)
            got_u = reset_zone(z, (), release=True)
            for v in ValuationSet(self.BOX, z.bits):
                m = od.from_valuation(z, v, self.TABLE)
                mr = od.clone(m)
                od.reset(mr, clocks)
                assert od.from_valuation(got_r, v, self.TABLE) == mr
                mu = od.clone(m)
                od.up(mu)
                assert od.from_valuation(got_u, v, self.TABLE) == mu

    def test_canonical_form_preserved_exactly(self, rng):
        # reset and time release keep the canonical invariant, not just
        # the flag
        for z in canonical_samples(rng, self.TABLE, 3, 6):
            assert od.is_canonical(reset_zone(z, [1]), self.TABLE)
            assert od.is_canonical(reset_zone(z, (), release=True), self.TABLE)

    def test_free_matches_concrete_and_stays_canonical(self, rng):
        # freeing is an existential projection: the oracle forgets the
        # clocks' constraints and closes; the row helper keeps canonical
        # form without a closure
        freed = 0
        for z in canonical_samples(rng, self.TABLE, 4, 30):
            clocks = [c for c in (1, 2, 3) if rng.random() < 0.5]
            got = free_zone(z, clocks)
            assert od.is_canonical(got, self.TABLE)
            for v in ValuationSet(self.BOX, z.bits):
                m = od.from_valuation(z, v, self.TABLE)
                od.free(m, clocks)
                assert od.from_valuation(got, v, self.TABLE) == m
            freed += len(clocks) > 1 and got != z
        assert freed

    def test_unbound_below_matches_concrete_and_stays_canonical(self, rng):
        # dropping a clock's lower bounds from a zone of non-negative
        # clocks: canonical without a closure, the oracle's matrix with
        # them forgotten, and the other clocks' projection unchanged
        table = self.TABLE
        nonnegative = [(0, j, ZERO_LE) for j in (1, 2, 3)]
        zones = [w for z in canonical_samples(rng, table, 4, 40)
                 for w in pdbm.constrain(z, nonnegative, table)]
        moved = 0
        for z in zones:
            g = rng.randrange(1, 4)
            got = unbound_zone(z, g)
            assert od.is_canonical(got, table)
            for v in ValuationSet(self.BOX, z.bits):
                m = od.from_valuation(z, v, table)
                want = od.clone(m)
                od.unbound_below(want, g)
                assert od.from_valuation(got, v, table) == want
                od.free(m, [g])
                od.free(want, [g])
                assert want == m
            moved += got != z
        assert moved > 10
        assert unbound_zone(zones[0], 0) == zones[0]  # no gate clock

    def test_closure_noop_on_canonical_evaluations(self, rng):
        for z in canonical_samples(rng, self.TABLE, 3, 10):
            for v in ValuationSet(self.BOX, z.bits):
                m = od.from_valuation(z, v, self.TABLE)
                closed = od.clone(m)
                assert od.close(closed)
                assert closed == m


class TestExtrapolation:
    def test_two_branch_golden(self):
        # x = y, y <= 2p, p in [0,7], maxima 10: forks on whether 2p
        # exceeds the maximum, widening the bound to infinity where it does
        box = ParamBox.of({"p": (0, 7)})
        table = BoundTable(box)
        z = pdbm.CPDBM(
            ValuationSet.full(box).bits,
            pdbm.matrix_of(3, {(1, 0): INF_BOUND, (2, 0): bound(2 * P)},
                           table),
            canonical=True)
        out = pdbm.extrapolate(z, [0, 10, 10], table)
        assert len(out) == 2
        kept, widened = out
        assert kept.bits == ext(box, Constraint.le(2 * P, 10))
        assert kept.mat == z.mat
        assert widened.bits == ext(box, Constraint.lt(10, 2 * P))
        assert od.bounds_of(widened, table)[2][0] is INF_BOUND
        assert branches_disjoint(out, box) == ValuationSet.full(box).bits

    def test_small_constants_untouched(self):
        box = ParamBox.of({"p": (0, 3)})
        table = BoundTable(box)
        z = mk({(1, 0): bound(2), (2, 0): bound(1), (1, 2): bound(1)}, table,
               canonical=True)
        out = pdbm.extrapolate(z, [0, 5, 5], table)
        assert out == [z]
        assert out[0].canonical

    def test_low_constant_floored(self):
        box = ParamBox.of({"p": (0, 3)})
        table = BoundTable(box)
        z = mk({(0, 1): bound(-6)}, table, n=2, canonical=True)
        out = pdbm.extrapolate(z, [0, 5], table)
        assert len(out) == 1
        assert od.bounds_of(out[0], table)[0][1] == bound(-5, strict=True)
        assert not out[0].canonical

    def test_matches_concrete(self, rng):
        box = ParamBox.of({"p": (0, 5), "q": (0, 5)})
        table = BoundTable(box)
        for z in canonical_samples(rng, table, 3, 40):
            maxima = [0] + [rng.randrange(0, 7) for _ in range(2)]
            out = pdbm.extrapolate(z, maxima, table)
            branches_disjoint(out, box)
            for v in ValuationSet(box, z.bits):
                m = od.from_valuation(z, v, table)
                od.extrapolate(m, maxima)
                got = branch_at(out, v, box)
                assert got is not None
                assert od.from_valuation(got, v, table) == m


def staged_transition(z, atoms, resets, inv, free, gate, maxima, table,
                      counts):
    """The successor branches of one edge stage by stage: constrain by the
    guard, reset with time release, constrain by the invariant, free the
    ``free`` clocks, drop the ``gate`` clock's lower bounds, widen; each
    stage call tallies the branches it added."""
    def tally(tag, branches):
        if len(branches) > 1:
            counts[tag] = counts.get(tag, 0) + len(branches) - 1
        return branches

    out = []
    for z1 in tally("guard", pdbm.constrain(z, atoms, table)):
        z2 = reset_zone(z1, resets, release=True)
        for z3 in tally("guard", pdbm.constrain(z2, inv, table)):
            out += tally("extrapolate", pdbm.extrapolate(
                unbound_zone(free_zone(z3, free), gate), maxima, table))
    return out


def own_rows_apart(branches):
    """No two branches share a row list."""
    lists = [id(r) for rows, *_ in branches if type(rows) is list
             for r in rows]
    return len(lists) == len(set(lists))


class TestTransition:
    """The one-pass transition against its stages run one after another."""

    BOX = ParamBox.of({"p": (0, 5), "q": (0, 5)})
    TABLE = BoundTable(BOX)

    def random_edge(self, rng, z):
        n = z.n
        atoms = [TestConstrain.random_atom(self, rng, z)
                 for _ in range(rng.randrange(0, 3))]
        resets = rng.sample(range(1, n), rng.randrange(0, n))
        inv = [(i, 0, bound(random_expr(rng, self.BOX), rng.random() < 0.5))
               for i in rng.sample(range(1, n), rng.randrange(0, 2))]
        free = sorted(rng.sample(range(1, n), rng.randrange(0, n - 1)))
        gate = rng.randrange(0, n)  # 0: no gate clock
        maxima = [0] + [rng.randrange(0, 6) for _ in range(n - 1)]
        return atoms, resets, inv, free, gate, maxima

    def test_same_branches_order_and_splits(self, rng):
        table = self.TABLE
        seen = {"guard forks": 0, "widening forks": 0, "several resets": 0,
                "empty invariant": 0, "emptied": 0, "several freed": 0,
                "gate": 0, "no gate": 0}
        for n in (3, 4, 6):
            for z in canonical_samples(rng, table, n, 60):
                atoms, resets, inv, free, gate, maxima = \
                    self.random_edge(rng, z)
                mat = z.mat
                want_counts, got_counts = {}, {}
                want = staged_transition(z, atoms, resets, inv, free, gate,
                                         maxima, table, want_counts)
                plan = pdbm.transition_plan(atoms, resets, inv, maxima, free,
                                            gate, table)
                got = pdbm.transition(z, plan, table, got_counts)
                assert [tuple(b) for b in got] == [tuple(b) for b in want]
                assert got_counts == want_counts
                assert z.mat is mat and z.mat == mat
                g1 = pdbm.constrain(z, atoms, table)
                seen["guard forks"] += len(g1) > 1
                seen["emptied"] += not got
                seen["widening forks"] += "extrapolate" in got_counts
                seen["several resets"] += len(resets) > 1
                seen["empty invariant"] += not inv
                seen["several freed"] += len(free) > 1
                seen["gate"] += gate not in free and bool(gate)
                seen["no gate"] += not gate
        assert all(seen.values()), seen

    def test_refuses_non_canonical(self):
        z = mk({(1, 0): bound(P)}, self.TABLE, n=2, canonical=False)
        plan = pdbm.transition_plan([], [1], [], [0, 3], [], 0, self.TABLE)
        with pytest.raises(SoundnessError,
                           match="^transition needs a canonical matrix$"):
            pdbm.transition(z, plan, self.TABLE, {})

    def test_rows_never_alias_across_forks(self, rng):
        table = self.TABLE
        for z in canonical_samples(rng, table, 4, 60):
            atoms, resets, inv, free, _, maxima = self.random_edge(rng, z)
            atoms, pivots = pdbm._interned(atoms, table)
            guarded = pdbm._guard_rows(z.mat, z.bits, atoms, table)
            # the input matrix's tuple rows are shared, never written
            assert all(type(rows) is list or rows is z.mat
                       for rows, _, _ in guarded)
            assert own_rows_apart(guarded)
            for rows, ext, changed in guarded:
                if not changed:
                    continue
                closed = pdbm._close(rows, ext, pivots, table)
                assert own_rows_apart(closed)
                for c_rows, c_ext in closed:
                    widened = pdbm._widen_rows(
                        c_rows, c_ext, pdbm.widening(maxima, table), table)
                    assert own_rows_apart(widened)


class TestEvaluate:
    BOX = ParamBox.of({"p": (0, 5)})
    TABLE = BoundTable(BOX)

    def test_entry(self):
        z = mk({(1, 0): bound(P)}, self.TABLE, n=2)
        m = pdbm.evaluate_all(z, self.TABLE)[3]
        assert m[1][0] == 3 * 2 + 1  # encoded (3, <=)

    def test_inf_preserved(self):
        z = mk({(1, 0): INF_BOUND}, self.TABLE, n=2)
        assert pdbm.evaluate_all(z, self.TABLE)[0][1][0] >= 2 ** 40

    def test_evaluate_all_matches_pointwise(self, rng):
        box = ParamBox.of({"p": (0, 4), "q": (0, 4)})
        table = BoundTable(box)
        for _ in range(10):
            z = random_cpdbm(rng, table)
            ms = pdbm.evaluate_all(z, table)
            for idx in (0, 7, box.size - 1):
                v = box.point(idx)
                m = od.from_valuation(z, v, table)
                assert (ms[idx] == from_oracle(m)).all()


class TestInitial:
    def test_shape(self):
        box = ParamBox.of({"p": (2, 4)})
        table = BoundTable(box)
        z = pdbm.initial_cpdbm(1, table)
        assert z.canonical
        at = od.bounds_of(z, table)
        assert at[1][0] is INF_BOUND
        assert at[0][1] == ZERO_LE
        assert z.bits == ValuationSet.full(box).bits
        # evaluated zone at any valuation: every clock value >= 0 reachable
        m = od.from_valuation(z, {"p": 3}, table)
        assert od.close(m)
        assert m[0][1] == (0, False) and m[1][0] is od.INF

    def test_box_constraints_present(self):
        box = ParamBox.of({"p": (2, 4)})
        table = BoundTable(box)
        z = pdbm.initial_cpdbm(1, table)
        assert z.bits == ext(box, Constraint.le(2, P), Constraint.le(P, 4))


class TestDump:
    def test_format(self):
        box = ParamBox.of({"p": (0, 5)})
        table = BoundTable(box)
        z = pdbm.CPDBM(ext(box, Constraint.le(P, 3)),
                       pdbm.matrix_of(2, {(1, 0): bound(P, strict=True)},
                                      table))
        text = pdbm.dump(z, table, ["0", "x"])
        assert "x - 0 < p" in text
        where = text.split("where:\n")[1]
        assert where.split("\n") == ["  p=0", "  p=1", "  p=2", "  p=3"]
