import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptasynth.errors import CapacityError, EvaluationError, SynthError
from ptasynth.params import (
    AffineExpr,
    BoundTable,
    Constraint,
    ConstraintSet,
    Cover,
    FALSE_CONSTRAINT,
    INF_BOUND,
    INF_ID,
    ParamBox,
    StrictBound,
    TRUE_CONSTRAINT,
    ValuationSet,
    ZERO_LE,
    ZERO_LE_ID,
    bound,
    bound_add,
    bound_le_constraint,
    covers,
)

P = AffineExpr.var("p")
Q = AffineExpr.var("q")


def cset(box, *cs):
    return ConstraintSet.of(box, cs)


class TestAffineExpr:
    def test_eval(self):
        e = AffineExpr.of(3, {"p": 2, "q": -1})
        assert e.eval({"p": 2, "q": 5}) == 2

    def test_eval_empty(self):
        assert AffineExpr().eval({"p": 7}) == 0

    def test_eval_var_at_lower_bound(self):
        box = ParamBox.of({"p": (2, 9)})
        assert P.eval({"p": box.lower("p")}) == 2

    def test_eval_missing_param(self):
        with pytest.raises(EvaluationError):
            P.eval({"q": 1})

    def test_max_bound(self):
        box = ParamBox.of({"p": (0, 7), "q": (1, 3)})
        assert AffineExpr.of(0, {"p": 2, "q": -1}).max_bound(box) == 13

    def test_max_bound_const(self):
        box = ParamBox.of({"p": (0, 7)})
        assert AffineExpr(5).max_bound(box) == 5

    def test_max_bound_negated_var(self):
        box = ParamBox.of({"p": (2, 9)})
        assert (-P).max_bound(box) == -2

    def test_normal_form_drops_zeros(self):
        assert (P - P) == AffineExpr()
        assert AffineExpr.of(1, {"p": 0}).coeffs == ()

    def test_str_round_trip_stable(self):
        assert str(AffineExpr.of(3, {"p": 2, "q": -1})) == "2*p - q + 3"


class TestParamBox:
    @pytest.mark.parametrize("bounds", [
        {}, {"p": (-3, 2)}, {"p": (0, 4), "q": (-2, 1), "r": (5, 7)}])
    def test_points_and_values_row_major(self, bounds):
        # last parameter fastest; ``point`` inverts ``index``, and
        # ``values`` reads each expression at the points in that order
        box = ParamBox.of(bounds)
        points = [dict(zip(box.params, v)) for v in itertools.product(
            *(range(a, b + 1) for a, b in zip(box.lo, box.hi)))]
        assert [box.point(i) for i in range(box.size)] == points
        assert [box.index(v) for v in points] == list(range(box.size))
        e = AffineExpr.of(3, dict(zip(box.params, (2, -1, 5))))
        assert box.values(e).tolist() == [e.eval(v) for v in points]


class TestExtension:
    def test_empty_constraint_set_is_box(self):
        box = ParamBox.of({"p": (0, 2)})
        ext = ConstraintSet.of(box).extension(box)
        assert sorted(v["p"] for v in ext) == [0, 1, 2]

    def test_le_constraint(self):
        box = ParamBox.of({"p": (0, 1), "q": (0, 1)})
        ext = cset(box, Constraint.le(P, Q)).extension(box)
        assert [(v["p"], v["q"]) for v in ext] == [(0, 0), (0, 1), (1, 1)]

    def test_matches_pointwise_recheck(self, rng):
        # the definition is a brute-force filter; re-derive it with an
        # independent evaluator over all points
        box = ParamBox.of({"p": (0, 10), "q": (0, 10)})
        for _ in range(25):
            cs = []
            for _ in range(rng.randrange(0, 4)):
                e = AffineExpr.of(rng.randrange(-10, 11),
                                  {"p": rng.randrange(-2, 3),
                                   "q": rng.randrange(-2, 3)})
                cs.append(Constraint(e, rng.random() < 0.5))
            got = {tuple(v.values()) for v in cset(box, *cs).extension(box)}
            want = set()
            for p in range(11):
                for q in range(11):
                    ok = True
                    for c in cs:
                        val = (c.lhs.const
                               + sum(z * {"p": p, "q": q}[n]
                                     for n, z in c.lhs.coeffs))
                        ok = ok and (val < 0 if c.strict else val <= 0)
                    if ok:
                        want.add((p, q))
            assert got == want

    def test_box_capacity_guard(self):
        with pytest.raises(CapacityError):
            ParamBox.of({"a": (0, 4095), "b": (0, 4095), "c": (0, 1)})


class TestCovers:
    BOX = ParamBox.of({"p": (0, 10), "q": (0, 10)})

    def test_covers(self):
        c = cset(self.BOX, Constraint.le(P, Q))
        assert covers(c, Constraint.le(P - Q, 1), self.BOX) is Cover.COVERS

    def test_covers_negation(self):
        c = cset(self.BOX, Constraint.le(5, P))
        assert covers(c, Constraint.lt(P, 3), self.BOX) is Cover.COVERS_NEGATION

    def test_split(self):
        assert covers(ConstraintSet.of(self.BOX), Constraint.le(P, Q),
                      self.BOX) is Cover.SPLIT

    def test_empty_extension_covers_vacuously(self):
        c = cset(self.BOX, Constraint.lt(P, 0))  # impossible in the box
        assert covers(c, FALSE_CONSTRAINT, self.BOX) is Cover.COVERS

    def test_covers_iff_extension_unchanged(self, rng):
        # covers == COVERS exactly when adding the constraint keeps the
        # extension; COVERS_NEGATION exactly when it empties a non-empty one
        box = ParamBox.of({"p": (0, 6), "q": (0, 6)})
        for _ in range(40):
            base = cset(box, *[
                Constraint(AffineExpr.of(rng.randrange(-6, 7),
                                         {"p": rng.randrange(-2, 3),
                                          "q": rng.randrange(-2, 3)}),
                           rng.random() < 0.5)
                for _ in range(rng.randrange(0, 3))])
            c = Constraint(AffineExpr.of(rng.randrange(-6, 7),
                                         {"p": rng.randrange(-2, 3)}),
                           rng.random() < 0.5)
            got = covers(base, c, box)
            before = base.extension(box)
            after = base.extended(c, box).extension(box)
            if got is Cover.COVERS:
                assert after.bits == before.bits
            elif got is Cover.COVERS_NEGATION:
                assert after.is_empty and not before.is_empty
            else:
                assert not after.is_empty and after.bits != before.bits


class TestBoundAlgebra:
    def test_add_weak_strict(self):
        got = bound_add(bound(P), bound(Q, strict=True))
        assert got == StrictBound(P + Q, True)

    def test_add_inf_absorbs(self):
        assert bound_add(INF_BOUND, bound(3)) is INF_BOUND

    def test_add_identity(self):
        assert bound_add(ZERO_LE, ZERO_LE) == ZERO_LE

    def test_le_weak_weak(self):
        assert bound_le_constraint(bound(P), bound(Q)) == Constraint.le(P, Q)

    def test_le_strict_vs_weak_same_value(self):
        # a strict bound lies below-or-equal a weak bound at the same value
        c = bound_le_constraint(bound(3, strict=True), bound(3))
        assert c == Constraint(AffineExpr(0), False)  # 0 <= 0: always

    def test_le_weak_vs_strict_same_value(self):
        c = bound_le_constraint(bound(3), bound(3, strict=True))
        assert c == Constraint(AffineExpr(0), True)  # 0 < 0: never

    def test_le_inf_rhs_true(self):
        assert bound_le_constraint(bound(P), INF_BOUND) is TRUE_CONSTRAINT

    def test_le_inf_lhs_false(self):
        assert bound_le_constraint(INF_BOUND, bound(P)) is FALSE_CONSTRAINT

    def test_le_inf_both(self):
        assert bound_le_constraint(INF_BOUND, INF_BOUND) is TRUE_CONSTRAINT

    def test_infinite_bounds_are_strict(self):
        with pytest.raises(SynthError):
            StrictBound(None, False)


class TestBoundTable:
    def test_le_bits_per_box(self):
        # "p <= 3" holds on all of p = 0..2 and nowhere on p = 4..5: each
        # box's table must keep its own answer for the same pair of bounds
        low = ParamBox.of({"p": (0, 2)})
        high = ParamBox.of({"p": (4, 5)})
        lo_t, hi_t = BoundTable(low), BoundTable(high)
        lo_ids = [lo_t.intern(b) for b in (bound(P), bound(3))]
        hi_ids = [hi_t.intern(b) for b in (bound(P), bound(3))]
        assert lo_t.le_bits(*lo_ids) == ValuationSet.full(low).bits
        assert hi_t.le_bits(*hi_ids) == 0
        assert lo_t.le_bits(*lo_ids) == ValuationSet.full(low).bits
        assert hi_t.le_bits(*hi_ids) == 0

    def test_equal_bounds_are_one_object(self):
        table = BoundTable(ParamBox.of({"p": (0, 3)}))
        one = table.intern(bound(P + 1))
        assert table.bound(one) == bound(P + 1)
        assert table.intern(bound(P + 1)) == one
        assert table.intern(bound(P + 1, strict=True)) != one
        p, c = table.intern(bound(P)), table.intern(bound(1))
        assert table.add(p, c) == one
        assert table.add(c, p) == one
        assert table.intern(StrictBound(None, True)) == INF_ID
        assert table.bound(INF_ID) is INF_BOUND
        assert table.intern(bound(0)) == ZERO_LE_ID
        assert table.bound(ZERO_LE_ID) is ZERO_LE
        assert table.floor(3) == table.intern(bound(-3, strict=True))

    def test_memos_exact_for_far_apart_ids(self, rng):
        # thousands of ids on one box: with every pair's answer memoized
        # first, each memo entry must still equal a fresh computation, so
        # no two pairs can share a key
        box = ParamBox.of({"p": (-2, 3), "q": (0, 4)})
        table = BoundTable(box)
        bounds = [INF_BOUND] + [
            StrictBound(AffineExpr.of(c, {"p": zp, "q": zq}), strict)
            for c in range(-120, 120) for zp in (-1, 0, 2) for zq in (0, 3)
            for strict in (False, True)]
        ids = [table.intern(b) for b in bounds]
        assert len(set(ids)) == len(ids) > 2000
        far = len(ids) // 2
        pairs = [(ids[k], ids[(k + far) % len(ids)])
                 for k in rng.sample(range(len(ids)), 300)]
        pairs += [(ids[0], ids[-1]), (ids[-1], ids[0]), (ids[1], ids[-2])]
        pairs += [(b, a) for a, b in pairs]
        for a, b in pairs:
            table.le_bits(a, b)
            table.add(a, b)
        for a, b in pairs:
            x, y = table.bound(a), table.bound(b)
            le = bound_le_constraint(x, y)
            want = box.affine_bits(le.lhs.const, le.lhs.coeffs, le.strict)
            assert table.les[a][b] == table.le_bits(a, b) == want
            assert table.bound(table.sums[a][b]) == bound_add(x, y)
            assert table.add(a, b) == table.sums[a][b]


def pointwise(box, holds):
    """Bits of the box points where ``holds(valuation)``, enumerating the
    points in row-major order without the box's grid."""
    ranges = [range(a, b + 1) for a, b in zip(box.lo, box.hi)]
    bits = 0
    for idx, vals in enumerate(itertools.product(*ranges)):
        if holds(dict(zip(box.params, vals))):
            bits |= 1 << idx
    return bits


def bound_eval(b, v):
    """Concrete (value, strict) pair of bound ``b`` at ``v``, or None for
    infinity."""
    if b.is_inf:
        return None
    return b.expr.eval(v), b.strict


def bound_at_most(a, b, v):
    """Whether bound a is at most bound b at v: value first, strict
    before weak."""
    ea, eb = bound_eval(a, v), bound_eval(b, v)
    if eb is None:
        return True
    if ea is None:
        return False
    return ea[0] < eb[0] or (ea[0] == eb[0] and (ea[1] or not eb[1]))


class TestComparisonsAgreePointwise:
    """Constant and one-parameter comparisons are decided without the
    grid; every path must give the bits a per-point evaluation gives."""

    BOXES = [
        ParamBox.of({}),
        ParamBox.of({"p": (-3, 4)}),
        ParamBox.of({"p": (-2, 2), "q": (1, 3)}),
        ParamBox.of({"p": (-1, 2), "q": (-2, 0), "r": (0, 2)}),
    ]

    def expr(self, rng, box, nparams=None):
        if nparams is None:
            nparams = rng.randrange(len(box.params) + 1)
        names = rng.sample(box.params, nparams)
        return AffineExpr.of(rng.randrange(-14, 15), {
            p: rng.choice([-3, -2, -1, 1, 2, 3]) for p in names})

    def bound(self, rng, box):
        if rng.random() < 0.1:
            return INF_BOUND
        return StrictBound(self.expr(rng, box), rng.random() < 0.5)

    def test_constraint_bits(self, rng):
        seen = set()
        for box in self.BOXES:
            full = ValuationSet.full(box).bits
            for _ in range(300):
                c = Constraint(self.expr(rng, box), rng.random() < 0.5)
                got = box.constraint_bits(c)
                assert got == pointwise(box, c.holds), str(c)
                if len(c.lhs.coeffs) == 1:
                    (_, z), = c.lhs.coeffs
                    where = ("none" if got == 0 else "all" if got == full
                             else "some")
                    seen.add((z > 0, c.strict, where))
        # thresholds below, inside and above the range, either sign of the
        # coefficient, strict and weak
        assert len(seen) == 12

    def test_le_bits(self, rng):
        for box in self.BOXES:
            table = BoundTable(box)
            for _ in range(300):
                a = self.bound(rng, box)
                if a.expr is not None and rng.random() < 0.5:
                    # equal coefficients, another constant
                    b = StrictBound(
                        AffineExpr(a.expr.const + rng.randrange(-2, 3),
                                   a.expr.coeffs), rng.random() < 0.5)
                else:
                    b = self.bound(rng, box)
                for x, y in ((a, b), (b, a)):
                    want = pointwise(box, lambda v: bound_at_most(x, y, v))
                    got = table.le_bits(table.intern(x), table.intern(y))
                    assert got == want, (str(x), str(y))

    def test_window_bits(self, rng):
        for box in self.BOXES:
            table = BoundTable(box)
            points = [dict(zip(box.params, vals)) for vals in
                      itertools.product(*(range(a, c + 1)
                                          for a, c in zip(box.lo, box.hi)))]
            ids = {}  # id -> clamped encoded values
            for _ in range(300):
                b = self.bound(rng, box)
                if b.expr is None:
                    continue
                hi, lo = rng.randrange(-4, 10), -rng.randrange(-4, 10)
                want = (pointwise(box, lambda v: b.expr.eval(v) <= hi),
                        pointwise(box, lambda v: b.expr.eval(v) >= lo))
                below, above, vid = table.window_bits(table.intern(b), hi,
                                                      lo)
                assert (below, above) == want, str(b)
                # equal ids exactly where the clamped values are equal
                clamped = tuple(
                    min(max(2 * b.expr.eval(v) + (not b.strict), 2 * lo - 1),
                        2 * hi + 2) for v in points)
                assert ids.setdefault(vid, clamped) == clamped, str(b)
            assert len(set(ids.values())) == len(ids)


_bounds = st.one_of(
    st.just(INF_BOUND),
    st.builds(lambda c, cp, cq, s: StrictBound(
        AffineExpr.of(c, {"p": cp, "q": cq}), s),
        st.integers(-4, 4), st.integers(-2, 2), st.integers(-2, 2),
        st.booleans()),
)

_vals = st.fixed_dictionaries({"p": st.integers(0, 5), "q": st.integers(0, 5)})


class TestBoundProperties:
    @settings(max_examples=200, deadline=None)
    @given(_bounds, _bounds, _bounds)
    def test_add_associative_commutative(self, a, b, c):
        assert bound_add(a, b) == bound_add(b, a)
        assert bound_add(bound_add(a, b), c) == bound_add(a, bound_add(b, c))

    @settings(max_examples=200, deadline=None)
    @given(_bounds)
    def test_add_identity(self, a):
        assert bound_add(a, ZERO_LE) == a

    @settings(max_examples=300, deadline=None)
    @given(_bounds, _bounds, _vals)
    def test_le_matches_lexicographic_order(self, a, b, v):
        # the constraint holds at v exactly when a is at most b there
        assert bound_le_constraint(a, b).holds(v) == bound_at_most(a, b, v)


class TestValuationSets:
    BOX = ParamBox.of({"p": (0, 3), "q": (0, 2)})

    def vs(self, bits):
        return ValuationSet(self.BOX, bits)

    def test_union_with_empty(self):
        a = self.vs(0b1011)
        assert a.union(ValuationSet.empty(self.BOX)).bits == a.bits

    def test_complement_of_full_is_empty(self):
        assert ValuationSet.full(self.BOX).complement().is_empty

    def test_algebra_matches_set_semantics(self, rng):
        size = self.BOX.size
        for _ in range(50):
            abits = rng.getrandbits(size)
            bbits = rng.getrandbits(size)
            a, b = self.vs(abits), self.vs(bbits)
            sa = {i for i in range(size) if abits >> i & 1}
            sb = {i for i in range(size) if bbits >> i & 1}
            assert {int(i) for i in a.union(b).indices()} == sa | sb
            assert {int(i) for i in a.intersect(b).indices()} == sa & sb
            assert a.subset(b) == (sa <= sb)
            assert {int(i) for i in a.complement().indices()} == \
                set(range(size)) - sa

    def test_mixed_boxes_rejected(self):
        other = ParamBox.of({"p": (0, 1)})
        with pytest.raises(SynthError):
            self.vs(1).union(ValuationSet.full(other))

    def test_iteration_row_major(self):
        full = ValuationSet.full(ParamBox.of({"p": (0, 1), "q": (5, 6)}))
        assert [(v["p"], v["q"]) for v in full] == [
            (0, 5), (0, 6), (1, 5), (1, 6)]

    def test_json_serialization_sorted(self):
        box = ParamBox.of({"p": (0, 1), "q": (0, 1)})
        got = json.dumps(ValuationSet.full(box).to_json_objs())
        assert got == ('[{"p": 0, "q": 0}, {"p": 0, "q": 1}, '
                       '{"p": 1, "q": 0}, {"p": 1, "q": 1}]')

    def test_membership(self):
        assert {"p": 0, "q": 0} in self.vs(1)
        assert {"p": 0, "q": 1} not in self.vs(1)
        with pytest.raises(EvaluationError, match="missing parameter q"):
            {"p": 0} in self.vs(1)
        with pytest.raises(EvaluationError, match="names parameter r,"):
            {"p": 0, "q": 0, "r": 7} in self.vs(1)


class TestConstraintSetAlgebra:
    def test_union_extension_is_intersection(self, rng):
        box = ParamBox.of({"p": (0, 8), "q": (0, 8)})
        for _ in range(20):
            mk = lambda: Constraint(
                AffineExpr.of(rng.randrange(-8, 9),
                              {"p": rng.randrange(-2, 3),
                               "q": rng.randrange(-2, 3)}),
                rng.random() < 0.5)
            c1 = [mk() for _ in range(rng.randrange(0, 3))]
            c2 = [mk() for _ in range(rng.randrange(0, 3))]
            both = ConstraintSet.of(box, c1 + c2).extension(box)
            assert both.bits == (ConstraintSet.of(box, c1).extension(box)
                                 .intersect(ConstraintSet.of(box, c2)
                                            .extension(box))
                                 .bits)

    def test_extended_dedup(self):
        box = ParamBox.of({"p": (0, 5)})
        c = Constraint.le(P, 3)
        s = cset(box, c)
        assert s.extended(c, box) == s
