import pytest

from conftest import load_fixture
from ptasynth import pdbm
from ptasynth.errors import CapacityError, InputError, SoundnessError
from ptasynth.explore import (
    Options,
    StateStore,
    SymbolicGraph,
    SymbolicState,
    build_graph,
    cumulative_ndfs,
    cumulative_ndfs_graph,
    deadlock_valuations,
    initial_states,
    scan_stored_bounds,
    successors,
    synthesize,
)
from ptasynth.model import PEdge, PLoc, Ptba
from ptasynth.params import (
    AffineExpr,
    Constraint,
    ConstraintSet,
    INF_BOUND,
    ParamBox,
    ValuationSet,
    bound,
)

P = AffineExpr.var("p")


def tiny_ptba(accepting=True, guard_atoms=(), inv=()):
    """One location with a single self-loop."""
    loc = PLoc("L", tuple(inv), accepting=accepting)
    loc.edges.append(PEdge(tuple(guard_atoms), (), 0, "loop"))
    return Ptba(["0", "x"], [loc], 0)


BOX5 = ParamBox.of({"p": (0, 5)})


class TestInitialStates:
    def test_plain_invariant(self):
        a = tiny_ptba()
        states = initial_states(a, BOX5, [0, 0])
        assert len(states) == 1
        z = states[0].zone
        assert z.mat[1][0] is INF_BOUND  # x unbounded above
        assert z.mat[0][1].expr == AffineExpr(0)  # x >= 0

    def test_upper_bound_invariant(self):
        a = tiny_ptba(inv=[(1, 0, bound(P))])
        states = initial_states(a, BOX5, [0, 5])
        assert len(states) == 1
        assert states[0].zone.mat[1][0] == bound(P)

    def test_unsatisfiable_invariant_drops_state(self):
        a = tiny_ptba(inv=[(1, 0, bound(-1))])  # x <= -1: empty
        assert initial_states(a, BOX5, [0, 5]) == []


class TestSuccessors:
    def test_no_edges(self):
        loc = PLoc("L", ())
        a = Ptba(["0", "x"], [loc], 0)
        s = initial_states(a, BOX5, [0, 0])[0]
        assert successors(s, a, BOX5, [0, 0]) == []

    def test_reset_all_guard_true(self):
        loc = PLoc("L", ())
        loc.edges.append(PEdge((), (1, 2), 0, "loop"))
        a = Ptba(["0", "x", "y"], [loc], 0)
        s = initial_states(a, BOX5, [0, 0, 0])[0]
        out = successors(s, a, BOX5, [0, 0, 0])
        assert len(out) == 1
        z = out[0].zone
        # all clocks equal and non-negative after reset + time release
        assert z.mat[1][2].expr == AffineExpr(0)
        assert z.mat[2][1].expr == AffineExpr(0)
        assert z.mat[1][0] is INF_BOUND

    def test_equal_matrix_siblings_merge(self):
        # the guard x <= q forks the zone 0 <= x <= p on p <= q; the reset
        # of x makes both branches 0 <= x <= p again, so they are one state
        box = ParamBox.of({"p": (0, 3), "q": (0, 3)})
        q = AffineExpr.var("q")
        loc = PLoc("L", ((1, 0, bound(P)),))
        loc.edges.append(PEdge(((1, 0, bound(q)),), (1,), 0, "loop"))
        a = Ptba(["0", "x"], [loc], 0)
        s = initial_states(a, box, [0, 5])[0]
        counts: dict = {}
        out = successors(s, a, box, [0, 5], counts=counts)
        assert counts["guard"] == 1 and counts["merged"] == 1
        assert len(out) == 1
        assert out[0].loc == 0
        assert out[0].zone.cset.bits == ValuationSet.full(box).bits
        assert out[0].zone.mat == s.zone.mat


class TestStateStore:
    def test_identical_zone_same_data(self):
        store = StateStore(BOX5)
        r1 = store.resolve(pdbm.initial_cpdbm(1, BOX5))
        r2 = store.resolve(pdbm.initial_cpdbm(1, BOX5))
        assert r1 == r2

    def test_equal_extensions_hit_structurally(self):
        # different constraint lists with the same points are one set
        store = StateStore(BOX5)
        mat = pdbm.matrix_of(2, {(1, 0): bound(P)})
        z1 = pdbm.CPDBM(ConstraintSet.of(BOX5, [Constraint.le(P, 3)]), mat,
                        True)
        z2 = pdbm.CPDBM(ConstraintSet.of(
            BOX5, [Constraint.le(P, 3), Constraint.le(P, 4)]), mat, True)
        assert store.resolve(z1) == store.resolve(z2)
        assert store.m2_hits == 1 and store.m2_misses == 1
        assert store.semantic_comparisons == 0

    def test_semantically_equal_structures_share_representative(self):
        # p pinned to 3 with the bound written parametrically vs literally
        store = StateStore(BOX5)
        pin = ConstraintSet.of(BOX5, [Constraint.le(P, 3),
                                      Constraint.le(3, P)])
        z1 = pdbm.CPDBM(pin, pdbm.matrix_of(2, {(1, 0): bound(P)}), True)
        z2 = pdbm.CPDBM(pin, pdbm.matrix_of(2, {(1, 0): bound(3)}), True)
        assert store.resolve(z1) == store.resolve(z2)
        assert store.m2_misses == 2 and store.semantic_comparisons == 1

    def test_zones_differing_at_one_valuation_split(self):
        store = StateStore(BOX5)
        z1 = pdbm.CPDBM(ConstraintSet.of(BOX5),
                        pdbm.matrix_of(2, {(1, 0): bound(P)}), True)
        z2 = pdbm.CPDBM(ConstraintSet.of(BOX5),
                        pdbm.matrix_of(2, {(1, 0): bound(P)}), True)
        z3 = pdbm.CPDBM(ConstraintSet.of(BOX5),
                        pdbm.matrix_of(2, {(1, 0): bound(4)}), True)
        assert store.resolve(z1) == store.resolve(z2)
        assert store.resolve(z1) != store.resolve(z3)
        # same matrix, extensions differing in exactly one valuation
        z4 = pdbm.CPDBM(ConstraintSet.of(BOX5, [Constraint.le(1, P)]),
                        pdbm.matrix_of(2, {(1, 0): bound(4)}), True)
        assert store.resolve(z3) != store.resolve(z4)


class TestCumulativeNdfs:
    def test_accepting_self_loop_full_box(self):
        got = cumulative_ndfs(tiny_ptba(accepting=True), BOX5)
        assert got.bits == ValuationSet.full(BOX5).bits

    def test_no_accepting_locations(self):
        got = cumulative_ndfs(tiny_ptba(accepting=False), BOX5)
        assert got.is_empty

    def test_pruning_is_an_optimization_only(self):
        # same accepted set with and without the covered-valuation pruning
        for fixture, prop in (("gap.pta", "G !inB"),
                              ("window.pta", "G !work"),
                              ("strict.pta", "G !inB")):
            net = load_fixture(fixture)
            full = synthesize(net, prop, opts=Options(prune=False))
            pruned = synthesize(net, prop, opts=Options(prune=True))
            assert full.accepted.bits == pruned.accepted.bits
            assert full.deadlock.bits == pruned.deadlock.bits

    def test_capacity_limit(self):
        net = load_fixture("gap.pta")
        with pytest.raises(CapacityError):
            synthesize(net, "G !inB", opts=Options(limit_states=3))

    def test_unequal_cycle_extensions_fail_soundness(self):
        # 0 -> 1 -> 0 with node 1 accepting and fewer valuations than
        # node 0; successors never gain valuations, so a real cycle's
        # states all hold the same set
        low = ValuationSet.full(BOX5).bits >> 3
        g = SymbolicGraph(None, BOX5, [0, 5], StateStore(BOX5),
                          nodes=[(0, 0), (0, 1)], succ=[[1], [0]],
                          ext_bits=[ValuationSet.full(BOX5).bits, low],
                          accepting=[False, True], initials=[0])
        with pytest.raises(SoundnessError):
            cumulative_ndfs_graph(g)


class TestDeadlockValuations:
    def test_no_outgoing_edges_whole_extension(self):
        loc = PLoc("L", ())
        a = Ptba(["0", "x"], [loc], 0)
        s = initial_states(a, BOX5, [0, 0])[0]
        got = deadlock_valuations(s, a, BOX5)
        assert got.bits == s.zone.cset.bits

    def test_unguarded_edge_never_deadlocks(self):
        a = tiny_ptba()
        s = initial_states(a, BOX5, [0, 0])[0]
        assert deadlock_valuations(s, a, BOX5).is_empty

    def test_upper_bounded_guard_on_unbounded_zone(self):
        # zone x >= 0 with a single guard x <= p: some point beyond p
        # always exists, so every valuation is flagged
        a = tiny_ptba(guard_atoms=[(1, 0, bound(P))])
        s = initial_states(a, BOX5, [0, 5])[0]
        got = deadlock_valuations(s, a, BOX5)
        assert got.bits == ValuationSet.full(BOX5).bits

    def test_lower_bounded_guard_never_deadlocks_upward_zone(self):
        # guard x >= p on an upward-closed zone is always eventually on,
        # and the formula sees the points below p as deadlocked
        a = tiny_ptba(guard_atoms=[(0, 1, bound(-P))])
        s = initial_states(a, BOX5, [0, 5])[0]
        got = deadlock_valuations(s, a, BOX5)
        assert sorted(v["p"] for v in got) == [1, 2, 3, 4, 5]

    def test_dnf_capacity(self):
        # four independent clocks, one edge per clock with three guards:
        # the negated guards give 3, 9, 27 and 81 distinct zones, so
        # merging equal matrices saves nothing and the 120 steps exceed 100
        n = 5
        free = {(i, j): INF_BOUND for i in range(1, n) for j in range(n)
                if i != j}
        z = pdbm.CPDBM(ConstraintSet.of(BOX5), pdbm.matrix_of(n, free), True)
        loc = PLoc("L", ())
        for c in range(1, n):
            atoms = [(c, 0, bound(k)) for k in range(3)]
            loc.edges.append(PEdge(tuple(atoms), (), 0, "e"))
        a = Ptba(["0", "x1", "x2", "x3", "x4"], [loc], 0)
        s = SymbolicState(0, z)
        with pytest.raises(CapacityError):
            deadlock_valuations(s, a, BOX5, dnf_limit=100)
        assert deadlock_valuations(s, a, BOX5, dnf_limit=120).bits \
            == ValuationSet.full(BOX5).bits

    def test_repeated_zones_fold_under_default_limit(self):
        # without merging equal zones after each edge the symbolic fold
        # exceeded the default limit here, while enumeration finished
        from ptasynth.baseline import enumerate_box

        net = load_fixture("deadfold.pta")
        sym = synthesize(net, "!al0 U al1")
        base = enumerate_box(net, "!al0 U al1")
        assert sym.accepted.bits == base.accepted.bits
        assert sym.satisfying.bits == base.satisfying.bits
        assert sym.deadlock.bits == base.deadlock.bits
        assert not sym.deadlock.is_empty


class TestSynthesize:
    def test_true_never_violated(self):
        net = load_fixture("gap.pta")
        res = synthesize(net, "true")
        assert res.accepted.is_empty
        assert res.satisfying.bits == ValuationSet.full(res.box).bits

    def test_false_violated_where_runs_exist(self):
        net = load_fixture("gap.pta")
        res = synthesize(net, "false")
        # a proper non-Zeno run exists exactly when the loop is passable
        assert sorted(v["p"] for v in res.accepted) == [0, 1, 2, 3]

    def test_satisfying_is_complement(self):
        net = load_fixture("window.pta")
        res = synthesize(net, "G !work")
        assert res.satisfying.bits == res.accepted.complement().bits

    def test_stats_shape(self):
        net = load_fixture("gap.pta")
        res = synthesize(net, "G !inB")
        for key in ("stored_states", "transitions", "m1_buckets", "m2_hits",
                    "m2_misses", "semantic_comparisons", "outer_visits",
                    "inner_visits", "cycles_detected", "splits", "merged"):
            assert key in res.stats

    def test_witness_valuations_are_violating(self):
        net = load_fixture("gap.pta")
        res = synthesize(net, "G !inB")
        assert res.stats["witnesses"]
        for w in res.stats["witnesses"]:
            assert w in res.accepted

    def test_parameter_free_model(self):
        from ptasynth.baseline import enumerate_box
        from ptasynth.model import parse_model

        src = """
clock x
component M {
  location A { invariant x <= 3; label inA }
  location B { invariant true; label inB }
  init A
  edge A -> B { guard x >= 2 }
  edge B -> A { guard true; reset x }
}
"""
        net = parse_model(src)
        sym = synthesize(net, "G !inB")
        base = enumerate_box(net, "G !inB")
        # the box degenerates to the single empty valuation
        assert sym.accepted.to_json_objs() == [{}]
        assert sym.accepted.bits == base.accepted.bits
        assert sym.deadlock.bits == base.deadlock.bits

    def test_trace_output(self, tmp_path):
        import io

        net = load_fixture("gap.pta")
        sink = io.StringIO()
        synthesize(net, "true", opts=Options(trace=sink))
        assert "state 0:" in sink.getvalue()
        assert "where:\n  p=" in sink.getvalue()


class TestStoredBoundScan:
    def test_fixture_bounds_in_range(self):
        from ptasynth.explore import build_automaton
        from ptasynth.ltl import parse_ltl

        net = load_fixture("staggered.pta")
        box = net.box()
        tba, maxima = build_automaton(net, parse_ltl("G !inB"), box)
        g = build_graph(tba, box, maxima)
        assert scan_stored_bounds(g) > 0

    def test_unwidened_bounds_fail_soundness(self, monkeypatch):
        # x is reset on every loop and y never is, so y - x grows by one
        # per loop; y is compared with nothing, so its maximum is 0 and
        # without widening the first successor's bounds on y leave the range
        loc = PLoc("L", ())
        loc.edges.append(PEdge(((0, 1, bound(-1)),), (1,), 0, "loop"))
        a = Ptba(["0", "x", "y"], [loc], 0)
        assert build_graph(a, BOX5).n_nodes > 0
        monkeypatch.setattr(pdbm, "extrapolate", lambda z, maxima, box: [z])
        with pytest.raises(SoundnessError, match="out of range"):
            build_graph(a, BOX5, opts=Options(limit_states=50))
        # the check is what stops it: unchecked, the search runs on
        with pytest.raises(CapacityError):
            build_graph(a, BOX5, opts=Options(check=False, limit_states=50))


class TestBoundRange:
    """Bounds must stay below 2^38, where two encoded bounds start to sum
    to the infinity sentinel."""

    LIMIT = 1 << 38

    @staticmethod
    def front_end(params: str, inv: str):
        from ptasynth.explore import build_automaton
        from ptasynth.ltl import parse_ltl
        from ptasynth.model import parse_model

        net = parse_model(f"""{params}
clock x
component C {{
  location A {{ invariant x <= {inv} }}
  init A
}}
""")
        return build_automaton(net, parse_ltl("true"), net.box())

    def rejected(self, params: str, inv: str, what: str):
        with pytest.raises(InputError) as exc:
            self.front_end(params, inv)
        assert exc.value.kind == "bound-range"
        assert what in str(exc.value)

    def test_clock_maximum(self):
        _, maxima = self.front_end("", str(self.LIMIT - 1))
        assert maxima[1] == self.LIMIT - 1
        self.rejected("", str(self.LIMIT), "maximum of clock x")

    def test_atom_term(self):
        # the bound p - c is at most 1, but the term p reaches the limit
        lo = self.LIMIT - 2
        _, maxima = self.front_end(f"param p = {lo}..{lo + 1}", f"p - {lo}")
        assert maxima[1] == 1
        self.rejected(f"param p = {lo + 1}..{lo + 2}", f"p - {lo + 1}",
                      "bound term 1*p")

    def test_atom_constant(self):
        # p + q - c is 0 or 1, each term is 2^37, the constant reaches 2^38
        half = self.LIMIT // 2
        params = f"param p = {half}..{half}\nparam q = {half}..{half}"
        _, maxima = self.front_end(params, f"p + q - {self.LIMIT - 1}")
        assert maxima[1] == 1
        self.rejected(params, f"p + q - {self.LIMIT}", "bound constant")
