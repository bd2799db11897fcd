import random

import pytest

from conftest import SEED, load_fixture
from ptasynth import pdbm
from ptasynth.errors import CapacityError, InputError, SoundnessError
from ptasynth.explore import (
    DEFAULT_DNF_LIMIT,
    Options,
    StateStore,
    build_graph,
    cumulative_ndfs_graph,
    deadlock_valuations,
    initial_states,
    scan_stored_bounds,
    successors,
    synthesize,
)
from ptasynth.model import PEdge, PLoc, Ptba, clock_bounds, location_bounds
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
        states = initial_states(a, BOX5, [(0, 0)])
        assert len(states) == 1
        z = states[0]
        assert z.mat[1][0] is INF_BOUND  # x unbounded above
        assert z.mat[0][1].expr == AffineExpr(0)  # x >= 0

    def test_upper_bound_invariant(self):
        a = tiny_ptba(inv=[(1, 0, bound(P))])
        states = initial_states(a, BOX5, [(0, 5)])
        assert len(states) == 1
        assert states[0].mat[1][0] == bound(P)

    def test_unsatisfiable_invariant_drops_state(self):
        a = tiny_ptba(inv=[(1, 0, bound(-1))])  # x <= -1: empty
        assert initial_states(a, BOX5, [(0, 5)]) == []


class TestSuccessors:
    def test_no_edges(self):
        loc = PLoc("L", ())
        a = Ptba(["0", "x"], [loc], 0)
        base = initial_states(a, BOX5, [(0, 0)])
        assert successors(0, base, a, BOX5, [(0, 0)], {}) == []

    def test_reset_all_guard_true(self):
        loc = PLoc("L", ())
        loc.edges.append(PEdge((), (1, 2), 0, "loop"))
        a = Ptba(["0", "x", "y"], [loc], 0)
        base = initial_states(a, BOX5, [(0, 0, 0)])
        counts = {}
        out = successors(0, base, a, BOX5, [(0, 0, 0)], counts)
        assert len(out) == 1 and counts == {}
        target, z = out[0]
        assert target == 0
        # all clocks equal and non-negative after reset + time release
        assert z.mat[1][2].expr == AffineExpr(0)
        assert z.mat[2][1].expr == AffineExpr(0)
        assert z.mat[1][0] is INF_BOUND

    def test_equal_matrix_siblings_merge(self):
        # the guard x <= q forks the zone 0 <= x <= p on p <= q; the reset
        # of x makes both branches 0 <= x <= p again, so they meet at the
        # initial node, whose colour stays the whole box
        box = ParamBox.of({"p": (0, 3), "q": (0, 3)})
        q = AffineExpr.var("q")
        loc = PLoc("L", ((1, 0, bound(P)),))
        loc.edges.append(PEdge(((1, 0, bound(q)),), (1,), 0, "loop"))
        a = Ptba(["0", "x"], [loc], 0)
        z0 = initial_states(a, box, [(0, 5)])[0]
        g = build_graph(a, box, [(0, 5)])
        assert g.counts == {"guard": 1}
        assert g.n_nodes == 1 and g.expansions == 1
        assert g.colour == [ValuationSet.full(box).bits]
        assert g.mats == [z0.mat]
        assert g.succ == [{0: ValuationSet.full(box).bits}]


class TestStateStore:
    def test_identical_zone_same_data(self):
        store = StateStore(BOX5, [(0, 5)] * 2)
        r1 = store.resolve(0, pdbm.initial_cpdbm(1, BOX5))
        r2 = store.resolve(0, pdbm.initial_cpdbm(1, BOX5))
        assert r1 == r2
        assert list(store.queue) == [r1]

    def test_equal_extensions_hit_structurally(self):
        # different constraint lists with the same points are one set
        store = StateStore(BOX5, [(0, 5)] * 2)
        mat = pdbm.matrix_of(2, {(1, 0): bound(P)})
        z1 = pdbm.CPDBM(ConstraintSet.of(BOX5, [Constraint.le(P, 3)]).bits,
                        mat, True)
        z2 = pdbm.CPDBM(ConstraintSet.of(
            BOX5, [Constraint.le(P, 3), Constraint.le(P, 4)]).bits, mat, True)
        assert store.resolve(0, z1) == store.resolve(0, z2) == 0
        assert store.colour == store.pending == [z1.bits]

    def test_equal_only_on_colour_are_two_nodes(self):
        # p pinned to 3 with the bound written parametrically vs literally:
        # the key reads the values at every box point, and they differ
        # where p is not 3
        store = StateStore(BOX5, [(0, 5)] * 2)
        pin = ConstraintSet.of(BOX5, [Constraint.le(P, 3),
                                      Constraint.le(3, P)]).bits
        z1 = pdbm.CPDBM(pin, pdbm.matrix_of(2, {(1, 0): bound(P)}), True)
        z2 = pdbm.CPDBM(pin, pdbm.matrix_of(2, {(1, 0): bound(3)}), True)
        assert store.resolve(0, z1) != store.resolve(0, z2)

    def test_zones_differing_at_one_valuation_split(self):
        store = StateStore(BOX5, [(0, 5)] * 2)
        z1 = pdbm.CPDBM(ValuationSet.full(BOX5).bits,
                        pdbm.matrix_of(2, {(1, 0): bound(P)}), True)
        z2 = pdbm.CPDBM(ValuationSet.full(BOX5).bits,
                        pdbm.matrix_of(2, {(1, 0): bound(P)}), True)
        z3 = pdbm.CPDBM(ConstraintSet.of(BOX5, [Constraint.le(1, P)]).bits,
                        pdbm.matrix_of(2, {(1, 0): bound(4)}), True)
        assert store.resolve(0, z1) == store.resolve(0, z2)
        assert store.resolve(0, z1) != store.resolve(0, z3)
        # once z3's valuations are expanded, the same matrix on other
        # valuations joins its node with only the new valuation pending
        n3 = store.resolve(0, z3)
        store.pending[n3] = 0
        z4 = pdbm.CPDBM(ValuationSet.full(BOX5).bits,
                        pdbm.matrix_of(2, {(1, 0): bound(4)}), False)
        assert store.resolve(0, z4) == n3
        assert store.colour[n3] == ValuationSet.full(BOX5).bits
        assert store.pending[n3] == 1  # p = 0
        assert not store.canonical[n3]
        # and a zone at another location is another node
        assert store.resolve(1, z1) not in (store.resolve(0, z1), n3)

    def test_constant_and_parametric_keys_agree(self):
        # x <= 3 is keyed without the grid and x <= p through it: one node
        # where p is 3 at every point of the box, two where it is not
        for box, nodes in ((ParamBox.of({"p": (3, 3)}), 1),
                           (ParamBox.of({"p": (3, 3), "q": (0, 1)}), 1),
                           (ParamBox.of({"p": (2, 3)}), 2)):
            store = StateStore(box, [(0, 5)])
            for b in (bound(3), bound(P)):
                store.resolve(0, pdbm.CPDBM(ValuationSet.full(box).bits,
                                            pdbm.matrix_of(2, {(1, 0): b}),
                                            True))
            assert len(store.locs) == nodes

    def test_bounds_equal_in_the_window_are_one_node(self):
        # y - x <= -2p + 2 and y - x <= -4p + 4 are 0 at p = 1 and leave
        # the window [-1, 1] at every other point of the box
        box = ParamBox.of({"p": (0, 3)})
        one = ConstraintSet.of(box, [Constraint.le(P, 1),
                                     Constraint.le(1, P)]).bits
        zs = [pdbm.CPDBM(one, pdbm.matrix_of(3, {
            (1, 0): INF_BOUND, (2, 0): INF_BOUND,
            (2, 1): bound(-k * P + k)}), True) for k in (2, 4)]
        store = StateStore(box, [(0, 1, 1)])
        assert [store.resolve(0, z) for z in zs] == [0, 0]
        assert store.colour == [one]
        assert store.mats == [zs[0].mat]

    def test_each_location_clamps_to_its_own_window(self):
        # on p = 1, x <= p and x <= 2p - 1 are both x <= 1, inside the
        # window of either location; elsewhere they differ, inside the
        # window of a location whose bound on x is 5 and above the window
        # of one whose bound is 1, where both clamp to one value
        box = ParamBox.of({"p": (1, 5)})
        one = ConstraintSet.of(box, [Constraint.le(P, 1)]).bits
        zs = [pdbm.CPDBM(one, pdbm.matrix_of(2, {(1, 0): b}), True)
              for b in (bound(P), bound(2 * P - 1))]
        store = StateStore(box, [(0, 5), (0, 1)])
        assert store.bounds[1] == (0, 1)
        assert len({store.resolve(0, z) for z in zs}) == 2
        assert len({store.resolve(1, z) for z in zs}) == 1
        # on the whole box, x <= p stays inside the first location's
        # window and leaves the second's from p = 2
        wide = pdbm.CPDBM(ValuationSet.full(box).bits, zs[0].mat, True)
        store.resolve(0, wide)
        with pytest.raises(SoundnessError, match="out of range"):
            store.resolve(1, wide)

    def test_offcolour_bounds_keep_the_graph_finite(self):
        from ptasynth.baseline import enumerate_box

        net = load_fixture("offcolour.pta")
        prop = "G (bl1 -> F bl2)"
        sym = synthesize(net, prop, opts=Options(limit_states=200))
        base = enumerate_box(net, prop)
        assert sym.accepted.bits == base.accepted.bits
        assert sym.deadlock.bits == base.deadlock.bits


def accepted_bits(a: Ptba, box: ParamBox) -> int:
    """Valuations under which ``a`` has an accepting run: the graph, then
    the colour fixpoint."""
    g = build_graph(a, box, location_bounds(a, box))
    accepting = [a.locations[loc].accepting for loc in g.locs]
    return cumulative_ndfs_graph(box, g.colour, g.succ, accepting)


class TestCumulativeNdfs:
    def test_accepting_self_loop_full_box(self):
        got = accepted_bits(tiny_ptba(accepting=True), BOX5)
        assert got == ValuationSet.full(BOX5).bits

    def test_no_accepting_locations(self):
        assert accepted_bits(tiny_ptba(accepting=False), BOX5) == 0

    def test_capacity_limit(self):
        net = load_fixture("gap.pta")
        with pytest.raises(CapacityError):
            synthesize(net, "G !inB", opts=Options(limit_states=3))

    def test_fixpoint_matches_per_valuation_search(self):
        # random coloured graphs; at each valuation the nodes and edges
        # whose colours hold it must have an accepting cycle exactly when
        # the fixpoint reports the valuation
        rng = random.Random(SEED ^ 0xC010)
        for _ in range(3000):
            box = ParamBox.of({"p": (0, rng.randrange(6))})
            full = ValuationSet.full(box).bits
            n = rng.randrange(1, 9)
            colour = [rng.randrange(full + 1) for _ in range(n)]
            succ = [{} for _ in range(n)]
            for u in range(n):
                for w in range(n):
                    bits = rng.randrange(full + 1) & colour[u] & colour[w]
                    if bits and rng.random() < 0.4:
                        succ[u][w] = bits
            accepting = [rng.random() < 0.4 for _ in range(n)]
            got = cumulative_ndfs_graph(box, colour, succ, accepting)
            want = 0
            for k in range(box.size):
                if self.accepting_cycle(colour, succ, accepting, k):
                    want |= 1 << k
            assert got == want, (colour, succ, accepting)

    @staticmethod
    def accepting_cycle(colour, succ, accepting, k):
        """Some accepting node at valuation k reaches itself in one step
        or more over the edges whose colours hold k."""
        for a in range(len(colour)):
            if not (accepting[a] and colour[a] >> k & 1):
                continue
            seen, stack = set(), [a]
            while stack:
                u = stack.pop()
                for w, bits in succ[u].items():
                    if bits >> k & 1 and w not in seen:
                        if w == a:
                            return True
                        seen.add(w)
                        stack.append(w)
        return False


class TestDeadlockValuations:
    def test_no_outgoing_edges_whole_extension(self):
        loc = PLoc("L", ())
        a = Ptba(["0", "x"], [loc], 0)
        base = initial_states(a, BOX5, [(0, 0)])
        got = deadlock_valuations(0, base, a, BOX5, DEFAULT_DNF_LIMIT)
        assert got.bits == base[0].bits

    def test_unguarded_edge_never_deadlocks(self):
        a = tiny_ptba()
        base = initial_states(a, BOX5, [(0, 0)])
        assert deadlock_valuations(0, base, a, BOX5,
                                   DEFAULT_DNF_LIMIT).is_empty

    def test_upper_bounded_guard_on_unbounded_zone(self):
        # zone x >= 0 with a single guard x <= p: some point beyond p
        # always exists, so every valuation is flagged
        a = tiny_ptba(guard_atoms=[(1, 0, bound(P))])
        base = initial_states(a, BOX5, [(0, 5)])
        got = deadlock_valuations(0, base, a, BOX5, DEFAULT_DNF_LIMIT)
        assert got.bits == ValuationSet.full(BOX5).bits

    def test_lower_bounded_guard_never_deadlocks_upward_zone(self):
        # guard x >= p on an upward-closed zone is always eventually on,
        # and the formula sees the points below p as deadlocked
        a = tiny_ptba(guard_atoms=[(0, 1, bound(-P))])
        base = initial_states(a, BOX5, [(0, 5)])
        got = deadlock_valuations(0, base, a, BOX5, DEFAULT_DNF_LIMIT)
        assert sorted(v["p"] for v in got) == [1, 2, 3, 4, 5]

    def test_dnf_capacity(self):
        # four independent clocks, one edge per clock with three guards:
        # the negated guards give 3, 9, 27 and 81 distinct zones, so
        # merging equal matrices saves nothing and the 120 steps exceed 100
        n = 5
        free = {(i, j): INF_BOUND for i in range(1, n) for j in range(n)
                if i != j}
        z = pdbm.CPDBM(ValuationSet.full(BOX5).bits, pdbm.matrix_of(n, free),
                       True)
        loc = PLoc("L", ())
        for c in range(1, n):
            atoms = [(c, 0, bound(k)) for k in range(3)]
            loc.edges.append(PEdge(tuple(atoms), (), 0, "e"))
        a = Ptba(["0", "x1", "x2", "x3", "x4"], [loc], 0)
        with pytest.raises(CapacityError):
            deadlock_valuations(0, [z], a, BOX5, 100)
        assert deadlock_valuations(0, [z], a, BOX5, 120).bits \
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
        for key in ("stored_states", "transitions", "initial_states",
                    "expansions", "splits", "fixpoint_rounds", "witnesses"):
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


TRAINS = "G !(Train1.Cross && Train2.Cross)"


class TestPinnedStats:
    """The node table's partition, pinned by the statistics it yields:
    stored states, transitions, expansions, splits, fixpoint rounds."""

    @pytest.mark.parametrize("fixture, prop, box, want", [
        ("traingate.pta", TRAINS, {"p1": (0, 4), "p2": (1, 4), "p3": (0, 4)},
         (61, 86, 61, {"extrapolate": 6, "guard": 15}, 2)),
        ("traingate.pta", TRAINS, {"p1": (0, 8), "p2": (1, 8), "p3": (0, 8)},
         (61, 86, 61, {"extrapolate": 6, "guard": 15}, 2)),
        ("traingate6.pta", "G F Train1.Cross",
         {"p1": (2, 3), "p2": (1, 2), "p3": (0, 1), "p4": (1, 1),
          "p6": (1, 1)},
         (409, 1077, 468, {"extrapolate": 72, "guard": 52}, 2)),
        ("fuzz837.pta", "G !al1", {},
         (1173, 4167, 1180, {"extrapolate": 11, "guard": 31}, 3)),
    ])
    def test_stats(self, fixture, prop, box, want):
        net = load_fixture(fixture)
        stats = synthesize(net, prop, net.box(box)).stats
        assert tuple(stats[k] for k in (
            "stored_states", "transitions", "expansions", "splits",
            "fixpoint_rounds")) == want


class TestStoredBoundScan:
    def test_fixture_bounds_in_range(self):
        from ptasynth.explore import build_automaton
        from ptasynth.ltl import parse_ltl

        net = load_fixture("staggered.pta")
        box = net.box()
        tba, bounds = build_automaton(net, parse_ltl("G !inB"), box)
        g = build_graph(tba, box, bounds)
        assert scan_stored_bounds(g) > 0

    def test_unwidened_bounds_fail_soundness(self, monkeypatch):
        # x is reset on every loop and y never is, so y - x grows by one
        # per loop; y is compared with nothing, so its maximum is 0 and
        # without widening the first successor's bounds on y leave the range
        loc = PLoc("L", ())
        loc.edges.append(PEdge(((0, 1, bound(-1)),), (1,), 0, "loop"))
        a = Ptba(["0", "x", "y"], [loc], 0)
        bounds = location_bounds(a, BOX5)
        g = build_graph(a, BOX5, bounds)
        assert scan_stored_bounds(g) > 0
        # the same graph with an unwidened matrix fails the scan
        g.mats[-1] = pdbm.matrix_of(3, {(1, 0): INF_BOUND,
                                        (2, 0): INF_BOUND,
                                        (2, 1): bound(1)})
        with pytest.raises(SoundnessError, match="out of range"):
            scan_stored_bounds(g)
        monkeypatch.setattr(pdbm, "extrapolate", lambda z, maxima, box: [z])
        with pytest.raises(SoundnessError, match="out of range"):
            build_graph(a, BOX5, bounds, Options(limit_states=50))


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
        _, bounds = self.front_end("", str(self.LIMIT - 1))
        assert clock_bounds(bounds)[1] == self.LIMIT - 1
        self.rejected("", str(self.LIMIT), "maximum of clock x")

    def test_atom_term(self):
        # the bound p - c is at most 1, but the term p reaches the limit
        lo = self.LIMIT - 2
        _, bounds = self.front_end(f"param p = {lo}..{lo + 1}", f"p - {lo}")
        assert clock_bounds(bounds)[1] == 1
        self.rejected(f"param p = {lo + 1}..{lo + 2}", f"p - {lo + 1}",
                      "bound term 1*p")

    def test_atom_constant(self):
        # p + q - c is 0 or 1, each term is 2^37, the constant reaches 2^38
        half = self.LIMIT // 2
        params = f"param p = {half}..{half}\nparam q = {half}..{half}"
        _, bounds = self.front_end(params, f"p + q - {self.LIMIT - 1}")
        assert clock_bounds(bounds)[1] == 1
        self.rejected(params, f"p + q - {self.LIMIT}", "bound constant")
