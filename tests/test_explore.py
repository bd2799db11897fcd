import hashlib
import io
import json
import random
from types import SimpleNamespace

import pytest

import oracle_dbm as od
from conftest import (
    CORPUS,
    FIXTURES,
    SEED,
    free_zone,
    load_fixture,
    load_workloads,
    one_vector_enumeration,
    scan_stored_bounds,
    unbound_zone,
)
from ptasynth import baseline, explore, model, pdbm
from ptasynth.errors import CapacityError, InputError, SoundnessError
from ptasynth.explore import (
    StateStore,
    build_graph,
    cumulative_ndfs_graph,
    deadlock_valuations,
    initial_states,
    successors,
    synthesize,
)
from ptasynth.ltl import parse_ltl
from ptasynth.model import (
    DEFAULT_DNF_LIMIT,
    Options,
    PEdge,
    PLoc,
    Ptba,
    build_automaton,
    clock_bounds,
    clock_tables,
    deadlock_guards,
    transition_steps,
)
from ptasynth.params import (
    AffineExpr,
    BoundTable,
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
TABLE5 = BoundTable(BOX5)


def initial_of(a, table, bounds, free):
    """``initial_states`` along step 0 of the step table of ``a``."""
    steps, _ = transition_steps(a, bounds, free)
    return initial_states(a.n_clocks, steps[0], table)


def successors_of(loc, base, a, table, bounds, free, counts):
    """``successors`` of one expansion, with the step table of ``a`` and
    fresh plans."""
    steps, moves = transition_steps(a, bounds, free)
    return successors(loc, base, moves, steps, table, counts,
                      [None] * len(steps))


workloads = load_workloads()


def bench_job(workload):
    """The one job of a perfbench model workload as (fixture name, property,
    box overrides); the fixture is the workload's model file."""
    [job] = workloads.jobs(workload, 0)
    return job.model, job.prop, job.box


# the perfbench ``live6`` job: p1, p2, p3 and p5 free, p4 and p6 pinned
LIVE6 = bench_job("live6")
# the perfbench ``dense3`` job: the low corner of the test_c9 box
DENSE3 = bench_job("dense3")


class TestInitialStates:
    def test_plain_invariant(self):
        # nothing reads x, so it is freed: still unbounded and non-negative
        a = tiny_ptba()
        bounds, free = clock_tables(a, BOX5)
        assert bounds == [(0, 0)] and free == [(1,)]
        states = initial_of(a, TABLE5, bounds, free)
        assert len(states) == 1
        at = od.bounds_of(states[0], TABLE5)
        assert at[1][0] is INF_BOUND  # x unbounded above
        assert at[0][1].expr == AffineExpr(0)  # x >= 0

    def test_upper_bound_invariant(self):
        a = tiny_ptba(inv=[(1, 0, bound(P))])
        states = initial_of(a, TABLE5, [(0, 5)], [()])
        assert len(states) == 1
        assert od.bounds_of(states[0], TABLE5)[1][0] == bound(P)

    def test_unsatisfiable_invariant_drops_state(self):
        a = tiny_ptba(inv=[(1, 0, bound(-1))])  # x <= -1: empty
        assert initial_of(a, TABLE5, [(0, 5)], [()]) == []

    @staticmethod
    def constrain_free_extrapolate(a, table, bounds, free):
        """The initial matrices as four operations: the zero zone with
        time released, constrained by the initial invariant, with the
        initial location's inactive clocks freed and the gate clock's
        lower bounds dropped, then widened."""
        z0 = pdbm.initial_cpdbm(a.n_clocks, table)
        return [z2 for z1 in pdbm.constrain(z0, a.locations[a.initial].inv,
                                            table)
                for z2 in pdbm.extrapolate(
                    unbound_zone(free_zone(z1, free[a.initial]), a.gate),
                    bounds[a.initial], table)]

    def test_one_transition_matches_constrain_free_extrapolate(self):
        # x <= p widened at 3 forks: kept where p <= 3, infinite above
        forked = tiny_ptba(inv=[(1, 0, bound(P))])
        cases = [(forked, BOX5, [(0, 3)], clock_tables(forked, BOX5)[1])]
        for net, prop, box in pinned_jobs():
            box = net.box(box)
            tba, bounds, free = build_automaton(net, parse_ltl(prop), box)
            cases.append((tba, box, bounds, free))
        many = freed = gated = 0
        for a, box, bounds, free in cases:
            table = BoundTable(box)
            want = self.constrain_free_extrapolate(a, table, bounds, free)
            got = initial_of(a, table, bounds, free)
            assert [(z.bits, z.mat, z.canonical) for z in got] == \
                [(z.bits, z.mat, z.canonical) for z in want]
            many += len(got) > 1
            freed += bool(free[a.initial])
            gated += a.gate not in free[a.initial] and bool(a.gate)
        assert many > 0 and freed > 0 and gated > 0


class TestSuccessors:
    def test_no_edges(self):
        loc = PLoc("L", ())
        a = Ptba(["0", "x"], [loc], 0)
        base = initial_of(a, TABLE5, [(0, 0)], [()])
        assert successors_of(0, base, a, TABLE5, [(0, 0)], [()], {}) == []

    def test_reset_all_guard_true(self):
        loc = PLoc("L", ())
        loc.edges.append(PEdge((), (1, 2), 0, "loop"))
        a = Ptba(["0", "x", "y"], [loc], 0)
        base = initial_of(a, TABLE5, [(0, 0, 0)], [()])
        counts = {}
        out = successors_of(0, base, a, TABLE5, [(0, 0, 0)], [()], counts)
        assert len(out) == 1 and counts == {}
        target, z = out[0]
        assert target == 0
        # all clocks equal and non-negative after reset + time release
        at = od.bounds_of(z, TABLE5)
        assert at[1][2].expr == AffineExpr(0)
        assert at[2][1].expr == AffineExpr(0)
        assert at[1][0] is INF_BOUND

    def test_equal_matrix_siblings_merge(self):
        # the guard x <= q forks the zone 0 <= x <= p on p <= q; the reset
        # of x makes both branches 0 <= x <= p again, so they meet at the
        # initial node, whose colour stays the whole box
        box = ParamBox.of({"p": (0, 3), "q": (0, 3)})
        q = AffineExpr.var("q")
        loc = PLoc("L", ((1, 0, bound(P)),))
        loc.edges.append(PEdge(((1, 0, bound(q)),), (1,), 0, "loop"))
        a = Ptba(["0", "x"], [loc], 0)
        g = build_graph(a, box, [(0, 5)], [()])
        z0 = initial_of(a, g.table, [(0, 5)], [()])[0]
        assert g.counts == {"guard": 1}
        assert g.n_nodes == 1 and g.expansions == 1
        assert g.colour == [ValuationSet.full(box).bits]
        assert g.mats == [z0.mat]
        assert g.succ == [{0: ValuationSet.full(box).bits}]


class TestStateStore:
    def test_identical_zone_same_data(self):
        store = StateStore(TABLE5, [(0, 5)] * 2)
        r1 = store.resolve(0, pdbm.initial_cpdbm(1, TABLE5))
        r2 = store.resolve(0, pdbm.initial_cpdbm(1, TABLE5))
        assert r1 == r2
        assert list(store.queue) == [r1]

    def test_equal_extensions_hit_structurally(self):
        # different constraint lists with the same points are one set
        store = StateStore(TABLE5, [(0, 5)] * 2)
        mat = pdbm.matrix_of(2, {(1, 0): bound(P)}, TABLE5)
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
        store = StateStore(TABLE5, [(0, 5)] * 2)
        pin = ConstraintSet.of(BOX5, [Constraint.le(P, 3),
                                      Constraint.le(3, P)]).bits
        z1 = pdbm.CPDBM(pin, pdbm.matrix_of(2, {(1, 0): bound(P)},
                                            TABLE5), True)
        z2 = pdbm.CPDBM(pin, pdbm.matrix_of(2, {(1, 0): bound(3)},
                                            TABLE5), True)
        assert store.resolve(0, z1) != store.resolve(0, z2)

    def test_zones_differing_at_one_valuation_split(self):
        store = StateStore(TABLE5, [(0, 5)] * 2)
        z1 = pdbm.CPDBM(ValuationSet.full(BOX5).bits,
                        pdbm.matrix_of(2, {(1, 0): bound(P)}, TABLE5),
                        True)
        z2 = pdbm.CPDBM(ValuationSet.full(BOX5).bits,
                        pdbm.matrix_of(2, {(1, 0): bound(P)}, TABLE5),
                        True)
        z3 = pdbm.CPDBM(ConstraintSet.of(BOX5, [Constraint.le(1, P)]).bits,
                        pdbm.matrix_of(2, {(1, 0): bound(4)}, TABLE5),
                        True)
        assert store.resolve(0, z1) == store.resolve(0, z2)
        assert store.resolve(0, z1) != store.resolve(0, z3)
        # once z3's valuations are expanded, the same matrix on other
        # valuations joins its node with only the new valuation pending
        n3 = store.resolve(0, z3)
        store.pending[n3] = 0
        z4 = pdbm.CPDBM(ValuationSet.full(BOX5).bits,
                        pdbm.matrix_of(2, {(1, 0): bound(4)}, TABLE5),
                        False)
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
            store = StateStore(BoundTable(box), [(0, 5)])
            for b in (bound(3), bound(P)):
                store.resolve(0, pdbm.CPDBM(
                    ValuationSet.full(box).bits,
                    pdbm.matrix_of(2, {(1, 0): b}, store.table), True))
            assert len(store.locs) == nodes

    def test_bounds_equal_in_the_window_are_one_node(self):
        # y - x <= -2p + 2 and y - x <= -4p + 4 are 0 at p = 1 and leave
        # the window [-1, 1] at every other point of the box
        box = ParamBox.of({"p": (0, 3)})
        one = ConstraintSet.of(box, [Constraint.le(P, 1),
                                     Constraint.le(1, P)]).bits
        store = StateStore(BoundTable(box), [(0, 1, 1)])
        zs = [pdbm.CPDBM(one, pdbm.matrix_of(3, {
            (1, 0): INF_BOUND, (2, 0): INF_BOUND,
            (2, 1): bound(-k * P + k)}, store.table), True) for k in (2, 4)]
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
        store = StateStore(BoundTable(box), [(0, 5), (0, 1)])
        zs = [pdbm.CPDBM(one, pdbm.matrix_of(2, {(1, 0): b}, store.table),
                         True)
              for b in (bound(P), bound(2 * P - 1))]
        assert store.bounds[1] == (0, 1)
        assert len({store.resolve(0, z) for z in zs}) == 2
        assert len({store.resolve(1, z) for z in zs}) == 1
        # on the whole box, x <= p stays inside the first location's
        # window and leaves the second's from p = 2; at the second it
        # hits the node of zs, and the walk that keys it raises
        wide = pdbm.CPDBM(ValuationSet.full(box).bits, zs[0].mat, True)
        store.resolve(0, wide)
        with pytest.raises(SoundnessError,
                           match=r"out of range at entry \(1,0\): \(p, <=\)$"):
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
    g = build_graph(a, box, *clock_tables(a, box))
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

    def test_time_limit_expires_inside_the_fixpoint(self, monkeypatch):
        # the clock stands still while the graph is built and passes the
        # limit right after, so the fixpoint's first check raises
        now = [0.0]
        monkeypatch.setattr(model, "time",
                            SimpleNamespace(monotonic=lambda: now[0]))
        build = explore.build_graph

        def late(*args):
            g = build(*args)
            now[0] += 60
            return g

        monkeypatch.setattr(explore, "build_graph", late)
        name, prop, box = LIVE6
        net = load_fixture(name)
        with pytest.raises(CapacityError,
                           match="^time limit of 10 s exceeded$") as info:
            synthesize(net, prop, net.box(box), Options(time_limit=10))
        assert info.traceback[-2].name == "cumulative_ndfs_graph"

    def test_timer_runs_every_round(self):
        name, prop, box = LIVE6
        net = load_fixture(name)
        box = net.box(box)
        tba, bounds, free = build_automaton(net, parse_ltl(prop), box)
        g = build_graph(tba, box, bounds, free)
        calls, stats = [], {}
        cumulative_ndfs_graph(box, g.colour, g.succ,
                              [tba.locations[loc].accepting for loc in g.locs],
                              stats, lambda: calls.append(1))
        assert len(calls) == 2 * stats["fixpoint_rounds"] > 2

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
        base = initial_of(a, TABLE5, [(0, 0)], [()])
        got = deadlock_valuations(deadlock_guards(a.locations[0]), base,
                                  TABLE5, DEFAULT_DNF_LIMIT)
        assert got == base[0].bits

    def test_unguarded_edge_never_deadlocks(self):
        a = tiny_ptba()
        base = initial_of(a, TABLE5, [(0, 0)], [()])
        assert deadlock_valuations(deadlock_guards(a.locations[0]), base,
                                   TABLE5, DEFAULT_DNF_LIMIT) == 0

    def test_upper_bounded_guard_on_unbounded_zone(self):
        # zone x >= 0 with a single guard x <= p: some point beyond p
        # always exists, so every valuation is flagged
        a = tiny_ptba(guard_atoms=[(1, 0, bound(P))])
        base = initial_of(a, TABLE5, [(0, 5)], [()])
        got = deadlock_valuations(deadlock_guards(a.locations[0]), base,
                                  TABLE5, DEFAULT_DNF_LIMIT)
        assert got == ValuationSet.full(BOX5).bits

    def test_lower_bounded_guard_never_deadlocks_upward_zone(self):
        # guard x >= p on an upward-closed zone is always eventually on,
        # and the formula sees the points below p as deadlocked
        a = tiny_ptba(guard_atoms=[(0, 1, bound(-P))])
        base = initial_of(a, TABLE5, [(0, 5)], [()])
        got = deadlock_valuations(deadlock_guards(a.locations[0]), base,
                                  TABLE5, DEFAULT_DNF_LIMIT)
        assert sorted(v["p"] for v in ValuationSet(BOX5, got)) == \
            [1, 2, 3, 4, 5]

    def test_dnf_capacity(self):
        # four independent clocks, one edge per clock with three guards:
        # the negated guards give 3, 9, 27 and 81 distinct zones, so
        # merging equal matrices saves nothing and the 120 steps exceed 100
        n = 5
        free = {(i, j): INF_BOUND for i in range(1, n) for j in range(n)
                if i != j}
        z = pdbm.CPDBM(ValuationSet.full(BOX5).bits,
                       pdbm.matrix_of(n, free, TABLE5), True)
        loc = PLoc("L", ())
        for c in range(1, n):
            atoms = [(c, 0, bound(k)) for k in range(3)]
            loc.edges.append(PEdge(tuple(atoms), (), 0, "e"))
        guards = deadlock_guards(loc)
        with pytest.raises(CapacityError):
            deadlock_valuations(guards, [z], TABLE5, 100)
        assert deadlock_valuations(guards, [z], TABLE5, 120) \
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

    @pytest.mark.parametrize("limit,symbolic_done,enumerate_done", [
        (31, False, False), (37, False, True), (38, True, True)])
    def test_dnf_limit_counts_engine_steps(self, limit, symbolic_done,
                                           enumerate_done):
        # the limit bounds each engine's own fold: on this job the
        # symbolic fold needs 38 steps and enumeration 32, so from 32 to
        # 37 only enumeration finishes
        from ptasynth.baseline import enumerate_box

        net = load_fixture("deadfold.pta")
        for run, done in ((synthesize, symbolic_done),
                          (enumerate_box, enumerate_done)):
            if done:
                res = run(net, "!al0 U al1", opts=Options(dnf_limit=limit))
                assert len(res.deadlock) == 12
            else:
                with pytest.raises(CapacityError,
                                   match=f"expansion exceeded {limit}$"):
                    run(net, "!al0 U al1", opts=Options(dnf_limit=limit))

    def test_repeated_guards_fold_once(self):
        # G over 600 copies of one atom gives product locations with many
        # edges that share one clock guard; folding every copy would
        # multiply the negated-guard product past the default limit.
        # Folded once per distinct guard, the copies take the steps one
        # does: both engines finish within the 5 steps G work takes
        # symbolically
        from ptasynth.baseline import enumerate_box

        net = load_fixture("window.pta")
        prop = "G (" + " && ".join(["work"] * 600) + ")"
        for run in (synthesize, enumerate_box):
            got = run(net, prop, opts=Options(dnf_limit=5))
            want = run(net, "G work")
            assert got.accepted.bits == want.accepted.bits
            assert got.deadlock.bits == want.deadlock.bits

    def test_settled_valuations_skip_the_fold(self, monkeypatch):
        # the deadlock set is a union, so an expansion folds only the
        # valuations not yet known to deadlock: on the six-parameter job
        # 7 of its 47 expansions fold
        import ptasynth.explore as explore
        from ptasynth.baseline import enumerate_box

        calls = []
        fold = explore.deadlock_valuations

        def counted(*args):
            calls.append(args)
            return fold(*args)

        monkeypatch.setattr(explore, "deadlock_valuations", counted)
        name, prop, box = LIVE6
        net = load_fixture(name)
        res = synthesize(net, prop, net.box(box))
        assert len(calls) == 7 < res.stats["expansions"] == 47
        assert res.deadlock.bits == \
            enumerate_box(net, prop, net.box(box)).deadlock.bits
        assert not res.deadlock.is_empty

    def test_label_blocked_locations_deadlock(self, monkeypatch):
        # a product location where the property automaton has no
        # transition for the label has no edge, and deadlocks: on
        # blocked.pta under G (a -> X c) where B is reachable, p <= 2; the
        # automaton of G !a never blocks.  Both engines give those sets
        # on the tableau translation and on its bisimulation quotient
        from ptasynth import ltl
        from ptasynth.baseline import enumerate_box

        net = load_fixture("blocked.pta")

        def results():
            out = []
            for prop in ("G (a -> X c)", "G !a"):
                for run in (synthesize, enumerate_box):
                    res = run(net, prop)
                    out.append((res.deadlock.bits, res.accepted.bits))
            return out

        reduced = results()
        assert reduced == [(0b0111, 0b1111)] * 2 + [(0, 0b1111)] * 2
        nodes = synthesize(net, "G (a -> X c)").stats["stored_states"]
        monkeypatch.setattr(model, "negated_automaton",
                            lambda f: ltl.to_buchi(ltl.to_nnf(ltl.neg(f))))
        assert results() == reduced
        assert synthesize(net, "G (a -> X c)").stats["stored_states"] > nodes


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
FISCHER_SAFE = "G !(P1.CS && P2.CS)"
FISCHER_RESPONSE = "G (P1.Req -> F P1.CS)"


class TestPinnedStats:
    """The node table's partition, pinned by the statistics it yields:
    stored states, transitions, expansions, splits, fixpoint rounds."""

    @pytest.mark.parametrize("fixture, prop, box, want", [
        ("traingate.pta", TRAINS, {"p1": (0, 4), "p2": (1, 4), "p3": (0, 4)},
         (25, 36, 25, {"guard": 8}, 2)),
        ("traingate.pta", TRAINS, {"p1": (0, 8), "p2": (1, 8), "p3": (0, 8)},
         (25, 36, 25, {"guard": 8}, 2)),
        ("traingate6.pta", "G F Train1.Cross",
         {"p1": (2, 3), "p2": (1, 2), "p3": (0, 1), "p4": (1, 1),
          "p6": (1, 1)},
         (47, 96, 47, {"guard": 6}, 2)),
        ("fuzz837.pta", "G !al1", {},
         (637, 2079, 640, {"extrapolate": 6, "guard": 15}, 2)),
        ("fischer2.pta", FISCHER_SAFE, {},
         (114, 220, 114, {}, 2)),
        ("fischer2.pta", FISCHER_RESPONSE, {},
         (100, 224, 100, {}, 2)),
    ])
    def test_stats(self, fixture, prop, box, want):
        net = load_fixture(fixture)
        stats = synthesize(net, prop, net.box(box)).stats
        assert tuple(stats[k] for k in (
            "stored_states", "transitions", "expansions", "splits",
            "fixpoint_rounds")) == want


@pytest.mark.parametrize("prop", [FISCHER_SAFE, FISCHER_RESPONSE])
def test_fischer2_engines_agree(prop):
    # both engines free inactive clocks and drop the gate clock's lower
    # bounds, so the one-vector reference, which does neither, checks
    # those steps; mutual exclusion fails exactly where a process may
    # claim the lock later than b (a > b)
    from ptasynth.baseline import enumerate_box

    net = load_fixture("fischer2.pta")
    sym = synthesize(net, prop)
    base = enumerate_box(net, prop)
    assert sym.accepted.bits == base.accepted.bits
    assert sym.deadlock.bits == base.deadlock.bits
    assert (sym.accepted.bits, sym.deadlock.bits) == \
        one_vector_enumeration(net, prop, sym.box)[:2]
    if prop == FISCHER_SAFE:
        assert [(v["a"], v["b"]) for v in sym.accepted] == \
            [(a, b) for a in range(1, 5) for b in range(1, 5) if a > b]


@pytest.mark.parametrize("prop,violating,nodes", [
    (FISCHER_SAFE, 29456, 1550), (FISCHER_RESPONSE, 65535, 1415)],
    ids=[FISCHER_SAFE, FISCHER_RESPONSE])
def test_fischer3(prop, violating, nodes):
    # three processes on a, b = 1..4: the sets enumeration found before any
    # clock was freed, and every point deadlocks; 263,862 and 170,069
    # nodes (a minute and half a minute) with every accepting location
    # gated, none of which lies on a cycle that can be Zeno
    res = synthesize(load_fixture("fischer3.pta"), prop)
    assert (res.accepted.bits, res.deadlock.bits) == (violating, 65535)
    assert res.stats["stored_states"] == nodes


def test_bench_models_are_the_fixtures():
    # LIVE6 and DENSE3 load the fixture named after the workload's model
    for name, _, _ in (LIVE6, DENSE3):
        assert (FIXTURES / name).read_bytes() == \
            (workloads.MODELS / name).read_bytes()


def perfbench_fuzz_jobs():
    """The perfbench ``fuzz`` pool, (network, property) in generation
    order."""
    return [(workloads.network(job), job.prop)
            for job in workloads.fuzz_pool()]


# sha256 over json.dumps(to_json(), sort_keys=True) of the 30 corpus pairs,
# the LIVE6 and DENSE3 jobs and the 200 perfbench fuzz jobs, one line
# each, stats and witnesses included
RESULTS_DIGEST = \
    "0ba6cea05a1f1756ae2a10fa482e6cfa0bf55bf733d8c4b7da3dc132b518fc12"


def pinned_jobs():
    """(network, property, box overrides) of the 30 corpus pairs, the LIVE6
    and DENSE3 jobs and the 200 perfbench fuzz jobs, in that order."""
    jobs = [(load_fixture(name), prop, box) for name, prop, box in
            [(name, prop, None) for name, props in CORPUS.items()
             for prop in props] + [LIVE6, DENSE3]]
    return jobs + [(net, prop, None) for net, prop in perfbench_fuzz_jobs()]


def test_result_documents_pinned():
    # the node table's partition, the order nodes are numbered in and the
    # fixpoint's witnesses all reach the result document
    h = hashlib.sha256()
    for net, prop, box in pinned_jobs():
        doc = synthesize(net, prop, net.box(box)).to_json()
        h.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == RESULTS_DIGEST


# sha256 over the Options(trace=...) text of gap.pta under "G !inB", then
# of the DENSE3 job: every expanded node's location, finite entries and
# valuations, in expansion order
TRACE_DIGEST = \
    "8afc4e44053137d66aac7a66f5cf23039fe774e063f8d92440543d8c4da26e8b"


def test_trace_text_pinned():
    h = hashlib.sha256()
    for name, prop, box in [("gap.pta", "G !inB", None), DENSE3]:
        net = load_fixture(name)
        out = io.StringIO()
        synthesize(net, prop, net.box(box), Options(trace=out))
        h.update(out.getvalue().encode())
    assert h.hexdigest() == TRACE_DIGEST


def unshared_successors(a, bounds, free):
    """Reference successor generation on ``a`` with nothing shared between
    product edges and no step table: a fresh plan per product edge, read
    from the edge itself at each expansion, and one ``pdbm.transition``
    per product edge and base branch, which frees the clocks inactive at
    the edge's target and drops the gate clock's lower bounds.  Returns a
    stand-in for ``explore.successors``, which ignores the table it is
    given."""

    def step(loc, base, moves, steps, table, counts, plans):
        out = []
        for e in a.locations[loc].edges:
            t = e.target
            plan = pdbm.transition_plan(e.atoms, e.resets, a.locations[t].inv,
                                        bounds[t], free[t], a.gate, table)
            for zb in base:
                out.extend((t, z)
                           for z in pdbm.transition(zb, plan, table, counts))
        return out
    return step


def unshare(monkeypatch):
    """Make every ``explore.build_graph`` run expand its nodes with
    ``unshared_successors`` on its own automaton."""
    build = explore.build_graph

    def unshared(a, box, bounds, free, *args):
        with monkeypatch.context() as m:
            m.setattr(explore, "successors",
                      unshared_successors(a, bounds, free))
            return build(a, box, bounds, free, *args)
    monkeypatch.setattr(explore, "build_graph", unshared)


def graph_of(net, prop, box):
    """The filled node table of a job, field by field; out-edges in the
    order they were added."""
    box = net.box(box)
    tba, bounds, free = build_automaton(net, parse_ltl(prop), box)
    g = explore.build_graph(tba, box, bounds, free)
    return {"locs": g.locs, "mats": g.mats, "canonical": g.canonical,
            "colour": g.colour,
            "succ": [list(edges.items()) for edges in g.succ],
            "initials": g.initials, "counts": g.counts,
            "deadlock_bits": g.deadlock_bits, "expansions": g.expansions}


class TestSharedTransitions:
    """Product locations that repeat a network edge share its step, its
    plan and its successor branches; the graph is the one an unshared run
    builds."""

    def test_graphs_match_unshared_successors(self, monkeypatch):
        jobs = pinned_jobs()
        shared = [graph_of(*job) for job in jobs]
        unshare(monkeypatch)
        for job, want in zip(jobs, shared):
            assert graph_of(*job) == want, job[1]

    def test_live6_one_call_per_distinct_input(self, monkeypatch):
        # the inputs are keyed by the automaton's edges, not by its steps
        distinct = set()
        net = load_fixture(LIVE6[0])
        a, bounds, free = build_automaton(net, parse_ltl(LIVE6[1]),
                                          net.box(LIVE6[2]))
        reference = unshared_successors(a, bounds, free)

        def keyed(loc, base, *args):
            for e in a.locations[loc].edges:
                content = (e.atoms, tuple(sorted(e.resets)),
                           a.locations[e.target].inv, bounds[e.target],
                           free[e.target], a.gate)
                distinct.update((content, zb.bits, zb.mat) for zb in base)
            return reference(loc, base, *args)

        def keyed_initial(n_clocks, step, table):
            # the initial matrices are one more transition, from the zero
            # zone along an edge with no guard and no reset
            z0 = pdbm.initial_cpdbm(a.n_clocks, table)
            content = ((), (), a.locations[a.initial].inv,
                       bounds[a.initial], free[a.initial], a.gate)
            distinct.add((content, z0.bits, z0.mat))
            return initial_states(a.n_clocks, content, table)

        with monkeypatch.context() as m:
            m.setattr(explore, "successors", keyed)
            m.setattr(explore, "initial_states", keyed_initial)
            want = graph_of(net, *LIVE6[1:])
        calls = []
        transition = pdbm.transition

        def counted(*args):
            calls.append(1)
            return transition(*args)

        monkeypatch.setattr(pdbm, "transition", counted)
        assert graph_of(net, *LIVE6[1:]) == want
        assert len(calls) == len(distinct) == 40

    def test_repeated_edge_shares_branches_and_tallies_splits(self):
        # two locations carry the same guarded edge, which forks on p <= q
        box = ParamBox.of({"p": (0, 3), "q": (0, 3)})
        q = AffineExpr.var("q")
        locs = [PLoc(name, ((1, 0, bound(P)),)) for name in ("L0", "L1")]
        for loc in locs:
            loc.edges.append(PEdge(((1, 0, bound(q)),), (), 1, "go"))
        a = Ptba(["0", "x"], locs, 0)
        bounds, free = [(0, 3), (0, 3)], clock_tables(a, box)[1]
        table = BoundTable(box)
        steps, moves = transition_steps(a, bounds, free)
        assert moves == [[(1, 1)], [(1, 1)]]
        base = initial_states(a.n_clocks, steps[0], table)
        counts, plans = {}, [None] * len(steps)
        first = successors(0, base, moves, steps, table, counts, plans)
        second = successors(1, base, moves, steps, table, counts, plans)
        assert len(first) == 2 and counts == {"guard": 2}
        assert second == first
        assert all(x is y for (_, x), (_, y) in zip(first, second))
        # one plan, made on first use, with one memo entry per base branch
        assert plans[0] is None and len(plans[1][1]) == len(base) == 1

    def test_graphs_on_two_boxes_share_nothing(self, monkeypatch):
        # each graph numbers its bounds afresh in its own table, so a memo
        # kept from the first graph would misread the second
        name, prop, box = LIVE6
        boxes = [box, dict(box, p1=(3, 3), p3=(1, 1))]
        net = load_fixture(name)
        got = [synthesize(net, prop, net.box(b)).to_json() for b in boxes]
        unshare(monkeypatch)
        for b, doc in zip(boxes, got):
            fresh = load_fixture(name)
            assert synthesize(fresh, prop, fresh.box(b)).to_json() == doc

    def test_bound_table_dies_with_its_graph(self):
        # the box keeps no table after a run, and a second run on it
        # numbers its bounds afresh and gives the same document
        name, prop, box = LIVE6
        net = load_fixture(name)
        box = net.box(box)
        first = synthesize(net, prop, box).to_json()
        assert not hasattr(ParamBox, "bounds")
        assert not any(isinstance(v, BoundTable) for v in vars(box).values())
        assert synthesize(net, prop, box).to_json() == first


def step_tables():
    """(automaton, clock bounds, inactive clocks) of every pinned job and
    of Fischer's protocol with three processes."""
    jobs = pinned_jobs() + [(load_fixture("fischer3.pta"),
                             "G !(P1.CS && P2.CS)", None)]
    return [build_automaton(net, parse_ltl(prop), net.box(box))
            for net, prop, box in jobs]


def step_zero_ptba():
    """L0 (x <= p) loops with no guard and no reset, and L1 (accepting,
    y <= 3), entered once x >= 1 with y reset, returns to L0 the same
    way: both unguarded edges take the initial step."""
    l0 = PLoc("L0", ((1, 0, bound(P)),))
    l1 = PLoc("L1", ((2, 0, bound(3)),), accepting=True)
    l0.edges += [PEdge((), (), 0, "stay"),
                 PEdge(((0, 1, bound(-1)),), (2,), 1, "go")]
    l1.edges.append(PEdge((), (), 0, "back"))
    return Ptba(["0", "x", "y"], [l0, l1], 0)


class TestTransitionSteps:
    """The one table of what each edge does to a zone, which both engines
    index."""

    def test_each_edge_takes_its_own_content(self):
        for a, bounds, free in step_tables():
            steps, moves = transition_steps(a, bounds, free)
            i = a.initial
            assert steps[0] == ((), (), a.locations[i].inv, bounds[i],
                                free[i], a.gate)
            assert len(moves) == len(a.locations)
            for loc, row in zip(a.locations, moves):
                assert [t for t, _ in row] == [e.target for e in loc.edges]
                for e, (t, k) in zip(loc.edges, row):
                    assert steps[k] == (e.atoms, tuple(sorted(e.resets)),
                                        a.locations[t].inv, bounds[t],
                                        free[t], a.gate)

    def test_numbered_in_order_of_first_occurrence(self):
        shared = 0
        for a, bounds, free in step_tables():
            steps, moves = transition_steps(a, bounds, free)
            # equal content gets one number
            assert len(set(steps)) == len(steps)
            order = [0] + [k for row in moves for _, k in row]
            assert list(dict.fromkeys(order)) == list(range(len(steps)))
            shared += len(order) - len(steps)
        assert shared > 0

    @pytest.mark.parametrize("job, edges, steps", [
        (("fischer3.pta", "G !(P1.CS && P2.CS)", None), 850, 52),
        (LIVE6, 116, 33)])
    def test_step_counts_pinned(self, job, edges, steps):
        net = load_fixture(job[0])
        a, bounds, free = build_automaton(net, parse_ltl(job[1]),
                                          net.box(job[2]))
        got, moves = transition_steps(a, bounds, free)
        assert sum(map(len, moves)) == edges and len(got) == steps

    def test_edge_on_the_initial_step(self):
        # pinned as before the table: 3 nodes, 10 zone states in all
        a = step_zero_ptba()
        box = ParamBox.of({"p": (0, 3)})
        bounds, free = clock_tables(a, box)
        steps, moves = transition_steps(a, bounds, free)
        assert moves == [[(0, 0), (1, 1)], [(0, 0)]] and len(steps) == 2
        g = build_graph(a, box, bounds, free)
        accepted = cumulative_ndfs_graph(
            box, g.colour, g.succ, [a.locations[l].accepting for l in g.locs])
        assert (g.n_nodes, g.expansions, g.counts) == (3, 3, {})
        # an accepting cycle through L1 wherever x >= 1 fits under x <= p
        assert (accepted, g.deadlock_bits) == (0b1110, 0)
        assert baseline._explore(a, box, bounds, free, Options()) == \
            (accepted, g.deadlock_bits, 10, 3)


class TestStoredBoundScan:
    def test_fixture_bounds_in_range(self):
        from ptasynth.ltl import parse_ltl

        net = load_fixture("staggered.pta")
        box = net.box()
        tba, bounds, free = build_automaton(net, parse_ltl("G !inB"), box)
        g = build_graph(tba, box, bounds, free)
        assert scan_stored_bounds(g) > 0

    def test_unwidened_bounds_fail_soundness(self, monkeypatch):
        # x is reset on every loop and y never is, so y - x grows by one
        # per loop; y is compared only with 0, so it stays active, not
        # freed, its maximum is 0, and without widening the first
        # successor's bounds on y leave the range
        loc = PLoc("L", ((0, 2, bound(0)),))
        loc.edges.append(PEdge(((0, 1, bound(-1)),), (1,), 0, "loop"))
        a = Ptba(["0", "x", "y"], [loc], 0)
        bounds, free = clock_tables(a, BOX5)
        assert bounds == [(0, 1, 0)] and free == [()]
        g = build_graph(a, BOX5, bounds, free)
        assert scan_stored_bounds(g) > 0
        # the same graph with an unwidened matrix fails the scan
        g.mats[-1] = pdbm.matrix_of(3, {(1, 0): INF_BOUND,
                                        (2, 0): INF_BOUND,
                                        (2, 1): bound(1)}, g.table)
        with pytest.raises(SoundnessError,
                           match=r"out of range at entry \(2,1\): \(1, <=\)$"):
            scan_stored_bounds(g)
        # the successor pass widens through pdbm._widen_rows; unwidened,
        # 0 - y <= -1 after the first loop leaves the window [0, 0]
        unwidened = r"out of range at entry \(0,2\): \(-1, <=\)$"
        widen = pdbm._widen_rows
        monkeypatch.setattr(pdbm, "_widen_rows", lambda rows, ext, widening,
                            table: [(rows, ext, False)])
        with pytest.raises(SoundnessError, match=unwidened):
            build_graph(a, BOX5, bounds, free, Options(limit_states=50))
        # widened in a window that keeps every entry, the branches reach
        # the node table, which checks them in its own windows
        monkeypatch.setattr(pdbm, "_widen_rows", lambda rows, ext, widening,
                            table: widen(rows, ext,
                                         pdbm.widening([100] * 3, table),
                                         table))
        with pytest.raises(SoundnessError, match=unwidened):
            build_graph(a, BOX5, bounds, free, Options(limit_states=50))


class TestBoundRange:
    """Bounds must stay below 2^38, where two encoded bounds start to sum
    to the infinity sentinel."""

    LIMIT = 1 << 38

    @staticmethod
    def front_end(params: str, inv: str):
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
        _, bounds, _ = self.front_end("", str(self.LIMIT - 1))
        assert clock_bounds(bounds)[1] == self.LIMIT - 1
        self.rejected("", str(self.LIMIT), "maximum of clock x")

    def test_atom_term(self):
        # the bound p - c is at most 1, but the term p reaches the limit
        lo = self.LIMIT - 2
        _, bounds, _ = self.front_end(f"param p = {lo}..{lo + 1}", f"p - {lo}")
        assert clock_bounds(bounds)[1] == 1
        self.rejected(f"param p = {lo + 1}..{lo + 2}", f"p - {lo + 1}",
                      "bound term 1*p")

    def test_first_bound_in_order_is_reported(self):
        # both bounds evaluate to 0..2, but the invariant's term p reaches
        # the limit and so does the guard's constant; the invariant is read
        # first, however often the guard repeats
        from ptasynth.ltl import parse_ltl
        from ptasynth.model import parse_model

        lo = self.LIMIT - 1
        edges = "\n".join(f"  edge A -> A {{ guard x >= 2 * p - {2 * lo} }}"
                          for _ in range(3))
        net = parse_model(f"""param p = {lo}..{lo + 1}
clock x
component C {{
  location A {{ invariant x <= p - {lo} }}
  init A
{edges}
}}
""")
        with pytest.raises(InputError) as exc:
            build_automaton(net, parse_ltl("G F C.A"), net.box())
        assert exc.value.kind == "bound-range"
        assert "bound term 1*p" in str(exc.value)

    def test_atom_constant(self):
        # p + q - c is 0 or 1, each term is 2^37, the constant reaches 2^38
        half = self.LIMIT // 2
        params = f"param p = {half}..{half}\nparam q = {half}..{half}"
        _, bounds, _ = self.front_end(params, f"p + q - {self.LIMIT - 1}")
        assert clock_bounds(bounds)[1] == 1
        self.rejected(params, f"p + q - {self.LIMIT}", "bound constant")

    def test_unreachable_location_is_checked(self):
        # every bound the model writes is checked, also the invariant of
        # a location no edge enters, which the product never reaches
        from ptasynth.model import parse_model

        net = parse_model("""clock x
component C {
  location A
  location U { invariant x <= 300000000000 }
  init A
}
""")
        with pytest.raises(InputError) as exc:
            build_automaton(net, parse_ltl("true"), net.box())
        assert exc.value.kind == "bound-range"
        assert "bound constant reaches 300000000000" in str(exc.value)


@pytest.mark.parametrize("engine", ["symbolic", "enumerate"])
def test_box_missing_a_guard_parameter_is_refused(engine):
    # the train-gate guards and invariants read p1, p2 and p3
    from ptasynth.baseline import enumerate_box

    run = synthesize if engine == "symbolic" else enumerate_box
    net = load_fixture("traingate.pta")
    with pytest.raises(InputError) as exc:
        run(net, "G !Train1.Cross", ParamBox.of({"p1": (2, 5)}))
    assert exc.value.kind == "unknown-param"
    assert str(exc.value).endswith("p2, p3")


def test_package_exports_the_engines_not_their_steps():
    import ptasynth

    assert sorted(ptasynth.__all__) == sorted([
        "AffineExpr", "Options", "ParamBox", "SynthesisResult",
        "ValuationSet", "check_valuation", "compose", "enumerate_box",
        "load_model", "make_nonzeno", "parse_ltl", "parse_model", "product",
        "synthesize", "to_buchi", "to_nnf", "__version__"])
    for name in ptasynth.__all__:
        assert hasattr(ptasynth, name), name
