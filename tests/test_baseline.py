import dataclasses
import json

import numpy as np
import pytest

import oracle_dbm as od
import oracle_region
from conftest import (
    CORPUS,
    from_oracle,
    load_fixture,
    one_clock_bounds,
    one_vector_enumeration,
    oracle_bound,
    to_oracle,
)
from ptasynth import baseline, zones
from ptasynth.baseline import (
    _step,
    check_valuation,
    enumerate_box,
    instantiate,
)
from ptasynth.errors import CapacityError, InputError
from ptasynth.explore import synthesize
from ptasynth.model import (
    Options,
    PEdge,
    PLoc,
    Ptba,
    build_automaton,
    clock_tables,
    deadlock_guards,
)
from ptasynth.params import AffineExpr, ParamBox, bound

P = AffineExpr.var("p")
Q = AffineExpr.var("q")


def loop_ptba(accepting=True):
    loc = PLoc("L", (), accepting=accepting)
    loc.edges.append(PEdge((), (), 0, "loop"))
    return Ptba(["0", "x"], [loc], 0)


def tables(a, box):
    """``instantiate`` with the clock tables of ``box``."""
    return instantiate(a, box, *clock_tables(a, box))


def assert_encoded(t, ids, atoms, box):
    """The atom-id row ``ids`` encodes ``atoms`` at every point of the box,
    each as ``zones.encode`` of its bound evaluated there, and pads the
    rest of the row with atom 0, which bounds nothing."""
    assert len(ids) >= len(atoms)
    for k in range(box.size):
        v = box.point(k)
        for a, (i, j, b) in zip(ids, atoms):
            assert t.pos[a] == i * t.n + j
            assert t.enc[a, k] == zones.encode(b.expr.eval(v), b.strict)
        assert all(t.enc[a, k] == zones.INF for a in ids[len(atoms):])


class TestInstantiate:
    """The automaton's atoms encoded once per box, at every point."""

    def test_parameter_free_identity(self):
        # the unguarded, reset-free loop into the initial location takes
        # the initial step, so there is one step row
        t = tables(loop_ptba(), ParamBox.of({}))
        assert t.guard.tolist() == [[0]] and t.inv.tolist() == [[0]]
        assert t.target.tolist() == [0] and t.step.tolist() == [0]
        assert t.gather.tolist() == [[0, 1]]
        assert t.accepting == [True]
        # an unguarded loop is always enabled: nothing to fold
        assert t.negated == [None]

    def test_affine_guard(self):
        # guards, invariants and negated guards at every point of a small
        # box, strict and weak, upper and lower bounds, one guard repeated
        guard = ((1, 0, bound(2 * P - 1)), (0, 2, bound(Q - P, strict=True)))
        locs = [PLoc("A", ((1, 0, bound(P + Q + 1)),)),
                PLoc("B", ((2, 0, bound(3 * Q, strict=True)),))]
        locs[0].edges += [PEdge(guard, (1,), 1, "e"),
                          PEdge(((2, 0, bound(P)),), (), 0, "f"),
                          PEdge(guard, (), 1, "g")]
        locs[1].edges.append(PEdge(((0, 1, bound(-Q)),), (2,), 0, "h"))
        a = Ptba(["0", "x", "y"], locs, 0)
        box = ParamBox.of({"p": (1, 3), "q": (0, 2)})
        bounds, free = clock_tables(a, box)
        t = instantiate(a, box, bounds, free)
        # step 0 enters the initial location with no guard and no reset
        assert_encoded(t, t.guard[0].tolist(), (), box)
        assert_encoded(t, t.inv[0].tolist(), locs[0].inv, box)
        assert t.gather[0].tolist() == [0, 1, 2]
        for l, loc in enumerate(a.locations):
            for i, e in enumerate(loc.edges):
                k = t.step[t.first[l] + i]
                assert t.target[t.first[l] + i] == e.target
                assert_encoded(t, t.guard[k].tolist(), e.atoms, box)
                assert_encoded(t, t.inv[k].tolist(),
                               a.locations[e.target].inv, box)
                assert t.gather[k].tolist() == [
                    0 if c in e.resets else c for c in range(3)]
                assert t.bounds[k].tolist() == list(bounds[e.target])
                assert np.flatnonzero(t.freed[k]).tolist() == \
                    list(free[e.target])
            negated = deadlock_guards(loc)
            assert len(t.negated[l]) == len(negated)
            for ids, atoms in zip(t.negated[l], negated):
                assert_encoded(t, ids, atoms, box)
        # the repeated guard is folded once; edges e and g differ only in
        # their resets, so each has its own step
        assert [len(n) for n in t.negated] == [2, 1]
        assert t.step.tolist() == [1, 2, 3, 4]

    def test_consistent_with_symbolic_evaluation(self):
        # the encoded guard equals the evaluated parametric bound
        from ptasynth import pdbm
        from ptasynth.params import BoundTable, ValuationSet

        b = bound(3 * P - 2, strict=True)
        box = ParamBox.of({"p": (1, 3)})
        table = BoundTable(box)
        z = pdbm.CPDBM(ValuationSet.full(box).bits,
                       pdbm.matrix_of(2, {(1, 0): b}, table))
        loc = PLoc("L", ())
        loc.edges.append(PEdge(((1, 0, b),), (), 0, "e"))
        t = tables(Ptba(["0", "x"], [loc], 0), box)
        [a] = t.guard[t.step[0]].tolist()
        for k in range(box.size):
            assert t.enc[a, k] == zones.encode(
                *od.from_valuation(z, box.point(k), table)[1][0])


def flat_atoms(rows, n):
    """``(pos, enc)`` arrays for ``zones.constrain_many`` from per-zone
    lists of ``(i, j, encoded bound)`` atoms, padded with a no-op atom."""
    width = max([1] + [len(r) for r in rows])
    pos = np.zeros((len(rows), width), dtype=np.int64)
    enc = np.full((len(rows), width), zones.INF, dtype=np.int64)
    for k, r in enumerate(rows):
        for t, (i, j, e) in enumerate(r):
            pos[k, t] = i * n + j
            enc[k, t] = e
    return pos, enc


def random_canonical(rng, n, nonnegative=False):
    """A closed non-empty zone with random finite and infinite entries;
    with ``nonnegative``, one where every clock is at least 0."""
    while True:
        z = np.array([[zones.encode(rng.randrange(-4, 9), rng.random() < 0.5)
                       if i != j and rng.random() < 0.8 else
                       zones.ZERO_WEAK if i == j else zones.INF
                       for j in range(n)] for i in range(n)], dtype=np.int64)
        if nonnegative:
            np.minimum(z[0], zones.ZERO_WEAK, out=z[0])
        m = to_oracle(z)
        if od.close(m):
            return from_oracle(m)


def random_atoms(rng, n, fewest, most):
    return [(rng.randrange(n), rng.randrange(n),
             zones.encode(rng.randrange(-6, 9), rng.random() < 0.5))
            for _ in range(rng.randrange(fewest, most + 1))]


class TestConstrained:
    """The batched guard step: each zone of a batch tightened by its own
    atoms, then closed."""

    def test_untightened_copy_is_equal(self):
        z = np.full((3, 3), zones.ZERO_WEAK, dtype=np.int64)
        zones.up(z)
        atoms = [(1, 0, zones.INF), (0, 2, zones.ZERO_WEAK),
                 (2, 1, zones.encode(4, False))]
        ms = z[None].copy()
        assert zones.constrain_many(ms, *flat_atoms([atoms], 3)).tolist() \
            == [True]
        assert np.array_equal(ms[0], z)

    def test_matches_full_closure(self, rng):
        # batches of random canonical zones with 1-3 random atoms each,
        # diagonals and repeated entries included
        for n in range(2, 6):
            zs = [random_canonical(rng, n) for _ in range(75)]
            rows = [random_atoms(rng, n, 1, 3) for _ in zs]
            ms = np.stack(zs)
            ok = zones.constrain_many(ms, *flat_atoms(rows, n))
            for z, atoms, got, good in zip(zs, rows, ms, ok):
                want = to_oracle(z)
                for i, j, enc in atoms:
                    od.constrain(want, i, j, oracle_bound(enc))
                assert good == od.close(want)
                if good:
                    assert np.array_equal(got, from_oracle(want))


class TestStep:
    def test_matches_oracle(self, rng):
        # random batches through guard, reset, up, invariant, freeing,
        # dropping the gate clock's lower bounds and extrapolation: every
        # kept row is the oracle's closed zone, and exactly the rows
        # the oracle finds empty are dropped.  Dropping keeps a zone
        # canonical only where every clock is non-negative, as in every
        # zone the engine reaches, so batches with a gate start there
        kept = dropped = freed_rows = 0
        for n in (2, 3, 4):
            for _ in range(12):
                gate = rng.randrange(n)
                share = rng.choice([0, 0.3])
                zs = [random_canonical(rng, n, nonnegative=bool(gate))
                      for _ in range(30)]
                guards = [random_atoms(rng, n, 0, 2) for _ in zs]
                invs = [random_atoms(rng, n, 0, 2) for _ in zs]
                resets = [[c for c in range(1, n) if rng.random() < 0.4]
                          for _ in zs]
                gather = np.tile(np.arange(n), (len(zs), 1))
                for row, clocks in zip(gather, resets):
                    row[clocks] = 0
                # one bound vector and one freed mask per row, as
                # per-location tables give
                bounds = np.array([[rng.randrange(0, 7) for _ in range(n)]
                                   for _ in zs], dtype=np.int64)
                freed = np.array([[0 < c and rng.random() < share
                                   for c in range(n)] for _ in zs])
                keep, got = _step(np.stack(zs), flat_atoms(guards, n), gather,
                                  flat_atoms(invs, n), bounds, freed, gate)
                want = {}
                for k, z in enumerate(zs):
                    m = to_oracle(z)
                    for i, j, enc in guards[k]:
                        od.constrain(m, i, j, oracle_bound(enc))
                    if not od.close(m):
                        continue
                    od.reset(m, resets[k])
                    od.up(m)
                    for i, j, enc in invs[k]:
                        od.constrain(m, i, j, oracle_bound(enc))
                    if not od.close(m):
                        continue
                    od.free(m, np.flatnonzero(freed[k]).tolist())
                    if gate:
                        od.unbound_below(m, gate)
                    od.extrapolate(m, bounds[k].tolist())
                    od.close(m)
                    want[k] = from_oracle(m)
                assert keep.tolist() == sorted(want)
                for k, m in zip(keep.tolist(), got):
                    assert np.array_equal(m, want[k])
                kept += len(want)
                dropped += len(zs) - len(want)
                freed_rows += int(freed[keep].any(axis=1).sum())
        assert kept and dropped and freed_rows


class TestCheckValuation:
    def test_no_accepting_location(self):
        acc, dead = check_valuation(loop_ptba(accepting=False), {"p": 0})
        assert not acc

    def test_accepting_self_loop(self):
        for p in range(3):
            acc, _ = check_valuation(loop_ptba(), {"p": p})
            assert acc

    def test_deterministic(self):
        net = load_fixture("window.pta")
        from ptasynth.ltl import parse_ltl

        box = net.box()
        tba, _, _ = build_automaton(net, parse_ltl("G !work"), box)
        v = {"p": 2, "q": 3}
        first = check_valuation(tba, v)
        assert all(check_valuation(tba, v) == first for _ in range(3))

    def test_missing_parameter_is_input_error(self):
        # build_automaton reports the same mistake the same way
        from ptasynth.ltl import parse_ltl

        net = load_fixture("traingate.pta")
        tba, _, _ = build_automaton(
            net, parse_ltl("G !(Train1.Cross && Train2.Cross)"), net.box())
        with pytest.raises(InputError) as err:
            check_valuation(tba, {"p1": 1, "p2": 2})
        assert err.value.kind == "unknown-param"
        assert str(err.value) == "the parameter box has no range for p3"


def random_one_clock_ptba(rng):
    """Automaton with integer constants at most 3 on one clock."""
    n_locs = rng.randrange(2, 5)
    locs = []
    for i in range(n_locs):
        inv = ()
        if rng.random() < 0.5:
            inv = ((1, 0, bound(rng.randrange(0, 4), rng.random() < 0.3)),)
        locs.append(PLoc(f"L{i}", inv, accepting=rng.random() < 0.4))
    for i, loc in enumerate(locs):
        for _ in range(rng.randrange(1, 3)):
            atoms = []
            if rng.random() < 0.7:
                c = rng.randrange(0, 4)
                if rng.random() < 0.5:
                    atoms.append((1, 0, bound(c, rng.random() < 0.3)))
                else:
                    atoms.append((0, 1, bound(-c, rng.random() < 0.3)))
            resets = (1,) if rng.random() < 0.5 else ()
            loc.edges.append(PEdge(tuple(atoms), resets,
                                   rng.randrange(n_locs), "e"))
    return Ptba(["0", "x"], locs, 0)


class TestRegionOracle:
    def test_zone_search_matches_region_graph(self, rng):
        # micro-models with one clock and constants at most 3: the exact
        # region construction decides accepting-run existence independently
        agree = 0
        for _ in range(200):
            a = random_one_clock_ptba(rng)
            v = {}
            want = oracle_region.accepting_run_exists(a, v, k=3)
            # per-location clock bounds, all at most 3
            got, _ = check_valuation(a, v)
            assert got == want
            agree += 1
        assert agree == 200


class TestEnumerate:
    def test_single_point_box_matches_check(self):
        net = load_fixture("gap.pta")
        box = net.box({"p": (2, 2)})
        res = enumerate_box(net, "G !inB", box)
        assert len(res.accepted) == 1  # p=2 reaches B

    def test_true_never_violated(self):
        net = load_fixture("gap.pta")
        res = enumerate_box(net, "true")
        assert res.accepted.is_empty

    def test_matches_symbolic_engine(self):
        net = load_fixture("branchy.pta")
        for prop in ("G !inB", "F inB"):
            sym = synthesize(net, prop)
            base = enumerate_box(net, prop)
            assert sym.accepted.bits == base.accepted.bits
            assert sym.deadlock.bits == base.deadlock.bits

    def test_stats_shape(self):
        net = load_fixture("gap.pta")
        res = enumerate_box(net, "G !inB")
        assert res.stats["engine"] == "enumerate"
        assert res.stats["zone_states_total"] >= res.stats["zone_states_max"]

    def test_zone_state_count_pinned(self):
        # the benchmark's dense3 box: a closure that is not canonical would
        # change the zone graph, and with it this count (4,044 with one
        # bound vector for every location, 2,700 with per-location bounds,
        # 1,520 with inactive clocks freed and the gate clock's lower
        # bounds dropped, all three on the tableau translation of the
        # property rather than its quotient)
        net = load_fixture("traingate.pta")
        box = net.box({"p1": (0, 4), "p2": (1, 4), "p3": (0, 4)})
        res = enumerate_box(net, "G !(Train1.Cross && Train2.Cross)", box)
        assert res.stats["zone_states_total"] == 1480

    @pytest.mark.parametrize("prop,violating,states", [
        ("G !(P1.CS && P2.CS)", 29456, 5512),
        ("G (P1.Req -> F P1.CS)", 65535, 5830),
    ], ids=["G !(P1.CS && P2.CS)", "G (P1.Req -> F P1.CS)"])
    def test_fischer3(self, prop, violating, states):
        # Fischer's protocol with three processes on a, b = 1..4: the sets
        # found before any clock was freed, when the zone graphs held
        # 291,456 and 270,775 states (33,724 and 30,406 with every
        # accepting location gated); every point deadlocks
        res = enumerate_box(load_fixture("fischer3.pta"), prop)
        assert (res.accepted.bits, res.deadlock.bits) == (violating, 65535)
        assert res.stats["zone_states_total"] == states

    def test_six_parameter_traingate_point(self):
        # all six bounds parametric, pinned to one valuation each
        net = load_fixture("traingate6.pta")
        box = net.box({"p1": (3, 3), "p2": (2, 2), "p3": (2, 2),
                       "p4": (1, 1), "p5": (2, 2), "p6": (1, 1)})
        prop = "G !(Train1.Cross && Train2.Cross)"
        sym = synthesize(net, prop, box)
        base = enumerate_box(net, prop, box)
        assert sym.accepted.bits == base.accepted.bits == 0
        assert sym.deadlock.bits == base.deadlock.bits


class TestOneVectorReference:
    """Per-location bounds widen less than one vector for every location,
    so the graphs differ but the answers may not."""

    @pytest.mark.parametrize("fixture,prop,overrides,states", [
        ("traingate.pta", "G !(Train1.Cross && Train2.Cross)",
         {"p1": (0, 4), "p2": (1, 4), "p3": (0, 4)}, (3344, 3344)),
        ("traingate6.pta", "G F Train1.Cross",
         {"p1": (2, 3), "p2": (1, 2), "p3": (0, 1), "p4": (1, 1),
          "p6": (1, 1)}, (4830, 3690)),
    ], ids=["traingate.pta-G !(Train1.Cross && Train2.Cross)",
            "traingate6.pta-G F Train1.Cross"])
    def test_symbolic_matches_one_vector_enumeration(self, fixture, prop,
                                                     overrides, states):
        from ptasynth.ltl import negated_automaton, parse_ltl

        net = load_fixture(fixture)
        box = net.box(overrides)
        sym = synthesize(net, prop, box)
        accepted, deadlock, total = one_vector_enumeration(net, prop, box)
        assert (sym.accepted.bits, sym.deadlock.bits) == (accepted, deadlock)
        # the same reference on the reduced property automaton
        reduced = one_vector_enumeration(net, prop, box,
                                         negated_automaton(parse_ltl(prop)))
        assert reduced[:2] == (accepted, deadlock)
        # the one-vector zone graphs of old, on the tableau translation and
        # on its quotient; the safety job has no accepting location, so no
        # non-Zeno clock either (4,044 with one)
        assert (total, reduced[2]) == states
        # and the engine's automaton at the box's last point, with the
        # vector, as one_vector_enumeration explores it
        tba, _, _ = build_automaton(net, parse_ltl(prop), box)
        one = [tuple(one_clock_bounds(tba, box))] * len(tba.locations)
        last = box.size - 1
        point = ParamBox.of({p: (x, x) for p, x in box.point(last).items()})
        got = baseline._explore(dataclasses.replace(tba, gate=0), point, one,
                                [()] * len(tba.locations), Options())
        assert got[:2] == (accepted >> last & 1, deadlock >> last & 1)


class TestLimits:
    """Capacity errors and the batch size leave the answers as a valuation
    explored alone gives them."""

    def test_first_error_in_exploration_order_wins(self):
        # within a valuation the state limit trips before a later state's
        # deadlock fold outgrows its limit; a batch that ran every fold
        # before numbering the successors would report the fold instead.
        # One state more and the fold comes first
        net = load_fixture("limits.pta")
        with pytest.raises(CapacityError,
                           match="^stored states exceeded 3$"):
            enumerate_box(net, "G !al0",
                          opts=Options(dnf_limit=1, limit_states=3))
        with pytest.raises(CapacityError,
                           match="^deadlock-guard expansion exceeded 1$"):
            enumerate_box(net, "G !al0",
                          opts=Options(dnf_limit=1, limit_states=4))
        with pytest.raises(CapacityError,
                           match="^deadlock-guard expansion exceeded 1$"):
            enumerate_box(net, "G !al0", opts=Options(dnf_limit=1))

    def test_state_limit_at_the_largest_graph(self):
        net = load_fixture("limits.pta")
        most = enumerate_box(net, "G !al0").stats["zone_states_max"]
        enumerate_box(net, "G !al0", opts=Options(limit_states=most))
        with pytest.raises(CapacityError,
                           match=f"^stored states exceeded {most - 1}$"):
            enumerate_box(net, "G !al0", opts=Options(limit_states=most - 1))

    @pytest.mark.parametrize("cap", [1, 10**6])
    def test_row_cap_leaves_results_unchanged(self, monkeypatch, cap):
        def results():
            return [json.dumps(enumerate_box(load_fixture(name), prop).to_json())
                    for name, props in CORPUS.items() for prop in props]

        want = results()
        monkeypatch.setattr(baseline, "ROW_CAP", cap)
        assert results() == want

    @pytest.mark.parametrize("cap", [1, 10**6])
    def test_row_cap_leaves_capacity_errors_unchanged(self, monkeypatch, cap):
        # a batch of one edge row, and one batch per layer of every
        # valuation at once
        monkeypatch.setattr(baseline, "ROW_CAP", cap)
        self.test_first_error_in_exploration_order_wins()
        self.test_state_limit_at_the_largest_graph()

    def test_batches_on_the_dense3_box(self, monkeypatch):
        # the 100 valuations of the benchmark's dense3 box run through 11
        # lockstep steps at 512 rows (27 at 128 rows), so a narrower batch
        # fails here
        calls = []
        successors = baseline._Tables.successors

        def counted(t, states):
            calls.append(len(states))
            return successors(t, states)

        monkeypatch.setattr(baseline._Tables, "successors", counted)
        net = load_fixture("traingate.pta")
        enumerate_box(net, "G !(Train1.Cross && Train2.Cross)",
                      net.box({"p1": (0, 4), "p2": (1, 4), "p3": (0, 4)}))
        assert (baseline.ROW_CAP, len(calls)) == (512, 11)
