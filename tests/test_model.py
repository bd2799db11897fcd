import hashlib
import json
import random
import shlex
from pathlib import Path

import pytest

from conftest import (
    CORPUS,
    FIXTURES,
    SEED,
    every_accepting,
    fully_gated_automaton,
    load_fixture,
    load_fuzzgen,
    one_clock_bounds,
)
from ptasynth import ltl
from ptasynth.cli import main
from ptasynth.errors import InputError
from ptasynth.model import (
    PEdge,
    PLoc,
    Ptba,
    _accepting_cycle,
    _cyclic_parts,
    build_automaton,
    clock_bounds,
    clock_tables,
    compose,
    deadlock_guards,
    dump_product,
    make_nonzeno,
    parse_model,
    product,
    zeno_accepting,
)
from ptasynth.params import AffineExpr, ParamBox, StrictBound, bound

MINIMAL = """
param p = 0..3
clock x
component M {
  location A { invariant x <= p; label start }
  location B { invariant true }
  init A
  edge A -> B { guard x >= 1; reset x }
}
"""


DOCUMENTED_FORMAT = """
param p1 = 20..50            # bounds; overridable by --param p1=lo..hi
param p2 = 5..10
clock x
var   len : 0..2 = 0         # data variable with range and init
chan  appr go
component Train1 {
  location Safe  { invariant true; label safe }
  location Appr  { invariant x <= p1; label appr }
  location Cross { invariant true }
  init Safe
  edge Safe -> Appr { guard true; sync appr!; reset x }
  edge Appr -> Cross { guard x - 0 >= p2; update len := len + 1 }
}
component Gate {
  location Idle { invariant true }
  init Idle
  edge Idle -> Idle { guard true; sync appr? }
}
"""


class TestParser:
    def test_documented_format_accepted(self):
        # the exact shapes the format documentation promises: trailing
        # comments, aligned declarations, explicit zero-clock differences,
        # sync tags, resets and updates
        net = parse_model(DOCUMENTED_FORMAT)
        assert net.variables["len"] == (0, 2, 0)
        assert net.channels == ["appr", "go"]
        train = net.components[0]
        (i, j, b), = train.edges[1].clock_atoms
        assert (i, j) == (0, 1)  # x - 0 >= p2 normalizes to 0 - x <= -p2
        assert train.edges[1].updates[0][0] == "len"

    def test_negative_constant_bound(self):
        net = parse_model(MINIMAL.replace("x >= 1", "x <= -1 + p"))
        (i, j, b), = net.components[0].edges[0].clock_atoms
        assert b.expr == AffineExpr.of(-1, {"p": 1})

    def test_traingate_six_parameters(self):
        net = load_fixture("traingate6.pta")
        assert len(net.params) == 6
        assert len(net.components) == 3
        assert {c.name for c in net.components} == {
            "Train1", "Train2", "Gate"}

    def test_affine_guard_expressions(self):
        net = parse_model(MINIMAL.replace("x >= 1", "x >= 2 * p - 1"))
        e = net.components[0].edges[0]
        # x >= e is stored as 0 - x <= -e
        (i, j, b), = e.clock_atoms
        assert (i, j) == (0, 1)
        assert b.expr == AffineExpr.of(1, {"p": -2})

    def test_difference_guard_needs_zero_clock(self):
        src = MINIMAL.replace("clock x", "clock x y") \
                     .replace("x >= 1", "x - y <= p")
        with pytest.raises(InputError) as err:
            parse_model(src)
        assert err.value.kind == "non-simple-guard"

    def test_zero_clock_difference_accepted(self):
        net = parse_model(MINIMAL.replace("x >= 1", "x - 0 >= p"))
        (i, j, b), = net.components[0].edges[0].clock_atoms
        assert (i, j) == (0, 1)

    def test_unknown_clock(self):
        with pytest.raises(InputError) as err:
            parse_model(MINIMAL.replace("x >= 1", "z >= 1"))
        assert err.value.kind == "unknown-clock"

    def test_unknown_param_in_expr(self):
        with pytest.raises(InputError) as err:
            parse_model(MINIMAL.replace("x >= 1", "x >= r"))
        assert err.value.kind == "unknown-param"

    def test_unknown_channel(self):
        src = MINIMAL.replace("guard x >= 1", "guard x >= 1; sync boom!")
        with pytest.raises(InputError) as err:
            parse_model(src)
        assert err.value.kind == "unknown-channel"

    def test_unbounded_variable(self):
        src = MINIMAL.replace("clock x", "clock x\nvar c = 0")
        with pytest.raises(InputError) as err:
            parse_model(src)
        assert err.value.kind == "unbounded-variable"

    def test_data_atoms_in_invariant_rejected(self):
        src = MINIMAL.replace("clock x", "clock x\nvar c : 0..1 = 0") \
                     .replace("invariant x <= p", "invariant c <= 1")
        with pytest.raises(InputError) as err:
            parse_model(src)
        assert err.value.kind == "data-invariant"

    def test_list_clauses_accumulate(self):
        net = parse_model(MINIMAL.replace("clock x", "clock x y\n"
                                          "var v : 0..3 = 0\nvar w : 0..3 = 0")
                          .replace("label start", "label start; label go")
                          .replace("reset x", "reset x; reset y; "
                                   "update v := 1; update w := 2")
                          .replace("init A", "init A;"))
        (comp,) = net.components
        assert comp.locations["A"].labels == ("start", "go")
        (e,) = comp.edges
        assert e.resets == ("x", "y")
        assert [var for var, _ in e.updates] == ["v", "w"]

    def test_readme_model_example_parses(self):
        text = (FIXTURES.parent.parent / "README.md").read_text("utf-8")
        example = text.split("## Model format\n", 1)[1] \
                      .split("```text\n", 1)[1].split("```", 1)[0]
        net = parse_model(example)
        assert [c.name for c in net.components] == ["Train"]

    def test_readme_command_line_runs(self, tmp_path, monkeypatch, capsys):
        # every command of the README's "## Command line" block, run from a
        # directory whose tests/ is the suite's: exit 0, JSON documents
        text = (FIXTURES.parent.parent / "README.md").read_text("utf-8")
        block = text.split("## Command line\n", 1)[1] \
                    .split("```sh\n", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line, comments=True)
                    for line in block.replace("\\\n", "").splitlines()]
        commands = [argv for argv in commands if argv]
        assert commands and all(argv[0] == "ptasynth" for argv in commands)
        (tmp_path / "tests").symlink_to(FIXTURES.parent)
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            try:
                code = main(argv[1:])
            except SystemExit as exc:  # a usage error
                code = exc.code
            out = capsys.readouterr().out
            assert code == 0, argv
            if argv[1] in ("synth", "compare"):
                if "--out" in argv:
                    out = Path(argv[argv.index("--out") + 1]).read_text()
                json.loads(out)

    def test_override_box(self):
        net = parse_model(MINIMAL)
        box = net.box({"p": (1, 2)})
        assert (box.lower("p"), box.upper("p")) == (1, 2)
        with pytest.raises(InputError):
            net.box({"nope": (0, 1)})


class TestCompose:
    def test_product_counts_without_channels(self):
        src = """
param p = 0..1
clock x y
component A {
  location A0 { invariant true }
  location A1 { invariant true }
  init A0
  edge A0 -> A1 { guard x >= p }
}
component B {
  location B0 { invariant true }
  location B1 { invariant true }
  location B2 { invariant true }
  init B0
  edge B0 -> B1 { guard true }
  edge B1 -> B2 { guard y >= 1 }
}
"""
        pta, lab = compose(parse_model(src))
        assert len(pta.locations) == 6
        assert lab.holds(0, "A.A0") and lab.holds(0, "B.B0")

    def test_handshake_pairs(self):
        src = """
clock x
chan a
component S {
  location S0 { invariant true }
  location S1 { invariant true }
  init S0
  edge S0 -> S1 { guard x >= 1; sync a!; reset x }
}
component R {
  location R0 { invariant true }
  location R1 { invariant true }
  init R0
  edge R0 -> R1 { guard x <= 5; sync a? }
}
"""
        pta, _ = compose(parse_model(src))
        init = pta.locations[pta.initial]
        assert len(init.edges) == 1  # the matched pair, nothing unmatched
        e = init.edges[0]
        assert len(e.atoms) == 2  # conjunction of both guards
        assert e.resets == (1,)

    def test_unmatched_send_produces_no_edge(self):
        src = """
clock x
chan a
component S {
  location S0 { invariant true }
  location S1 { invariant true }
  init S0
  edge S0 -> S1 { guard true; sync a! }
}
component R {
  location R0 { invariant true }
  init R0
}
"""
        pta, _ = compose(parse_model(src))
        assert pta.locations[pta.initial].edges == []

    def test_data_update_and_guard(self):
        src = """
clock x
var c : 0..2 = 0
component M {
  location A { invariant true }
  init A
  edge A -> A { guard c <= 1; update c := c + 1 }
}
"""
        pta, lab = compose(parse_model(src))
        # hand-computed product: c in {0, 1, 2}, increments stop at 2
        assert len(pta.locations) == 3
        assert lab.holds(0, ("c", "==", 0))
        assert lab.holds(2, ("c", ">=", 2))
        assert pta.locations[2].edges == []

    def test_update_out_of_range_names_edge(self):
        src = """
clock x
var c : 0..1 = 0
component M {
  location A { invariant true }
  init A
  edge A -> A { guard true; update c := c + 1 }
}
"""
        with pytest.raises(InputError) as err:
            compose(parse_model(src))
        assert err.value.kind == "update-out-of-range"
        assert "M:A->A" in str(err.value)


class TestProduct:
    def test_universal_automaton_keeps_shape(self):
        net = parse_model(MINIMAL)
        pta, lab = compose(net)
        aut = ltl.to_buchi(ltl.to_nnf(ltl.TRUE))
        prod = product(pta, lab, aut)
        assert len(prod.locations) == len(pta.locations)
        assert all(loc.accepting for loc in prod.locations)
        assert [len(l.edges) for l in prod.locations] == \
            [len(l.edges) for l in pta.locations]

    def test_false_automaton_blocks_everything(self):
        net = parse_model(MINIMAL)
        pta, lab = compose(net)
        aut = ltl.to_buchi(ltl.to_nnf(ltl.FALSE))
        prod = product(pta, lab, aut)
        assert len(prod.locations) == 1
        assert prod.locations[0].edges == []

    def test_labels_filter_transitions(self):
        net = parse_model(MINIMAL)
        pta, lab = compose(net)
        # automaton of  !start: no transition can fire at the initial
        # location, which is labelled start
        aut = ltl.to_buchi(ltl.to_nnf(ltl.neg(ltl.ap("start"))))
        prod = product(pta, lab, aut)
        assert prod.locations[prod.initial].edges == []

    @pytest.mark.parametrize("prop", [
        "G (start || w >= -1)", "G !(start && M.B && w >= 0)",
        "G ((start && M.B) -> w >= 0)"])
    def test_data_atom_on_undeclared_variable(self, prop):
        # build_automaton rejects such a property before the product, so
        # only direct callers reach this check.  The last two read w only
        # next to atoms that never hold together; the product reads
        # every atom of the automaton at every location, so it raises all
        # the same, with the message the front end's check gives
        net = parse_model(MINIMAL)
        pta, lab = compose(net)
        f = ltl.parse_ltl(prop)
        with pytest.raises(InputError) as err:
            product(pta, lab, ltl.negated_automaton(f))
        with pytest.raises(InputError) as front:
            build_automaton(net, f, net.box())
        for e in (err, front):
            assert str(e.value) == "property uses unknown variable 'w'"
            assert e.value.kind == "unknown-variable"


class TestNonZeno:
    def test_empty_acceptance_stays_empty(self):
        net = parse_model(MINIMAL)
        pta, lab = compose(net)
        prod = product(pta, lab, ltl.to_buchi(ltl.to_nnf(ltl.FALSE)))
        out = make_nonzeno(prod, every_accepting(prod))
        assert not any(l.accepting for l in out.locations)

    def test_fresh_clock_added(self):
        net = parse_model(MINIMAL)
        pta, lab = compose(net)
        prod = product(pta, lab, ltl.to_buchi(ltl.to_nnf(ltl.TRUE)))
        out = make_nonzeno(prod, every_accepting(prod))
        assert len(out.clock_names) == len(prod.clock_names) + 1
        # recorded as the gate clock, which the product has none of
        assert (prod.gate, out.gate) == (0, len(prod.clock_names))

    def test_accepting_cycles_pass_the_gate(self):
        # structural contract: every cycle through an accepting location
        # contains an edge that both requires the fresh clock at 1 and
        # resets it
        net = load_fixture("zeno.pta")
        pta, lab = compose(net)
        prod = product(pta, lab, ltl.to_buchi(ltl.to_nnf(
            ltl.neg(ltl.parse_ltl("F inB")))))
        out = make_nonzeno(prod, every_accepting(prod))
        z = len(out.clock_names) - 1
        # remove the gated edges; no accepting location may remain on a cycle
        succ = []
        for loc in out.locations:
            succ.append([e.target for e in loc.edges
                         if not (z in e.resets
                                 and any(i == 0 and j == z
                                         for i, j, _ in e.atoms))])

        def reaches_itself(n0):
            work = list(succ[n0])
            seen = set()
            while work:
                cur = work.pop()
                if cur == n0:
                    return True
                if cur not in seen:
                    seen.add(cur)
                    work.extend(succ[cur])
            return False

        for idx, loc in enumerate(out.locations):
            if loc.accepting:
                assert not reaches_itself(idx)

    def test_zeno_only_loop_rejected_everywhere(self):
        # the self-loop guarded x <= 0 supports only Zeno repetition; after
        # the transformation no valuation may accept "never reach B"
        from ptasynth.baseline import enumerate_box

        net = load_fixture("zeno.pta")
        res = enumerate_box(net, "F inB", net.box({"p": (6, 8)}))
        assert res.accepted.is_empty


class TestProductAcceptance:
    @pytest.mark.parametrize("fixture,prop", [
        ("gap.pta", "G !inB"),
        ("window.pta", "G !work"),
        ("strict.pta", "G !inB"),
    ])
    def test_language_emptiness_matches_region_graph(self, fixture, prop):
        # per valuation, the product of the model with the negated-property
        # automaton has an accepting run exactly when the engines report
        # the valuation as violating; the region graph decides the left
        # side independently (one-clock fixtures, no widening involved)
        import oracle_region
        from ptasynth.explore import synthesize

        net = load_fixture(fixture)
        box = net.box()
        f = ltl.parse_ltl(prop)
        aut = ltl.to_buchi(ltl.to_nnf(ltl.neg(f)))
        pta, lab = compose(net)
        prod = product(pta, lab, aut)
        from ptasynth.params import ValuationSet

        k = max(clock_bounds(clock_tables(prod, box)[0]))
        accepted = synthesize(net, prop, box).accepted
        for v in ValuationSet.full(box):
            want = oracle_region.accepting_run_exists(prod, v, k)
            assert want == (v in accepted), (fixture, v)


def chain(*locs):
    """A hand-built automaton over the clocks x and y: ``locs`` are (name,
    invariant atoms, [(guard atoms, resets, target), ...]) triples."""
    out = []
    for name, inv, edges in locs:
        loc = PLoc(name, tuple(inv))
        for atoms, resets, target in edges:
            loc.edges.append(PEdge(tuple(atoms), tuple(resets), target, "e"))
        out.append(loc)
    return Ptba(["0", "x", "y"], out, 0)


BOX03 = ParamBox.of({"p": (0, 3)})
X_LE_7 = (1, 0, bound(7))
Y_LE_4 = (2, 0, bound(4))


class TestClockBounds:
    def test_lower_bound_guard_counts(self):
        # x >= 100 is stored with a negated expression; the maxima must
        # still dominate the semantic constant 100
        src = MINIMAL.replace("x >= 1", "x >= 100").replace(
            "invariant x <= p", "invariant true")
        net = parse_model(src)
        pta, lab = compose(net)
        prod = product(pta, lab, ltl.to_buchi(ltl.to_nnf(ltl.TRUE)))
        maxima = clock_bounds(clock_tables(prod, net.box())[0])
        assert maxima[1] >= 100

    def test_zero_clock_pinned(self):
        net = parse_model(MINIMAL)
        pta, lab = compose(net)
        prod = product(pta, lab, ltl.to_buchi(ltl.to_nnf(ltl.TRUE)))
        assert clock_bounds(clock_tables(prod, net.box())[0])[0] == 0

    @pytest.mark.parametrize("fixture,prop", [
        (name, prop) for name, props in CORPUS.items() for prop in props])
    def test_column_max_is_the_one_vector(self, fixture, prop):
        net = load_fixture(fixture)
        box = net.box()
        tba, bounds, _ = build_automaton(net, ltl.parse_ltl(prop), box)
        assert clock_bounds(bounds) == one_clock_bounds(tba, box)


class TestLocationBounds:

    def test_own_atoms(self):
        # invariant and outgoing guard, lower bounds by their magnitude,
        # parametric ones at their largest over the box
        p = AffineExpr.var("p")
        a = chain(("A", [(1, 0, bound(p + 1))], [([(0, 2, bound(-2))], (), 1)]),
                  ("B", [], []))
        assert clock_tables(a, BOX03)[0] == [(0, 4, 2), (0, 0, 0)]

    def test_reset_clock_does_not_inherit(self):
        a = chain(("A", [], [([], (1,), 1)]),
                  ("B", [], [([X_LE_7], (), 1)]))
        assert clock_tables(a, BOX03)[0] == [(0, 0, 0), (0, 7, 0)]

    def test_kept_clock_inherits(self):
        a = chain(("A", [], [([], (2,), 1)]),
                  ("B", [], [([X_LE_7], (), 1)]))
        assert clock_tables(a, BOX03)[0] == [(0, 7, 0), (0, 7, 0)]

    def test_target_invariant_propagates_back(self):
        # through two edges, the first resetting x only
        a = chain(("A", [], [([], (1,), 1)]),
                  ("B", [], [([], (), 2)]),
                  ("C", [X_LE_7, Y_LE_4], []))
        assert clock_tables(a, BOX03)[0] == [(0, 0, 4), (0, 7, 4),
                                             (0, 7, 4)]

    def test_cycle_reaches_its_fixpoint(self):
        # A -> B -> C -> A; only C's edge to A compares y, and only A's
        # edge resets x
        a = chain(("A", [], [([], (1,), 1)]),
                  ("B", [], [([X_LE_7], (), 2)]),
                  ("C", [], [([Y_LE_4], (), 0)]))
        assert clock_tables(a, BOX03)[0] == [(0, 0, 4), (0, 7, 4),
                                             (0, 0, 4)]

    def test_zero_clock_stays_zero(self):
        # x >= 5 and x <= 3 both name the zero clock
        a = chain(("A", [(0, 1, bound(-5))], [([(1, 0, bound(3))], (), 0)]))
        assert clock_tables(a, BOX03)[0] == [(0, 5, 0)]


class TestInactiveClocks:
    """A clock is active where a guard or invariant reads it, and upstream
    of that along edges that do not reset it; the rest are freed."""

    def test_clock_compared_with_zero_stays_active(self):
        # the urgent invariant x <= 0 reads x with bound 0: x keeps a 0
        # bound, which still separates x = 0 from x > 0, and is not freed
        a = chain(("A", [(1, 0, bound(0))], [([], (), 1)]),
                  ("B", [], []))
        assert clock_tables(a, BOX03)[0] == [(0, 0, 0), (0, 0, 0)]
        assert clock_tables(a, BOX03)[1] == [(2,), (1, 2)]

    def test_read_after_a_non_resetting_edge_is_active(self):
        # B reads x; A's edge keeps x and resets y, which nothing reads
        a = chain(("A", [], [([], (2,), 1)]),
                  ("B", [], [([X_LE_7], (), 1)]))
        assert clock_tables(a, BOX03)[1] == [(2,), (2,)]

    def test_reset_before_the_read_is_inactive(self):
        # C reads both clocks; A's edge resets x, so x is inactive at A
        a = chain(("A", [], [([], (1,), 1)]),
                  ("B", [], [([], (), 2)]),
                  ("C", [X_LE_7, Y_LE_4], []))
        assert clock_tables(a, BOX03)[1] == [(1,), (), ()]

    def test_nonzeno_clock_active_upstream_of_its_gates(self):
        # S -> A -> B (accepting) -> C, C looping; no guard reads x or y.
        # Only the gate edges from A~0 into B~1 read _nz, and the edge
        # S~0 -> A~0 keeps it, so _nz is active at S~0 and A~0 alone
        a = chain(("S", [], [([], (), 1)]),
                  ("A", [], [([], (), 2)]),
                  ("B", [], [([], (), 3)]),
                  ("C", [], [([], (), 3)]))
        a.locations[2].accepting = True
        out = make_nonzeno(a, {2})
        nz = out.clock_names.index("_nz")
        got = dict(zip((loc.name for loc in out.locations),
                       clock_tables(out, BOX03)[1]))
        assert got == {"S~0": (1, 2), "A~0": (1, 2), "B~0": (1, 2, nz),
                       "B~1": (1, 2, nz), "C~0": (1, 2, nz)}

    @pytest.mark.parametrize("fixture,prop", [
        (name, prop) for name, props in CORPUS.items() for prop in props])
    def test_inactive_clocks_have_bound_zero(self, fixture, prop):
        # so the freed entries stay inside the widening window
        net = load_fixture(fixture)
        tba, bounds, free = build_automaton(net, ltl.parse_ltl(prop),
                                            net.box())
        for row, clocks in zip(bounds, free):
            assert all(row[c] == 0 for c in clocks)


def reference_clock_tables(a, box):
    """``model.clock_tables`` clock by clock: for each location l and clock
    c, a search from l over the edges that do not reset c collects the
    magnitudes of the invariant and guard atoms that read c with a finite
    bound at the locations it reaches.  The bound is their maximum, 0 if
    there are none, and c is inactive at l if there are none."""
    bounds, free = [], []
    for l in range(len(a.locations)):
        row, inactive = [0], []
        for c in range(1, len(a.clock_names)):
            seen, todo, magnitudes = {l}, [l], []
            while todo:
                loc = a.locations[todo.pop()]
                for atoms in [loc.inv] + [e.atoms for e in loc.edges]:
                    magnitudes += [
                        max(b.expr.max_bound(box), (-b.expr).max_bound(box))
                        for i, j, b in atoms if c in (i, j) and not b.is_inf]
                for e in loc.edges:
                    if c not in e.resets and e.target not in seen:
                        seen.add(e.target)
                        todo.append(e.target)
            row.append(max(magnitudes, default=0))
            if not magnitudes:
                inactive.append(c)
        bounds.append(tuple(row))
        free.append(tuple(inactive))
    return bounds, free


class TestClockTablesReference:
    """The front end's clock tables against ``reference_clock_tables``."""

    @staticmethod
    def check(net, prop, kinds):
        """Compare the tables ``build_automaton`` hands the engines with the
        reference's; ``kinds`` counts the entries that are bounds above 0,
        active clocks with bound 0 and inactive clocks."""
        box = net.box()
        tba, bounds, free = build_automaton(net, ltl.parse_ltl(prop), box)
        assert (bounds, free) == reference_clock_tables(tba, box), prop
        for row, clocks in zip(bounds, free):
            for c in range(1, len(row)):
                kinds[0 if row[c] else 2 if c in clocks else 1] += 1

    def test_corpus(self):
        kinds = [0, 0, 0]
        for name, props in CORPUS.items():
            for prop in props:
                self.check(load_fixture(name), prop, kinds)
        assert all(kinds)

    def test_random_products(self):
        fuzzgen = load_fuzzgen()
        rng = random.Random(SEED ^ 0xC10C)
        kinds = [0, 0, 0]
        checked = 0
        while checked < 150:
            src, labels = fuzzgen.random_model(rng)
            prop = fuzzgen.random_property(rng, labels)
            try:
                self.check(parse_model(src), prop, kinds)
            except InputError as exc:
                # a generated handshake can chain updates out of range
                assert exc.kind == "update-out-of-range"
                continue
            checked += 1
        assert all(kinds)


def x_at_least(e, strict=False):
    """The guard atom x >= e, or x > e with ``strict``."""
    return (0, 1, bound(-e, strict))


P = AffineExpr.var("p")
BOX02 = ParamBox.of({"p": (0, 2)})
BOX12 = ParamBox.of({"p": (1, 2)})


def accepting_at(a, *locs):
    for l in locs:
        a.locations[l].accepting = True
    return a


class TestZenoAccepting:
    """An accepting location is gated when it lies in a part of the
    location graph that some cycle crosses without letting a time unit
    pass for sure; x is clock 1 and y clock 2."""

    def test_zero_time_cycle_is_gated(self):
        a = accepting_at(chain(("A", [], [([], (), 0)])), 0)
        assert zeno_accepting(a, BOX03) == {0}

    def test_guard_without_reset_on_the_cycle_is_gated(self):
        # x >= 1 holds forever once it holds once
        a = accepting_at(chain(("A", [], [([x_at_least(1)], (), 0)])), 0)
        assert zeno_accepting(a, BOX03) == {0}

    def test_reset_then_guard_is_not_gated(self):
        a = accepting_at(chain(("A", [], [([], (1,), 1)]),
                               ("B", [], [([x_at_least(1)], (), 0)])), 0)
        assert zeno_accepting(a, BOX03) == set()

    def test_parametric_guard_counts_only_at_1_over_the_whole_box(self):
        a = accepting_at(chain(("A", [], [([x_at_least(P)], (1,), 0)])), 0)
        assert zeno_accepting(a, BOX02) == {0}  # x >= 0 at p = 0
        assert zeno_accepting(a, BOX12) == set()

    def test_strict_guard_at_0_is_gated(self):
        a = accepting_at(chain(("A", [], [([x_at_least(0, True)], (1,),
                                           0)])), 0)
        assert zeno_accepting(a, BOX03) == {0}

    def test_upper_bounds_and_diagonals_do_not_count(self):
        # x <= 7, and x - y >= 1 (y - x <= -1), with x and y reset
        a = accepting_at(chain(("A", [], [([X_LE_7, (2, 1, bound(-1))],
                                           (1, 2), 0)])), 0)
        assert zeno_accepting(a, BOX03) == {0}

    def test_second_clock_passes_once_the_first_clock_edges_go(self):
        # A -> B holds x and y at 1 and resets x only; A -> C holds y at 1
        # and resets y.  y fails in the whole component, where the cycle
        # through B passes its guard without resetting it, and passes once
        # x's edge is gone
        a = accepting_at(chain(
            ("A", [], [([x_at_least(1), (0, 2, bound(-1))], (1,), 1),
                       ([(0, 2, bound(-1))], (2,), 2)]),
            ("B", [], [([], (), 0)]),
            ("C", [], [([], (), 0)])), 0)
        assert zeno_accepting(a, BOX03) == set()
        # without y's reset the cycle through C lets no time pass for sure
        a.locations[0].edges[1].resets = ()
        assert zeno_accepting(a, BOX03) == {0}

    def test_only_the_failing_part_is_gated(self):
        # A -> B resets x and needs it at 1, so A leaves its component's
        # cycles once that edge goes; B <-> C stays, with no guard
        a = accepting_at(chain(("A", [], [([x_at_least(1)], (1,), 1)]),
                               ("B", [], [([], (), 0), ([], (), 2)]),
                               ("C", [], [([], (), 1)])), 0, 2)
        assert zeno_accepting(a, BOX03) == {2}

    def test_accepting_location_on_no_cycle_is_not_gated(self):
        a = accepting_at(chain(("A", [], [([], (), 1)]),
                               ("B", [], [([], (), 1)])), 0)
        assert zeno_accepting(a, BOX03) == set()

    def test_5000_location_cycle_does_not_recurse(self):
        n = 5000
        a = accepting_at(chain(*[(f"L{k}", [], [([], (), (k + 1) % n)])
                                 for k in range(n)]), n - 1)
        assert zeno_accepting(a, BOX03) == {n - 1}

    def test_ungated_accepting_location_keeps_phase_0(self):
        a = accepting_at(chain(("A", [], [([], (1,), 1)]),
                               ("B", [], [([x_at_least(1)], (), 0)])), 0)
        out = make_nonzeno(a, set())
        assert (out.clock_names, out.gate) == (a.clock_names, 0)
        assert [(loc.name, loc.accepting) for loc in out.locations] == \
            [("A~0", True), ("B~0", False)]
        out = make_nonzeno(a, {0})
        assert (out.clock_names[-1], out.gate) == ("_nz", 3)
        assert [(loc.name, loc.accepting) for loc in out.locations] == \
            [("A~0", False), ("B~0", False), ("A~1", True)]


@pytest.mark.parametrize("accepting,edges,want", [
    ([True], [(0, 0)], True),
    # lasso 0 -> 1 -> 2 -> 1, accepting on the stem only, then in the loop
    ([True, False, False], [(0, 1), (1, 2), (2, 1)], False),
    ([False, False, True], [(0, 1), (1, 2), (2, 1)], True),
    ([False, False, False], [(0, 1), (1, 2), (2, 1)], False),
    # cycle 0 <-> 1, accepting 2 beside it with no way back
    ([False, False, True], [(0, 1), (1, 0), (1, 2)], False),
], ids=["accepting self-loop", "accepting stem", "accepting 2-cycle",
        "no accepting state", "accepting beside a cycle"])
def test_accepting_cycle(accepting, edges, want):
    assert _accepting_cycle(accepting, edges) is want


def reachable(edges, start) -> set[int]:
    """The nodes one or more edges away from ``start``."""
    seen: set[int] = set()
    todo = [w for u, w in edges if u == start]
    while todo:
        v = todo.pop()
        if v not in seen:
            seen.add(v)
            todo.extend(w for u, w in edges if u == v)
    return seen


def random_graph(rng):
    """From single nodes to dense graphs, self-loops and repeated edges
    included."""
    n = rng.randrange(1, 13)
    edges = [(rng.randrange(n), rng.randrange(n))
             for _ in range(rng.randrange(3 * n))]
    return n, edges


def test_accepting_cycle_matches_reachability(rng):
    # against the definition: some accepting node reaches itself
    found = 0
    for _ in range(400):
        n, edges = random_graph(rng)
        accepting = [rng.random() < 0.3 for _ in range(n)]
        want = any(accepting[u] and u in reachable(edges, u)
                   for u in range(n))
        assert _accepting_cycle(accepting, edges) is want, (accepting, edges)
        found += want
    assert 50 < found < 350


def test_components_match_mutual_reachability(rng):
    for _ in range(200):
        n, edges = random_graph(rng)
        # the Zeno analysis passes any node ids and edges with more fields
        nodes = rng.sample(range(100), n)
        labelled = [(nodes[u], nodes[w], "label") for u, w in edges]
        comp = {}
        for k, (part, inside) in enumerate(_cyclic_parts(nodes, labelled)):
            for l in part:
                assert l not in comp
                comp[l] = k
            assert inside == [e for e in labelled
                              if e[0] in part and e[1] in part]
        # a node lies in a part when it lies on a cycle, and two nodes in
        # one part when each reaches the other
        reach = [reachable(edges, u) for u in range(n)]
        for u in range(n):
            for w in range(n):
                assert (comp.get(nodes[u], -1) == comp.get(nodes[w], -2)) is (
                    w in reach[u] and u in reach[w]), (edges, u, w)


class TestDeadlockGuards:
    """What a deadlock check folds at a location."""

    X_LE_P = (1, 0, bound(AffineExpr.var("p")))
    Y_GT_2 = (0, 2, bound(-2, strict=True))

    def guards(self, *atom_lists):
        loc = PLoc("L", ())
        loc.edges += [PEdge(tuple(atoms), (), 0, "e") for atoms in atom_lists]
        return deadlock_guards(loc)

    def test_unguarded_edge_folds_nothing(self):
        assert self.guards([self.X_LE_P], []) is None

    def test_no_edges_fold_to_no_guard(self):
        assert self.guards() == []

    def test_repeated_guard_kept_once_in_edge_order(self):
        a, b = [self.Y_GT_2], [self.X_LE_P, self.Y_GT_2]
        got = self.guards(a, b, a, b)
        assert got == self.guards(a, b)
        assert [len(g) for g in got] == [1, 2]
        assert self.guards(b, a) == got[::-1]

    def test_atoms_negated(self):
        atoms = [self.X_LE_P, self.Y_GT_2]
        [got] = self.guards(atoms)
        assert got == tuple((j, i, StrictBound(-b.expr, not b.strict))
                            for i, j, b in atoms)
        assert got[1] == (2, 0, bound(2))  # not (0 - y < -2) is y - 0 <= 2


def test_dump_product_smoke():
    net = parse_model(MINIMAL)
    pta, lab = compose(net)
    prod = product(pta, lab, ltl.to_buchi(ltl.to_nnf(ltl.TRUE)))
    text = dump_product(prod)
    assert "location" in text and "initial:" in text


# sha256 of dump_product(tba), a newline and repr(clock maxima) for each
# corpus fixture and property, and of the negated property's automaton
# dump: location order and naming are part of the front end's output
PRODUCT_DIGESTS = {
    ("gap.pta", "G !inB"):
        "0416bc2c5c542363926a5c5864896cec0375e7af632fe9e3e740f5f099c269b8",
    ("gap.pta", "G (inA -> F inB)"):
        "3403ffd90fab4c876c6627ee7bf21c37674300d1d31186fb64491abd39cc40d4",
    ("gap.pta", "true U inB"):
        "9e3b562798dd907eff609cfc2c17c9cb01253d4e52d22ec3d07c85099b1c36fc",
    ("window.pta", "G !work"):
        "f8e263591417885ebd4c201d7617696361b2faab2b3889262020638d4e464809",
    ("window.pta", "G (idle -> F work)"):
        "e4530541ce15810ebffef0d5c7a250a07c117469f8252ecc7e80bfa96bf635bd",
    ("window.pta", "F work"):
        "0610d2651df559dce9111cd5a4d40c0c7e039e5633e40c2e00dfa50feb1a106e",
    ("zeno.pta", "G !inB"):
        "46bfc3bceae936b1805a61ea0e4b54eb6509d2c1ba190dd7c3ea08acd4c7ead6",
    ("zeno.pta", "G (inA -> F inB)"):
        "751c6b9a30fabcff0efad03cd6d497e4dfef19cb2abc13757e45965a7cf41219",
    ("zeno.pta", "F inB"):
        "56d0e17fd541cdecdd4ca38de0ef785e11e7224d2a1724131c5df7096c651b21",
    ("counter.pta", "G (inB -> c <= 0)"):
        "2b0984f5f41b7687a29be61d2e3732338c8b4c567c42f98ef09d3680c13d054e",
    ("counter.pta", "G (inA -> F inB)"):
        "c0c32e1ab77845c72da9e01a3582cde48163f6d21b2198135940c333a8e61c48",
    ("counter.pta", "true U c >= 2"):
        "84e498821042bd895c202a17af8e9748670c64b3ff734dcb472c0bfd3097ef7e",
    ("handshake.pta", "G !busy"):
        "03545f1a12cb237862f48549c5b17573853d7c238a55e6cd333137f8a9fe6c84",
    ("handshake.pta", "G (waiting -> F idle)"):
        "4610abadd4d5cde6448f9459f1134aa1e6db8523388592443d2a765a09f06fb1",
    ("handshake.pta", "F busy"):
        "42f460f3114bcf9566734ced03465940e152c0adae51787ce2d64282ce674491",
    ("branchy.pta", "G !inB"):
        "906a65f70ec9bef0fb172edd209ce2e72830dfddb2fe9f4cce2019db3da1d399",
    ("branchy.pta", "G (inA -> F inB)"):
        "22a48b700ab91b4ea93b67f83638bf4669679394d372563ba74d110fe606de55",
    ("branchy.pta", "F inB"):
        "edb15b503c4d7282d17755ebb5d7ed44348a7739b77fa812af0a6ecfaf91b5ce",
    ("strict.pta", "G !inB"):
        "d2138a92096ef0f5515b489ef152bba32c4dd00782dc21358afaac5f33894244",
    ("strict.pta", "G (inA -> F inB)"):
        "0c76515f0991cce17f768569708cbeef76cbb51bf4808301bb17597672aa0acd",
    ("strict.pta", "true U inB"):
        "0cff38e7d8f5ad18210b95cb35354b05afb90cb9cabdd617f66d6244c653cb1b",
    ("staggered.pta", "G !inB"):
        "0b2ae665f595fb6061015342dc6a2fefee55fd51a113633b3ccba9a1a850e3ff",
    ("staggered.pta", "G (inA -> F inB)"):
        "a2ddb09c0321f49fa581b874c4428e874454582f13db99c56a8f675fd9e7e0fd",
    ("staggered.pta", "F inB"):
        "527a3866e8f5a0d9095ee4da77ec70f576b0ef76e5b7a3581ba02974e3671ef5",
    ("urgent.pta", "G !inC"):
        "d57cd66991e058a13ab2a29e369e926bb3e6092eca3e56e50d5d65ea56cbf010",
    ("urgent.pta", "G (inB -> F inC)"):
        "b4d50f6908921d280c7b73eb25ca5393336eff60f297a9bd2e6ff37a3cc626ff",
    ("urgent.pta", "F inC"):
        "2ba0c38e69c1d2f59d60d0fa3dada31684c7d7d991d4dafbf96b6dd73dac3b5f",
    ("traingate.pta", "G !(Train1.Cross && Train2.Cross)"):
        "68d463f6f198c92d9c3a64c13f4c0f392830065d35230a147f2c12f157af34e8",
    ("traingate.pta", "G (Train1.Appr -> F Train1.Cross)"):
        "9821cee7f95718aa49bcbfd3c7002283f48aab8452cb86b15c3d2cfa938c2e20",
    ("traingate.pta", "F (Train1.Cross || Train2.Cross)"):
        "90eab16344c9160cf29e883104ccb923ee06615e04861333362670569e587546",
}
# the same, with every accepting location gated (``fully_gated_automaton``):
# the front end's output before ``zeno_accepting``, for the 28 pairs that
# have an accepting location (the other two then had an unread ``_nz``)
FULLY_GATED_DIGESTS = {
    ("gap.pta", "G !inB"):
        "32daf2f577b66278ce19e5196b5de67c7a29726921d0980280516c46cb49d943",
    ("gap.pta", "G (inA -> F inB)"):
        "8b825fb1270a31d7d62b4a04cfb4c62516480d959823daf2b5c05103850ca506",
    ("gap.pta", "true U inB"):
        "c5d7105a42a2109d4b752ca0446da7c3068682aa19f040f488ec0968e240e02c",
    ("window.pta", "G !work"):
        "f399253ac09b641ea6bcacf360264e42c00667381d5d86e4bb7691fdfa312169",
    ("window.pta", "G (idle -> F work)"):
        "05e656cec25ed1420886f8350a87d53924a200c20f4a83f53f3de654e6183db7",
    ("window.pta", "F work"):
        "11dd44881f7c0683b881ce4961ac7a9cdfceb1cb18e98208eb9a02f8be45d81a",
    ("zeno.pta", "G !inB"):
        "4dfe419b9515f240df2a18cc2ddf81792f2de14da217a6c736a5b3214495e8d3",
    ("zeno.pta", "G (inA -> F inB)"):
        "3fc7ff9ce2e8e23851256a4e7390d14890f0145f373c37c0c2eae549e191ba4d",
    ("zeno.pta", "F inB"):
        "c13f1131e47fc81cf027ebb1729a22fd5dbd87630fd254b66d60e41a33ed18f9",
    ("counter.pta", "G (inA -> F inB)"):
        "b30cbac864931783665e56e6dd4aa3199a8226629a72ad03c7ea45163a192e4e",
    ("counter.pta", "true U c >= 2"):
        "bb7359d5c408d6541f13b0b76e0f8561f90ac149c22aaf81ca12dcc471e65a9a",
    ("handshake.pta", "G !busy"):
        "ea47e96fbf99cf9bab5247b0307d4c2378cc31f82113dd6bd1ca8a6004889008",
    ("handshake.pta", "G (waiting -> F idle)"):
        "efd6d3680a9aeaa1ddd4ce26c8bf07eaad09156fc44a99d4df52e4b6063b09b7",
    ("handshake.pta", "F busy"):
        "f85fc698fa2b7c6a6985d07ba7a916b624ff1d50d8660f1b1aa92b6eaaa784d1",
    ("branchy.pta", "G !inB"):
        "b0da157decb52726365a144ac965ec6215a1188bc28ca7f62fb53e87e588f47a",
    ("branchy.pta", "G (inA -> F inB)"):
        "446d9ff9a8adde29a6bfac4ad2e3c4efbc9347f58dfa9d082331a17867262602",
    ("branchy.pta", "F inB"):
        "f8109de87707d0ac2d62c0e6839d04777437b5f48f4b3b7df6f5a5719194a1ec",
    ("strict.pta", "G !inB"):
        "972ca3aeef9631b39c034f72ba97de1f2bf39bc900a0a25d5361f1ce6bc1e1b4",
    ("strict.pta", "G (inA -> F inB)"):
        "d84e2cf9d539cfd2bf5663feef699a1fc76c77af4031f0967a799d4b6c81e30d",
    ("strict.pta", "true U inB"):
        "d3231c9cae5a2b39433b04a091fdbbf50516d08e7cd974a1cfe6f151ddd08bc6",
    ("staggered.pta", "G !inB"):
        "ed018ca814409e996c5aff0e3890aa7348b89b1fe0c2406761162d3bfcab5956",
    ("staggered.pta", "G (inA -> F inB)"):
        "ea671b3a2c2e56a0e6e2d6b9960ea8cb9eb9f4d603274de6d671448d9a479a36",
    ("staggered.pta", "F inB"):
        "dce78c6892b006e5dca3b3e4b1384f080fbbefb1e0368730eb8ce158a718ef46",
    ("urgent.pta", "G !inC"):
        "f6ccad0bd88a472107f26cb7f696e6f463b1b467616f29dede43af9dbf5621d6",
    ("urgent.pta", "G (inB -> F inC)"):
        "6f124e4f45a0499dce8132e5e8d66b6be6ca07518cc8e8cbdc7c566acd2cc0bc",
    ("urgent.pta", "F inC"):
        "3027211452f551476e70f12377735e09f161ba64afe2357040ae2d6e30fb9433",
    ("traingate.pta", "G (Train1.Appr -> F Train1.Cross)"):
        "b95683cd65e8092c4fa97f7549279b5a7f30e5d1eb9fc3bcbfd0dbc7517d93c4",
    ("traingate.pta", "F (Train1.Cross || Train2.Cross)"):
        "d04daa80bcd50ffa8beea240cb854c18fabf468f7037d926d7787369f8927e18",
}
BA_DIGESTS = {
    "G !inB":
        "ad2eacf1965d33d662a032265f368dde4468f2e2186355cf99b7a03183085b31",
    "G (inA -> F inB)":
        "03503d2714aefca84fa2f046ced999c4c73cb421ba687b1a2909215f7692670c",
    "true U inB":
        "c168ea6ad52718755b495be81b62ba5ce6f5c4f57b369427951fc2faff8a8d49",
    "G !work":
        "e02e533cdfd5431b722aed9d96080530f0ac666011228a0cad5f87122279640f",
    "G (idle -> F work)":
        "50018ca88d77743e0e01ba7619ce5e7403fa1c51c277008b47974696dd59cca4",
    "F work":
        "fafb12b3522f587bbae435588a163e29865bb8955f01b299c0cbfd8de83203d0",
    "F inB":
        "c168ea6ad52718755b495be81b62ba5ce6f5c4f57b369427951fc2faff8a8d49",
    "G (inB -> c <= 0)":
        "ea2cf6eb7b9628631d36163e84119ea9a33c47636b35e78b9edb89a8dacc0a49",
    "true U c >= 2":
        "bf73283fad0e0dcd47f19c843c4f6a29ae8822c00f8812b2a72de419e1e2ff08",
    "G !busy":
        "7f94aa0d5a066e65e2d3bb94b7c1051cbbdc8fb1ca0fe95272727825261f14d3",
    "G (waiting -> F idle)":
        "699fb429586df0567ee404dd1e7c9b242135fc42e08acbb69d2ee6a3c6021c83",
    "F busy":
        "f92def33ec758ae2be8007b441fde90e59e24c363edddd839097474ef41e3f7d",
    "G !inC":
        "994deac4d59b2c8e93bb44832b94e02244ab735da9dfc775284207537b268018",
    "G (inB -> F inC)":
        "9d9f79bfc51644ef3eaab7d91413c759ce616da2e4693f703d6e0743d941a3ed",
    "F inC":
        "627a8c8b7f91472768e2d9b20f5d8bb121cef8a8931ba1bd9b8c1e3863ed3dfc",
    "G !(Train1.Cross && Train2.Cross)":
        "4b0a42b079d1f06d7e0bbc2094fc6b6074334a5ab875a05245117710f928c30c",
    "G (Train1.Appr -> F Train1.Cross)":
        "9a8e971572e617c3c185d607dd788445877fb679037beeeca1a898ae9307d228",
    "F (Train1.Cross || Train2.Cross)":
        "ec753c7728c8bfbc29fbee26618075e96a36257ec586ae198de56e351fda335e",
}


@pytest.mark.parametrize("fixture,prop", [
    (name, prop) for name, props in CORPUS.items() for prop in props])
def test_front_end_output_pinned(fixture, prop):
    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    net = load_fixture(fixture)
    f = ltl.parse_ltl(prop)
    tba, bounds, _ = build_automaton(net, f, net.box())
    maxima = clock_bounds(bounds)
    assert sha(dump_product(tba) + "\n" + repr(maxima)) == \
        PRODUCT_DIGESTS[(fixture, prop)]
    aut = ltl.to_buchi(ltl.to_nnf(ltl.neg(f)))
    assert sha(aut.dump()) == BA_DIGESTS[prop]



@pytest.mark.parametrize("fixture,prop", list(FULLY_GATED_DIGESTS))
def test_fully_gated_front_end_output_pinned(fixture, prop):
    # make_nonzeno with every accepting location gated is the construction
    # the analysis refines, and the one the one-vector reference runs
    net = load_fixture(fixture)
    tba = fully_gated_automaton(net, prop)
    maxima = clock_bounds(clock_tables(tba, net.box())[0])
    assert hashlib.sha256((dump_product(tba) + "\n" + repr(maxima))
                          .encode()).hexdigest() == \
        FULLY_GATED_DIGESTS[(fixture, prop)]
