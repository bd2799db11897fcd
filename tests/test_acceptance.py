"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavyweight
fixture-corpus comparison runs once and is shared by the criteria that
consume its results.
"""

import random
import time

import pytest

import oracle_dbm as od
import oracle_ltl as ol
from conftest import (
    CORPUS,
    SEED,
    fixture_path,
    load_fixture,
    reset_zone,
    scan_stored_bounds,
)
from ptasynth import ltl, pdbm
from ptasynth.baseline import enumerate_box
from ptasynth.cli import main as cli_main
from ptasynth.explore import build_graph, synthesize
from ptasynth.model import Options, build_automaton, load_model
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


def ok(criterion, message):
    print(f"\n[criterion {criterion}] PASS - {message}")


@pytest.fixture(scope="module")
def corpus_results():
    """Both engines over the whole corpus, soundness assertions enabled."""
    results = {}
    t0 = time.time()
    for name, props in CORPUS.items():
        net = load_fixture(name)
        for prop in props:
            sym = synthesize(net, prop)
            base = enumerate_box(net, prop)
            results[(name, prop)] = (sym, base)
    results["elapsed"] = time.time() - t0
    return results


def test_c1_oracle_equivalence(corpus_results, capsys):
    """Symbolic and enumerating engines report identical violating,
    satisfying and deadlock sets on every fixture and property."""
    checked = 0
    for key, value in corpus_results.items():
        if key == "elapsed":
            continue
        sym, base = value
        name, prop = key
        assert sym.accepted.bits == base.accepted.bits, (name, prop)
        assert sym.satisfying.bits == base.satisfying.bits, (name, prop)
        assert sym.deadlock.bits == base.deadlock.bits, (name, prop)
        checked += 1
    assert checked >= 8 * 3
    assert len(CORPUS) >= 8
    # the compare subcommand exits 0 on a sample of the corpus
    for name in ("gap.pta", "urgent.pta"):
        assert cli_main(["compare", "--model", str(fixture_path(name)),
                         "--ltl", CORPUS[name][0], "--out", "/dev/null"]) == 0
    elapsed = corpus_results["elapsed"]
    assert elapsed < 300, f"corpus comparison took {elapsed:.0f}s"
    ok(1, f"{checked} fixture/property pairs equal across engines "
          f"in {elapsed:.0f}s")


def test_c2_canonical_form_golden():
    """Canonising (x <= p, y <= q, x = y) forks into exactly the branch
    with p below q (both bounds tightened to p) and its complement."""
    p, q = AffineExpr.var("p"), AffineExpr.var("q")
    box = ParamBox.of({"p": (0, 7), "q": (0, 7)})
    table = BoundTable(box)
    z = pdbm.CPDBM(ValuationSet.full(box).bits,
                   pdbm.matrix_of(3, {(1, 0): bound(p), (2, 0): bound(q)},
                                  table))
    out = pdbm.canonicalize(z, table)
    assert len(out) == 2
    le, gt = out
    assert le.bits == ConstraintSet.of(box, [Constraint.le(p, q)]).bits
    at = od.bounds_of(le, table)
    assert [at[1][0], at[2][0]] == [bound(p), bound(p)]
    assert at[1][2] == at[2][1] == ZERO_LE
    assert gt.bits == ConstraintSet.of(box, [Constraint.lt(q, p)]).bits
    at = od.bounds_of(gt, table)
    assert [at[1][0], at[2][0]] == [bound(q), bound(q)]
    for b in out:
        assert od.is_canonical(b, table)
    ok(2, "canonical-form split matches the expected two branches exactly")


def test_c3_extrapolation_golden():
    """Widening (x = y, y <= 2p) with maxima 10 over p in [0,7] forks into
    exactly {2p <= 10} unchanged and {2p > 10} with the bound removed."""
    p = AffineExpr.var("p")
    box = ParamBox.of({"p": (0, 7)})
    table = BoundTable(box)
    z = pdbm.CPDBM(
        ValuationSet.full(box).bits,
        pdbm.matrix_of(3, {(1, 0): INF_BOUND, (2, 0): bound(2 * p)}, table),
        canonical=True)
    out = pdbm.extrapolate(z, [0, 10, 10], table)
    assert len(out) == 2
    kept, widened = out
    assert kept.bits == ConstraintSet.of(box, [Constraint.le(2 * p, 10)]).bits
    assert kept.mat == z.mat
    assert widened.bits == ConstraintSet.of(
        box, [Constraint.lt(10, 2 * p)]).bits
    at = od.bounds_of(widened, table)
    assert at[2][0] is INF_BOUND
    assert at[1][2] == at[2][1] == ZERO_LE
    ok(3, "widening split matches the expected two branches exactly")


def test_c4_monotonicity_and_cycle_uniformity(corpus_results):
    """The corpus ran with the soundness checks enabled (every arrival's
    bounds inside the widening window, every expanded zone non-empty,
    every successor's valuations among the expanded ones); any violation
    would have raised.  At least one pair must actually have found
    accepting cycles in the colour fixpoint."""
    violating = [key for key, value in corpus_results.items()
                 if key != "elapsed" and not value[0].accepted.is_empty]
    assert violating
    rounds = sum(corpus_results[key][0].stats["fixpoint_rounds"]
                 for key in violating)
    ok(4, f"zero violations across the corpus; {len(violating)} pairs with "
          f"accepting cycles in {rounds} fixpoint rounds")


def test_c5_termination_and_bound_range():
    """Every fixture exploration terminates below the state limit and all
    stored finite bounds evaluate within [-maxima[col], maxima[row]]."""
    total_checked = 0
    for name, props in CORPUS.items():
        net = load_fixture(name)
        box = net.box()
        tba, bounds, free = build_automaton(net, ltl.parse_ltl(props[0]),
                                            box)
        g = build_graph(tba, box, bounds, free, Options())
        assert g.n_nodes < Options().limit_states
        total_checked += scan_stored_bounds(g)
    assert total_checked > 0
    ok(5, f"all explorations terminated; {total_checked} stored bounds "
          f"within range")


def test_c6_ltl_translation_randomized():
    """1000 random formula/lasso pairs: automaton acceptance equals direct
    evaluation, and exactly one of the formula and its negation accepts."""
    rng = random.Random(SEED)
    atoms = ["a", "b", "c"]
    t0 = time.time()
    for _ in range(1000):
        f = ol.random_formula(rng, atoms, rng.randrange(1, 5))
        u, v = ol.random_lasso(rng, atoms, 6, 6)
        want = ol.holds_on_lasso(f, u, v)
        pos = ltl.to_buchi(ltl.to_nnf(f))
        neg = ltl.to_buchi(ltl.to_nnf(ltl.neg(f)))
        assert ltl.lasso_accepts(pos, u, v) == want
        assert ltl.lasso_accepts(neg, u, v) == (not want)
    elapsed = time.time() - t0
    assert elapsed < 30, f"translation check took {elapsed:.1f}s"
    ok(6, f"1000 formula/lasso pairs agree with direct evaluation "
          f"in {elapsed:.1f}s")


def _random_expr(rng, box):
    return AffineExpr.of(
        rng.randrange(-3, 7),
        {p: rng.randrange(-2, 3) for p in box.params if rng.random() < 0.5})


def _branch_at(branches, v, box):
    hits = [b for b in branches if v in ValuationSet(box, b.bits)]
    assert len(hits) <= 1, "branch extensions overlap"
    return hits[0] if hits else None


def _check_disjoint(branches, box):
    seen = 0
    for b in branches:
        bits = b.bits
        assert bits and seen & bits == 0
        seen |= bits


def _validate(op_name, z, branches, table, transform):
    """Per-valuation branch soundness of one operation application."""
    box = table.box
    _check_disjoint(branches, box)
    for v in ValuationSet(box, z.bits):
        m = od.from_valuation(z, v, table)
        keep = transform(m, v)
        got = _branch_at(branches, v, box)
        if not keep:
            assert got is None, op_name
        else:
            assert got is not None, op_name
            assert od.from_valuation(got, v, table) == m, op_name


def test_c7_zone_operation_fuzz():
    """10000 randomized operation sequences validated per valuation
    against the concrete oracle."""
    rng = random.Random(SEED ^ 0x5EED)
    t0 = time.time()
    operations = 0
    for _sequence in range(10000):
        n_clocks = rng.randrange(1, 4)
        params = {}
        for pname in ("p", "q")[: rng.randrange(1, 3)]:
            lo = rng.randrange(0, 3)
            params[pname] = (lo, lo + rng.randrange(1, 6 - lo))
        box = ParamBox.of(params)
        table = BoundTable(box)
        n = n_clocks + 1
        pool = [pdbm.initial_cpdbm(n_clocks, table)]
        for _ in range(rng.randrange(2, 5)):
            z = pool[rng.randrange(len(pool))]
            op = rng.choice(("guard", "reset", "up", "extrapolate"))
            if op == "guard":
                atoms = []
                for _ in range(rng.randrange(1, 3)):
                    c = rng.randrange(1, n)
                    i, j = (c, 0) if rng.random() < 0.5 else (0, c)
                    atoms.append((i, j, bound(_random_expr(rng, box),
                                              rng.random() < 0.4)))
                mid = pdbm.apply_guard(z, atoms, table)

                def guard_oracle(m, v, _atoms=atoms):
                    for (i, j, b) in _atoms:
                        od.constrain(m, i, j, (b.expr.eval(v), b.strict))
                    return True

                _validate("guard", z, mid, table, guard_oracle)
                out = []
                for w in mid:
                    got = pdbm.canonicalize(w, table)
                    _validate("canonicalize", w, got, table,
                              lambda m, v: od.close(m))
                    out.extend(got)
            elif op == "reset":
                clocks = [c for c in range(1, n) if rng.random() < 0.5]
                got = reset_zone(z, clocks)
                _validate("reset", z, [got], table,
                          lambda m, v: (od.reset(m, clocks), True)[1])
                out = [got]
            elif op == "up":
                got = reset_zone(z, (), release=True)
                _validate("up", z, [got], table,
                          lambda m, v: (od.up(m), True)[1])
                out = [got]
            else:
                maxima = [0] + [rng.randrange(0, 6) for _ in range(n_clocks)]
                got = pdbm.extrapolate(z, maxima, table)
                _validate("extrapolate", z, got, table,
                          lambda m, v: (od.extrapolate(m, maxima), True)[1])
                out = []
                for w in got:
                    out.extend(pdbm.canonicalize(w, table))
            if out:
                pool.extend(out[:3])
            operations += 1
    elapsed = time.time() - t0
    assert elapsed < 120, f"fuzz took {elapsed:.1f}s"
    ok(7, f"10000 operation sequences ({operations} applications) validated "
          f"against the oracle in {elapsed:.1f}s")


def test_c8_traingate_violations_inside_deadlock(corpus_results):
    """On the two-train fixture, every valuation violating the mutual
    exclusion or the response property is deadlock-implicated (checked via
    both engines' reports)."""
    for prop in ("G !(Train1.Cross && Train2.Cross)",
                 "G (Train1.Appr -> F Train1.Cross)"):
        sym, base = corpus_results[("traingate.pta", prop)]
        assert sym.accepted.subset(sym.deadlock)
        assert base.accepted.subset(base.deadlock)
    ok(8, "accepted valuations are a subset of the deadlock set for both "
          "properties and engines")


def test_c9_state_ratio_reported():
    """Widest 3-parameter box that stays well under the wall-clock cap:
    both engines agree, and the symbolic engine stores fewer states than
    the enumeration engine's zone states over all valuations, by more
    than a factor of 20."""
    net = load_model(fixture_path("traingate.pta"))
    box = net.box({"p1": (0, 8), "p2": (1, 8), "p3": (0, 8)})
    prop = "G !(Train1.Cross && Train2.Cross)"
    t0 = time.time()
    sym = synthesize(net, prop, box)
    base = enumerate_box(net, prop, box)
    elapsed = time.time() - t0
    assert elapsed < 600, f"comparison took {elapsed:.0f}s"
    assert sym.accepted.bits == base.accepted.bits
    assert sym.deadlock.bits == base.deadlock.bits
    ratio = sym.stats["stored_states"] / base.stats["zone_states_total"]
    assert 0 < ratio < 0.05, f"stored-state ratio {ratio:.4f}"
    ok(9, f"{box.size} valuations in {elapsed:.0f}s; stored-state ratio "
          f"{ratio:.4f} (symbolic {sym.stats['stored_states']} / enumerated "
          f"{base.stats['zone_states_total']})")
