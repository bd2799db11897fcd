import hashlib
import random

import pytest

import oracle_ltl as ol
from conftest import CORPUS, load_fuzzgen
from ptasynth import ltl
from ptasynth.errors import InputError
from ptasynth.model import parse_model

fuzzgen = load_fuzzgen()


class TestParser:
    def test_negated_conjunction(self):
        f = ltl.parse_ltl("G !(a and b)")
        assert f == ltl.always(ltl.neg(ltl.conj(ltl.ap("a"), ltl.ap("b"))))

    def test_unary_binds_tighter_than_implies(self):
        f = ltl.parse_ltl("G a -> F b")
        # desugared implication: !(G a) || F b
        assert f == ltl.disj(ltl.neg(ltl.always(ltl.ap("a"))),
                             ltl.eventually(ltl.ap("b")))

    def test_true(self):
        assert ltl.parse_ltl("true") is ltl.TRUE

    def test_dotted_atoms(self):
        f = ltl.parse_ltl("G (Train1.appr -> F Train1.cross)")
        assert ltl.atoms_of(f) == {"Train1.appr", "Train1.cross"}

    def test_data_comparison_atom(self):
        for text, atom in (("F (len >= 2)", ("len", ">=", 2)),
                           ("F w == -1", ("w", "==", -1)),
                           ("G w >= -2", ("w", ">=", -2))):
            assert ltl.atoms_of(ltl.parse_ltl(text)) == {atom}

    def test_until_binds_tighter_than_and(self):
        f = ltl.parse_ltl("a && b U c")
        assert f.kind == "and"
        assert f.children[1].kind == "until"

    def test_implies_right_associative(self):
        f = ltl.parse_ltl("a -> b -> c")
        # a -> (b -> c)
        assert f == ltl.disj(ltl.neg(ltl.ap("a")),
                             ltl.disj(ltl.neg(ltl.ap("b")), ltl.ap("c")))

    def test_syntax_error_has_position(self):
        # (line, column), lines from 1 and columns from 0; model names
        # never contain dots; input that ends early points at its end
        for parse, text, kind, pos in (
                (ltl.parse_ltl, "G (a &&)", "ltl-syntax", (1, 7)),
                (parse_model, "param p = 0..1\nclock x\nchan go$\n",
                 "model-syntax", (3, 7)),
                (parse_model, "clock x.y\n", "model-syntax", (1, 7)),
                (parse_model, "component A {", "model-syntax", (1, 13))):
            with pytest.raises(InputError) as err:
                parse(text)
            assert (err.value.kind, err.value.pos) == (kind, pos), text

    def test_word_operators(self):
        assert ltl.parse_ltl("a and b or c") == ltl.parse_ltl("a && b || c")


class TestNnf:
    def test_not_globally(self):
        got = ltl.to_nnf(ltl.neg(ltl.always(ltl.ap("a"))))
        assert got == ltl.until(ltl.TRUE, ltl.neg(ltl.ap("a")))

    def test_double_negation(self):
        assert ltl.to_nnf(ltl.neg(ltl.neg(ltl.ap("a")))) == ltl.ap("a")

    def test_not_until(self):
        got = ltl.to_nnf(ltl.neg(ltl.until(ltl.ap("a"), ltl.ap("b"))))
        assert got == ltl.release(ltl.neg(ltl.ap("a")), ltl.neg(ltl.ap("b")))

    def test_negations_only_on_atoms(self, rng):
        def check(f):
            if f.kind == "not":
                assert f.children[0].kind == "ap"
            for c in f.children:
                check(c)

        for _ in range(100):
            f = ol.random_formula(rng, ["a", "b", "c"], 4)
            g = ltl.to_nnf(f)
            check(g)
            assert all(k not in _kinds(g) for k in ("finally", "globally"))


def _kinds(f):
    out = {f.kind}
    for c in f.children:
        out |= _kinds(c)
    return out


def walk_equal(f, g) -> bool:
    """Structural equality as a walk with an explicit stack: kinds, atoms
    and children pairwise.  ``Formula.__eq__`` compares kinds and printed
    forms instead."""
    pairs = [(f, g)]
    while pairs:
        f, g = pairs.pop()
        if f.kind != g.kind or f.atom != g.atom:
            return False
        pairs.extend(zip(f.children, g.children))
    return True


def test_equality_is_structural():
    # every pair of the corpus properties, the properties of the first
    # 1,000 generator-seed-1 fuzz jobs and random depth-4 formulas over
    # dotted names and data atoms with negative constants, each formula
    # also parsed back from its printed form as a distinct equal tree
    rng = random.Random(1)
    texts = [p for ps in CORPUS.values() for p in ps]
    for _ in range(1000):
        _, labels = fuzzgen.random_model(rng)
        texts.append(fuzzgen.random_property(rng, labels))
    atoms = ["a", "b", "P1.CS", "Train1.Appr", ("c", ">=", -1),
             ("c", "<=", 0), ("c", "==", -12), ("w", "!=", -1)]
    rng = random.Random(2)
    pool = [ltl.parse_ltl(p) for p in dict.fromkeys(texts)] + [
        ol.random_formula(rng, atoms, 4) for _ in range(250)]
    pool += [ltl.parse_ltl(f.key) for f in pool]
    equal = 0
    for f in pool:
        for g in pool:
            same = walk_equal(f, g)
            assert (f == g) == same, (f, g)
            equal += same
    assert equal > len(pool)


class TestBuchi:
    def test_true_universal(self):
        aut = ltl.to_buchi(ltl.to_nnf(ltl.TRUE))
        assert ltl.lasso_accepts(aut, [], [set()])
        assert ltl.lasso_accepts(aut, [{"a"}], [{"a", "b"}, set()])

    def test_false_empty(self):
        aut = ltl.to_buchi(ltl.to_nnf(ltl.FALSE))
        assert not ltl.lasso_accepts(aut, [], [set()])

    def test_eventually(self):
        aut = ltl.to_buchi(ltl.to_nnf(ltl.parse_ltl("F a")))
        assert ltl.lasso_accepts(aut, [set()], [{"a"}])
        assert not ltl.lasso_accepts(aut, [], [set()])
        assert ltl.lasso_accepts(aut, [{"a"}], [set()])

    def test_all_states_reachable(self):
        aut = ltl.to_buchi(ltl.to_nnf(ltl.parse_ltl("(a U b) && G (c -> X a)")))
        seen = {aut.initial}
        work = [aut.initial]
        while work:
            q = work.pop()
            for t in aut.outgoing(q):
                if t.dst not in seen:
                    seen.add(t.dst)
                    work.append(t.dst)
        assert seen == set(range(aut.n_states))

    def test_random_against_direct_evaluation(self, rng):
        for _ in range(150):
            f = ol.random_formula(rng, ["a", "b", "c"], rng.randrange(1, 5))
            u, v = ol.random_lasso(rng, ["a", "b", "c"], 6, 6)
            want = ol.holds_on_lasso(f, u, v)
            aut = ltl.to_buchi(ltl.to_nnf(f))
            assert ltl.lasso_accepts(aut, u, v) == want
            naut = ltl.to_buchi(ltl.to_nnf(ltl.neg(f)))
            assert ltl.lasso_accepts(naut, u, v) == (not want)

    def test_dump_format(self):
        aut = ltl.to_buchi(ltl.to_nnf(ltl.parse_ltl("F a")))
        text = aut.dump()
        assert text.startswith("states:")
        assert "initial: 0" in text
        assert "accepting:" in text
        assert " -- " in text and " -> " in text


def translation_formulas() -> list:
    """The corpus properties, the properties of the first 1,000
    generator-seed-1 fuzz jobs and 300 random formulas of depth 4 over
    three atoms (Random(1)), in that order."""
    rng = random.Random(1)
    props = [p for ps in CORPUS.values() for p in ps]
    for _ in range(1000):
        _, labels = fuzzgen.random_model(rng)
        props.append(fuzzgen.random_property(rng, labels))
    rng = random.Random(1)
    return [ltl.parse_ltl(p) for p in props] + [
        ol.random_formula(rng, ["a", "b", "c"], 4) for _ in range(300)]


def raw_negated(f):
    """The tableau translation of ``!f``, before the quotient."""
    return ltl.to_buchi(ltl.to_nnf(ltl.neg(f)))


# sha256 over the dumps of the negated automata of ``translation_formulas``,
# one per line: the tableau translation and its quotient, the automaton
# the engines run on
TRANSLATION_DIGEST = \
    "72f935fcee12dcc61f10101f37e21d34d2ddfe48a6157e556ce1a4c2addd135c"
QUOTIENT_DIGEST = \
    "e6a276a8433ccd0d1c52a855465bd99dfeff1d1e065517a816e5971d272a8c91"


def test_translation_pinned():
    # state numbers, transition order and labels are part of the output:
    # the product's locations follow them
    raw, reduced = hashlib.sha256(), hashlib.sha256()
    for f in translation_formulas():
        raw.update(raw_negated(f).dump().encode() + b"\n")
        reduced.update(ltl.negated_automaton(f).dump().encode() + b"\n")
    assert (raw.hexdigest(), reduced.hexdigest()) == \
        (TRANSLATION_DIGEST, QUOTIENT_DIGEST)


def test_width_is_not_a_stack_limit():
    # normal form, tableau, quotient, hashing and printing keep their own
    # stacks, so a thousand conjuncts translate far below Python's default
    # recursion limit; only the parser recurses, once per level of nesting.
    # The tableau waits, violates one conjunct and accepts: 1,003 states,
    # two in the quotient
    import subprocess
    import sys

    code = (
        "import sys\n"
        "from ptasynth import ltl\n"
        "prop = 'G (' + ' && '.join(f'a{i}' for i in range(1000)) + ')'\n"
        "sys.setrecursionlimit(100)\n"
        "f = ltl.parse_ltl(prop)\n"
        "raw = ltl.to_buchi(ltl.to_nnf(ltl.neg(f)))\n"
        "print(raw.n_states, ltl.negated_automaton(f).n_states)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1003 2\n"


def test_nested_eventualities_stay_linear(monkeypatch):
    # the negation of F F ... F a is false R (false R ...): the right node
    # of every split takes false up and dies.  Dropped before any work,
    # the tableau grows linearly with the nesting (4k + 2 nodes here);
    # expanding the dying nodes doubles the work per level (2^(k+2) - 2)
    made = []

    class Counted(ltl._Node):
        __slots__ = ()

        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(ltl, "_Node", Counted)
    aut = raw_negated(ltl.parse_ltl("F " * 12 + "a"))
    assert aut.n_states == 2
    assert len(made) <= 4 * 12 + 2


class TestQuotient:
    """``bisimulation_quotient`` on the tableau translations of
    ``translation_formulas``."""

    @pytest.fixture(scope="class")
    def pairs(self):
        return [(f, raw_negated(f)) for f in translation_formulas()]

    def test_block_map_is_a_bisimulation(self, pairs):
        # both ways: every transition of a state has one with the same
        # label into the same block from the state's block, and back;
        # acceptance and the initial state are kept; no block repeats a
        # (label, block) pair; the engines' automaton is that quotient
        for f, raw in pairs:
            quo, block = ltl.bisimulation_quotient(raw)
            assert quo.dump() == ltl.negated_automaton(f).dump(), f
            assert len(block) == raw.n_states, f
            assert set(block) == set(range(quo.n_states)), f
            assert block[raw.initial] == quo.initial, f
            for q in range(raw.n_states):
                assert (q in raw.accepting) == \
                    (block[q] in quo.accepting), f
                moves = {(t.pos, t.negs, block[t.dst])
                         for t in raw.outgoing(q)}
                out = [(t.pos, t.negs, t.dst)
                       for t in quo.outgoing(block[q])]
                assert set(out) == moves, f
                assert len(out) == len(moves), f

    def test_lasso_words_agree(self, pairs):
        rng = random.Random(2)
        for f, raw in pairs:
            quo = ltl.negated_automaton(f)
            atoms = sorted(ltl.atoms_of(f), key=str) or ["a"]
            for _ in range(3):
                u, v = ol.random_lasso(rng, atoms, 4, 4)
                assert ltl.lasso_accepts(quo, u, v) == \
                    ltl.lasso_accepts(raw, u, v), f

    def test_quotient_is_stable(self, pairs):
        for f, _ in pairs:
            quo = ltl.negated_automaton(f)
            again, block = ltl.bisimulation_quotient(quo)
            assert again.dump() == quo.dump(), f
            assert block == list(range(quo.n_states)), f

    def test_repeated_conjunct(self):
        # the tableau keeps a state per copy of !a; bisimilar, they merge
        many = ltl.parse_ltl("G (a && a && a)")
        assert raw_negated(many).n_states > \
            raw_negated(ltl.parse_ltl("G a")).n_states
        assert ltl.negated_automaton(many).dump() == \
            ltl.negated_automaton(ltl.parse_ltl("G a")).dump()

    def test_output_does_not_depend_on_the_hash_seed(self):
        import os
        import subprocess
        import sys

        code = (
            "from ptasynth import ltl\n"
            "for p in ['G F a', 'G (a && a && a)', 'G (a -> F b)',\n"
            "          'G ((a U b) -> F (c && X d))', 'F G (x >= 1 || y)']:\n"
            "    print(ltl.negated_automaton(ltl.parse_ltl(p)).dump())\n")
        outs = []
        for seed in ("0", "1", "4242"):
            proc = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                env=dict(os.environ, PYTHONHASHSEED=seed))
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1] == outs[2]


class TestLassoMembership:
    def test_empty_period_rejected(self):
        aut = ltl.to_buchi(ltl.to_nnf(ltl.TRUE))
        with pytest.raises(ValueError):
            ltl.lasso_accepts(aut, [set()], [])

    def test_no_accepting_state(self):
        aut = ltl.BuchiAutomaton(1, 0, [ltl.Transition(
            0, frozenset(), frozenset(), 0)], frozenset())
        assert not ltl.lasso_accepts(aut, [], [set()])
