"""Linear temporal logic: parsing, negation normal form, translation of a
formula to a Büchi automaton, and lasso-word membership.

Properties and models share one lexer, ``TokenCursor``: names, integers,
operators and ``#`` comments, with positions as (line, column).  Property
atoms are names, dotted names (``Train.Appr``) and comparisons of a data
variable with an integer constant, possibly negative (``w >= -1``).

The translation is the classic on-the-fly tableau (Gerth, Peled, Vardi,
Wolper, PSTV 1995): nodes carry the set of obligations for the current
position and for the next one, eventuality subformulas induce one
acceptance set each, and a counter product turns the generalized
acceptance into a single accepting set.  The tableau is a LIFO worklist of
nodes, the normal form a walk with its own stack, and a formula caches its
printed form and hash, so no step recurses over the formula and the width
of a property is not limited by Python's stack; only the parser recurses,
once per level of nesting.  Formulas are equal when their kinds and
printed forms are, which is structural equality: the printed form puts
parentheses around every operand, no name the parser builds is a keyword
or holds a space or a bracket, and a data atom prints with spaces
(``w >= -1``), so a printed form reads back as one tree only.

The tableau emits bisimilar copies: its initial state repeats the state
it enters, repeated or redundant subformulas give states with equal
labels and futures, and the counter product enters the accepting sink
through a copy of it.  The automaton the engines run on,
``negated_automaton``, is the translation reduced to its coarsest
bisimulation quotient (``bisimulation_quotient``; Etessami and Holzmann,
*Optimizing Büchi automata*, CONCUR 2000, reduce by simulation instead).
It must be a bisimulation and not a language-preserving reduction: the
product gives a location no edge when no automaton transition is enabled
on its label, and such a location counts as a deadlock.  A bisimulation
quotient leaves the product bisimilar, label-blocked locations included,
while a reduction by simulation or by language can add or remove them.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import KeysView, NamedTuple

from .errors import InputError

# Comparisons of a data atom (var, op, value), in property atoms and in
# model guards alike.
CMP_OPS = {"<=": operator.le, ">=": operator.ge, "==": operator.eq,
           "!=": operator.ne, "<": operator.lt, ">": operator.gt}


def holds(atom: tuple, vals) -> bool:
    """Does the data atom (var, op, value) hold under ``vals``?"""
    var, op, value = atom
    return CMP_OPS[op](vals[var], value)


# --- formulas ---------------------------------------------------------------


# How each kind but ``ap`` prints, from its children's printed forms.
_FORMAT = {"true": "true", "false": "false", "not": "!({})",
           "next": "X ({})", "finally": "F ({})", "globally": "G ({})",
           "and": "({}) && ({})", "or": "({}) || ({})",
           "until": "({}) U ({})", "release": "({}) R ({})"}


class Formula:
    """A formula node: its kind, its children and, for an atom, its payload
    (a plain or dotted name, or a (var, op, int) comparison).  The printed
    form ``key`` and the hash are computed once, from the children's, so
    that printing, hashing and comparing never recurse."""

    __slots__ = ("kind", "children", "atom", "key", "_hash")

    def __init__(self, kind: str, children: tuple["Formula", ...] = (),
                 atom: tuple | str | None = None):
        self.kind = kind
        self.children = children
        self.atom = atom
        if kind == "ap":
            self.key = "{} {} {}".format(*atom) if isinstance(atom, tuple) \
                else atom
        else:
            self.key = _FORMAT[kind].format(*(c.key for c in children))
        self._hash = hash(self.key)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        """Equal kinds and printed forms, which is structural equality."""
        if not isinstance(other, Formula):
            return NotImplemented
        return self.kind == other.kind and self.key == other.key

    def __str__(self):
        return self.key

    def __repr__(self):
        return f"Formula({self.key!r})"


TRUE = Formula("true")
FALSE = Formula("false")
_CONST = {"true": TRUE, "false": FALSE}


def ap(name: str) -> Formula:
    return Formula("ap", atom=name)


def data_ap(var: str, op: str, value: int) -> Formula:
    return Formula("ap", atom=(var, op, value))


def neg(f: Formula) -> Formula:
    return Formula("not", (f,))


def conj(a: Formula, b: Formula) -> Formula:
    return Formula("and", (a, b))


def disj(a: Formula, b: Formula) -> Formula:
    return Formula("or", (a, b))


def until(a: Formula, b: Formula) -> Formula:
    return Formula("until", (a, b))


def release(a: Formula, b: Formula) -> Formula:
    return Formula("release", (a, b))


def nxt(f: Formula) -> Formula:
    return Formula("next", (f,))


def eventually(f: Formula) -> Formula:
    return Formula("finally", (f,))


def always(f: Formula) -> Formula:
    return Formula("globally", (f,))


def atoms_of(f: Formula) -> KeysView:
    """The atoms of ``f``, in the order the formula first names them.  The
    walk keeps its own stack, so it takes formulas of any depth."""
    out: dict = {}
    stack = [f]
    while stack:
        g = stack.pop()
        if g.kind == "ap":
            out.setdefault(g.atom)
        else:
            stack.extend(reversed(g.children))
    return out.keys()


# --- tokens and parser ------------------------------------------------------


def _tokens(name: str) -> re.Pattern:
    """The token pattern of a language whose names match ``name``, applied
    line by line.  Longer operators come first so that they match before
    their prefixes."""
    return re.compile(r"""\s*(?:
    (?P<skip>\#.*)
  | (?P<int>\d+)
  | (?P<id>""" + name + r""")
  | (?P<op>&&|\|\||->|:=|\.\.|[<>=!]=|[-{}();:=<>!?+*,])
  | (?P<bad>\S))""", re.VERBOSE)


class TokenCursor:
    """Tokens of one input, ``(kind, text, line, column)`` with kind ``id``,
    ``int``, ``op`` or ``end`` (lines from 1, columns from 0), and a cursor
    over them with the token rules both languages share.  A subclass names
    its language: the operators it has (any other is an unexpected
    character), its token pattern and its syntax error kind.  A name starts
    with a letter or an underscore and goes on with letters, digits and
    underscores; the default pattern, the models', stops there."""

    ops: frozenset = frozenset()
    token = _tokens(r"[^\W\d]\w*")
    syntax = "syntax"

    def __init__(self, text: str):
        self.toks = []
        lines = text.split("\n")
        for line, part in enumerate(lines, 1):
            self._lex(part, line)
        self.toks.append(("end", "", len(lines), len(lines[-1])))
        self.i = 0

    def _lex(self, text: str, line: int):
        toks, ops = self.toks, self.ops
        for m in self.token.finditer(text):
            kind = m.lastgroup
            if kind == "skip":
                continue
            word = m.group(kind)
            tok = (kind, word, line, m.start(kind))
            if kind == "id":
                # \w also admits numerals that are not letters, such as "²"
                ok = word[0] < "\x80" or word[0].isalpha()
            else:
                ok = kind == "int" or word in ops
            if not ok:
                raise self.err(f"unexpected character {word[0]!r}", tok=tok)
            toks.append(tok)

    def peek(self):
        return self.toks[self.i]

    def take(self):
        """The next token; the end token is never passed, so that an
        error raised after taking it can still point at it."""
        t = self.toks[self.i]
        if t[0] != "end":
            self.i += 1
        return t

    def err(self, msg, kind=None, tok=None) -> InputError:
        """An error at ``tok``, by default the next token."""
        _, _, line, col = tok or self.toks[self.i]
        return InputError(f"line {line}, column {col}: {msg}",
                          kind=kind or self.syntax, pos=(line, col))

    def expect(self, text):
        t = self.take()
        if t[1] != text:
            raise self.err(f"expected {text!r}, found {t[1]!r}", tok=t)

    def ident(self, what="identifier"):
        t = self.take()
        if t[0] != "id":
            raise self.err(f"expected {what}, found {t[1]!r}", tok=t)
        return t[1]

    def integer(self):
        sign = 1
        if self.peek()[1] == "-":
            self.take()
            sign = -1
        t = self.take()
        if t[0] != "int":
            raise self.err(f"expected integer, found {t[1]!r}", tok=t)
        return sign * int(t[1])


_KEYWORDS = {"U", "R", "G", "F", "X", "and", "or", "true", "false"}


class _Parser(TokenCursor):
    """Precedence (tightest first): !, X, G, F; U, R; &&; ||; -> (right)."""

    ops = frozenset({"&&", "||", "->", "!", "(", ")", "-", *CMP_OPS})
    token = _tokens(r"[^\W\d][\w.]*")  # names may hold dots
    syntax = "ltl-syntax"

    def parse(self):
        f = self.implies()
        t = self.peek()
        if t[0] != "end":
            raise self.err(f"unexpected {t[1]!r}")
        return f

    def implies(self):
        left = self.disj()
        if self.peek()[1] == "->":
            self.take()
            right = self.implies()
            return disj(neg(left), right)
        return left

    def disj(self):
        f = self.conj()
        while self.peek()[1] in ("||", "or"):
            self.take()
            f = disj(f, self.conj())
        return f

    def conj(self):
        f = self.binary_temporal()
        while self.peek()[1] in ("&&", "and"):
            self.take()
            f = conj(f, self.binary_temporal())
        return f

    def binary_temporal(self):
        left = self.unary()
        t = self.peek()[1]
        if t in ("U", "R"):
            self.take()
            right = self.binary_temporal()
            return until(left, right) if t == "U" else release(left, right)
        return left

    def unary(self):
        t = self.peek()[1]
        if t == "!":
            self.take()
            return neg(self.unary())
        if t in ("X", "G", "F"):
            self.take()
            sub = self.unary()
            return {"X": nxt, "G": always, "F": eventually}[t](sub)
        return self.atom()

    def atom(self):
        t = self.take()
        kind, text = t[0], t[1]
        if text == "(":
            f = self.implies()
            self.expect(")")
            return f
        if text == "true":
            return TRUE
        if text == "false":
            return FALSE
        if kind == "id" and text not in _KEYWORDS:
            if self.peek()[1] in CMP_OPS:
                if "." in text:
                    raise self.err(f"comparison on dotted name {text!r}",
                                   tok=t)
                op = self.take()[1]
                return data_ap(text, op, self.integer())
            return ap(text)
        raise self.err(f"unexpected {text!r}", tok=t)


def parse_ltl(text: str) -> Formula:
    """The formula of ``text``.  The parser recurses once per level of
    nesting, so a property nested deeper than Python's stack allows is
    rejected as ltl-syntax input."""
    try:
        return _Parser(text).parse()
    except RecursionError:
        raise InputError("property nested too deeply to parse",
                         kind="ltl-syntax") from None


# --- negation normal form ---------------------------------------------------


# Negation swaps each kind with its dual; F and G are first read as
# ``true U a`` and ``false R a``.
_DUAL = {"and": "or", "or": "and", "until": "release", "release": "until",
         "true": "false", "false": "true", "next": "next"}
_SUGAR = {"finally": ("until", TRUE), "globally": ("release", FALSE)}


def to_nnf(f: Formula) -> Formula:
    """Push negations to the atoms; rewrite F/G into U/R.  One walk with
    its own stack, so it takes formulas of any depth: a work item is a
    subformula under a negation flag, or a kind whose n children's normal
    forms are the last n on ``done``."""
    done: list[Formula] = []
    work: list = [(False, f)]
    while work:
        negated, g = work.pop()
        if negated is None:
            k, n = g
            kids = tuple(done[-n:])
            del done[-n:]
            done.append(Formula(k, kids))
            continue
        k, kids = g.kind, g.children
        if k in _SUGAR:
            k, first = _SUGAR[k]
            kids = (first, kids[0])
        if k == "not":
            work.append((not negated, kids[0]))
        elif k == "ap":
            done.append(neg(g) if negated else g)
        elif k in _CONST:
            done.append(_CONST[_DUAL[k] if negated else k])
        else:
            work.append((None, (_DUAL[k] if negated else k, len(kids))))
            work.extend((negated, c) for c in reversed(kids))
    return done[0]


# --- Büchi automata ---------------------------------------------------------


class Transition(NamedTuple):
    src: int
    pos: frozenset
    negs: frozenset
    dst: int

    def enabled(self, letter: frozenset) -> bool:
        return self.pos <= letter and not (self.negs & letter)


@dataclass
class BuchiAutomaton:
    n_states: int
    initial: int
    transitions: list[Transition]
    accepting: frozenset

    def outgoing(self, q: int) -> list[Transition]:
        return self._out[q]

    @cached_property
    def _out(self):
        table = [[] for _ in range(self.n_states)]
        for t in self.transitions:
            table[t.src].append(t)
        return table

    def dump(self) -> str:
        lines = [f"states: {self.n_states}",
                 f"initial: {self.initial}",
                 "accepting: " + " ".join(str(q) for q in sorted(self.accepting))]
        for t in self.transitions:
            lits = [_atom_str(a) for a in sorted(t.pos, key=_atom_str)]
            lits += ["!" + _atom_str(a) for a in sorted(t.negs, key=_atom_str)]
            label = ",".join(lits) if lits else "true"
            lines.append(f"{t.src} -- {label} -> {t.dst}")
        return "\n".join(lines)


def _atom_str(a) -> str:
    if isinstance(a, tuple):
        return f"{a[0]}{a[1]}{a[2]}"
    return a


class _Node:
    __slots__ = ("incoming", "new", "old", "nxt")

    def __init__(self, incoming, new, old, nxt):
        self.incoming = set(incoming)
        self.new = set(new)
        self.old = set(old)
        self.nxt = set(nxt)


def _tableau(f: Formula) -> list[_Node]:
    """The finished tableau nodes of ``f`` in the order they finish, which
    numbers them from 1 (0 is the initial state).  A LIFO worklist in place
    of recursion: a split pushes its right node and then its left one, and
    a finished node pushes its successor, so nodes are visited depth first,
    left before right."""
    finished: dict[tuple[frozenset, frozenset], _Node] = {}
    work = [_Node({0}, {f}, set(), set())]
    while work:
        node = work.pop()
        if FALSE in node.new:
            # taking false up kills the node, and every node split from it
            # inherits false: drop them all before any work
            continue
        if not node.new:
            # a node with the same obligations takes over the incoming
            # edges; a finished node's sets are frozen and key it
            node.old, node.nxt = frozenset(node.old), frozenset(node.nxt)
            key = (node.old, node.nxt)
            if key in finished:
                finished[key].incoming |= node.incoming
            else:
                finished[key] = node
                work.append(_Node({len(finished)}, node.nxt, set(), set()))
            continue
        g = min(node.new, key=lambda h: h.key)
        node.new.discard(g)
        k = g.kind
        if (k == "not" and g.children[0] in node.old) \
                or (k == "ap" and neg(g) in node.old):
            continue
        if k in ("or", "until", "release"):
            a, b = g.children
            old = node.old | {g}
            left, right = ({b}, {a, b}) if k == "release" else ({a}, {b})
            work.append(_Node(node.incoming, node.new | (right - old), old,
                              node.nxt))
            work.append(_Node(node.incoming, node.new | (left - old), old,
                              node.nxt | ({g} if k != "or" else set())))
            continue
        if k not in ("true", "ap", "not", "and", "next"):
            raise ValueError(f"formula not in normal form: {g}")
        # "true" is recorded too, so an until fulfilled by it counts
        node.old.add(g)
        if k == "and":
            node.new |= set(g.children) - node.old
        elif k == "next":
            node.nxt.add(g.children[0])
        work.append(node)
    return list(finished.values())


def to_buchi(f: Formula) -> BuchiAutomaton:
    """Tableau translation of a negation-normal-form formula, degeneralized
    to a single accepting set with the usual counter product."""
    nodes = _tableau(f)

    untils = sorted(
        {g for nd in nodes for g in nd.old if g.kind == "until"},
        key=lambda g: g.key)
    acc_sets = [
        frozenset(seq for seq, nd in enumerate(nodes, 1)
                  if g not in nd.old or g.children[1] in nd.old)
        for g in untils
    ]

    raw_edges = []  # (src, pos, negs, dst) over tableau states
    for seq, nd in enumerate(nodes, 1):
        pos = frozenset(g.atom for g in nd.old if g.kind == "ap")
        negs = frozenset(g.children[0].atom for g in nd.old if g.kind == "not")
        for src in sorted(nd.incoming):
            raw_edges.append((src, pos, negs, seq))

    m = len(acc_sets)
    if m == 0:
        trans = [Transition(s, p, ng, d) for s, p, ng, d in raw_edges]
        return BuchiAutomaton(len(nodes) + 1, 0, trans,
                              frozenset(range(len(nodes) + 1)))

    out_by_src: dict[int, list] = {}
    for e in raw_edges:
        out_by_src.setdefault(e[0], []).append(e)

    def copy_after(q: int, c: int) -> int:
        return c + 1 if c < m and q in acc_sets[c] else c

    # states are (tableau state, counter) pairs; counter m is the accepting
    # flash and immediately restarts at 0
    order, state_id = _numbering((0, 0))
    trans = []
    for src, (q, c) in enumerate(order):
        base = 0 if c == m else c
        for (_, pos, negs, dst) in out_by_src.get(q, []):
            trans.append(Transition(src, pos, negs,
                                    state_id((dst, copy_after(dst, base)))))
    accepting = frozenset(i for i, (_, c) in enumerate(order) if c == m)
    return BuchiAutomaton(len(order), 0, trans, accepting)


def bisimulation_quotient(
        aut: BuchiAutomaton) -> tuple[BuchiAutomaton, list[int]]:
    """The coarsest bisimulation quotient of ``aut`` and the quotient
    state of each of its states.  Two states are bisimilar when both or
    neither accept and, for every transition of one, the other has a
    transition with the same label (``pos``, ``negs``) to a bisimilar
    state.  Every state of ``aut`` must be reachable from its initial
    state, as every state of ``to_buchi``'s is.

    Signature refinement over labels interned to ints: the first partition
    is the accepting flag, and each round splits blocks by the set of
    (label, block of ``dst``) of their states' transitions until no block
    splits.  Blocks are numbered in discovery order from the initial
    state; each takes its first state's transitions in their order, one
    per (label, block).  Labels are compared by equality and states by
    number, so the result does not depend on the hash seed, and the
    quotient of a quotient is the same automaton."""
    n = aut.n_states
    # per state, its transitions as (label id * n, dst): a label and a
    # block add up to one int
    ids: dict = {}
    out: list[list] = [[] for _ in range(n)]
    for t in aut.transitions:
        out[t.src].append(
            (ids.setdefault((t.pos, t.negs), len(ids)) * n, t.dst))
    labels = list(ids)
    block = [q in aut.accepting for q in range(n)]
    count = len(set(block))
    while True:
        sigs: dict = {}
        block = [sigs.setdefault(
            (b, frozenset([lab + block[d] for lab, d in o])), len(sigs))
            for b, o in zip(block, out)]
        if len(sigs) == count:
            break
        count = len(sigs)
    first: dict[int, int] = {}
    for q in range(n - 1, -1, -1):
        first[block[q]] = q
    num = {block[aut.initial]: 0}
    order = [block[aut.initial]]
    trans = []
    for src, b in enumerate(order):
        seen = set()
        for lab, d in out[first[b]]:
            to = block[d]
            if lab + to not in seen:
                seen.add(lab + to)
                if to not in num:
                    num[to] = len(order)
                    order.append(to)
                trans.append(Transition(src, *labels[lab // n], num[to]))
    return (BuchiAutomaton(len(order), 0, trans,
                           frozenset(num[block[q]] for q in aut.accepting)),
            [num[b] for b in block])


def negated_automaton(f: Formula) -> BuchiAutomaton:
    """The Büchi automaton of ``!f``, which accepts the runs that violate
    ``f``: the tableau translation ``to_buchi`` reduced to its
    ``bisimulation_quotient``.  A product with the quotient is bisimilar to
    the product with the translation, label-blocked locations and all, so
    both engines find the same zones, accepting cycles and deadlocks on a
    smaller product."""
    return bisimulation_quotient(to_buchi(to_nnf(neg(f))))[0]


def _numbering(init):
    """Dense state numbers in discovery order.  Returns the list of states
    and the function that numbers a state, appending it when new, so that
    ``for st in order`` visits every state numbered while it runs."""
    index = {init: 0}
    order = [init]

    def state_id(st) -> int:
        if st not in index:
            index[st] = len(order)
            order.append(st)
        return index[st]

    return order, state_id


def lasso_accepts(aut: BuchiAutomaton, prefix, period) -> bool:
    """Does the automaton accept the word prefix . period^omega?

    Letters are sets of atoms.  The product with the lasso positions is
    explored and an accepting product state is searched for on a cycle
    (``model._accepting_cycle``).
    """
    from .model import _accepting_cycle  # model imports this module

    if not period:
        raise ValueError("period must be non-empty")
    letters = [frozenset(a) for a in list(prefix) + list(period)]
    order, state_id = _numbering((0, aut.initial))
    edges = []
    for k, (i, q) in enumerate(order):
        nxt = i + 1 if i + 1 < len(letters) else len(prefix)
        for t in aut.outgoing(q):
            if t.enabled(letters[i]):
                edges.append((k, state_id((nxt, t.dst))))
    return _accepting_cycle([q in aut.accepting for _, q in order], edges)
