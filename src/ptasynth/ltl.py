"""Linear temporal logic: parsing, negation normal form, translation of a
formula to a Büchi automaton, and lasso-word membership.

Properties and models share one lexer, ``TokenCursor``: names, integers,
operators and ``#`` comments, with positions as (line, column).  Property
atoms are names, dotted names (``Train.Appr``) and comparisons of a data
variable with an integer constant, possibly negative (``w >= -1``).

The translation is the classic on-the-fly tableau: nodes carry the set of
obligations for the current position and for the next one, eventuality
subformulas induce one acceptance set each, and a counter product turns the
generalized acceptance into a single accepting set.  No attempt is made to
minimize the automaton; inputs here are small.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import KeysView

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


@dataclass(frozen=True)
class Formula:
    kind: str
    children: tuple["Formula", ...] = ()
    # atom payload: plain/dotted name, or (var, op, int) comparison
    atom: tuple | str | None = None

    @cached_property
    def key(self) -> str:
        return str(self)

    def __str__(self):
        k = self.kind
        if k == "ap":
            if isinstance(self.atom, tuple):
                var, op, val = self.atom
                return f"{var} {op} {val}"
            return self.atom
        if k in ("true", "false"):
            return k
        a = self.children
        if k == "not":
            return f"!({a[0]})"
        if k in ("next", "finally", "globally"):
            sym = {"next": "X", "finally": "F", "globally": "G"}[k]
            return f"{sym} ({a[0]})"
        sym = {"and": "&&", "or": "||", "until": "U", "release": "R"}[k]
        return f"({a[0]}) {sym} ({a[1]})"


TRUE = Formula("true")
FALSE = Formula("false")


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

# Applied line by line.  A name starts with a letter or an underscore and
# goes on with letters, digits, underscores and, in properties only, dots.
# Longer operators come first so that they match before their prefixes.
_TOKEN = re.compile(r"""\s*(?:
    (?P<skip>\#.*)
  | (?P<int>\d+)
  | (?P<id>[^\W\d][\w.]*)
  | (?P<op>&&|\|\||->|:=|\.\.|[<>=!]=|[-{}();:=<>!?+*,])
  | (?P<bad>\S))""", re.VERBOSE)


class TokenCursor:
    """Tokens of one input, ``(kind, text, line, column)`` with kind ``id``,
    ``int``, ``op`` or ``end`` (lines from 1, columns from 0), and a cursor
    over them with the token rules both languages share.  A subclass names
    its language: the operators it has (any other is an unexpected
    character), whether names may contain dots, and its syntax error kind."""

    ops: frozenset = frozenset()
    dotted = False
    syntax = "syntax"

    def __init__(self, text: str):
        self.toks = []
        lines = text.split("\n")
        for line, part in enumerate(lines, 1):
            self._lex(part, line, 0)
        self.toks.append(("end", "", len(lines), len(lines[-1])))
        self.i = 0

    def _lex(self, text: str, line: int, offset: int):
        toks, ops = self.toks, self.ops
        for m in _TOKEN.finditer(text):
            kind = m.lastgroup
            if kind == "skip":
                continue
            word = m.group(kind)
            col = m.start(kind) + offset
            if kind == "id":
                # \w also admits numerals that are not letters, such as "²"
                ok = word[0] < "\x80" or word[0].isalpha()
                if ok and "." in word and not self.dotted:
                    # the name ends at the dot; what follows is lexed anew
                    cut = word.index(".")
                    toks.append((kind, word[:cut], line, col))
                    self._lex(word[cut:], line, col + cut)
                    continue
            else:
                ok = kind == "int" or word in ops
            tok = (kind, word, line, col)
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
    dotted = True
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


def to_nnf(f: Formula) -> Formula:
    """Push negations to the atoms; rewrite F/G into U/R."""
    return _nnf(f, False)


def _nnf(f: Formula, negated: bool) -> Formula:
    k = f.kind
    if k == "true":
        return FALSE if negated else TRUE
    if k == "false":
        return TRUE if negated else FALSE
    if k == "ap":
        return neg(f) if negated else f
    if k == "not":
        return _nnf(f.children[0], not negated)
    if k == "and":
        a, b = (_nnf(c, negated) for c in f.children)
        return disj(a, b) if negated else conj(a, b)
    if k == "or":
        a, b = (_nnf(c, negated) for c in f.children)
        return conj(a, b) if negated else disj(a, b)
    if k == "next":
        return nxt(_nnf(f.children[0], negated))
    if k == "until":
        a, b = (_nnf(c, negated) for c in f.children)
        return release(a, b) if negated else until(a, b)
    if k == "release":
        a, b = (_nnf(c, negated) for c in f.children)
        return until(a, b) if negated else release(a, b)
    if k == "finally":
        sub = _nnf(f.children[0], negated)
        return release(FALSE, sub) if negated else until(TRUE, sub)
    if k == "globally":
        sub = _nnf(f.children[0], negated)
        return until(TRUE, sub) if negated else release(FALSE, sub)
    raise ValueError(f"unknown formula kind {k}")


# --- Büchi automata ---------------------------------------------------------


@dataclass(frozen=True)
class Transition:
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
    __slots__ = ("incoming", "new", "old", "nxt", "seq")

    def __init__(self, incoming, new, old, nxt):
        self.incoming = set(incoming)
        self.new = set(new)
        self.old = set(old)
        self.nxt = set(nxt)
        self.seq = None


def _expand(node: _Node, done: list[_Node]) -> None:
    if not node.new:
        for other in done:
            if other.old == node.old and other.nxt == node.nxt:
                other.incoming |= node.incoming
                return
        node.seq = len(done) + 1  # 0 is reserved for the initial state
        done.append(node)
        _expand(_Node({node.seq}, node.nxt, set(), set()), done)
        return
    f = min(node.new, key=lambda g: g.key)
    node.new.discard(f)
    k = f.kind
    if k == "false" or (k == "not" and f.children[0] in node.old) \
            or (k == "ap" and neg(f) in node.old):
        return
    if k == "true":
        node.old.add(f)  # recorded so an until fulfilled by "true" counts
        _expand(node, done)
        return
    if k in ("ap", "not"):
        node.old.add(f)
        _expand(node, done)
        return
    if k == "and":
        node.old.add(f)
        node.new |= set(f.children) - node.old
        _expand(node, done)
        return
    if k == "next":
        node.old.add(f)
        node.nxt.add(f.children[0])
        _expand(node, done)
        return
    a, b = f.children
    left = _Node(node.incoming, set(node.new), set(node.old) | {f},
                 set(node.nxt))
    right = _Node(node.incoming, set(node.new), set(node.old) | {f},
                  set(node.nxt))
    if k == "or":
        left.new |= {a} - left.old
        right.new |= {b} - right.old
    elif k == "until":
        left.new |= {a} - left.old
        left.nxt.add(f)
        right.new |= {b} - right.old
    elif k == "release":
        left.new |= {b} - left.old
        left.nxt.add(f)
        right.new |= {a, b} - right.old
    else:
        raise ValueError(f"formula not in normal form: {f}")
    _expand(left, done)
    _expand(right, done)


def to_buchi(f: Formula) -> BuchiAutomaton:
    """Tableau translation of a negation-normal-form formula, degeneralized
    to a single accepting set with the usual counter product."""
    root = _Node({0}, {f}, set(), set())
    nodes: list[_Node] = []
    _expand(root, nodes)

    untils = sorted(
        {g for nd in nodes for g in nd.old if g.kind == "until"},
        key=lambda g: g.key)
    acc_sets = [
        frozenset(nd.seq for nd in nodes
                  if g not in nd.old or g.children[1] in nd.old)
        for g in untils
    ]

    raw_edges = []  # (src, pos, negs, dst) over tableau states
    for nd in nodes:
        pos = frozenset(g.atom for g in nd.old if g.kind == "ap")
        negs = frozenset(g.children[0].atom for g in nd.old if g.kind == "not")
        for src in sorted(nd.incoming):
            raw_edges.append((src, pos, negs, nd.seq))

    m = len(acc_sets)
    if m == 0:
        trans = [Transition(s, p, ng, d) for s, p, ng, d in raw_edges]
        aut = BuchiAutomaton(len(nodes) + 1, 0, trans,
                             frozenset(range(len(nodes) + 1)))
        return _prune(aut)

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
    aut = BuchiAutomaton(len(order), 0, trans, accepting)
    return _prune(aut)


def negated_automaton(f: Formula) -> BuchiAutomaton:
    """The Büchi automaton of ``!f``, which accepts the runs that violate
    ``f``.  Normal form and tableau recurse over the formula, so one too
    deep for Python's stack is rejected as ltl-syntax input."""
    try:
        return to_buchi(to_nnf(neg(f)))
    except RecursionError:
        raise InputError("property nested too deeply to translate",
                         kind="ltl-syntax") from None


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


def _prune(aut: BuchiAutomaton) -> BuchiAutomaton:
    """Drop states unreachable from the initial state; renumber densely."""
    seen = {aut.initial}
    frontier = [aut.initial]
    while frontier:
        q = frontier.pop()
        for t in aut.outgoing(q):
            if t.dst not in seen:
                seen.add(t.dst)
                frontier.append(t.dst)
    remap = {q: i for i, q in enumerate(sorted(seen))}
    trans = [Transition(remap[t.src], t.pos, t.negs, remap[t.dst])
             for t in aut.transitions if t.src in seen and t.dst in seen]
    acc = frozenset(remap[q] for q in aut.accepting if q in seen)
    return BuchiAutomaton(len(seen), remap[aut.initial], trans, acc)


def lasso_accepts(aut: BuchiAutomaton, prefix, period) -> bool:
    """Does the automaton accept the word prefix . period^omega?

    Letters are sets of atoms.  The product with the lasso positions is
    explored and an accepting product state is searched for on a cycle.
    """
    if not period:
        raise ValueError("period must be non-empty")
    letters = [frozenset(a) for a in list(prefix) + list(period)]
    total = len(letters)
    loop = len(prefix)

    def nxt_pos(i):
        return i + 1 if i + 1 < total else loop

    start = (0, aut.initial)
    adj: dict[tuple, list[tuple]] = {}
    stack = [start]
    seen = {start}
    while stack:
        i, q = stack.pop()
        succs = []
        for t in aut.outgoing(q):
            if t.enabled(letters[i]):
                nx = (nxt_pos(i), t.dst)
                succs.append(nx)
                if nx not in seen:
                    seen.add(nx)
                    stack.append(nx)
        adj[(i, q)] = succs

    def reaches_itself(node) -> bool:
        work = list(adj[node])
        visited = set()
        while work:
            cur = work.pop()
            if cur == node:
                return True
            if cur in visited:
                continue
            visited.add(cur)
            work.extend(adj[cur])
        return False

    for node in seen:
        if node[1] in aut.accepting and reaches_itself(node):
            return True
    return False
