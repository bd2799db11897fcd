"""Model ingestion and preparation.

The input format is a structured text file describing a network of timed
components with handshake channels and bounded integer variables:

    param p = 2..5
    clock x y
    var   w : 0..2 = 0
    chan  go
    component Train {
      location Safe { invariant true; label safe }
      location Appr { invariant x <= p }
      init Safe
      edge Safe -> Appr { guard x >= 1; sync go!; reset x; update w := w + 1 }
    }

Names start with a letter or an underscore and go on with letters, digits
and underscores (letters outside ASCII included); unlike property atoms,
they never contain dots.  ``#`` starts a comment that runs to the end of
the line.  The ``clock``, ``chan``, ``label`` and ``reset`` lists end with
their line.  The lexer is ``ltl.TokenCursor``.  Parameters, clocks,
variables and channels share one namespace and are declared once each;
locations are unique per component, components per network.  Ranges are
``LO..HI`` with ``LO <= HI``.  The body of a component, a location or an
edge is a list of clauses, each of which may end with ``;``; ``guard``,
``sync``, ``invariant`` and ``init`` come at most once in a body.

Guards are conjunctions (&&) of clock constraints with at most one real
clock per atom (the literal ``0`` names the zero clock in differences) and
of comparisons of a data variable against an integer.  The front end of
both engines, ``build_automaton``, turns a network into a single product
automaton with data folded into locations, builds the product with a
Büchi automaton, finds the accepting locations that a Zeno run could
visit infinitely often, and applies the transformation that forces at
least one time unit between visits to those, so that every accepting
run is non-Zeno.  One backward analysis then gives every location's
clock bounds and inactive clocks (``clock_tables``), which both engines
read, as they read the negated guards a deadlock check folds at each
location (``deadlock_guards``).  Both take ``Options`` and return a
``SynthesisResult``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping

from . import pdbm, zones
from .errors import CapacityError, InputError
from .ltl import (
    CMP_OPS,
    BuchiAutomaton,
    Formula,
    TokenCursor,
    _numbering,
    atoms_of,
    holds,
    negated_automaton,
)
from .params import AffineExpr, ParamBox, StrictBound, ValuationSet, bound
from .pdbm import Atom


# --- network description ------------------------------------------------


@dataclass
class CompEdge:
    src: str
    dst: str
    clock_atoms: tuple[Atom, ...]
    data_atoms: tuple[tuple[str, str, int], ...]  # (var, op, value)
    sync: tuple[str, str] | None  # (channel, "!" or "?")
    resets: tuple[str, ...]
    updates: tuple[tuple[str, AffineExpr], ...]


@dataclass
class CompLocation:
    name: str
    inv_atoms: tuple[Atom, ...]
    labels: tuple[str, ...]


@dataclass
class Component:
    name: str
    locations: dict[str, CompLocation]
    init: str
    edges: list[CompEdge]


@dataclass
class Network:
    params: dict[str, tuple[int, int]]
    clocks: list[str]
    channels: list[str]
    variables: dict[str, tuple[int, int, int]]  # lo, hi, init
    components: list[Component]

    def box(self, overrides: Mapping[str, tuple[int, int]] | None = None) -> ParamBox:
        bounds = dict(self.params)
        for p, rng in (overrides or {}).items():
            if p not in bounds:
                raise InputError(f"override for unknown parameter {p}",
                                 kind="unknown-param")
            bounds[p] = rng
        return ParamBox.of(bounds)

    def clock_index(self, name: str) -> int:
        return self.clocks.index(name) + 1


# --- parser ---------------------------------------------------------------


class _ModelParser(TokenCursor):
    ops = frozenset({"&&", "->", ":=", "..", "<=", ">=", "==", "!=", "{", "}",
                     ";", ":", "=", "<", ">", "!", "?", "-", "+", "*", ","})
    syntax = "model-syntax"

    def __init__(self, text: str):
        super().__init__(text)
        self.net = Network({}, [], [], {}, [])
        # parameters, clocks, variables and channels share one namespace
        self.declared: dict[str, str] = {}

    def declare(self, noun: str) -> str:
        """Take a name and declare it as a ``noun``; a name declared before
        is an error at this declaration."""
        t = self.peek()
        name = self.ident(f"{noun} name")
        prev = self.declared.get(name)
        if prev is not None:
            raise self.err(f"{name} is declared twice: as a {prev}, then "
                           f"as a {noun}", tok=t)
        self.declared[name] = noun
        return name

    def names_on_line(self, noun: str | None = None) -> list[str]:
        """The names that follow the last taken token, a keyword, on its
        line, each declared as a ``noun`` when one is given; a keyword
        with no name is an error at the keyword."""
        key = self.toks[self.i - 1]
        names = []
        while self.peek()[0] == "id" and self.peek()[2] == key[2]:
            names.append(self.declare(noun) if noun else self.take()[1])
        if not names:
            raise self.err(f"{key[1]} needs a name on its line", tok=key)
        return names

    # grammar -------------------------------------------------------------
    def parse(self) -> Network:
        while self.peek()[0] != "end":
            t = self.take()
            word = t[1]
            if word == "param":
                name = self.declare("parameter")
                self.expect("=")
                lo, hi = self.range_of("parameter", name)
                self.net.params[name] = (lo, hi)
            elif word == "clock":
                self.net.clocks += self.names_on_line("clock")
            elif word == "chan":
                self.net.channels += self.names_on_line("channel")
            elif word == "var":
                name = self.declare("variable")
                if self.peek()[1] != ":":
                    raise self.err(
                        f"data variable {name} needs a finite range",
                        kind="unbounded-variable")
                self.expect(":")
                lo, hi = self.range_of("variable", name)
                self.expect("=")
                t = self.peek()
                init = self.integer()
                if not lo <= init <= hi:
                    raise self.err(f"initial value of {name} outside range",
                                   tok=t)
                self.net.variables[name] = (lo, hi, init)
            elif word == "component":
                self.component()
            else:
                raise self.err(f"unexpected {word!r}", tok=t)
        if not self.net.components:
            raise self.err("model has no components")
        return self.net

    def range_of(self, noun: str, name: str) -> tuple[int, int]:
        """``LO..HI`` of the ``noun`` ``name``; an empty one is an error at
        its start."""
        t = self.peek()
        lo = self.integer()
        self.expect("..")
        hi = self.integer()
        if lo > hi:
            raise self.err(f"empty range for {noun} {name}: {lo}..{hi}",
                           kind="empty-range", tok=t)
        return lo, hi

    def clauses(self, block: str, words: tuple[str, ...],
                single: tuple[str, ...] = ()):
        """The clause keywords of a ``{ ... }`` body of a ``block``, each
        yielded once taken, so that the caller reads the clause; a ``;``
        may end each clause.  A keyword not in ``words``, or one in
        ``single`` given a second time, is an error at that keyword."""
        self.expect("{")
        seen = set()
        while self.peek()[1] != "}":
            t = self.take()
            word = t[1]
            if word not in words:
                raise self.err(f"unexpected {word!r} in {block}", tok=t)
            if word in seen:
                raise self.err(f"second {word} in {block}", tok=t)
            if word in single:
                seen.add(word)
            yield word
            if self.peek()[1] == ";":
                self.take()
        self.expect("}")

    def component(self):
        at = self.peek()
        name = self.ident("component name")
        if any(c.name == name for c in self.net.components):
            raise self.err(f"duplicate component {name}", tok=at)
        comp = Component(name, {}, "", [])
        init = None
        ends = []  # the tokens of the edges' source and target names
        for word in self.clauses("component", ("location", "init", "edge"),
                                 single=("init",)):
            k = self.i
            t = self.toks[k]
            if word == "location":
                loc = self.location()
                if loc.name in comp.locations:
                    raise self.err(f"duplicate location {loc.name} in {name}",
                                   tok=t)
                comp.locations[loc.name] = loc
            elif word == "init":
                init = t
                comp.init = self.ident("location name")
            else:
                comp.edges.append(self.edge())
                ends += [t, self.toks[k + 2]]  # SRC -> DST
        if not comp.init:
            raise self.err(f"component {name} has no init", tok=at)
        if comp.init not in comp.locations:
            raise self.err(f"unknown init location {comp.init!r} in {name}",
                           kind="unknown-location", tok=init)
        for t in ends:
            if t[1] not in comp.locations:
                raise self.err(f"unknown location {t[1]!r} in {name}",
                               kind="unknown-location", tok=t)
        self.net.components.append(comp)

    def location(self) -> CompLocation:
        name = self.ident("location name")
        inv_atoms: tuple[Atom, ...] = ()
        labels: list[str] = []
        if self.peek()[1] == "{":
            for word in self.clauses("location", ("invariant", "label"),
                                     single=("invariant",)):
                if word == "invariant":
                    inv_atoms, _ = self.guard(data=False)
                else:
                    labels += self.names_on_line()
        return CompLocation(name, inv_atoms, tuple(labels))

    def edge(self) -> CompEdge:
        src = self.ident("location name")
        self.expect("->")
        dst = self.ident("location name")
        clock_atoms: tuple[Atom, ...] = ()
        data_atoms: tuple[tuple[str, str, int], ...] = ()
        sync = None
        resets: list[str] = []
        updates: list[tuple[str, AffineExpr]] = []
        for word in self.clauses("edge", ("guard", "sync", "reset", "update"),
                                 single=("guard", "sync")):
            if word == "guard":
                clock_atoms, data_atoms = self.guard()
            elif word == "sync":
                t = self.peek()
                chan = self.ident("channel name")
                if chan not in self.net.channels:
                    raise self.err(f"unknown channel {chan!r}",
                                   kind="unknown-channel", tok=t)
                t = self.take()
                if t[1] not in ("!", "?"):
                    raise self.err("sync needs ! or ?", tok=t)
                sync = (chan, t[1])
            elif word == "reset":
                first = self.i
                for k, clk in enumerate(self.names_on_line(), first):
                    if clk not in self.net.clocks:
                        raise self.err(f"unknown clock {clk!r}",
                                       kind="unknown-clock", tok=self.toks[k])
                    resets.append(clk)
            else:
                while True:
                    t = self.peek()
                    var = self.ident("variable name")
                    if var not in self.net.variables:
                        raise self.err(f"unknown variable {var!r}",
                                       kind="unknown-variable", tok=t)
                    self.expect(":=")
                    updates.append((var, self.expr(
                        self.net.variables, "unknown-variable", scaled=False)))
                    if self.peek()[1] == ",":
                        self.take()
                    else:
                        break
        return CompEdge(src, dst, clock_atoms, data_atoms, sync,
                        tuple(resets), tuple(updates))

    # guards and expressions ----------------------------------------------
    def guard(self, data=True):
        """Conjunction of atoms; returns (clock atoms, data atoms).  Without
        ``data``, as in an invariant, a data atom is an error at its
        variable."""
        if self.peek()[1] == "true":
            self.take()
            return (), ()
        clock_atoms: list[Atom] = []
        data_atoms: list[tuple[str, str, int]] | None = [] if data else None
        while True:
            self.atom(clock_atoms, data_atoms)
            if self.peek()[1] == "&&":
                self.take()
            else:
                break
        return tuple(clock_atoms), tuple(data_atoms or ())

    def _clock_operand(self) -> int | None:
        """Clock index for an id/0 token, or None if not a clock."""
        t = self.peek()
        if t[0] == "int" and t[1] == "0":
            self.take()
            return 0
        if t[0] == "id" and t[1] in self.net.clocks:
            self.take()
            return self.net.clock_index(t[1])
        return None

    def atom(self, clock_atoms, data_atoms):
        t = self.peek()
        ci = self._clock_operand()
        if ci is not None:
            cj = 0
            if self.peek()[1] == "-":
                self.take()
                right = self.peek()
                cj = self._clock_operand()
                if cj is None:
                    raise self.err("clock difference needs a clock or 0 on "
                                   "the right", kind="non-simple-guard")
                if ci != 0 and cj != 0:
                    raise self.err(
                        "guards may constrain at most one real clock per "
                        "atom", kind="non-simple-guard", tok=right)
            op = self.take()
            if op[1] not in ("<", "<=", ">", ">=", "=="):
                raise self.err(f"bad comparison {op[1]!r} in clock "
                               f"constraint", tok=op)
            e = self.expr(self.net.params, "unknown-param", scaled=True)
            clock_atoms.extend(_clock_atom(ci, cj, op[1], e))
            return
        if t[0] == "id":
            name = self.take()[1]
            if name in self.net.variables:
                op = self.take()
                if op[1] not in CMP_OPS:
                    raise self.err(f"bad comparison {op[1]!r} on variable "
                                   f"{name}", tok=op)
                atom = (name, op[1], self.integer())
                if data_atoms is None:
                    raise self.err("invariants must be clock constraints",
                                   kind="data-invariant", tok=t)
                data_atoms.append(atom)
                return
            if name in self.net.params:
                raise self.err(
                    f"guard left side must be a clock or variable, got "
                    f"parameter {name!r}", kind="model-syntax", tok=t)
            raise self.err(f"unknown clock {name!r}", kind="unknown-clock",
                           tok=t)
        raise self.err(f"unexpected {t[1]!r} in guard")

    def expr(self, names, kind: str, scaled: bool) -> AffineExpr:
        """Affine expression over ``names`` (parameters in guards, data
        variables in updates): INT and NAME terms, and INT * NAME terms when
        ``scaled``, joined by +/-; a leading minus is allowed.  A name not
        in ``names`` raises ``kind``."""
        noun = "parameter" if kind == "unknown-param" else "variable"
        total = AffineExpr()
        sign = 1
        if self.peek()[1] == "-":
            self.take()
            sign = -1
        while True:
            t = self.take()
            if t[0] == "int" and scaled and self.peek()[1] == "*":
                self.take()
                k, t = int(t[1]), self.peek()
                name = self.ident(f"{noun} name")
            elif t[0] == "int":
                k, name = int(t[1]), None
            elif t[0] == "id":
                k, name = 1, t[1]
            else:
                raise self.err(f"expected expression term, found {t[1]!r}",
                               tok=t)
            if name is None:
                total = total + sign * k
            elif name in names:
                total = total + AffineExpr.var(name, sign * k)
            else:
                raise self.err(f"unknown {noun} {name!r}", kind=kind, tok=t)
            nxt = self.peek()[1]
            if nxt == "+":
                self.take()
                sign = 1
            elif nxt == "-":
                self.take()
                sign = -1
            else:
                return total


def _clock_atom(i: int, j: int, op: str, e: AffineExpr) -> list[Atom]:
    """Normalize a comparison into difference-bound atoms."""
    if op == "<":
        return [(i, j, StrictBound(e, True))]
    if op == "<=":
        return [(i, j, StrictBound(e, False))]
    if op == ">":
        return [(j, i, StrictBound(-e, True))]
    if op == ">=":
        return [(j, i, StrictBound(-e, False))]
    return [(i, j, StrictBound(e, False)), (j, i, StrictBound(-e, False))]


def parse_model(text: str) -> Network:
    return _ModelParser(text).parse()


def load_model(path) -> Network:
    """Parse the model file at ``path``, UTF-8 with any line ends and an
    optional byte-order mark; a non-UTF-8 byte is model-syntax input."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise InputError(f"model file is not UTF-8: byte 0x"
                         f"{data[exc.start]:02x} at offset {exc.start}",
                         kind="model-syntax") from None
    return parse_model(text.replace("\r\n", "\n").replace("\r", "\n"))


# --- composition -----------------------------------------------------------


@dataclass
class PEdge:
    atoms: tuple[Atom, ...]
    resets: tuple[int, ...]
    target: int
    tag: str


@dataclass
class PLoc:
    name: str
    inv: tuple[Atom, ...]
    edges: list[PEdge] = field(default_factory=list)
    accepting: bool = False


@dataclass
class Ptba:
    """A product automaton: the composed network (``compose``), which has
    no accepting location, or its product with a Büchi automaton.
    ``gate`` is the clock that ``make_nonzeno`` adds, 0 when there is
    none."""

    clock_names: list[str]  # index 0 is the zero clock
    locations: list[PLoc]
    initial: int
    gate: int = 0

    @property
    def n_clocks(self) -> int:
        return len(self.clock_names) - 1


class Labelling:
    """Atomic propositions per composed location: component-location names,
    declared labels, and data comparisons on the location's variable
    valuation."""

    def __init__(self, aps: list[frozenset], varvals: list[dict]):
        self.aps = aps
        self.varvals = varvals

    def holds(self, loc: int, atom) -> bool:
        if isinstance(atom, tuple):
            check_variable(atom[0], self.varvals[loc])
            return holds(atom, self.varvals[loc])
        return atom in self.aps[loc]


def check_variable(name: str, variables) -> None:
    """A property's data atom must read a declared variable."""
    if name not in variables:
        raise InputError(f"property uses unknown variable {name!r}",
                         kind="unknown-variable")


def validate_property(net: Network, f: Formula) -> None:
    known = {a for comp in net.components for loc in comp.locations.values()
             for a in (comp_loc(comp.name, loc.name), *loc.labels)}
    for atom in atoms_of(f):
        if isinstance(atom, tuple):
            check_variable(atom[0], net.variables)
        elif atom not in known:
            raise InputError(f"property uses unknown atom {atom!r}",
                             kind="unknown-atom")


def comp_loc(comp: str, loc: str) -> str:
    """``Comp.Loc``: component ``comp`` at ``loc``, in atoms and names."""
    return f"{comp}.{loc}"


def compose(net: Network) -> tuple[Ptba, Labelling]:
    """Product of the components with data variables folded into locations:
    interleaving for plain edges, pairwise handshake for matching !/? pairs
    (guards conjoined, resets united, sender updates applied first)."""
    varnames = list(net.variables)
    locidx = [
        {name: k for k, name in enumerate(c.locations)} for c in net.components
    ]
    locnames = [list(c.locations) for c in net.components]
    order, state_id = _numbering((
        tuple(locidx[ci][c.init] for ci, c in enumerate(net.components)),
        tuple(net.variables[v][2] for v in varnames),
    ))
    locations: list[PLoc] = []
    aps: list[frozenset] = []
    varvals: list[dict] = []

    for locs, vals in order:
        valmap = dict(zip(varnames, vals))
        srcs = [locnames[ci][k] for ci, k in enumerate(locs)]
        name = "|".join(
            comp_loc(c.name, src) for c, src in zip(net.components, srcs))
        if varnames:
            name += "|" + ",".join(f"{v}={valmap[v]}" for v in varnames)
        inv: list[Atom] = []
        ap_set = set()
        for c, src in zip(net.components, srcs):
            loc = c.locations[src]
            inv.extend(loc.inv_atoms)
            ap_set.add(comp_loc(c.name, loc.name))
            ap_set.update(loc.labels)
        ploc = PLoc(name, tuple(inv))
        locations.append(ploc)
        aps.append(frozenset(ap_set))
        varvals.append(valmap)

        # (tag, [(component index, edge), ...]) for the interleaved edges,
        # then for the handshake pairs, sender first
        moves = []
        for ci, c in enumerate(net.components):
            for e in c.edges:
                if e.src == srcs[ci] and e.sync is None:
                    moves.append((f"{c.name}:{e.src}->{e.dst}", [(ci, e)]))
        for ci, c in enumerate(net.components):
            for e1 in c.edges:
                if e1.src != srcs[ci] or not e1.sync or e1.sync[1] != "!":
                    continue
                for cj, d in enumerate(net.components):
                    for e2 in d.edges:
                        if (cj != ci and e2.src == srcs[cj]
                                and e2.sync == (e1.sync[0], "?")):
                            moves.append((
                                f"{c.name}:{e1.src}->{e1.dst} ~{e1.sync[0]}~ "
                                f"{d.name}:{e2.src}->{e2.dst}",
                                [(ci, e1), (cj, e2)]))
        for tag, move in moves:
            if not all(holds(a, valmap) for _, e in move for a in e.data_atoms):
                continue
            nv = dict(valmap)
            nlocs = list(locs)
            for ci, e in move:
                for var, expr in e.updates:
                    x = expr.eval(nv)
                    lo, hi, _ = net.variables[var]
                    if not lo <= x <= hi:
                        raise InputError(
                            f"update {var} := {expr} leaves range {lo}..{hi} "
                            f"on {tag}", kind="update-out-of-range")
                    nv[var] = x
                nlocs[ci] = locidx[ci][e.dst]
            resets = {net.clock_index(r) for _, e in move for r in e.resets}
            ploc.edges.append(PEdge(
                tuple(a for _, e in move for a in e.clock_atoms),
                tuple(sorted(resets)),
                state_id((tuple(nlocs), tuple(nv[v] for v in varnames))),
                tag))

    pta = Ptba(["0"] + list(net.clocks), locations, 0)
    return pta, Labelling(aps, varvals)


# --- product with a Büchi automaton ----------------------------------------


def product(pta: Ptba, lab: Labelling, aut: BuchiAutomaton) -> Ptba:
    """Synchronous product: an automaton edge fires on the label of the
    source location, so a run's location trace spells the word the
    automaton reads.  Accepting locations are those whose automaton state
    is accepting."""
    atoms = sorted({a for t in aut.transitions for a in t.pos | t.negs},
                   key=str)  # an order the hash seed does not set
    letters = [frozenset(a for a in atoms if lab.holds(l, a))
               for l in range(len(pta.locations))]
    order, state_id = _numbering((pta.initial, aut.initial))
    locations: list[PLoc] = []
    for l, q in order:
        base = pta.locations[l]
        ploc = PLoc(f"{base.name}#q{q}", base.inv,
                    accepting=q in aut.accepting)
        locations.append(ploc)
        enabled = [t for t in aut.outgoing(q) if t.enabled(letters[l])]
        for e in base.edges:
            for t in enabled:
                tgt = state_id((e.target, t.dst))
                ploc.edges.append(PEdge(e.atoms, e.resets, tgt, e.tag))
    return Ptba(pta.clock_names, locations, 0)


# --- non-Zeno transformation ------------------------------------------------


def make_nonzeno(a: Ptba, gated) -> Ptba:
    """Force at least one time unit between consecutive visits to the
    accepting locations in ``gated`` (``zeno_accepting``).

    Locations are duplicated into two phases.  The phase-0 copy of a
    location in ``gated`` is not accepting; an edge into it may switch to
    phase 1 when a fresh clock is at least 1, resetting it; from phase 1
    the next edge drops back to phase 0.  Every other accepting location
    stays accepting in its phase-0 copy and gets no phase 1.  Every run
    that visits a gated location's accepting copy infinitely often is
    non-Zeno, and every non-Zeno such run of the input survives by
    switching phase only at visits spaced one time unit apart; the runs
    through the other accepting locations are non-Zeno as they stand.
    With ``gated`` empty no clock is added.

    The result records the fresh clock as its ``gate``.  No invariant and
    no guard but the gate reads it, so a valuation where it is larger
    enables every edge that one where it is smaller does, and every gate
    edge has an ungated sibling with the same source and otherwise the
    same guard: every step of ``transition_steps`` forgets the clock's
    lower bounds, in both engines (``pdbm.transition``, ``baseline._step``).
    """
    z = len(a.clock_names) if gated else 0
    names = a.clock_names + ["_nz"] if gated else a.clock_names
    gate: Atom = (0, z, bound(-1))  # fresh clock >= 1
    order, state_id = _numbering((a.initial, 0))
    locations: list[PLoc] = []
    for l, ph in order:
        base = a.locations[l]
        ploc = PLoc(f"{base.name}~{ph}", base.inv,
                    accepting=base.accepting and (ph == 1 or l not in gated))
        locations.append(ploc)
        for e in base.edges:
            tgt0 = state_id((e.target, 0))
            ploc.edges.append(PEdge(e.atoms, e.resets, tgt0, e.tag))
            if ph == 0 and e.target in gated:
                tgt1 = state_id((e.target, 1))
                ploc.edges.append(PEdge(
                    e.atoms + (gate,), tuple(sorted(set(e.resets) | {z})),
                    tgt1, e.tag + "+gap"))
    return Ptba(names, locations, 0, gate=z)


def zeno_accepting(a: Ptba, box: ParamBox) -> set[int]:
    """The accepting locations that a Zeno run could visit infinitely
    often over the whole box: the locations ``make_nonzeno`` must gate.
    The test is the strongly non-Zeno condition of Tripakis, Yovine and
    Bouajjani (FMSD 2005), applied to the strongly connected components
    of the location graph and, within them, to smaller parts.

    An edge holds a clock at 1 when a guard atom asks for it to be at
    least 1, or above 1, at every point of the box.  A part with a cycle
    passes with clock x when some edge holds x at 1 and no such edge that
    does not reset x lies on a cycle of the part without the edges that
    reset x; the edges that hold a passing clock at 1 are then deleted
    and the components of what is left are tested in turn.  A part with a
    cycle and no passing clock fails, and its accepting locations, not
    the rest of the component it lies in, are gated.  A run that visits
    an accepting location infinitely often ends in that location's part
    at some depth: with less than one time unit left, each clock can
    still be reset or pass a guard that holds it at 1, but not both,
    while each cycle of a passing part that passes such a guard of a
    passing clock also resets that clock, so inside a passing part every
    infinite run lets time diverge.
    """
    if not any(loc.accepting for loc in a.locations):
        return set()
    held_of: dict[int, int] = {}  # the product shares guard tuples

    def held(atoms) -> int:
        m = held_of.get(id(atoms))
        if m is None:
            m = held_of[id(atoms)] = sum({
                1 << j for i, j, b in atoms if i == 0 and j
                and not b.is_inf and b.expr.max_bound(box) <= -1})
        return m

    edges = [(l, e.target, held(e.atoms), sum(1 << c for c in e.resets))
             for l, loc in enumerate(a.locations) for e in loc.edges]
    gated: set[int] = set()
    parts = _cyclic_parts(range(len(a.locations)), edges)
    while parts:
        nodes, inside = parts.pop()
        if not any(a.locations[l].accepting for l in nodes):
            continue
        passing = 0
        clocks = 0
        for e in inside:
            clocks |= e[2]
        while clocks:
            x = clocks & -clocks
            clocks ^= x
            cycles = _cyclic_parts(nodes, [e for e in inside if not e[3] & x])
            if not any(e[2] & x for _, cycled in cycles for e in cycled):
                passing |= x
        if passing:
            parts += _cyclic_parts(nodes, [e for e in inside
                                           if not e[2] & passing])
        else:
            gated.update(l for l in nodes if a.locations[l].accepting)
    return gated


def _cyclic_parts(nodes, edges) -> list[tuple[list[int], list[tuple]]]:
    """The strongly connected components of the graph on ``nodes`` with
    ``edges`` (source, target, ...) that contain an edge, each with the
    edges inside it, which are the edges on a cycle: the parts of the Zeno
    analysis and, for each clock, the cycles that do not reset it."""
    nodes = list(nodes)
    at = {l: k for k, l in enumerate(nodes)}
    succ: list[list[int]] = [[] for _ in nodes]
    for e in edges:
        succ[at[e[0]]].append(at[e[1]])
    comp: dict[int, int] = {}
    for number, part in enumerate(_closing_components(succ)):
        for k in part:
            comp[nodes[k]] = number
    parts: dict[int, tuple[list[int], list[tuple]]] = {}
    for e in edges:
        c = comp[e[0]]
        if c == comp[e[1]]:
            parts.setdefault(c, ([], []))[1].append(e)
    for l in nodes:
        if comp[l] in parts:
            parts[comp[l]][0].append(l)
    return list(parts.values())


def _accepting_cycle(accepting: list[bool], edges) -> bool:
    """Does a node ``k`` with ``accepting[k]`` lie on a cycle of the graph
    on nodes ``0 .. len(accepting) - 1`` with ``edges`` (source, target)?
    It does when its strongly connected component has another node or it
    has a self-loop.  The search stops at the first such component to
    close, and a graph without an accepting node is not searched."""
    if not any(accepting):
        return False
    succ: list[list[int]] = [[] for _ in accepting]
    for u, w in edges:
        succ[u].append(w)
    for part in _closing_components(succ):
        if len(part) > 1:
            if any(accepting[u] for u in part):
                return True
        elif accepting[part[0]] and part[0] in succ[part[0]]:
            return True
    return False


def _closing_components(succ: list[list[int]]):
    """The strongly connected components of the graph on nodes ``0 ..
    len(succ) - 1`` with successor lists ``succ``, each yielded as a list
    of its nodes as soon as it closes, so sinks first: Tarjan's algorithm
    with an explicit stack, since products reach thousands of locations
    and zone graphs many more.  It serves the Zeno analysis
    (``_cyclic_parts``), the enumeration engine's accepting-cycle check and
    the lasso check (``_accepting_cycle``)."""
    # a node's index is -1 until it is reached and ``done`` once its
    # component has closed, so that no later low link can take it
    done = len(succ)
    index = [-1] * done
    low = [0] * done
    stack: list[int] = []
    count = 0
    for root in range(done):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    at = len(stack) - 1
                    while stack[at] != v:
                        at -= 1
                    part = stack[at:]
                    del stack[at:]
                    for w in part:
                        index[w] = done
                    yield part


# --- clock bounds and inactive clocks ----------------------------------------


def clock_tables(a: Ptba, box: ParamBox
                 ) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Per location, the clock bounds and the inactive clocks over the
    whole box, from one backward propagation.

    A clock's bound at a location is the largest constant it can still be
    compared with before it is next reset: static guard analysis
    (Behrmann, Bouyer, Fleury, Larsen, TACAS 2003).  A location starts
    from the atoms of its invariant and of its outgoing guards.  Every
    atom contributes to both of its clocks, and both the expression and
    its negation are considered: a lower-bound guard stores the negated
    threshold, so only the pair covers the magnitudes that matter.  An
    edge then passes its target's bounds back to its source for every
    clock it does not reset, until nothing changes.  The zero clock stays
    at 0.  Widening a zone stored at a location with that location's
    vector keeps the answers exact for diagonal-free guards: every guard
    and invariant the zone's points can meet before a reset lies within
    the vector.

    A clock is inactive at a location (Daws and Yovine, RTSS 1996) when no
    invariant or guard reads it with a finite bound, not even 0, before
    every path from the location resets it, so no run depends on its
    value there; its bound is 0.  The propagation reads each atom as its
    magnitude plus 1, so that a table entry of 0 marks an inactive clock
    and any other entry v is the bound v - 1: adding 1 commutes with the
    propagation's maximum.  Returns (bounds, inactive clocks), each a
    tuple per location, the clocks in increasing order."""
    n = len(a.clock_names)
    magnitude: dict[AffineExpr, int] = {}  # the product repeats atoms
    table: list[list[int]] = []
    preds: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in a.locations]
    kept_of: dict[tuple[int, ...], tuple[int, ...]] = {}
    for l, loc in enumerate(a.locations):
        row = [0] * n
        for atoms in [loc.inv] + [e.atoms for e in loc.edges]:
            for i, j, b in atoms:
                if b.is_inf:
                    continue
                m = magnitude.get(b.expr)
                if m is None:
                    m = magnitude[b.expr] = max(
                        b.expr.max_bound(box), (-b.expr).max_bound(box)) + 1
                for c in (i, j):
                    if c and m > row[c]:
                        row[c] = m
        table.append(row)
        for e in loc.edges:
            kept = kept_of.get(e.resets)
            if kept is None:
                kept = kept_of[e.resets] = tuple(
                    c for c in range(1, n) if c not in e.resets)
            preds[e.target].append((l, kept))
    todo = list(range(len(table)))
    queued = [True] * len(table)
    while todo:
        t = todo.pop()
        queued[t] = False
        row_t = table[t]
        for l, kept in preds[t]:
            row = table[l]
            grew = False
            for c in kept:
                if row_t[c] > row[c]:
                    row[c] = row_t[c]
                    grew = True
            if grew and not queued[l]:
                queued[l] = True
                todo.append(l)
    bounds = [tuple(v - 1 if v else 0 for v in row) for row in table]
    free = [tuple(c for c, v in enumerate(row) if c and not v)
            for row in table]
    return bounds, free


def clock_bounds(table: list[tuple[int, ...]]) -> list[int]:
    """The largest bound of each clock over all locations of a
    ``clock_tables`` bounds table: the one vector that covers every
    location."""
    return [max(col) for col in zip(*table)]


# --- transition steps --------------------------------------------------------


def transition_steps(a: Ptba, bounds, free) -> tuple[list, list]:
    """What each edge does to a zone, numbered for both engines: a step is
    the arguments of ``pdbm.transition_plan`` (guard, sorted resets, and
    the target's invariant, clock bounds and inactive clocks from the
    ``clock_tables`` ``bounds`` and ``free``, and ``a.gate``).  Steps are
    numbered in order of first occurrence, equal ones once; step 0, no
    guard and no reset into ``a.initial``, makes the initial zones from
    the zero zone.  Returns (steps, moves), ``moves[l]`` listing location
    ``l``'s edges as (target, step) in edge order."""
    ids: dict[tuple, int] = {}

    def number(atoms, resets, t: int) -> int:
        step = (atoms, tuple(sorted(resets)), a.locations[t].inv, bounds[t],
                free[t], a.gate)
        return ids.setdefault(step, len(ids))

    number((), (), a.initial)
    moves = [[(e.target, number(e.atoms, e.resets, e.target))
              for e in loc.edges] for loc in a.locations]
    return list(ids), moves


# --- deadlock guards ---------------------------------------------------------


def deadlock_guards(loc: PLoc) -> list[tuple[Atom, ...]] | None:
    """What a deadlock check folds over a zone at ``loc``: None when some
    edge is unguarded, since that edge is always enabled and no point can
    deadlock; otherwise each distinct guard of the edges once, in edge
    order (an edge enabled twice is enabled once), as its negated atoms,
    any one of which disables the guard."""
    if any(not e.atoms for e in loc.edges):
        return None
    return [tuple(pdbm.negate_atom(at) for at in atoms)
            for atoms in dict.fromkeys(e.atoms for e in loc.edges)]


def dump_product(a: Ptba) -> str:
    lines = [f"clocks: {' '.join(a.clock_names[1:])}",
             f"initial: {a.locations[a.initial].name}"]
    for loc in a.locations:
        mark = " (accepting)" if loc.accepting else ""
        lines.append(f"location {loc.name}{mark}")
        for at in loc.inv:
            lines.append(f"  invariant {pdbm.atom_text(a.clock_names, *at)}")
        for e in loc.edges:
            guard = " && ".join(pdbm.atom_text(a.clock_names, *at)
                                for at in e.atoms) or "true"
            rs = " reset " + ",".join(a.clock_names[r] for r in e.resets) \
                if e.resets else ""
            lines.append(f"  -> {a.locations[e.target].name}"
                         f" [{guard}]{rs}  ({e.tag})")
    return "\n".join(lines)


# --- the shared front end and the engine interface --------------------------


# A bound below this magnitude encodes below zones.INF / 2, so the sum of
# two encoded bounds stays below zones.INF.
BOUND_LIMIT = zones.INF >> 2


def check_box_covers(exprs, box: ParamBox) -> None:
    """Raises InputError when the box has no range for a parameter that
    one of the bound expressions ``exprs`` reads."""
    missing = sorted({p for e in exprs for p, _ in e.coeffs}
                     .difference(box.params))
    if missing:
        raise InputError("the parameter box has no range for "
                         + ", ".join(missing), kind="unknown-param")


def build_automaton(net: Network, f: Formula, box: ParamBox):
    """Shared front end for both engines: product of the composed network
    with the automaton of the negated property, its accepting locations
    that can be Zeno gated (``zeno_accepting``, ``make_nonzeno``), and its
    two ``clock_tables``: (automaton, clock bounds, inactive clocks).

    Raises InputError when the box misses a guard parameter, or when a
    bound falls outside what the int64 zone encoding can hold: every
    clock maximum (the ``clock_bounds`` vector, which covers every
    location's), then the constant and every term, at its largest
    magnitude over the box, of every bound the model writes, in the order
    it writes them, must stay below BOUND_LIMIT."""
    validate_property(net, f)
    # each distinct bound expression, in order of first occurrence
    exprs = dict.fromkeys(
        b.expr for c in net.components
        for atoms in [loc.inv_atoms for loc in c.locations.values()]
        + [e.clock_atoms for e in c.edges] for _, _, b in atoms)
    check_box_covers(exprs, box)
    aut = negated_automaton(f)
    pta, lab = compose(net)
    prod = product(pta, lab, aut)
    tba = make_nonzeno(prod, zeno_accepting(prod, box))
    bounds, free = clock_tables(tba, box)

    def check(value: int, what: str) -> None:
        if value >= BOUND_LIMIT:
            raise InputError(f"{what} reaches {value}, out of the bound "
                             f"range (below 2^{BOUND_LIMIT.bit_length() - 1})",
                             kind="bound-range")

    for name, m in zip(tba.clock_names, clock_bounds(bounds)):
        check(m, f"maximum of clock {name}")
    magnitude = {p: max(abs(lo), abs(hi))
                 for p, lo, hi in zip(box.params, box.lo, box.hi)}
    for e in exprs:
        check(abs(e.const), "bound constant")
        for p, z in e.coeffs:
            check(abs(z) * magnitude[p], f"bound term {z}*{p}")
    return tba, bounds, free


DEFAULT_STATE_LIMIT = 1 << 22
DEFAULT_DNF_LIMIT = 4096


@dataclass
class Options:
    limit_states: int = DEFAULT_STATE_LIMIT
    dnf_limit: int = DEFAULT_DNF_LIMIT
    trace: object = None    # writable stream for expanded-state dumps
    time_limit: float | None = None  # seconds of exploration per engine run

    def timer(self):
        """A check to run per unit of exploration work: it raises
        CapacityError once ``time_limit`` seconds have passed since this
        call, and does nothing without a limit."""
        if self.time_limit is None:
            return lambda: None
        deadline = time.monotonic() + self.time_limit

        def check():
            if time.monotonic() >= deadline:
                raise CapacityError(
                    f"time limit of {self.time_limit} s exceeded")
        return check


@dataclass
class SynthesisResult:
    box: ParamBox
    accepted: ValuationSet     # valuations violating the property
    deadlock: ValuationSet
    stats: dict

    @property
    def satisfying(self) -> ValuationSet:
        """The valuations of the box that satisfy the property."""
        return self.accepted.complement()

    def to_json(self) -> dict:
        return {
            "satisfying": self.satisfying.to_json_objs(),
            "violating": self.accepted.to_json_objs(),
            "deadlock": self.deadlock.to_json_objs(),
            "stats": self.stats,
        }
