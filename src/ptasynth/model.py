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
their line.  The lexer is ``ltl.TokenCursor``.

Guards are conjunctions (&&) of clock constraints with at most one real
clock per atom (the literal ``0`` names the zero clock in differences) and
of comparisons of a data variable against an integer.  This module turns a
network into a single product automaton with data folded into locations,
builds the product with a Büchi automaton, and applies the transformation
that forces at least one time unit between accepting visits so that every
accepting run is non-Zeno.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .errors import InputError
from .ltl import CMP_OPS, BuchiAutomaton, TokenCursor, _numbering, holds
from .params import AffineExpr, ParamBox, StrictBound, bound
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

    def names_on_line(self) -> list[str]:
        """The names that follow the last taken token on its line."""
        line = self.toks[self.i - 1][2]
        names = []
        while self.peek()[0] == "id" and self.peek()[2] == line:
            names.append(self.take()[1])
        return names

    # grammar -------------------------------------------------------------
    def parse(self) -> Network:
        while self.peek()[0] != "end":
            t = self.take()
            word = t[1]
            if word == "param":
                name = self.ident("parameter name")
                self.expect("=")
                lo = self.integer()
                self.expect("..")
                hi = self.integer()
                if name in self.net.params:
                    raise self.err(f"duplicate parameter {name}")
                self.net.params[name] = (lo, hi)
            elif word == "clock":
                self.net.clocks += self.names_on_line()
            elif word == "chan":
                self.net.channels += self.names_on_line()
            elif word == "var":
                name = self.ident("variable name")
                if self.peek()[1] != ":":
                    raise self.err(
                        f"data variable {name} needs a finite range",
                        kind="unbounded-variable")
                self.expect(":")
                lo = self.integer()
                self.expect("..")
                hi = self.integer()
                self.expect("=")
                init = self.integer()
                if not lo <= init <= hi:
                    raise self.err(f"initial value of {name} outside range")
                self.net.variables[name] = (lo, hi, init)
            elif word == "component":
                self.component()
            else:
                raise self.err(f"unexpected {word!r}", tok=t)
        if not self.net.components:
            raise self.err("model has no components")
        return self.net

    def component(self):
        name = self.ident("component name")
        comp = Component(name, {}, "", [])
        self.expect("{")
        while self.peek()[1] != "}":
            word = self.take()[1]
            if word == "location":
                loc = self.location()
                comp.locations[loc.name] = loc
            elif word == "init":
                comp.init = self.ident("location name")
            elif word == "edge":
                comp.edges.append(self.edge())
            else:
                raise self.err(f"unexpected {word!r} in component")
        self.expect("}")
        if comp.init not in comp.locations:
            raise self.err(f"unknown init location {comp.init!r} in {name}",
                           kind="unknown-location")
        for e in comp.edges:
            for loc in (e.src, e.dst):
                if loc not in comp.locations:
                    raise self.err(f"unknown location {loc!r} in {name}",
                                   kind="unknown-location")
        self.net.components.append(comp)

    def location(self) -> CompLocation:
        name = self.ident("location name")
        inv_atoms: tuple[Atom, ...] = ()
        labels: list[str] = []
        if self.peek()[1] == "{":
            self.take()
            while self.peek()[1] != "}":
                word = self.take()[1]
                if word == "invariant":
                    inv_atoms, data_atoms = self.guard()
                    if data_atoms:
                        raise self.err("invariants must be clock constraints",
                                       kind="data-invariant")
                elif word == "label":
                    labels += self.names_on_line()
                else:
                    raise self.err(f"unexpected {word!r} in location")
                if self.peek()[1] == ";":
                    self.take()
            self.expect("}")
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
        self.expect("{")
        while self.peek()[1] != "}":
            word = self.take()[1]
            if word == "guard":
                clock_atoms, data_atoms = self.guard()
            elif word == "sync":
                chan = self.ident("channel name")
                if chan not in self.net.channels:
                    raise self.err(f"unknown channel {chan!r}",
                                   kind="unknown-channel")
                tag = self.take()[1]
                if tag not in ("!", "?"):
                    raise self.err("sync needs ! or ?")
                sync = (chan, tag)
            elif word == "reset":
                for clk in self.names_on_line():
                    if clk not in self.net.clocks:
                        raise self.err(f"unknown clock {clk!r}",
                                       kind="unknown-clock")
                    resets.append(clk)
            elif word == "update":
                while True:
                    var = self.ident("variable name")
                    if var not in self.net.variables:
                        raise self.err(f"unknown variable {var!r}",
                                       kind="unknown-variable")
                    self.expect(":=")
                    updates.append((var, self.expr(
                        self.net.variables, "unknown-variable", scaled=False)))
                    if self.peek()[1] == ",":
                        self.take()
                    else:
                        break
            else:
                raise self.err(f"unexpected {word!r} in edge")
            if self.peek()[1] == ";":
                self.take()
        self.expect("}")
        return CompEdge(src, dst, clock_atoms, data_atoms, sync,
                        tuple(resets), tuple(updates))

    # guards and expressions ----------------------------------------------
    def guard(self):
        """Conjunction of atoms; returns (clock atoms, data atoms)."""
        if self.peek()[1] == "true":
            self.take()
            return (), ()
        clock_atoms: list[Atom] = []
        data_atoms: list[tuple[str, str, int]] = []
        while True:
            self.atom(clock_atoms, data_atoms)
            if self.peek()[1] == "&&":
                self.take()
            else:
                break
        return tuple(clock_atoms), tuple(data_atoms)

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
                cj = self._clock_operand()
                if cj is None:
                    raise self.err("clock difference needs a clock or 0 on "
                                   "the right", kind="non-simple-guard")
            if ci != 0 and cj != 0:
                raise self.err(
                    "guards may constrain at most one real clock per atom",
                    kind="non-simple-guard")
            op = self.take()[1]
            if op not in ("<", "<=", ">", ">=", "=="):
                raise self.err(f"bad comparison {op!r} in clock constraint")
            e = self.expr(self.net.params, "unknown-param", scaled=True)
            clock_atoms.extend(_clock_atom(ci, cj, op, e))
            return
        if t[0] == "id":
            name = self.take()[1]
            if name in self.net.variables:
                op = self.take()[1]
                if op not in CMP_OPS:
                    raise self.err(f"bad comparison {op!r} on variable {name}")
                data_atoms.append((name, op, self.integer()))
                return
            if name in self.net.params:
                raise self.err(
                    f"guard left side must be a clock or variable, got "
                    f"parameter {name!r}", kind="model-syntax")
            raise self.err(f"unknown clock {name!r}", kind="unknown-clock")
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
                k, name = int(t[1]), self.ident(f"{noun} name")
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
                raise self.err(f"unknown {noun} {name!r}", kind=kind)
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
    """Parse the model file at ``path``, UTF-8 with any line ends; a byte
    that is not UTF-8 is model-syntax input."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
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
class Pta:
    clock_names: list[str]  # index 0 is the zero clock
    locations: list[PLoc]
    initial: int

    @property
    def n_clocks(self) -> int:
        return len(self.clock_names) - 1


class Ptba(Pta):
    """Product automaton with accepting locations."""


class Labelling:
    """Atomic propositions per composed location: component-location names,
    declared labels, and data comparisons on the location's variable
    valuation."""

    def __init__(self, aps: list[frozenset], varvals: list[dict]):
        self.aps = aps
        self.varvals = varvals

    def holds(self, loc: int, atom) -> bool:
        if isinstance(atom, tuple):
            if atom[0] not in self.varvals[loc]:
                raise InputError(f"unknown variable {atom[0]!r} in property",
                                 kind="unknown-variable")
            return holds(atom, self.varvals[loc])
        return atom in self.aps[loc]


def compose(net: Network) -> tuple[Pta, Labelling]:
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
            f"{c.name}.{src}" for c, src in zip(net.components, srcs))
        if varnames:
            name += "|" + ",".join(f"{v}={valmap[v]}" for v in varnames)
        inv: list[Atom] = []
        ap_set = set()
        for c, src in zip(net.components, srcs):
            loc = c.locations[src]
            inv.extend(loc.inv_atoms)
            ap_set.add(f"{c.name}.{loc.name}")
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

    pta = Pta(["0"] + list(net.clocks), locations, 0)
    return pta, Labelling(aps, varvals)


# --- product with a Büchi automaton ----------------------------------------


def product(pta: Pta, lab: Labelling, aut: BuchiAutomaton) -> Ptba:
    """Synchronous product: an automaton edge fires on the label of the
    source location, so a run's location trace spells the word the
    automaton reads.  Accepting locations are those whose automaton state
    is accepting."""
    order, state_id = _numbering((pta.initial, aut.initial))
    locations: list[PLoc] = []
    for l, q in order:
        base = pta.locations[l]
        ploc = PLoc(f"{base.name}#q{q}", base.inv,
                    accepting=q in aut.accepting)
        locations.append(ploc)
        enabled = [t for t in aut.outgoing(q)
                   if all(lab.holds(l, a) for a in t.pos)
                   and not any(lab.holds(l, a) for a in t.negs)]
        for e in base.edges:
            for t in enabled:
                tgt = state_id((e.target, t.dst))
                ploc.edges.append(PEdge(e.atoms, e.resets, tgt, e.tag))
    return Ptba(pta.clock_names, locations, 0)


# --- non-Zeno transformation ------------------------------------------------


def make_nonzeno(a: Ptba) -> Ptba:
    """Force at least one time unit between consecutive accepting visits.

    Locations are duplicated into two phases.  Phase-0 copies are never
    accepting; an edge into an accepting location may switch to phase 1
    when a fresh clock is at least 1, resetting it; from phase 1 the next
    edge drops back to phase 0.  Every accepting run of the result is
    non-Zeno, and every non-Zeno accepting run of the input survives by
    switching phase only at visits spaced one time unit apart.
    """
    z = len(a.clock_names)
    names = a.clock_names + ["_nz"]
    gate: Atom = (0, z, bound(-1))  # fresh clock >= 1
    order, state_id = _numbering((a.initial, 0))
    locations: list[PLoc] = []
    for l, ph in order:
        base = a.locations[l]
        ploc = PLoc(f"{base.name}~{ph}", base.inv,
                    accepting=base.accepting and ph == 1)
        locations.append(ploc)
        for e in base.edges:
            tgt0 = state_id((e.target, 0))
            ploc.edges.append(PEdge(e.atoms, e.resets, tgt0, e.tag))
            if ph == 0 and a.locations[e.target].accepting:
                tgt1 = state_id((e.target, 1))
                ploc.edges.append(PEdge(
                    e.atoms + (gate,), tuple(sorted(set(e.resets) | {z})),
                    tgt1, e.tag + "+gap"))
    return Ptba(names, locations, 0)


# --- clock bounds for extrapolation ------------------------------------------


def location_bounds(a: Ptba, box: ParamBox) -> list[tuple[int, ...]]:
    """Per location, the largest constant each clock can still be compared
    with before it is next reset, over the whole box: static guard
    analysis (Behrmann, Bouyer, Fleury, Larsen, TACAS 2003).

    A location starts from the atoms of its invariant and of its outgoing
    guards.  Every atom contributes to both of its clocks, and both the
    expression and its negation are considered: a lower-bound guard stores
    the negated threshold, so only the pair covers the magnitudes that
    matter.  An edge then passes its target's bounds back to its source for
    every clock it does not reset, until nothing changes.  The zero clock
    stays at 0.

    Widening a zone stored at a location with that location's vector keeps
    the answers exact for diagonal-free guards: every guard and invariant
    the zone's points can meet before a reset lies within the vector."""
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
                    m = magnitude[b.expr] = max(b.expr.max_bound(box),
                                                (-b.expr).max_bound(box))
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
    return [tuple(row) for row in table]


def clock_bounds(table: list[tuple[int, ...]]) -> list[int]:
    """The largest bound of each clock over all locations of a
    ``location_bounds`` table: the one vector that covers every location."""
    return [max(col) for col in zip(*table)]


def dump_product(a: Ptba) -> str:
    def atom(i, j, b):
        op = "<" if b.strict else "<="
        return f"{a.clock_names[i]} - {a.clock_names[j]} {op} {b.expr}"

    lines = [f"clocks: {' '.join(a.clock_names[1:])}",
             f"initial: {a.locations[a.initial].name}"]
    for loc in a.locations:
        mark = " (accepting)" if loc.accepting else ""
        lines.append(f"location {loc.name}{mark}")
        for at in loc.inv:
            lines.append(f"  invariant {atom(*at)}")
        for e in loc.edges:
            guard = " && ".join(atom(*at) for at in e.atoms) or "true"
            rs = " reset " + ",".join(a.clock_names[r] for r in e.resets) \
                if e.resets else ""
            lines.append(f"  -> {a.locations[e.target].name}"
                         f" [{guard}]{rs}  ({e.tag})")
    return "\n".join(lines)
