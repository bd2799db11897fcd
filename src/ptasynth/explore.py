"""The symbolic engine.

A colour worklist builds the reachable symbolic graph once, in the node
table (``StateStore``), which is the graph: per node a location, a
widened matrix, a colour and coloured out-edges.  A node's colour is the
bitset of the valuations under which it is reachable; a colour only
grows.  A matrix is widened with the clock bounds of the location it is
stored at (``model.location_bounds``, static guard analysis after
Behrmann, Bouyer, Fleury and Larsen, TACAS 2003), which are at most the
one vector that covers every location and often far below it, so fewer
matrices stay apart.  When a node's colour grows by some valuations, the
worklist expands the node's matrix on those valuations alone: successor
generation with constraint splitting, and the deadlock valuations.  Each
successor branch adds its valuations to its target node and to the
colour of the edge.  At a valuation v, the nodes and edges whose colours
hold v form the widened zone graph at v, up to nodes that repeat a zone,
which changes neither reachability nor accepting cycles.

Accepting cycles are then found for all valuations at once by a fixpoint
on colours (``cumulative_ndfs_graph``).  The violating set is the union of
what survives it, and the satisfying set its complement inside the box.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import pdbm, zones
from .errors import CapacityError, InputError, SoundnessError
from .ltl import Formula, atoms_of, negated_automaton, parse_ltl
from .model import (
    Network,
    Ptba,
    clock_bounds,
    compose,
    location_bounds,
    make_nonzeno,
    product,
)
from .params import ParamBox, ValuationSet
from .pdbm import CPDBM, Matrix, negate_atom

DEFAULT_STATE_LIMIT = 1 << 22
DEFAULT_DNF_LIMIT = 4096


@dataclass
class Options:
    limit_states: int = DEFAULT_STATE_LIMIT
    dnf_limit: int = DEFAULT_DNF_LIMIT
    trace: object = None    # writable stream for expanded-state dumps


class StateStore:
    """The node table, which is the coloured graph: one node per location
    and widened matrix, with its colour and its out-edges (``succ``,
    target node -> edge colour).  ``build_graph`` fills it and adds the
    initial nodes, the deadlock valuations, the number of expansions and
    the split counts (see ``successors``).

    ``bounds`` holds each location's clock bounds (``location_bounds``),
    the vector its matrices are widened with.  A node's key is its
    location and, for every entry (i, j) of its matrix, the entry's
    encoded value (``2v + weak``) at every box point, clamped to
    [-2*maxima[j] - 1, 2*maxima[i] + 2] for the location's vector
    ``maxima``, one step outside the widening window; an infinite entry is
    keyed as infinity.  A node keeps the first matrix that arrives, its
    colour is the union of the arrivals' valuations, and it is canonical
    only if every arrival was.

    This is exact: on an arrival's valuations, widening keeps its finite
    entries inside the window, where the clamp changes nothing, so equal
    keys mean equal matrices there, and the node's matrix read on its
    colour denotes exactly the zones that arrived.  The clamp makes the
    keys finite, so the table is finite and each node grows at most
    |box| times.  The clamped values are the ids that the box's
    ``BoundTable.window_bits`` memoizes per bound and window, the memo
    that widening reads too.

    ``resolve`` adds an arrival and queues its node when the arrival
    brings new valuations, which ``pending`` holds until the node is
    expanded.  Every arrival's finite entries must lie inside the window
    on its valuations, else SoundnessError.
    """

    def __init__(self, box: ParamBox, bounds,
                 limit: int = DEFAULT_STATE_LIMIT):
        self.box = box
        self.bounds = bounds
        # per location, the window memos of its entries
        self._windows = [box.bounds.windows(v) for v in bounds]
        self.limit = limit
        self.locs: list[int] = []
        self.mats: list[Matrix] = []
        self.canonical: list[bool] = []
        self.colour: list[int] = []
        self.pending: list[int] = []
        self.succ: list[dict[int, int]] = []  # target node -> edge colour
        self.queue: deque[int] = deque()
        self._index: dict[tuple, int] = {}
        self.initials: list[int] = []
        self.deadlock_bits = 0
        self.expansions = 0
        self.counts: dict[str, int] = {}

    @property
    def n_nodes(self) -> int:
        return len(self.locs)

    def _key(self, loc: int, z: CPDBM) -> tuple:
        key = [loc]
        bits = z.bits
        windows = self._windows[loc]
        for i, row in enumerate(z.mat):
            memos = windows[i]
            for j, b in enumerate(row):
                if b.expr is None:
                    key.append(-1)
                    continue
                got = memos[j].get(id(b))
                if got is None:
                    maxima = self.bounds[loc]
                    got = self.box.bounds.window_bits(b, maxima[i],
                                                      -maxima[j])
                key.append(got[2])
                if bits & ~(got[0] & got[1]):
                    raise SoundnessError(
                        f"stored bound out of range at entry ({i},{j}): {b}")
        return tuple(key)

    def resolve(self, loc: int, z: CPDBM) -> int:
        """Add an arrival of ``z`` at ``loc``; returns its node."""
        key = self._key(loc, z)
        nid = self._index.get(key)
        if nid is None:
            nid = len(self.locs)
            if nid >= self.limit:
                raise CapacityError(f"stored states exceeded {self.limit}")
            self._index[key] = nid
            self.locs.append(loc)
            self.mats.append(z.mat)
            self.canonical.append(z.canonical)
            self.colour.append(0)
            self.pending.append(0)
            self.succ.append({})
        elif not z.canonical:
            self.canonical[nid] = False
        fresh = z.bits & ~self.colour[nid]
        if fresh:
            if not self.pending[nid]:
                self.queue.append(nid)
            self.colour[nid] |= fresh
            self.pending[nid] |= fresh
        return nid


# --- successor generation ----------------------------------------------------


def initial_states(a: Ptba, box: ParamBox, bounds) -> list[CPDBM]:
    """The initial matrices, all at ``a.initial``: zero zone with time
    released, constrained by the initial invariant, canonical, then
    widened with the initial location's clock bounds (``bounds`` is the
    ``location_bounds`` table)."""
    z0 = pdbm.initial_cpdbm(a.n_clocks, box)
    return [z2 for z1 in pdbm.constrain(z0, a.locations[a.initial].inv, box)
            for z2 in pdbm.extrapolate(z1, bounds[a.initial], box)]


def successors(loc: int, base: list[CPDBM], a: Ptba, box: ParamBox, bounds,
               counts: dict[str, int]) -> list[tuple[int, CPDBM]]:
    """All successors of the zone at ``loc`` whose canonical branches are
    ``base``, as (target, matrix) pairs: per edge, guard, reset, time
    release, target invariant, widening with the target's clock bounds
    (``bounds`` is the ``location_bounds`` table), with empty branches
    dropped at every stage.  Guard and invariant go through
    ``pdbm.constrain``, which closes through the guard's clocks only; the
    base branches are closed in full.  Pairs come in edge order; branches
    that reach one target with one matrix meet at their node in the node
    table.  ``counts`` tallies per forking operation the branches it
    added (``guard`` counts a guard or invariant and its closure)."""
    out: list[tuple[int, CPDBM]] = []

    def count(tag, n):
        if n > 1:
            counts[tag] = counts.get(tag, 0) + n - 1

    for e in a.locations[loc].edges:
        inv = a.locations[e.target].inv
        maxima = bounds[e.target]
        for zb in base:
            g1 = pdbm.constrain(zb, e.atoms, box)
            count("guard", len(g1))
            for z1 in g1:
                z2 = pdbm.up(pdbm.reset(z1, e.resets))
                g2 = pdbm.constrain(z2, inv, box)
                count("guard", len(g2))
                for z3 in g2:
                    ex = pdbm.extrapolate(z3, maxima, box)
                    count("extrapolate", len(ex))
                    out.extend((e.target, z) for z in ex)
    return out


def deadlock_valuations(loc: int, base: list[CPDBM], a: Ptba, box: ParamBox,
                        dnf_limit: int) -> ValuationSet:
    """Valuations for which some point of the zone at ``loc``, whose
    canonical branches are ``base``, enables no outgoing edge: the negated
    guards of all outgoing edges are applied as a product of
    disjunctions, and the surviving branches' extensions are united.
    Branches with equal matrices are merged after each edge, so the
    expansion grows with the distinct zones, not with the paths to them."""
    edges = a.locations[loc].edges
    if any(not e.atoms for e in edges):
        # an unguarded edge is always enabled: no zone point can deadlock
        return ValuationSet.empty(box)
    cur = base
    steps = 0
    for e in edges:
        choices = [negate_atom(at) for at in e.atoms]
        nxt: list[CPDBM] = []
        for atom in choices:
            for z in cur:
                steps += 1
                if steps > dnf_limit:
                    raise CapacityError(
                        f"deadlock-guard expansion exceeded {dnf_limit}")
                nxt.extend(pdbm.constrain(z, [atom], box))
        cur = pdbm.merge(nxt)
        if not cur:
            break
    bits = 0
    for z in cur:
        bits |= z.bits
    return ValuationSet(box, bits)


# --- reachable coloured graph ------------------------------------------------


def build_graph(a: Ptba, box: ParamBox, bounds,
                opts: Options | None = None) -> StateStore:
    """Run the colour worklist from the initial states until no node has
    pending valuations: each expansion takes all of a node's pending
    valuations, folds their deadlock valuations in and adds every
    successor branch to its target node and edge.  ``bounds`` is the
    ``location_bounds`` table.  Returns the filled node table."""
    opts = opts or Options()
    store = StateStore(box, bounds, opts.limit_states)
    for z in initial_states(a, box, bounds):
        nid = store.resolve(a.initial, z)
        if nid not in store.initials:
            store.initials.append(nid)
    while store.queue:
        u = store.queue.popleft()
        delta, store.pending[u] = store.pending[u], 0
        loc = store.locs[u]
        z = CPDBM(delta, store.mats[u], store.canonical[u])
        base = [z] if z.canonical else pdbm.canonicalize(z, box)
        covered = 0
        for zb in base:
            covered |= zb.bits
        if covered != delta:
            raise SoundnessError("stored zone empty at a valuation of its "
                                 "extension")
        store.deadlock_bits |= deadlock_valuations(loc, base, a, box,
                                                   opts.dnf_limit).bits
        store.expansions += 1
        if opts.trace is not None:
            opts.trace.write(f"state {u}: {a.locations[loc].name}\n")
            opts.trace.write(pdbm.dump(z, box, a.clock_names) + "\n\n")
        edges = store.succ[u]
        for target, zt in successors(loc, base, a, box, bounds, store.counts):
            if zt.bits & ~delta:
                raise SoundnessError(
                    "monotonicity violation: successor valuations not a "
                    "subset of the expanded ones")
            w = store.resolve(target, zt)
            edges[w] = edges.get(w, 0) | zt.bits
    return store


# --- colour fixpoint ---------------------------------------------------------


def cumulative_ndfs_graph(box: ParamBox, colour: list[int],
                          succ: list[dict[int, int]], accepting: list[bool],
                          stats: dict | None = None) -> int:
    """Valuations under which an accepting cycle is reachable, for all
    valuations at once: OWCTY-style elimination (Cerna and Pelanek,
    SPIN 2003) in the coloured form of Barnat et al. (IEEE/ACM TCBB
    2012).

    The graph is given per node: its colour, its out-edges (target node
    -> edge colour) and its accepting flag.  S starts as the colours, and
    each round (1) keeps in S[w] the valuations under which w is
    reachable within S from an accepting node, then (2) repeats
    ``S[w] &= OR_u (S[u] & edge colour u -> w)`` until nothing changes,
    so a node keeps a valuation only with a predecessor under it.  Rounds
    repeat until one changes nothing.  At a valuation v this is OWCTY on
    the graph of the nodes and edges whose colours hold v: what survives
    lies on or after an accepting cycle.  Returns the union of S;
    ``stats`` gets ``fixpoint_rounds`` and one witness valuation per
    growth of the union, in node order.
    """
    n = len(colour)
    preds: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, edges in enumerate(succ):
        for w, c in edges.items():
            preds[w].append((u, c))
    s = list(colour)
    rounds = 0
    while True:
        rounds += 1
        r = [0] * n
        stack = [v for v in range(n) if accepting[v] and s[v]]
        for v in stack:
            r[v] = s[v]
        while stack:
            u = stack.pop()
            for w, c in succ[u].items():
                add = r[u] & c & s[w] & ~r[w]
                if add:
                    r[w] |= add
                    stack.append(w)
        queued = [bool(x) for x in r]
        todo = [w for w in range(n) if queued[w]]
        while todo:
            w = todo.pop()
            queued[w] = False
            live = 0
            for u, c in preds[w]:
                live |= r[u] & c
            if r[w] & ~live:
                r[w] &= live
                for x in succ[w]:
                    if r[x] and not queued[x]:
                        queued[x] = True
                        todo.append(x)
        if r == s:
            break
        s = r
    found = 0
    witnesses: list[dict] = []
    for bits in s:
        fresh = bits & ~found
        if fresh:
            witnesses.append(box.point((fresh & -fresh).bit_length() - 1))
            found |= bits
    if stats is not None:
        stats["fixpoint_rounds"] = rounds
        stats["witnesses"] = witnesses
    return found


# --- end-to-end synthesis -----------------------------------------------------


@dataclass
class SynthesisResult:
    box: ParamBox
    accepted: ValuationSet     # valuations violating the property
    satisfying: ValuationSet
    deadlock: ValuationSet
    stats: dict

    def to_json(self) -> dict:
        return {
            "satisfying": self.satisfying.to_json_objs(),
            "violating": self.accepted.to_json_objs(),
            "deadlock": self.deadlock.to_json_objs(),
            "stats": self.stats,
        }


def declared_atoms(net: Network) -> set[str]:
    out = set()
    for comp in net.components:
        for loc in comp.locations.values():
            out.add(f"{comp.name}.{loc.name}")
            out.update(loc.labels)
    return out


def validate_property(net: Network, f: Formula) -> None:
    known = declared_atoms(net)
    for atom in atoms_of(f):
        if isinstance(atom, tuple):
            if atom[0] not in net.variables:
                raise InputError(f"property uses unknown variable {atom[0]!r}",
                                 kind="unknown-variable")
        elif atom not in known:
            raise InputError(f"property uses unknown atom {atom!r}",
                             kind="unknown-atom")


# A bound below this magnitude encodes below zones.INF / 2, so the sum of
# two encoded bounds stays below zones.INF.
BOUND_LIMIT = zones.INF >> 2


def _check_bound_range(a: Ptba, box: ParamBox, maxima) -> None:
    """Reject bounds the int64 zone encoding cannot hold: every clock
    maximum (``maxima`` is the ``clock_bounds`` vector, which covers every
    location's), every atom constant and every atom term at its largest
    magnitude over the box must stay below BOUND_LIMIT."""

    def check(value: int, what: str) -> None:
        if value >= BOUND_LIMIT:
            raise InputError(f"{what} reaches {value}, out of the bound "
                             f"range (below 2^38)", kind="bound-range")

    for name, m in zip(a.clock_names, maxima):
        check(m, f"maximum of clock {name}")
    for loc in a.locations:
        for atoms in [loc.inv] + [e.atoms for e in loc.edges]:
            for _, _, b in atoms:
                if b.is_inf:
                    continue
                check(abs(b.expr.const), "bound constant")
                for p, z in b.expr.coeffs:
                    check(abs(z) * max(abs(box.lower(p)), abs(box.upper(p))),
                          f"bound term {z}*{p}")


def build_automaton(net: Network, f: Formula, box: ParamBox):
    """Shared front end for both engines: product of the composed network
    with the automaton of the negated property, made strongly non-Zeno,
    and its ``location_bounds`` table.  Raises InputError when a bound
    falls outside the encodable range."""
    validate_property(net, f)
    aut = negated_automaton(f)
    pta, lab = compose(net)
    tba = make_nonzeno(product(pta, lab, aut))
    bounds = location_bounds(tba, box)
    _check_bound_range(tba, box, clock_bounds(bounds))
    return tba, bounds


def synthesize(net: Network, prop: Formula | str, box: ParamBox | None = None,
               opts: Options | None = None) -> SynthesisResult:
    """Compute the valuations satisfying / violating the property and the
    valuations flagged as deadlocks, with the symbolic engine."""
    opts = opts or Options()
    box = box or net.box()
    f = parse_ltl(prop) if isinstance(prop, str) else prop
    tba, bounds = build_automaton(net, f, box)
    g = build_graph(tba, box, bounds, opts)
    stats: dict = {
        "engine": "symbolic",
        "box_points": box.size,
        "stored_states": g.n_nodes,
        "transitions": sum(len(edges) for edges in g.succ),
        "initial_states": len(g.initials),
        "expansions": g.expansions,
        "splits": {k: g.counts[k] for k in sorted(g.counts)},
    }
    accepting = [tba.locations[loc].accepting for loc in g.locs]
    accepted_bits = cumulative_ndfs_graph(box, g.colour, g.succ, accepting,
                                          stats)
    accepted = ValuationSet(box, accepted_bits)
    return SynthesisResult(
        box=box,
        accepted=accepted,
        satisfying=accepted.complement(),
        deadlock=ValuationSet(box, g.deadlock_bits),
        stats=stats,
    )


def scan_stored_bounds(g: StateStore) -> int:
    """Verify that every finite bound of every node's matrix evaluates
    within [-maxima[column], maxima[row]] at every valuation of the node's
    colour, for the clock bounds ``maxima`` of the node's location;
    returns the number of entries checked.  The node table makes the same
    check on every arrival; this scan re-checks a finished graph entry by
    entry."""
    checked = 0
    box = g.box
    for loc, mat, colour in zip(g.locs, g.mats, g.colour):
        maxima = g.bounds[loc]
        idx = ValuationSet(box, colour).indices()
        for i, row in enumerate(mat):
            for j, b in enumerate(row):
                if b.is_inf or i == j:
                    continue
                vals = box.values(b.expr)[idx]
                if (vals > maxima[i]).any() or (vals < -maxima[j]).any():
                    raise SoundnessError(
                        f"stored bound out of range at entry ({i},{j}): {b}")
                checked += 1
    return checked
