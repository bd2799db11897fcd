"""The symbolic engine alone; its front end and interface are in ``model``.

A colour worklist builds the reachable symbolic graph once, in the node
table (``StateStore``), which is the graph: per node a location, a
widened matrix, a colour and coloured out-edges.  A node's colour is the
bitset of the valuations under which it is reachable; a colour only
grows.  A matrix is widened with the clock bounds of the location it is
stored at (static guard analysis after Behrmann, Bouyer, Fleury and
Larsen, TACAS 2003), which are at most the one vector that covers every
location and often far below it, so fewer matrices stay apart.  Before
widening, a matrix frees the clocks that every path from its location
resets before reading them (after Daws and Yovine, RTSS 1996), so
matrices that differ only on those clocks meet at one node; the front
end computes both tables in one analysis (``model.clock_tables``) and
hands them to the engine.  A matrix also drops the lower bounds of the
non-Zeno clock (``Ptba.gate``, which only its gate ``>= 1`` reads;
``model.make_nonzeno``), so matrices that differ only in how long ago
that clock was reset meet too.  The front end adds that clock only for
the accepting locations that a Zeno run could visit infinitely often
(``model.zeno_accepting``), and none where every cycle lets time pass.
When a node's colour grows by some valuations, the worklist expands the
node's matrix on those valuations alone: successor generation with
constraint splitting, and the deadlock valuations among
those not yet known to deadlock (the deadlock set is a union).  The
successors along one edge of one canonical branch come from one pass over
mutable rows (``pdbm.transition``) along the edge's step, numbered once
for both engines by the front end (``model.transition_steps``); the
initial matrices are step 0 from the zero zone.  Each step's plan is
prepared once per graph, and the edges that share a step, as the
product's copies of one network edge do, share its plan and, per base
branch, its successor branches, so each distinct transition is computed
once per graph.  Each successor branch, freed, dropped and widened, adds its
valuations to its target node and to the colour of the edge; the node
table keys and checks the branch's matrix in one walk over it.  At a
valuation v, the nodes and edges whose colours hold v form the widened
zone graph at v with inactive clocks freed and the gate clock's lower
bounds dropped, the graph the enumeration engine explores at v, up to
nodes that repeat a zone.  None of the three
changes reachability or accepting cycles (each added point is simulated
by a point already there), and the deadlock fold reads only the
location's guards, whose clocks are active there; the gate is the one
guard that reads the gate clock, and each gated edge has an ungated
sibling with the same source and otherwise the same guard, so the fold
never depends on that clock.

Accepting cycles are then found for all valuations at once by a fixpoint
on colours (``cumulative_ndfs_graph``), which runs the same time-limit
check as the worklist.  The violating set is the union of
what survives it, and the satisfying set its complement inside the box.
"""

from __future__ import annotations

from collections import deque

from . import pdbm
from .errors import CapacityError, SoundnessError
from .ltl import Formula, parse_ltl
from .model import (
    DEFAULT_STATE_LIMIT,
    Network,
    Options,
    Ptba,
    SynthesisResult,
    build_automaton,
    deadlock_guards,
    transition_steps,
)
from .params import BoundTable, ParamBox, ValuationSet
from .pdbm import CPDBM, Matrix


class StateStore:
    """The node table, which is the coloured graph: one node per location
    and widened matrix, with its colour and its out-edges (``succ``,
    target node -> edge colour).  ``build_graph`` fills it and adds the
    initial nodes, the deadlock valuations, the number of expansions and
    the split counts (see ``successors``).

    ``bounds`` holds each location's clock bounds (``clock_tables``),
    the vector its matrices are widened with.  A node's key is its
    location and, for every entry (i, j) of its matrix, the entry's
    encoded value (``2v + weak``) at every box point, clamped to
    [-2*maxima[j] - 1, 2*maxima[i] + 2] for the location's vector
    ``maxima``, one step outside the widening window; an infinite entry is
    keyed as infinity.  A node keeps the first matrix that arrives, its
    colour is the union of the arrivals' valuations, and it is canonical
    only if every arrival was.

    Matrices arrive with the location's inactive clocks freed
    (``pdbm.transition``); a freed clock's bound is 0, so its entries lie
    inside the window too, and arrivals that differ only on it share a key.

    This is exact: on an arrival's valuations, widening keeps its finite
    entries inside the window, where the clamp changes nothing, so equal
    keys mean equal matrices there, and the node's matrix read on its
    colour denotes exactly the zones that arrived.  The clamp makes the
    keys finite, so the table is finite and each node grows at most
    |box| times.  The clamped values are the ids that ``table``, the
    graph's ``BoundTable``, memoizes in ``window_bits`` per window and
    bound id, the memo that widening reads too; a matrix's entries are
    bound ids, so the key walk reads the memo by the entry itself.

    ``resolve`` adds an arrival and queues its node when the arrival
    brings new valuations, which ``pending`` holds until the node is
    expanded.  Every arrival's finite entries must lie inside the window
    on its valuations, else SoundnessError: one walk over the arrival's
    matrix reads each entry's id and checks it.
    """

    def __init__(self, table: BoundTable, bounds,
                 limit: int = DEFAULT_STATE_LIMIT):
        self.table = table
        self.bounds = bounds
        # per location, the window memos of its entries
        self._windows = [table.windows(v) for v in bounds]
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
        """The node key of ``z`` at ``loc``; raises SoundnessError at the
        first finite entry outside its window on ``z.bits``."""
        key = [loc]
        bits = z.bits
        windows = self._windows[loc]
        for i, row in enumerate(z.mat):
            memos = windows[i]
            for j, b in enumerate(row):
                if not b:
                    key.append(-1)
                    continue
                got = memos[j].get(b)
                if got is None:
                    maxima = self.bounds[loc]
                    got = self.table.window_bits(b, maxima[i], -maxima[j])
                key.append(got[2])
                if bits & ~(got[0] & got[1]):
                    raise SoundnessError(
                        f"stored bound out of range at entry ({i},{j}): "
                        f"{self.table.bound(b)}")
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


def initial_states(n_clocks: int, step: tuple,
                   table: BoundTable) -> list[CPDBM]:
    """The initial matrices: one ``pdbm.transition`` from the zero zone
    along ``step``, step 0 of ``model.transition_steps``, which enters the
    initial location with no guard and no reset.  Time release is a no-op
    on the released zero zone.  Its splits are not tallied."""
    return pdbm.transition(pdbm.initial_cpdbm(n_clocks, table),
                           pdbm.transition_plan(*step, table), table, {})


def successors(loc: int, base: list[CPDBM], moves, steps, table: BoundTable,
               counts: dict[str, int], plans: list) -> list[tuple[int, CPDBM]]:
    """All successors of the zone at ``loc`` whose canonical branches are
    ``base``, as (target, matrix) pairs: per edge and base branch, the
    branches of one ``pdbm.transition`` along the edge's step, with empty
    branches dropped at every stage.  Guard and invariant are closed
    through their clocks only; the base branches are closed in full.
    Pairs come in edge order; branches that reach one target with one
    matrix meet at their node in the node table.  ``counts`` tallies per
    forking stage the branches it added (``guard`` counts a guard or
    invariant and its closure).

    ``moves[loc]`` lists the edges as (target, step), numbers of
    ``steps`` (``model.transition_steps``).  ``plans[k]``, made on first
    use, holds step k's ``pdbm.transition_plan`` for one ``table`` and a
    memo from a base branch's (bits, matrix) to its successor branches and
    the splits they added, so the edges that share a step share both.
    ``transition`` is a pure function of the plan, the branch and
    ``table``, so a hit gives what a call would, and its splits are
    tallied again.  ``build_graph`` passes one ``table`` and one ``plans``
    per graph, so nothing is kept across graphs."""
    out: list[tuple[int, CPDBM]] = []
    for target, k in moves[loc]:
        if plans[k] is None:
            plans[k] = (pdbm.transition_plan(*steps[k], table), {})
        plan, memo = plans[k]
        for zb in base:
            key = (zb.bits, zb.mat)
            hit = memo.get(key)
            if hit is None:
                tally: dict[str, int] = {}
                hit = memo[key] = (pdbm.transition(zb, plan, table, tally),
                                   tuple(tally.items()))
            branches, added = hit
            for tag, n in added:
                counts[tag] = counts.get(tag, 0) + n
            out.extend((target, z) for z in branches)
    return out


def deadlock_valuations(guards, base: list[CPDBM], table: BoundTable,
                        dnf_limit: int) -> int:
    """Valuations for which some point of a zone, whose canonical branches
    are ``base``, enables no outgoing edge of its location: the location's
    ``guards`` (``model.deadlock_guards``) are applied as a product of
    disjunctions, and the surviving branches' extensions are
    united.  After each guard, branches with equal matrices become one
    branch on the union of their valuations, in order of first
    occurrence, so the expansion grows with the distinct zones, not with
    the paths to them; operations act on each valuation separately, so
    the union means the same."""
    if guards is None:
        return 0
    cur = base
    steps = 0
    for choices in guards:
        united: dict[Matrix, int] = {}  # matrix -> valuation bits
        for atom in choices:
            for z in cur:
                steps += 1
                if steps > dnf_limit:
                    raise CapacityError(
                        f"deadlock-guard expansion exceeded {dnf_limit}")
                for w in pdbm.constrain(z, [atom], table):
                    united[w.mat] = united.get(w.mat, 0) | w.bits
        # constrain's branches are canonical
        cur = [CPDBM(bits, mat, True) for mat, bits in united.items()]
        if not cur:
            break
    bits = 0
    for z in cur:
        bits |= z.bits
    return bits


# --- reachable coloured graph ------------------------------------------------


def build_graph(a: Ptba, box: ParamBox, bounds, free,
                opts: Options | None = None, over_time=None) -> StateStore:
    """Run the colour worklist from the initial states until no node has
    pending valuations: each expansion takes all of a node's pending
    valuations, folds in the deadlock valuations of those not yet in the
    deadlock set, from its location's ``deadlock_guards``, built the first
    time that location folds, and adds every successor branch to its
    target node and edge.
    ``bounds`` and ``free`` are the ``clock_tables`` of ``a``: the
    clock bounds each location's matrices are widened with and the
    clocks they free; ``a.gate`` is the clock whose lower bounds they
    drop, and the graph's own ``BoundTable`` numbers its bounds.  Returns
    the filled node table; before each expansion it runs ``over_time``,
    by default ``opts.timer()``, which raises CapacityError once
    ``opts.time_limit`` has passed."""
    opts = opts or Options()
    over_time = over_time or opts.timer()
    table = BoundTable(box)
    store = StateStore(table, bounds, opts.limit_states)
    steps, moves = transition_steps(a, bounds, free)
    plans: list = [None] * len(steps)  # per step (``successors``)
    folds: dict = {}  # per location, at its first fold
    for z in initial_states(a.n_clocks, steps[0], table):
        nid = store.resolve(a.initial, z)
        if nid not in store.initials:
            store.initials.append(nid)
    while store.queue:
        over_time()
        u = store.queue.popleft()
        delta, store.pending[u] = store.pending[u], 0
        loc = store.locs[u]
        z = CPDBM(delta, store.mats[u], store.canonical[u])
        base = pdbm.canonicalize(z, table)
        covered = 0
        for zb in base:
            covered |= zb.bits
        if covered != delta:
            raise SoundnessError("stored zone empty at a valuation of its "
                                 "extension")
        # the deadlock set is a union: fold only valuations not in it yet
        fold = delta & ~store.deadlock_bits
        if fold:
            live = base if fold == delta else [
                CPDBM(zb.bits & fold, zb.mat, zb.canonical) for zb in base
                if zb.bits & fold]
            if loc not in folds:
                folds[loc] = deadlock_guards(a.locations[loc])
            store.deadlock_bits |= deadlock_valuations(
                folds[loc], live, table, opts.dnf_limit)
        store.expansions += 1
        if opts.trace is not None:
            opts.trace.write(f"state {u}: {a.locations[loc].name}\n")
            opts.trace.write(pdbm.dump(z, table, a.clock_names) + "\n\n")
        edges = store.succ[u]
        for target, zt in successors(loc, base, moves, steps, table,
                                     store.counts, plans):
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
                          stats: dict | None = None,
                          over_time=lambda: None) -> int:
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
    growth of the union, in node order.  ``over_time`` (an
    ``Options.timer`` check) runs before each of a round's two steps.
    """
    n = len(colour)
    preds: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, edges in enumerate(succ):
        for w, c in edges.items():
            preds[w].append((u, c))
    s = list(colour)
    rounds = 0
    while True:
        over_time()
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
        over_time()
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


def synthesize(net: Network, prop: Formula | str, box: ParamBox | None = None,
               opts: Options | None = None) -> SynthesisResult:
    """Compute the valuations satisfying / violating the property and the
    valuations flagged as deadlocks, with the symbolic engine."""
    opts = opts or Options()
    box = box or net.box()
    f = parse_ltl(prop) if isinstance(prop, str) else prop
    tba, bounds, free = build_automaton(net, f, box)
    over_time = opts.timer()  # one limit for the graph and the fixpoint
    g = build_graph(tba, box, bounds, free, opts, over_time)
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
                                          stats, over_time)
    return SynthesisResult(
        box=box,
        accepted=ValuationSet(box, accepted_bits),
        deadlock=ValuationSet(box, g.deadlock_bits),
        stats=stats,
    )
