"""The symbolic engine.

The reachable symbolic graph is built once (successor generation with
constraint splitting, sibling branches that reach one target with one
matrix merged into one state whose extension is their union, a two-level
state store resolving semantically equal zones to one representative,
deadlock valuations collected per state), then the accepting-cycle search
runs on it: a nested depth-first search that, instead of stopping at the
first accepting cycle, accumulates the parameter valuations of every cycle
it finds and prunes states whose valuations are already covered.  The
satisfying set is the complement of the accumulated set inside the box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import blake2b

import numpy as np

from . import ltl as ltl_mod
from . import pdbm, zones
from .errors import CapacityError, InputError, SoundnessError
from .ltl import Formula, parse_ltl, to_buchi, to_nnf
from .model import (
    Network,
    Ptba,
    clock_bounds,
    compose,
    make_nonzeno,
    product,
)
from .params import ParamBox, ValuationSet
from .pdbm import CPDBM, negate_atom

DEFAULT_STATE_LIMIT = 1 << 22
DEFAULT_DNF_LIMIT = 4096


@dataclass
class Options:
    limit_states: int = DEFAULT_STATE_LIMIT
    dnf_limit: int = DEFAULT_DNF_LIMIT
    check: bool = True      # run the soundness checks (SoundnessError)
    prune: bool = True      # skip states whose valuations are all found
    trace: object = None    # writable stream for visited-state dumps


@dataclass
class SymbolicState:
    loc: int
    zone: CPDBM


class StateStore:
    """Resolves a zone to its semantic representative.

    A structural cache maps already-seen (extension bits, matrix) pairs to
    their representative: a zone hits it when its constraint set holds the
    same valuations as a zone seen before and its matrix is equal.  On a
    miss the zone's signature -- a hash of its closed concrete matrices at
    every valuation of its extension -- selects a bucket whose members are
    compared by exact per-valuation semantics.  The signature is a complete
    semantic key, so buckets almost never hold more than one candidate.
    The store keeps zones only; per-state search marks live with the
    search.

    Given the clock maxima, the store also checks every zone it evaluates
    against the widening range: each finite bound must evaluate inside
    [-maxima[column], maxima[row]], else SoundnessError.
    """

    def __init__(self, box: ParamBox, maxima=None):
        self.box = box
        self.bound_range = None
        if maxima is not None:
            m = np.asarray(maxima, dtype=np.int64)
            # encoded (value, weak) bounds: (m_i, <=) is 2*m_i + 1 at most,
            # (-m_j, <) is -2*m_j at least
            self.bound_range = (-2 * m[None, :], 2 * m[:, None] + 1)
        self.zones: list[CPDBM] = []
        self.by_structure: dict = {}
        self.by_signature: dict[bytes, list[int]] = {}
        self.m2_hits = 0
        self.m2_misses = 0
        self.semantic_comparisons = 0

    def _closed_evals(self, z: CPDBM):
        ext = z.cset.extension(self.box)
        mats = np.ascontiguousarray(
            pdbm.evaluate_all(z, self.box)[ext.indices()])
        if self.bound_range is not None:
            lo, hi = self.bound_range
            bad = (mats != zones.INF) & ((mats < lo) | (mats > hi))
            if bad.any():
                _, i, j = (int(x) for x in np.argwhere(bad)[0])
                raise SoundnessError(
                    f"stored bound out of range at entry ({i},{j}): "
                    f"{z.mat[i][j]}")
        ok = zones.close_many(mats)
        if not ok.all():
            raise SoundnessError("stored zone empty at a valuation of its "
                                 "extension")
        return ext, mats

    def _signature(self, z: CPDBM):
        ext, mats = self._closed_evals(z)
        h = blake2b(digest_size=16)
        h.update(z.n.to_bytes(2, "little"))
        h.update(ext.bits.to_bytes((self.box.size + 7) // 8, "little"))
        h.update(mats.tobytes())
        return h.digest(), ext, mats

    def resolve(self, z: CPDBM) -> int:
        key = (z.cset.bits, z.mat)
        rep = self.by_structure.get(key)
        if rep is not None:
            self.m2_hits += 1
            return rep
        self.m2_misses += 1
        sig, ext, mats = self._signature(z)
        bucket = self.by_signature.setdefault(sig, [])
        for rid in bucket:
            self.semantic_comparisons += 1
            other_ext, other_mats = self._closed_evals(self.zones[rid])
            if other_ext.bits == ext.bits and np.array_equal(other_mats, mats):
                self.by_structure[key] = rid
                return rid
        rid = len(self.zones)
        self.zones.append(z)
        bucket.append(rid)
        self.by_structure[key] = rid
        return rid


# --- successor generation ----------------------------------------------------


def initial_states(a: Ptba, box: ParamBox, maxima=None) -> list[SymbolicState]:
    """Zero zone with time released, constrained by the initial invariant,
    canonical, then widened."""
    if maxima is None:
        maxima = clock_bounds(a, box)
    z0 = pdbm.initial_cpdbm(a.n_clocks, box)
    out = []
    for z1 in pdbm.constrain(z0, a.locations[a.initial].inv, box):
        for z2 in pdbm.extrapolate(z1, maxima, box):
            out.append(SymbolicState(a.initial, z2))
    return out


def _canonical_branches(z: CPDBM, box: ParamBox) -> list[CPDBM]:
    return [z] if z.canonical else pdbm.canonicalize(z, box)


def successors(s: SymbolicState, a: Ptba, box: ParamBox, maxima=None,
               counts=None, base=None) -> list[SymbolicState]:
    """All successor states of one symbolic state: per edge, guard,
    reset, time release, target invariant, widening, with empty branches
    dropped at every stage.  Guard and invariant go through
    ``pdbm.constrain``, which closes through the guard's clocks only; the
    base branches, the canonical forms of the source zone, are closed in
    full.  The final branches of all edges that reach one target with one
    matrix are then merged into one state (``pdbm.merge``); states come
    grouped by target, both targets and matrices in order of first
    occurrence.

    ``counts``, when given, tallies per forking operation the branches it
    added (``guard`` counts a guard or invariant and its closure), and
    under ``merged`` the branches that merging absorbed."""
    if maxima is None:
        maxima = clock_bounds(a, box)
    if base is None:
        base = _canonical_branches(s.zone, box)
    loc = a.locations[s.loc]
    finals: dict[int, list[CPDBM]] = {}

    def count(tag, before, after):
        if counts is not None and after > before:
            counts[tag] = counts.get(tag, 0) + (after - before)

    for e in loc.edges:
        inv = a.locations[e.target].inv
        into = finals.setdefault(e.target, [])
        for zb in base:
            g1 = pdbm.constrain(zb, e.atoms, box)
            count("guard", 1, len(g1))
            for z1 in g1:
                z2 = pdbm.up(pdbm.reset(z1, e.resets))
                g2 = pdbm.constrain(z2, inv, box)
                count("guard", 1, len(g2))
                for z3 in g2:
                    ex = pdbm.extrapolate(z3, maxima, box)
                    count("extrapolate", 1, len(ex))
                    into.extend(ex)
    out = []
    for target, branches in finals.items():
        merged = pdbm.merge(branches)
        count("merged", len(merged), len(branches))
        out.extend(SymbolicState(target, z) for z in merged)
    return out


def deadlock_valuations(s: SymbolicState, a: Ptba, box: ParamBox,
                        dnf_limit: int = DEFAULT_DNF_LIMIT,
                        base=None) -> ValuationSet:
    """Valuations for which some point of the zone enables no outgoing
    edge: the negated guards of all outgoing edges are applied as a product
    of disjunctions, and the surviving branches' extensions are united.
    Branches with equal matrices are merged after each edge, so the
    expansion grows with the distinct zones, not with the paths to them."""
    loc = a.locations[s.loc]
    if any(not e.atoms for e in loc.edges):
        # an unguarded edge is always enabled: no zone point can deadlock
        return ValuationSet.empty(box)
    cur = base if base is not None else _canonical_branches(s.zone, box)
    steps = 0
    for e in loc.edges:
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
        bits |= z.cset.bits
    return ValuationSet(box, bits)


# --- reachable symbolic graph -------------------------------------------------


@dataclass
class SymbolicGraph:
    a: Ptba
    box: ParamBox
    maxima: list[int]
    store: StateStore
    nodes: list[tuple[int, int]] = field(default_factory=list)  # (loc, rep)
    succ: list[list[int]] = field(default_factory=list)
    ext_bits: list[int] = field(default_factory=list)
    accepting: list[bool] = field(default_factory=list)
    initials: list[int] = field(default_factory=list)
    deadlock_bits: int = 0
    transitions: int = 0
    counts: dict = field(default_factory=dict)  # see successors

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def build_graph(a: Ptba, box: ParamBox, maxima=None,
                opts: Options | None = None) -> SymbolicGraph:
    """Explore every reachable symbolic state once, recording adjacency,
    extensions, acceptance and deadlock valuations."""
    opts = opts or Options()
    if maxima is None:
        maxima = clock_bounds(a, box)
    store = StateStore(box, maxima if opts.check else None)
    g = SymbolicGraph(a, box, maxima, store)
    index: dict[tuple[int, int], int] = {}
    branch_cache: dict[int, list[CPDBM]] = {}

    def branches_of(rep: int) -> list[CPDBM]:
        got = branch_cache.get(rep)
        if got is None:
            got = branch_cache[rep] = _canonical_branches(
                store.zones[rep], box)
        return got

    def intern(st: SymbolicState) -> int:
        rep = store.resolve(st.zone)
        key = (st.loc, rep)
        nid = index.get(key)
        if nid is not None:
            return nid
        nid = len(g.nodes)
        if nid >= opts.limit_states:
            raise CapacityError(f"stored states exceeded {opts.limit_states}")
        index[key] = nid
        g.nodes.append(key)
        g.succ.append([])
        zone = store.zones[rep]
        g.ext_bits.append(zone.cset.bits)
        g.accepting.append(a.locations[st.loc].accepting)
        g.deadlock_bits |= deadlock_valuations(
            SymbolicState(st.loc, zone), a, box, opts.dnf_limit,
            base=branches_of(rep)).bits
        if opts.trace is not None:
            opts.trace.write(f"state {nid}: {a.locations[st.loc].name}\n")
            opts.trace.write(pdbm.dump(zone, box, a.clock_names) + "\n\n")
        queue.append(nid)
        return nid

    queue: list[int] = []
    for st in initial_states(a, box, maxima):
        nid = intern(st)
        if nid not in g.initials:
            g.initials.append(nid)
    head = 0
    while head < len(queue):
        nid = queue[head]
        head += 1
        loc, rep = g.nodes[nid]
        state = SymbolicState(loc, store.zones[rep])
        for st in successors(state, a, box, maxima, counts=g.counts,
                             base=branches_of(rep)):
            sid = intern(st)
            g.transitions += 1
            if opts.check and (g.ext_bits[sid] & ~g.ext_bits[nid]):
                raise SoundnessError(
                    "monotonicity violation: successor valuations not a "
                    "subset of the predecessor's")
            g.succ[nid].append(sid)
    return g


# --- accumulating nested DFS -------------------------------------------------


def cumulative_ndfs_graph(g: SymbolicGraph, opts: Options | None = None,
                          stats: dict | None = None) -> int:
    """Nested DFS over the symbolic graph that accumulates the valuation
    sets of all accepting cycles.

    The outer search skips states that are already visited, on the stack,
    or (when pruning) whose valuations are all covered; at post-order it
    starts an inner search from accepting states not yet covered.  The
    inner search reports a cycle whenever it reaches a state on the outer
    stack, adds that state's valuations to the accumulator, and gives up on
    the current branch.  Returns the accumulated bitset.
    """
    opts = opts or Options()
    found = 0
    outer_visits = inner_visits = cycles = 0
    witnesses: list[dict] = []  # one valuation per growth of the accumulator
    in_outer = [False] * g.n_nodes
    in_inner = [False] * g.n_nodes
    on_stack = [False] * g.n_nodes
    outer_path: list[int] = []
    path_pos: dict[int, int] = {}

    def not_covered(nid: int) -> bool:
        return bool(g.ext_bits[nid] & ~found)

    def check_cycle(entry: int, inner_path: list[int]):
        cycle = outer_path[path_pos[entry]:] + inner_path
        ext = g.ext_bits[entry]
        for nid in cycle:
            if g.ext_bits[nid] != ext:
                raise SoundnessError(
                    "cycle states do not share one valuation set")

    def inner_dfs(root: int):
        nonlocal found, inner_visits, cycles
        in_inner[root] = True
        inner_visits += 1
        frames = [(root, iter(g.succ[root]))]
        inner_path = [root]
        while frames:
            nid, it = frames[-1]
            nxt = next(it, None)
            if nxt is None:
                frames.pop()
                inner_path.pop()
                continue
            if on_stack[nxt]:
                cycles += 1
                fresh = g.ext_bits[nxt] & ~found
                if fresh:
                    low = (fresh & -fresh).bit_length() - 1
                    witnesses.append(g.box.point(low))
                found |= g.ext_bits[nxt]
                if opts.check:
                    check_cycle(nxt, inner_path)
                frames.pop()
                inner_path.pop()
                continue
            if not in_inner[nxt] and not_covered(nxt):
                in_inner[nxt] = True
                inner_visits += 1
                frames.append((nxt, iter(g.succ[nxt])))
                inner_path.append(nxt)

    def outer_dfs(start: int):
        nonlocal outer_visits
        in_outer[start] = True
        on_stack[start] = True
        outer_visits += 1
        frames = [(start, iter(g.succ[start]))]
        outer_path.append(start)
        path_pos[start] = 0
        while frames:
            nid, it = frames[-1]
            nxt = next(it, None)
            if nxt is not None:
                if (not in_outer[nxt] and not on_stack[nxt]
                        and (not opts.prune or not_covered(nxt))):
                    in_outer[nxt] = True
                    on_stack[nxt] = True
                    outer_visits += 1
                    frames.append((nxt, iter(g.succ[nxt])))
                    path_pos[nxt] = len(outer_path)
                    outer_path.append(nxt)
                continue
            if g.accepting[nid] and not_covered(nid):
                inner_dfs(nid)
            on_stack[nid] = False
            frames.pop()
            outer_path.pop()
            del path_pos[nid]

    for s0 in g.initials:
        if not in_outer[s0] and (not opts.prune or not_covered(s0)):
            outer_dfs(s0)

    if stats is not None:
        stats["outer_visits"] = outer_visits
        stats["inner_visits"] = inner_visits
        stats["cycles_detected"] = cycles
        stats["witnesses"] = witnesses
    return found


def cumulative_ndfs(a: Ptba, box: ParamBox,
                    opts: Options | None = None) -> ValuationSet:
    """Valuations under which the automaton has an accepting run."""
    opts = opts or Options()
    g = build_graph(a, box, None, opts)
    return ValuationSet(box, cumulative_ndfs_graph(g, opts))


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
    for atom in ltl_mod.atoms_of(f):
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
    maximum, every atom constant and every atom term at its largest
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
    with the automaton of the negated property, made strongly non-Zeno.
    Raises InputError when a bound falls outside the encodable range."""
    validate_property(net, f)
    aut = to_buchi(to_nnf(ltl_mod.neg(f)))
    pta, lab = compose(net)
    tba = make_nonzeno(product(pta, lab, aut))
    maxima = clock_bounds(tba, box)
    _check_bound_range(tba, box, maxima)
    return tba, maxima


def synthesize(net: Network, prop: Formula | str, box: ParamBox | None = None,
               opts: Options | None = None) -> SynthesisResult:
    """Compute the valuations satisfying / violating the property and the
    valuations flagged as deadlocks, with the symbolic engine."""
    opts = opts or Options()
    box = box or net.box()
    f = parse_ltl(prop) if isinstance(prop, str) else prop
    tba, maxima = build_automaton(net, f, box)
    g = build_graph(tba, box, maxima, opts)
    stats: dict = {
        "engine": "symbolic",
        "box_points": box.size,
        "stored_states": g.n_nodes,
        "stored_zones": len(g.store.zones),
        "transitions": g.transitions,
        "initial_states": len(g.initials),
        "m1_buckets": len(g.store.by_signature),
        "m2_hits": g.store.m2_hits,
        "m2_misses": g.store.m2_misses,
        "semantic_comparisons": g.store.semantic_comparisons,
        "merged": g.counts.get("merged", 0),
        "splits": {k: g.counts[k] for k in sorted(g.counts) if k != "merged"},
    }
    accepted_bits = cumulative_ndfs_graph(g, opts, stats)
    accepted = ValuationSet(box, accepted_bits)
    return SynthesisResult(
        box=box,
        accepted=accepted,
        satisfying=accepted.complement(),
        deadlock=ValuationSet(box, g.deadlock_bits),
        stats=stats,
    )


def scan_stored_bounds(g: SymbolicGraph) -> int:
    """Verify that every finite stored bound evaluates within
    [-maxima[column], maxima[row]] at every valuation of its extension;
    returns the number of entries checked.  The state store makes the same
    check on every zone it evaluates under ``Options.check``; this scan
    re-checks a finished graph entry by entry."""
    checked = 0
    box = g.box
    for rep_used in sorted({rep for _, rep in g.nodes}):
        z = g.store.zones[rep_used]
        idx = z.cset.extension(box).indices()
        grid = box.grid
        for i in range(z.n):
            for j in range(z.n):
                b = z.mat[i][j]
                if b.is_inf or i == j:
                    continue
                vals = np.full(grid.shape[1], b.expr.const, dtype=np.int64)
                for p, zc in b.expr.coeffs:
                    vals += zc * grid[box.params.index(p)]
                vals = vals[idx]
                if (vals > g.maxima[i]).any() or (vals < -g.maxima[j]).any():
                    raise SoundnessError(
                        f"stored bound out of range at entry ({i},{j}): {b}")
                checked += 1
    return checked
