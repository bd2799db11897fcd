"""Explicit-enumeration engine: check every parameter valuation separately
with a concrete zone-graph search.

This is the comparison engine and the exactness oracle for the symbolic
one, and imports nothing from it.  It shares the engine interface and the
whole front end (``model.build_automaton``: composition, translation,
product, the gating of the accepting locations that can be Zeno, clock
bounds and inactive clocks per location) so that the two engines explore
the same automaton, and implements the per-state deadlock formula the
same way, on the negated guards the front end gives each location
(``model.deadlock_guards``).  Its accepting-cycle check
(``model._accepting_cycle``) runs on the front end's strongly connected
component decomposition (``model._closing_components``), which also
serves the Zeno analysis.  A zone is widened with the clock bounds of
the location it is stored at (static guard analysis after Behrmann,
Bouyer, Fleury and Larsen, TACAS 2003).  Before widening, a step frees
the clocks that are inactive at its target (Daws and Yovine, RTSS 1996),
the other table of the front end's one clock analysis
(``model.clock_tables``), and drops the lower bounds of the non-Zeno
clock (``Ptba.gate``), as the symbolic engine's ``pdbm.transition``
does, so both engines explore zones of one abstraction.  The
independent check of those two steps, and of the Zeno analysis, is the
tests' one-vector reference, which runs this search with neither, on the
product with every accepting location gated.

Every valuation gets its own zone graph, but the graphs are explored in
lockstep: the steps of the front end's table (``model.transition_steps``)
are encoded once per box, at every point (``instantiate``), and each
``_step`` call takes a batch of zones from many valuations (``_explore``).
"""

from __future__ import annotations

import numpy as np

from . import zones
from .errors import CapacityError
from .ltl import Formula, parse_ltl
from .model import (
    Network,
    Options,
    Ptba,
    SynthesisResult,
    _accepting_cycle,
    build_automaton,
    check_box_covers,
    clock_tables,
    deadlock_guards,
    transition_steps,
)
from .params import ParamBox, ValuationSet

# Edge rows per batch, and zones per chunk of a deadlock fold.  It bounds
# the batch arrays and, through them, how many valuations are open at
# once, and with them the peak memory.  Every batch pays a fixed numpy and
# Python cost, so a batch should cover about a whole breadth-first layer
# of the open valuations; past that, a wider one mostly keeps more graphs
# open.  Chosen by a sweep from 128 to 2048 rows (CHANGES.md): at 512 rows
# the two-train boxes of 100 to 28,830 points take 27-35% less time than
# at 128, and at 2048 Fischer N=3 on 64 points ran slower than at 512 and
# peaked 4 MB higher.
ROW_CAP = 512


# --- batched zone steps -----------------------------------------------------


def _step(ms, guard, gather, inv, bounds, freed, gate):
    """Successors of canonical zones through one edge each, in a batch:
    guard, reset, time elapse, target invariant, freeing the target's
    inactive clocks, dropping the lower bounds of the ``gate`` clock and
    extrapolation.

    ``guard`` and ``inv`` are ``(pos, enc)`` pairs for
    ``zones.constrain_many``, which keeps each zone canonical in one pass
    per atom that is finite and not looser than its entry; a batch whose
    atoms are all infinite, as rows of padding are, would leave its
    canonical non-empty zones as they are, so it skips the call; only the
    widened zones are closed in full, by ``zones.close_many``, the same
    kernel on the diagonal entries;
    ``gather`` (count, n) maps each clock to itself, or to the zero clock
    when the edge resets it, so that ``m[g][:, g]`` is the reset of a
    closed non-empty zone; ``bounds`` (count, n) holds each row's target
    clock bounds and ``freed`` (count, n) marks its target's inactive
    clocks; ``gate`` is the non-Zeno clock, 0 for none.  Returns the
    indices of the rows that stay non-empty and their canonical zones."""
    keep = np.arange(len(ms))
    if (guard[1] < zones.INF).any():
        keep = np.flatnonzero(zones.constrain_many(ms, *guard))
    g = gather[keep]
    ms = ms[keep[:, None, None], g[:, :, None], g[:, None, :]]
    zones.up(ms)
    enc = inv[1][keep]
    if (enc < zones.INF).any():
        ok = zones.constrain_many(ms, inv[0][keep], enc)
        keep, ms = keep[ok], ms[ok]
    _project(ms, freed[keep], gate)
    changed = zones.extrapolate(ms, bounds[keep])
    if changed.any():
        wide = ms[changed]
        zones.close_many(wide)
        ms[changed] = wide
    return keep, ms


def _project(ms: np.ndarray, freed: np.ndarray, gate: int) -> None:
    """In place, as ``pdbm._free_rows`` and then ``pdbm._unbound_below``
    do: each zone's ``freed`` clocks (count, n) take the zero clock's
    column, an infinite row and a weak zero diagonal, so each keeps only
    its lower bound 0; then the ``gate`` clock takes the zero clock's
    column and a weak zero diagonal, keeping its row.  Both keep a closed
    zone canonical."""
    if freed.any():
        np.copyto(ms, ms[:, :, :1], where=freed[:, None, :])
        n = ms.shape[1]
        free_row = np.full((n, n), zones.INF, dtype=np.int64)
        np.fill_diagonal(free_row, zones.ZERO_WEAK)
        np.copyto(ms, free_row, where=freed[:, :, None])
    if gate:
        ms[:, :, gate] = ms[:, :, 0]
        ms[:, gate, gate] = zones.ZERO_WEAK


class _Tables:
    """The automaton with its atoms encoded at every point of the box.

    Atom ``a`` bounds flat entry ``pos[a]`` by ``enc[a, point]``; atom 0
    bounds nothing (infinity on the diagonal of the zero clock) and pads
    the atom rows of shorter guards and invariants.  Row k of ``guard``,
    ``gather``, ``inv``, ``bounds`` (the clock bounds zones are widened
    with) and ``freed`` (the clocks they free) is step k of
    ``model.transition_steps``; ``gate`` is the non-Zeno clock whose lower
    bounds every zone drops.  Edges are numbered location by location, so
    location ``l`` owns the ``degree[l]`` edges from ``first[l]`` on, and
    edge ``e`` takes step ``step[e]`` into ``target[e]``."""

    def __init__(self, a: Ptba, box: ParamBox, bounds, free):
        n = len(a.clock_names)
        ids: dict = {}
        pos = [0]
        enc = [np.full(box.size, zones.INF, dtype=np.int64)]

        def atom_ids(atoms) -> list[int]:
            out = []
            for i, j, b in atoms:
                key = (i * n + j, b)
                if key not in ids:
                    ids[key] = len(pos)
                    pos.append(key[0])
                    enc.append(zones.encode(box.values(b.expr), b.strict))
                out.append(ids[key])
            return out

        steps, moves = transition_steps(a, bounds, free)
        self.n = n
        self.gate = a.gate
        self.accepting = [loc.accepting for loc in a.locations]
        self.degree = [len(m) for m in moves]
        self.first = np.cumsum([0] + self.degree)[:-1]
        self.target, self.step = np.array(
            [m for ms in moves for m in ms], dtype=np.int64).reshape(-1, 2).T
        self.guard = _padded([atom_ids(st[0]) for st in steps])
        self.gather = np.tile(np.arange(n), (len(steps), 1))
        self.inv = _padded([atom_ids(st[2]) for st in steps])
        self.bounds = np.array([st[3] for st in steps], dtype=np.int64)
        self.freed = np.zeros((len(steps), n), dtype=bool)
        for k, st in enumerate(steps):
            self.gather[k, list(st[1])] = 0
            self.freed[k, list(st[4])] = True
        # per location: what the deadlock fold takes, None for nothing
        self.negated = [None if g is None else [atom_ids(c) for c in g]
                        for g in map(deadlock_guards, a.locations)]
        self.pos = np.array(pos, dtype=np.int64)
        self.enc = np.stack(enc)

    def advance(self, ms: np.ndarray, ks: np.ndarray, points: np.ndarray):
        """One ``_step`` of each zone ``ms[r]`` through step ``ks[r]``, read
        at box point ``points[r]``."""
        return _step(ms, self.atoms(self.guard[ks], points), self.gather[ks],
                     self.atoms(self.inv[ks], points), self.bounds[ks],
                     self.freed[ks], self.gate)

    def successors(self, states):
        """One ``_step`` over every edge of a batch of ``(loc, point, key)``
        states: the edges' targets and successor keys (None for an empty
        zone), state by state in edge order."""
        locs = np.array([st[0] for st in states], dtype=np.int64)
        deg = np.array([self.degree[st[0]] for st in states], dtype=np.int64)
        rows = np.repeat(np.arange(len(states)), deg)
        eids = (np.repeat(self.first[locs] - (np.cumsum(deg) - deg), deg)
                + np.arange(len(rows)))
        points = np.array([st[1] for st in states], dtype=np.int64)[rows]
        targets = self.target[eids]
        ms = _unpack([st[2] for st in states], self.n)[rows]
        keep, ms = self.advance(ms, self.step[eids], points)
        found: list = [None] * len(rows)
        for row, key in zip(keep.tolist(), _pack(targets[keep], ms)):
            found[row] = key
        return targets.tolist(), found

    def atoms(self, ids: np.ndarray, points: np.ndarray):
        """The ``(pos, enc)`` pair for ``zones.constrain_many`` of the atom-id
        rows ``ids`` (count, k), row r read at box point ``points[r]``."""
        return self.pos[ids], self.enc[ids, points[:, None]]


# the per-box instantiation step; perfbench's per-layer span reads this name
instantiate = _Tables


def _padded(rows: list[list[int]]) -> np.ndarray:
    """Atom-id rows padded with atom 0 to a common width of at least 1."""
    out = np.zeros((len(rows), max([1] + [len(r) for r in rows])),
                   dtype=np.int64)
    for k, r in enumerate(rows):
        out[k, :len(r)] = r
    return out


def _pack(locs, ms: np.ndarray) -> list[bytes]:
    """State keys: per zone of the stack, its location and then its
    entries, as the bytes of int64 values."""
    out = np.empty((len(ms), 1 + ms.shape[1] * ms.shape[2]), dtype=np.int64)
    out[:, 0] = locs
    out[:, 1:] = ms.reshape(out.shape[0], out.shape[1] - 1)
    buf, size = out.tobytes(), out.shape[1] * 8
    return [buf[k:k + size] for k in range(0, len(buf), size)]


def _unpack(keys: list[bytes], n: int) -> np.ndarray:
    """The zones of state keys, as a new (count, n, n) stack."""
    flat = np.frombuffer(b"".join(keys), dtype=np.int64).reshape(len(keys),
                                                                 1 + n * n)
    return flat[:, 1:].reshape(-1, n, n).copy()


_OVER = "over"  # a deadlock fold that outgrew Options.dnf_limit


def _deadlocks(t: _Tables, states, dnf_limit: int) -> list:
    """Mirror of the symbolic deadlock formula for a batch of
    ``(loc, point, key)`` states: fold the negated guards of all outgoing
    edges over each zone, keeping each distinct zone once after every edge
    (the fold keys its zones with location 0).  Per state: True when some
    zone survives every edge, ``_OVER`` when the fold takes more than
    ``dnf_limit`` steps before it ends, None for a state given as None.
    The folds advance together, one negated guard per level; each level
    constrains every fold's zones by each disjunct of its guard, all
    folds' in one pass per ``ROW_CAP`` zones."""
    out: list = [None] * len(states)
    folds = []  # [state index, loc, point, current zones, steps so far]
    for k, st in enumerate(states):
        if st is None:
            continue
        loc, point, key = st
        if t.negated[loc] is None:
            out[k] = False
        elif not t.negated[loc]:
            out[k] = True
        else:
            folds.append([k, loc, point, [key], 0])
    level = 0
    while folds:
        live, blobs, atoms, points, owners = [], [], [], [], []
        for f in folds:
            k, loc, point, cur, steps = f
            choices = t.negated[loc][level]
            f[4] = steps + len(choices) * len(cur)
            if f[4] > dnf_limit:
                out[k] = _OVER
                continue
            for a in choices:
                blobs.extend(cur)
                atoms.extend([a] * len(cur))
                points.extend([point] * len(cur))
                owners.extend([len(live)] * len(cur))
            live.append(f)
        got: list = []
        for lo in range(0, len(blobs), ROW_CAP):
            hi = lo + ROW_CAP
            ms = _unpack(blobs[lo:hi], t.n)
            ids = np.array(atoms[lo:hi])[:, None]
            ok = zones.constrain_many(
                ms, *t.atoms(ids, np.array(points[lo:hi])))
            kept = iter(_pack(0, ms[ok]))
            got.extend(next(kept) if good else None for good in ok.tolist())
        seen: list[dict] = [{} for _ in live]
        for owner, zone in zip(owners, got):
            if zone is not None:
                seen[owner].setdefault(zone)
        level += 1
        folds = []
        for f, nxt in zip(live, seen):
            f[3] = list(nxt)
            if not f[3]:
                out[f[0]] = False
            elif level == len(t.negated[f[1]]):
                out[f[0]] = True
            else:
                folds.append(f)
    return out


class _Graph:
    """One valuation's zone graph while it is explored: states numbered in
    discovery order, each with its location and key (see ``_pack``), and
    the (source, target) ``edges`` of the ``head`` states expanded so
    far."""

    __slots__ = ("point", "locs", "keys", "index", "edges", "head",
                 "deadlock")

    def __init__(self, point: int, loc: int, key: bytes):
        self.point = point
        self.locs = [loc]
        self.keys = [key]
        self.index = {key: 0}
        self.edges: list[tuple[int, int]] = []
        self.head = 0
        self.deadlock = False

    def settle(self, dead, targets, found, opts: Options) -> str | None:
        """Expand the state at ``head``: take its deadlock-check result
        (None when unchecked), then number its successor keys ``found``
        (None for an empty zone) in edge order.  Returns the capacity
        error that stops the valuation, if any."""
        if not self.deadlock and dead is not None:
            if dead is _OVER:
                return f"deadlock-guard expansion exceeded {opts.dnf_limit}"
            self.deadlock = dead
        source = self.head
        self.head += 1
        for target, key in zip(targets, found):
            if key is None:
                continue
            sid = self.index.get(key)
            if sid is None:
                sid = len(self.locs)
                if sid >= opts.limit_states:
                    return f"stored states exceeded {opts.limit_states}"
                self.index[key] = sid
                self.locs.append(target)
                self.keys.append(key)
            self.edges.append((source, sid))
        return None


def _explore(a: Ptba, box: ParamBox, bounds, free, opts: Options):
    """The reachable concrete zone graph of every box point, each checked
    for an accepting cycle and a deadlock state, with zones widened by the
    clock bounds ``bounds`` and freeing the inactive clocks ``free`` (the
    two tables of ``model.clock_tables``); returns (accepting bits,
    deadlock bits, total states, largest state count).

    The graphs are explored in lockstep.  A batch takes pending states in
    each valuation's own state order, lowest valuation first, up to
    ``ROW_CAP`` edge rows (a state without edges counts as one row; a
    state with more edges than that runs alone), and opens new valuations
    only while it has room.  When a batch takes all of a valuation's
    pending states, the next batch's are the breadth-first layer they lead
    to, so batches with room for every open valuation's pending states
    step through the graphs a layer at a time.  Each batch runs the
    deadlock fold and one ``_step`` over all its edge rows, then numbers
    the new zones valuation by valuation, in the order a valuation
    explored alone numbers them.  A valuation whose queue is empty is
    checked for an accepting cycle (``model._accepting_cycle``) and freed.

    A valuation stops at its first capacity error in its own order, a
    state's deadlock check before its successors, and checks no state for
    deadlock after its first deadlocked one.  The lowest point that stops
    raises, once every point below it has finished.  Before each batch,
    ``opts.time_limit`` stops the whole run."""
    over_time = opts.timer()
    t = instantiate(a, box, bounds, free)
    cost = [max(d, 1) for d in t.degree]
    pending: list[_Graph] = []  # open valuations, in point order
    next_point, stop = 0, box.size  # no point from ``stop`` on is opened
    error = None
    accepted = deadlocked = total = most = 0

    def open_points(count: int) -> list[_Graph]:
        """Graphs for the next ``count`` points; a point whose initial
        zone is empty has no states and is done at once."""
        nonlocal next_point
        points = np.arange(next_point, min(stop, next_point + count))
        next_point += len(points)
        zero = np.full((len(points), t.n, t.n), zones.ZERO_WEAK, np.int64)
        keep, ms = t.advance(zero, np.zeros_like(points), points)
        return [_Graph(int(points[k]), a.initial, key)
                for k, key in zip(keep.tolist(), _pack(a.initial, ms))]

    while True:
        over_time()
        batch = []  # (graph, number of its states from head on)
        room = ROW_CAP
        for g in pending:
            s = g.head
            while s < len(g.locs) and (cost[g.locs[s]] <= room or not batch
                                       and s == g.head):
                room -= cost[g.locs[s]]
                s += 1
            if s > g.head:
                batch.append((g, s - g.head))
            if s < len(g.locs):
                room = 0
                break
        while next_point < stop and (room >= cost[a.initial] or not batch):
            for g in open_points(max(1, room // cost[a.initial])):
                pending.append(g)
                batch.append((g, 1))
                room -= cost[a.initial]
        if not batch:
            break

        owners = [g for g, count in batch for _ in range(count)]
        states = [(g.locs[s], g.point, g.keys[s])
                  for g, count in batch for s in range(g.head, g.head + count)]
        dead = _deadlocks(t, [None if g.deadlock else st
                              for g, st in zip(owners, states)], opts.dnf_limit)
        targets, found = t.successors(states)
        k = r = 0
        for g, count in batch:
            if g.point >= stop:
                break
            for _ in range(count):
                d = t.degree[g.locs[g.head]]
                msg = g.settle(dead[k], targets[r:r + d], found[r:r + d],
                               opts)
                k += 1
                r += d
                if msg is not None:
                    error, stop = msg, g.point
                    break
        for g in pending:
            if g.point < stop and g.head == len(g.locs):
                total += len(g.locs)
                most = max(most, len(g.locs))
                if _accepting_cycle([t.accepting[l] for l in g.locs],
                                    g.edges):
                    accepted |= 1 << g.point
                if g.deadlock:
                    deadlocked |= 1 << g.point
        pending = [g for g in pending
                   if g.point < stop and g.head < len(g.locs)]
    if error is not None:
        raise CapacityError(error)
    return accepted, deadlocked, total, most


def check_valuation(a: Ptba, v,
                    opts: Options | None = None) -> tuple[bool, bool]:
    """(accepting run exists, deadlock state reachable) at one valuation:
    the lockstep explorer on the one-point box, with the clock tables of
    that box (``model.clock_tables``).  Raises InputError when ``v`` misses
    a parameter of a guard or invariant."""
    box = ParamBox.of({p: (x, x) for p, x in v.items()})
    check_box_covers((b.expr for loc in a.locations
                      for atoms in [loc.inv] + [e.atoms for e in loc.edges]
                      for _, _, b in atoms), box)
    accepted, deadlock, _, _ = _explore(a, box, *clock_tables(a, box),
                                        opts or Options())
    return bool(accepted), bool(deadlock)


def enumerate_box(net: Network, prop: Formula | str,
                  box: ParamBox | None = None,
                  opts: Options | None = None) -> SynthesisResult:
    """Run the per-valuation check over every point of the box."""
    opts = opts or Options()
    box = box or net.box()
    f = parse_ltl(prop) if isinstance(prop, str) else prop
    tba, bounds, free = build_automaton(net, f, box)
    accepted_bits, deadlock_bits, total_states, max_states = _explore(
        tba, box, bounds, free, opts)
    stats = {
        "engine": "enumerate",
        "box_points": box.size,
        "zone_states_total": total_states,
        "zone_states_max": max_states,
    }
    return SynthesisResult(
        box=box,
        accepted=ValuationSet(box, accepted_bits),
        deadlock=ValuationSet(box, deadlock_bits),
        stats=stats,
    )
