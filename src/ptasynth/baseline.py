"""Explicit-enumeration engine: check every parameter valuation separately
with a concrete zone-graph search.

This is the comparison engine and the exactness oracle for the symbolic
one.  It shares the whole front end (model composition, property
translation, product, non-Zeno transformation, clock maxima) so that the
two engines explore the same automaton with the same abstraction
coarseness, and implements the per-state deadlock formula the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import zones
from .errors import CapacityError
from .explore import Options, SynthesisResult, build_automaton
from .ltl import Formula, parse_ltl
from .model import Network, Ptba
from .params import ParamBox, ValuationSet, bound_eval
from .pdbm import negate_atom


@dataclass
class ConcreteTba:
    """Product automaton with all parameters replaced by integers.

    Atoms are (i, j, encoded bound); per location we keep the invariant,
    the outgoing edges, and the negated-guard choices used by the deadlock
    check.
    """

    n: int  # matrix dimension (clocks + zero clock)
    initial: int
    inv: list[list[tuple[int, int, int]]]
    edges: list[list[tuple[list[tuple[int, int, int]], tuple[int, ...], int]]]
    neg_choices: list[list[list[tuple[int, int, int]]]]
    accepting: list[bool]


def _enc_atom(atom, v) -> tuple[int, int, int]:
    i, j, b = atom
    val, strict = bound_eval(b, v)
    return (i, j, zones.encode(val, strict))


def instantiate(a: Ptba, v) -> ConcreteTba:
    """Replace every affine expression by its value at the valuation."""
    inv = []
    edges = []
    neg = []
    acc = []
    for loc in a.locations:
        inv.append([_enc_atom(at, v) for at in loc.inv])
        edges.append([
            ([_enc_atom(at, v) for at in e.atoms], e.resets, e.target)
            for e in loc.edges
        ])
        neg.append([
            [_enc_atom(negate_atom(at), v) for at in e.atoms]
            for e in loc.edges
        ])
        acc.append(loc.accepting)
    return ConcreteTba(len(a.clock_names), a.initial, inv, edges, neg, acc)


def _constrained(zone: np.ndarray, atoms) -> np.ndarray | None:
    """Copy of the canonical zone tightened by the atoms and closed through
    the clocks of the entries they tightened; None if empty.  A copy that no
    atom tightens is returned as it is."""
    z = zone.copy()
    pivots = set()
    for i, j, enc in atoms:
        if enc < z[i, j]:
            z[i, j] = enc
            pivots.update((i, j))
    if pivots and not zones.close(z, sorted(pivots)):
        return None
    return z


def _state_deadlock(zone: np.ndarray, neg_choices, dnf_limit: int) -> bool:
    """Mirror of the symbolic deadlock formula at one valuation: fold the
    negated guards of all outgoing edges over the zone, keeping each
    distinct zone once after every edge."""
    if any(not choices for choices in neg_choices):
        return False  # an unguarded edge is always enabled
    cur = [zone]
    steps = 0
    for choices in neg_choices:
        nxt: dict[bytes, np.ndarray] = {}
        for atom in choices:
            for z in cur:
                steps += 1
                if steps > dnf_limit:
                    raise CapacityError(
                        f"deadlock-guard expansion exceeded {dnf_limit}")
                got = _constrained(z, [atom])
                if got is not None:
                    nxt.setdefault(zones.zone_key(got), got)
        cur = list(nxt.values())
        if not cur:
            return False
    return True


def _explore(ct: ConcreteTba, maxima: np.ndarray, opts: Options):
    """Reachable concrete zone graph: returns (adjacency, accepting flags,
    deadlock flag, state count)."""
    init = zones.zero_zone(ct.n)
    zones.up(init)
    init = _constrained(init, ct.inv[ct.initial])
    if init is None:
        return [], [], False, 0
    if zones.extrapolate(init, maxima):
        zones.close(init)

    index = {(ct.initial, zones.zone_key(init)): 0}
    states = [(ct.initial, init)]
    succ: list[list[int]] = []
    acc: list[bool] = []
    deadlock = False
    head = 0
    while head < len(states):
        loc, zone = states[head]
        head += 1
        succ.append([])
        acc.append(ct.accepting[loc])
        if not deadlock and _state_deadlock(zone, ct.neg_choices[loc],
                                            opts.dnf_limit):
            deadlock = True
        for atoms, resets, target in ct.edges[loc]:
            z = _constrained(zone, atoms)
            if z is None:
                continue
            zones.reset(z, resets)
            zones.up(z)
            z = _constrained(z, ct.inv[target])
            if z is None:
                continue
            if zones.extrapolate(z, maxima):
                zones.close(z)
            key = (target, zones.zone_key(z))
            sid = index.get(key)
            if sid is None:
                sid = len(states)
                if sid >= opts.limit_states:
                    raise CapacityError(
                        f"stored states exceeded {opts.limit_states}")
                index[key] = sid
                states.append((target, z))
            succ[head - 1].append(sid)
    return succ, acc, deadlock, len(states)


def _has_accepting_cycle(succ, acc) -> bool:
    """Two-color nested DFS over a cached graph, iterative."""
    n = len(succ)
    if n == 0:
        return False
    in_outer = [False] * n
    in_inner = [False] * n
    on_stack = [False] * n

    def inner(root) -> bool:
        stack = [root]
        while stack:
            nid = stack.pop()
            if in_inner[nid]:
                continue
            in_inner[nid] = True
            for nxt in succ[nid]:
                if on_stack[nxt]:
                    return True
                if not in_inner[nxt]:
                    stack.append(nxt)
        return False

    in_outer[0] = True
    on_stack[0] = True
    frames = [(0, iter(succ[0]))]
    while frames:
        nid, it = frames[-1]
        nxt = next(it, None)
        if nxt is not None:
            if not in_outer[nxt]:
                in_outer[nxt] = True
                on_stack[nxt] = True
                frames.append((nxt, iter(succ[nxt])))
            continue
        if acc[nid] and inner(nid):
            return True
        on_stack[nid] = False
        frames.pop()
    return False


def check_valuation(a: Ptba, v, maxima=None,
                    opts: Options | None = None) -> tuple[bool, bool]:
    """(accepting run exists, deadlock state reachable) at one valuation."""
    opts = opts or Options()
    if maxima is None:
        from .model import clock_bounds

        singleton = ParamBox.of({p: (x, x) for p, x in v.items()})
        maxima = clock_bounds(a, singleton)
    maxima = np.asarray(maxima, dtype=np.int64)
    ct = instantiate(a, v)
    succ, acc, deadlock, _ = _explore(ct, maxima, opts)
    return _has_accepting_cycle(succ, acc), deadlock


def enumerate_box(net: Network, prop: Formula | str,
                  box: ParamBox | None = None,
                  opts: Options | None = None) -> SynthesisResult:
    """Run the per-valuation check over every point of the box."""
    opts = opts or Options()
    box = box or net.box()
    f = parse_ltl(prop) if isinstance(prop, str) else prop
    tba, maxima = build_automaton(net, f, box)
    mvec = np.asarray(maxima, dtype=np.int64)
    accepted_bits = 0
    deadlock_bits = 0
    total_states = 0
    max_states = 0
    for idx in range(box.size):
        v = box.point(idx)
        ct = instantiate(tba, v)
        succ, acc, deadlock, count = _explore(ct, mvec, opts)
        total_states += count
        max_states = max(max_states, count)
        if _has_accepting_cycle(succ, acc):
            accepted_bits |= 1 << idx
        if deadlock:
            deadlock_bits |= 1 << idx
    accepted = ValuationSet(box, accepted_bits)
    stats = {
        "engine": "enumerate",
        "box_points": box.size,
        "zone_states_total": total_states,
        "zone_states_max": max_states,
    }
    return SynthesisResult(
        box=box,
        accepted=accepted,
        satisfying=accepted.complement(),
        deadlock=ValuationSet(box, deadlock_bits),
        stats=stats,
    )
