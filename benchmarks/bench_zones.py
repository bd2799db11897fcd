#!/usr/bin/env python3
"""Benchmark the zone-arithmetic backends: compiled extension vs the pure
fallback, on the batched closure kernel ``close_many`` and on an
end-to-end enumeration run on each; then the symbolic closure: a guard on
canonical constrained parametric matrices closed in full vs through the
guard's clocks only, and one symbolic transition (guard, reset, invariant,
widening) stage by stage vs in one pass.  Every row checks that the
closures or branches it times agree, and the enumeration runs that their
results, stats included, agree; a disagreement exits non-zero.

Usage: python benchmarks/bench_zones.py [--quick] [--section NAME ...]

``--section`` (repeatable: kernels, pdbm, enumeration) runs only the named
sections; each section draws its inputs from its own seeded generator, so
its rows do not depend on which other sections run.
"""

import argparse
import random
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ptasynth import _zonecore_py as pure  # noqa: E402
from ptasynth import pdbm, zones  # noqa: E402
from ptasynth.params import (  # noqa: E402
    INF_BOUND,
    AffineExpr,
    ParamBox,
    ValuationSet,
    bound,
)

try:
    from ptasynth import _zonecore as compiled
except ImportError:
    compiled = None


def random_zone(rng, n):
    m = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if i == j:
                m[i, j] = 1
            elif rng.random() < 0.2:
                m[i, j] = zones.INF
            else:
                m[i, j] = (rng.randrange(-6, 12) << 1) | (rng.random() < 0.5)
    return m


def bench_close_many(backend, ms, repeat):
    """Best time of closing the batch; also the closed batch and flags."""
    best = float("inf")
    ok = np.empty(ms.shape[0], dtype=np.uint8)
    for _ in range(repeat):
        work = ms.copy()
        t0 = time.perf_counter()
        backend.close_many(work, ok)
        best = min(best, time.perf_counter() - t0)
    return best, work, ok


def same_closure(a, b):
    """Equal emptiness flags, and equal matrices where the zone is non-empty
    (an empty zone's contents depend on the order of the updates)."""
    (ms_a, ok_a), (ms_b, ok_b) = a, b
    return (np.array_equal(ok_a, ok_b)
            and np.array_equal(ms_a[ok_a == 1], ms_b[ok_b == 1]))


def random_expr(rng, box):
    return AffineExpr.of(rng.randrange(-2, 9),
                         {p: rng.randrange(-1, 2) for p in box.params})


def canonical_cpdbms(rng, box, n, count):
    """Canonical branches of random matrices: clocks non-negative, random
    parametric upper bounds and differences, a few infinite."""
    out = []
    while len(out) < count:
        entries = {}
        for i in range(n):
            for j in range(n):
                if i != j and i != 0:
                    entries[(i, j)] = (INF_BOUND if rng.random() < 0.2 else
                                       bound(random_expr(rng, box),
                                             rng.random() < 0.3))
        z = pdbm.CPDBM(ValuationSet.full(box).bits,
                       pdbm.matrix_of(n, entries))
        out.extend(pdbm.canonicalize(z, box)[:count - len(out)])
    return out


def per_point(branches, box):
    """Evaluated matrix bytes per box point covered by the branches."""
    out = {}
    for w in branches:
        mats = pdbm.evaluate_all(w, box)
        for idx in ValuationSet(box, w.bits).indices():
            out[int(idx)] = mats[idx].tobytes()
    return out


def bench_pdbm_closure(box, jobs, repeat):
    """Best times of closing each guarded matrix in full and through the
    guard's clocks; both must give the same zone at every box point."""
    best_full = best_pivot = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        full = [[c for w in pdbm.apply_guard(z, [atom], box)
                 for c in pdbm.canonicalize(w, box)] for z, atom in jobs]
        t1 = time.perf_counter()
        pivot = [pdbm.constrain(z, [atom], box) for z, atom in jobs]
        t2 = time.perf_counter()
        best_full = min(best_full, t1 - t0)
        best_pivot = min(best_pivot, t2 - t1)
    for a, b in zip(full, pivot):
        if per_point(a, box) != per_point(b, box):
            raise SystemExit("full and pivot closure disagree")
    return best_full, best_pivot


def staged_transition(z, edge, box, counts):
    """``pdbm.transition`` stage by stage, with the same tallies."""
    atoms, resets, inv, maxima = edge

    def tally(tag, branches):
        if len(branches) > 1:
            counts[tag] = counts.get(tag, 0) + len(branches) - 1
        return branches

    out = []
    for z1 in tally("guard", pdbm.constrain(z, atoms, box)):
        z2 = pdbm.reset(z1, resets, release=True)
        for z3 in tally("guard", pdbm.constrain(z2, inv, box)):
            out += tally("extrapolate", pdbm.extrapolate(z3, maxima, box))
    return out


def bench_transition(box, jobs, repeat):
    """Best times of the transitions stage by stage and in one pass (its
    plans built outside the timing, as the engine builds them once per
    edge); both must give the same branches, in order, and tallies."""
    table = box.bounds
    plans = [pdbm.transition_plan(*edge, table) for _, edge in jobs]
    best_staged = best_pass = float("inf")
    for _ in range(repeat):
        staged_counts, pass_counts = {}, {}
        t0 = time.perf_counter()
        staged = [staged_transition(z, edge, box, staged_counts)
                  for z, edge in jobs]
        t1 = time.perf_counter()
        one = [pdbm.transition(z, plan, table, pass_counts)
               for (z, _), plan in zip(jobs, plans)]
        t2 = time.perf_counter()
        best_staged = min(best_staged, t1 - t0)
        best_pass = min(best_pass, t2 - t1)
        if staged != one or staged_counts != pass_counts:
            raise SystemExit("staged and one-pass transitions disagree")
    return best_staged, best_pass, sum(map(len, one))


def backends():
    out = [("pure", pure)]
    if compiled is not None:
        out.append(("compiled", compiled))
    return out


def enumeration_rows():
    """The enumeration engine on the two-train fixture, run on each kernel
    in turn; the result documents must be equal."""
    from ptasynth.baseline import enumerate_box
    from ptasynth.model import load_model

    fixture = Path(__file__).resolve().parent.parent / "tests" / "fixtures" \
        / "traingate.pta"
    net = load_model(fixture)
    print("\nend-to-end enumeration on the two-train fixture:")
    active = zones._core
    reference = None
    try:
        for name, backend in backends():
            zones._core = backend
            t0 = time.perf_counter()
            doc = enumerate_box(net, "G !(Train1.Cross && Train2.Cross)").to_json()
            elapsed = time.perf_counter() - t0
            print(f"  {name:9s} {elapsed:6.2f} s   "
                  f"{doc['stats']['zone_states_total']} zone states")
            reference = reference or doc
            if doc != reference:
                raise SystemExit(f"{name} and pure kernels disagree on the "
                                 "enumeration result")
    finally:
        zones._core = active


def kernel_rows(count, repeat):
    rng = random.Random(7)
    for n in (4, 6, 10):
        batch = np.stack([random_zone(rng, n) for _ in range(count)])
        print(f"\nclosure of {count} {n}x{n} zones (best of {repeat}):")
        base = reference = None
        for name, backend in backends():
            t, *closed = bench_close_many(backend, batch, repeat)
            if base is None:
                base, reference = t, closed
            if not same_closure(closed, reference):
                raise SystemExit(f"{name} and pure kernels disagree at n={n}")
            print(f"  {name:9s} close_many: {t * 1e3:8.1f} ms   "
                  f"speedup vs pure: {base / t:5.1f}x")


def pdbm_rows(count, repeat):
    rng = random.Random(7)
    box = ParamBox.of({"p": (0, 7), "q": (0, 7)})
    for n in (4, 6, 8):
        jobs = []
        for z in canonical_cpdbms(rng, box, n, count):
            i, j = rng.sample(range(n), 2)
            jobs.append((z, (i, j, bound(random_expr(rng, box)))))
        full, pivot = bench_pdbm_closure(box, jobs, repeat)
        print(f"\nguard + closure of {count} canonical {n}x{n} CPDBMs over "
              f"{box.size} points (best of {repeat}):")
        print(f"  full: {full * 1e3:8.1f} ms   through the guard's clocks: "
              f"{pivot * 1e3:8.1f} ms   speedup: {full / pivot:5.1f}x")
        # a generator of its own leaves the closure rows' inputs as they were
        edge_rng = random.Random(n)
        edges = []
        for z, atom in jobs:
            clocks = range(1, n)
            resets = edge_rng.sample(clocks, edge_rng.randrange(0, 3))
            inv = [(i, 0, bound(random_expr(edge_rng, box)))
                   for i in edge_rng.sample(clocks, edge_rng.randrange(0, 2))]
            maxima = [0] + [edge_rng.randrange(2, 9) for _ in clocks]
            edges.append((z, ([atom], resets, inv, maxima)))
        staged, one, branches = bench_transition(box, edges, repeat)
        print(f"transition of the same {count} CPDBMs, {branches} branches "
              f"(best of {repeat}):")
        print(f"  stage by stage: {staged * 1e3:8.1f} ms   one pass: "
              f"{one * 1e3:8.1f} ms   speedup: {staged / one:5.1f}x")


def main():
    sections = ("kernels", "pdbm", "enumeration")
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--section", action="append", choices=sections,
                    help="run only this section (repeatable)")
    args = ap.parse_args()
    run = args.section or sections
    repeat = 3

    print(f"active backend: {zones.BACKEND}")
    if compiled is None:
        print("compiled kernel not built (python setup.py build_ext "
              "--inplace); showing the pure fallback only")
    if "kernels" in run:
        kernel_rows(2000 if args.quick else 10000, repeat)
    if "pdbm" in run:
        pdbm_rows(200 if args.quick else 1000, repeat)
    if "enumeration" in run:
        enumeration_rows()


if __name__ == "__main__":
    main()
