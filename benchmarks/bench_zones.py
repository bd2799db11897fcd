#!/usr/bin/env python3
"""Benchmark the zone-arithmetic backends: compiled extension vs the pure
fallback, on full closure (``zones.close_many``, the kernel re-closing
through every diagonal entry), on guards (``zones.constrain_many``)
against tightening with ``np.minimum.at`` and closing in full, and on an
end-to-end enumeration run on each.  ``zones._core`` is set to each
backend in turn.  Every kernel row checks that the backends (and, for
guards, both ways) agree on the stack it times, and the enumeration runs
that their results, stats included, agree; a disagreement exits non-zero.

Usage: python benchmarks/bench_zones.py [--quick]
"""

import argparse
import random
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ptasynth import _zonecore_py as pure  # noqa: E402
from ptasynth import zones  # noqa: E402

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


def canonical_stack(rng, n, count):
    """Closed non-empty zones: random bounds, each loosened where needed to
    hold at one random point, then closed."""
    ms = np.stack([random_zone(rng, n) for _ in range(count)])
    at = np.array([[0] + [rng.randrange(12) for _ in range(n - 1)]
                   for _ in range(count)], dtype=np.int64)
    diff = at[:, :, None] - at[:, None, :]
    loose = (ms < zones.INF) & ((ms >> 1) <= diff)
    ms[loose] = (diff[loose] << 1) | 1
    if not zones.close_many(ms).all():
        raise SystemExit("a zone holding its own point closed empty")
    return ms


def random_atoms(rng, count, n, width):
    """``(pos, enc)`` arrays: ``width`` random atoms per zone."""
    pos = np.array([[rng.randrange(n * n) for _ in range(width)]
                    for _ in range(count)], dtype=np.int64)
    enc = np.array([[(rng.randrange(-6, 12) << 1) | (rng.random() < 0.5)
                     for _ in range(width)] for _ in range(count)],
                   dtype=np.int64)
    return pos, enc


def timed(run, ms, repeat):
    """Best time of ``run(work)``, which returns the non-empty mask, on
    copies of the batch; also the last result and mask."""
    best = float("inf")
    for _ in range(repeat):
        work = ms.copy()
        t0 = time.perf_counter()
        ok = run(work)
        best = min(best, time.perf_counter() - t0)
    return best, work, ok


def same_closure(a, b):
    """Equal emptiness masks, and equal matrices where the zone is non-empty
    (an empty zone's contents depend on the order of the updates)."""
    (ms_a, ok_a), (ms_b, ok_b) = a, b
    return np.array_equal(ok_a, ok_b) and np.array_equal(ms_a[ok_a],
                                                          ms_b[ok_b])


def backends():
    """Each built backend's name, with ``zones._core`` set to it meanwhile."""
    out = [("pure", pure)]
    if compiled is not None:
        out.append(("compiled", compiled))
    active = zones._core
    try:
        for name, backend in out:
            zones._core = backend
            yield name
    finally:
        zones._core = active


def enumeration_rows():
    """The enumeration engine on the two-train fixture, run on each kernel
    in turn; the result documents must be equal."""
    from ptasynth.baseline import enumerate_box
    from ptasynth.model import load_model

    fixture = Path(__file__).resolve().parent.parent / "tests" / "fixtures" \
        / "traingate.pta"
    net = load_model(fixture)
    print("\nend-to-end enumeration on the two-train fixture:")
    reference = None
    for name in backends():
        t0 = time.perf_counter()
        doc = enumerate_box(net, "G !(Train1.Cross && Train2.Cross)").to_json()
        elapsed = time.perf_counter() - t0
        print(f"  {name:9s} {elapsed:6.2f} s   "
              f"{doc['stats']['zone_states_total']} zone states")
        reference = reference or doc
        if doc != reference:
            raise SystemExit(f"{name} and pure kernels disagree on the "
                             "enumeration result")


def kernel_rows(count, repeat):
    rng = random.Random(7)
    for n in (4, 6, 10):
        batch = np.stack([random_zone(rng, n) for _ in range(count)])
        print(f"\nclosure of {count} {n}x{n} zones (best of {repeat}):")
        base = reference = None
        for name in backends():
            t, *closed = timed(zones.close_many, batch, repeat)
            if base is None:
                base, reference = t, closed
            if not same_closure(closed, reference):
                raise SystemExit(f"{name} and pure kernels disagree at n={n}")
            print(f"  {name:9s} close_many: {t * 1e3:8.1f} ms   "
                  f"speedup vs pure: {base / t:5.1f}x")


def constrain_rows(count, repeat):
    rng = random.Random(11)
    for n in (4, 6, 10):
        ms = canonical_stack(rng, n, count)
        rows = np.arange(count)[:, None] * n * n
        for width in (1, 2):
            pos, enc = random_atoms(rng, count, n, width)
            print(f"\nguard of {width} atom{'s' * (width > 1)} on {count} "
                  f"canonical {n}x{n} zones (best of {repeat}):")
            reference = None
            for name in backends():
                def full(work):
                    np.minimum.at(work.reshape(-1), rows + pos, enc)
                    return zones.close_many(work)

                t_full, *by_full = timed(full, ms, repeat)
                t_inc, *by_inc = timed(
                    lambda work: zones.constrain_many(work, pos, enc), ms,
                    repeat)
                reference = reference or by_full
                if not (same_closure(by_full, reference)
                        and same_closure(by_inc, reference)):
                    raise SystemExit(f"{name} guard kernels disagree at "
                                     f"n={n}, {width} atoms")
                print(f"  {name:9s} minimum.at + close_many: "
                      f"{t_full * 1e3:7.1f} ms   constrain_many: "
                      f"{t_inc * 1e3:7.1f} ms   speedup: "
                      f"{t_full / t_inc:5.1f}x")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()

    print(f"active backend: {zones.BACKEND}")
    if compiled is None:
        print("compiled kernel not built (python setup.py build_ext "
              "--inplace); showing the pure fallback only")
    kernel_rows(2000 if args.quick else 10000, repeat=3)
    constrain_rows(2000 if args.quick else 10000, repeat=3)
    enumeration_rows()


if __name__ == "__main__":
    main()
