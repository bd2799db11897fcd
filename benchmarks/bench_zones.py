#!/usr/bin/env python3
"""Benchmark the zone-arithmetic backends: compiled extension vs the pure
fallback, on the raw closure kernels and on an end-to-end enumeration run.

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


def bench_close(backend, mats, repeat):
    best = float("inf")
    for _ in range(repeat):
        work = [m.copy() for m in mats]
        t0 = time.perf_counter()
        for m in work:
            backend.close(m)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_close_many(backend, ms, repeat):
    best = float("inf")
    ok = np.empty(ms.shape[0], dtype=np.uint8)
    for _ in range(repeat):
        work = ms.copy()
        t0 = time.perf_counter()
        backend.close_many(work, ok)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_end_to_end():
    from ptasynth.baseline import enumerate_box
    from ptasynth.model import load_model

    fixture = Path(__file__).resolve().parent.parent / "tests" / "fixtures" \
        / "traingate.pta"
    net = load_model(fixture)
    t0 = time.perf_counter()
    enumerate_box(net, "G !(Train1.Cross && Train2.Cross)")
    return time.perf_counter() - t0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()

    rng = random.Random(7)
    count = 2000 if args.quick else 10000
    repeat = 3

    print(f"active backend: {zones.BACKEND}")
    if compiled is None:
        print("compiled core not built; showing the pure fallback only")

    for n in (4, 6, 10):
        mats = [random_zone(rng, n) for _ in range(count)]
        batch = np.stack(mats)
        rows = [("pure", pure)]
        if compiled is not None:
            rows.append(("compiled", compiled))
        print(f"\nclosure of {count} {n}x{n} zones (best of {repeat}):")
        base = None
        for name, backend in rows:
            t1 = bench_close(backend, mats, repeat)
            t2 = bench_close_many(backend, batch, repeat)
            if base is None:
                base = t1
            print(f"  {name:9s} close: {t1 * 1e3:8.1f} ms   "
                  f"close_many: {t2 * 1e3:8.1f} ms   "
                  f"speedup vs pure: {base / t1:5.1f}x")

    print("\nend-to-end enumeration on the two-train fixture "
          f"(backend: {zones.BACKEND}):")
    print(f"  {bench_end_to_end():6.2f} s")
    print("\nrun with PTASYNTH_PURE=1 to time the end-to-end path on the "
          "pure fallback")


if __name__ == "__main__":
    main()
