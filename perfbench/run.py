#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the two ptasynth engines.

    python3 perfbench/run.py --workload dense3 --seed 1 --seconds 30 --trace 0

``--workload all`` runs dense3, live6 and fuzz in turn.  A run starts
fresh child processes, one at a time, until ``--seconds`` have passed and
each engine has run at least once; the engine measured least so far goes
next, so both get about half of the run.  A child runs every job of the
workload through the public API (``synthesize`` or ``enumerate_box``) with
default ``Options()``, so every child pays the cold caches and start-up a
command-line user pays.  Children use the pure-numpy zone backend
(``PTASYNTH_PURE=1``) and one thread.

Every job's satisfying, violating and deadlock sets are checked against
``answers.json``; any difference, unexpected error or capacity error is a
failure, and the run then exits with code 1.  Any other problem (missing
sources, a crashed child, a changed job list) exits with code 2 and prints
no result.

With ``--trace 0`` the result holds the end-to-end metrics: per engine the
median over its children of the summed engine wall time and of the peak
RSS, and the median set-up time over at least fifteen child start-ups.
Times are scaled to a reference machine speed measured by the probe of
``probe.py``: engine times by the probes run while the engine runs, the
set-up time by the probe run right after set-up (see README.md).  With
``--trace 1`` every child is followed by a second one under the span
tracer of ``tracer.py`` and the result holds the per-layer metrics,
including the tracing overhead (traced minus untraced engine time).

The last line of standard output is one JSON object: ``correct``,
``attempted`` (job runs), ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from probe import REFERENCE_S  # noqa: E402

ENGINES = ("symbolic", "enumerate")
MIN_SETUP_SAMPLES = 15
RUN_LIMIT_S = 170  # a run must end within 180 s

class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PTASYNTH_MAX_BOX_POINTS", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PTASYNTH_PURE="1",
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def spawn(engine: str, workload: str, seed: int, mode: str,
          deadline: float) -> dict:
    """Run one child to completion and return its report."""
    timeout = max(1.0, deadline - time.monotonic())
    cmd = [sys.executable, str(HERE / "child.py"), engine, workload,
           str(seed), repr(time.monotonic()), mode]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{engine} child ({mode}) ran out of time")
    if proc.returncode != 0:
        raise BenchError(f"{engine} child ({mode}) exited with code "
                         f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    try:
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{engine} child ({mode}) printed no report")
    if doc["backend"] != "python":
        raise BenchError(f"child used zone backend {doc['backend']!r}, "
                         "expected the pure one")
    if not Path(doc["package"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"child imported ptasynth from {doc['package']}, "
                         f"not from {ROOT / 'src'}")
    return doc


def scaled(child: dict, seconds: float) -> float:
    """A time the child measured, at the reference machine speed."""
    return seconds * REFERENCE_S / statistics.fmean(child["probe_s"])


def scaled_setup(child: dict) -> float:
    """The child's set-up time at the reference speed, as read by the
    probe that ran right after set-up."""
    return child["setup_s"] * REFERENCE_S / child["probe_s"][0]


def typical(children: list[dict]) -> dict:
    """One engine's traced children as one: the median scaled self time per
    span; calls, work, counts and integer stats must be the same in every
    child."""
    first = children[0]

    def exact(child):
        return ({name: (row["calls"], row["work"])
                 for name, row in child["trace"]["spans"].items()},
                child["trace"]["counts"], child["stats"])

    for child in children[1:]:
        if exact(child) != exact(first):
            raise BenchError("two traced runs of the same jobs counted "
                             "different calls, work or stats")
    spans = {
        name: dict(row, s=statistics.median(
            scaled(c, c["trace"]["spans"][name]["s"]) for c in children))
        for name, row in first["trace"]["spans"].items()
    }
    return {"spans": spans, "counts": first["trace"]["counts"],
            "stats": first["stats"]}


def layer_metrics(sym: dict, enu: dict,
                  overhead: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from the typical traced child of each engine."""
    spans: dict[str, dict] = {}
    counts: dict[str, int] = {}
    for child in (sym, enu):
        for name, row in child["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "s": 0.0, "work": 0})
            for key in acc:
                acc[key] += row[key]
        for name, n in child["counts"].items():
            counts[name] = counts.get(name, 0) + n
    nothing = {"calls": 0, "s": 0.0, "work": 0}

    def span(name):
        return spans.get(name, nothing)

    def share(num, den):
        return num / den if den else 0.0

    sym_stats, enu_stats = sym["stats"], enu["stats"]
    m: dict[str, float] = {}
    for op in ("apply_guard", "canonicalize", "extrapolate"):
        row = span(f"pdbm.{op}")
        m[f"pdbm.{op}.s"] = row["s"]
        m[f"pdbm.{op}.calls"] = row["calls"]
        m[f"pdbm.{op}.fork_ratio"] = share(row["work"], row["calls"])
    m["pdbm.evaluate_all.s"] = span("pdbm.evaluate_all")["s"]
    m["pdbm.evaluate_all.calls"] = span("pdbm.evaluate_all")["calls"]
    m["pdbm.negate_atom.calls"] = counts.get("pdbm.negate_atom", 0)
    covers = counts.get("params.covers", 0)
    m["params.covers.calls"] = covers
    m["params.covers.split_share"] = share(
        counts.get("params.covers.split", 0), covers)
    m["params.extended.calls"] = counts.get("params.extended", 0)
    m["params.bound_le_constraint.calls"] = counts.get(
        "params.bound_le_constraint", 0)
    row = span("explore.successors")
    m["explore.successors.s"] = row["s"]
    m["explore.successors.calls"] = row["calls"]
    m["explore.successors.out"] = row["work"]
    m["explore.deadlock.s"] = span("explore.deadlock")["s"]
    m["explore.deadlock.calls"] = span("explore.deadlock")["calls"]
    resolve = span("explore.store.resolve")
    m["explore.store.resolve.s"] = resolve["s"]
    m["explore.store.resolve.calls"] = resolve["calls"]
    m["explore.store.hit_ratio"] = share(sym_stats.get("m2_hits", 0),
                                         resolve["calls"])
    m["explore.store.semantic_comparisons"] = sym_stats.get(
        "semantic_comparisons", 0)
    m["explore.store.states"] = sym_stats.get("stored_states", 0)
    m["explore.store.zones"] = sym_stats.get("stored_zones", 0)
    m["explore.state_ratio"] = share(sym_stats.get("stored_states", 0),
                                     enu_stats.get("zone_states_total", 0))
    m["explore.ndfs.s"] = span("explore.ndfs")["s"]
    m["explore.ndfs.outer_visits"] = sym_stats.get("outer_visits", 0)
    m["explore.ndfs.inner_visits"] = sym_stats.get("inner_visits", 0)
    m["explore.ndfs.cycles"] = sym_stats.get("cycles_detected", 0)
    m["explore.self_s"] = span("symbolic")["s"]
    for op in ("close", "close_many"):
        m[f"zones.{op}.s"] = span(f"zones.{op}")["s"]
        m[f"zones.{op}.calls"] = span(f"zones.{op}")["calls"]
    m["zones.close_many.matrices"] = span("zones.close_many")["work"]
    m["baseline.instantiate.s"] = span("baseline.instantiate")["s"]
    m["baseline.instantiate.calls"] = span("baseline.instantiate")["calls"]
    m["baseline.zone_states"] = enu_stats.get("zone_states_total", 0)
    m["baseline.self_s"] = span("enumerate")["s"]
    m["frontend.s"] = span("frontend")["s"]
    m["frontend.locations"] = sym["spans"].get("frontend", nothing)["work"]
    for engine in ENGINES:
        m[f"trace.overhead.{engine}_s"] = overhead[engine]
    return m


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("ratio", "share")):
        return "ratio"
    return "count"


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 answers: dict) -> int:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    jobs = workloads.jobs(workload, seed)
    expected = answers.get(workload)
    if expected is None:
        raise BenchError(f"no recorded answers for workload {workload!r}")
    if workloads.jobs_digest(jobs) != expected["jobs_digest"]:
        raise BenchError(f"the {workload} job list differs from the one the "
                         "answers were recorded for")

    modes = ("plain", "traced") if trace else ("plain",)
    samples: dict[tuple, list[dict]] = {(e, m): [] for e in ENGINES
                                        for m in modes}
    busy = dict.fromkeys(ENGINES, 0.0)
    while (not all(samples[e, "plain"] for e in ENGINES)
           or time.monotonic() - started < seconds):
        # the engine measured least so far goes next, so that both get
        # about half of the run however long their jobs are
        engine = min(ENGINES, key=busy.get)
        t0 = time.monotonic()
        for mode in modes:
            samples[engine, mode].append(
                spawn(engine, workload, seed, mode, deadline))
        busy[engine] += time.monotonic() - t0

    runs = dict.fromkeys(ENGINES, 0)
    failed = dict.fromkeys(ENGINES, 0)
    for (engine, _mode), children in samples.items():
        for child in children:
            for job in jobs:
                runs[engine] += 1
                got = child["outcomes"].get(job.id)
                if got != expected["answers"][job.id]:
                    failed[engine] += 1
                    print(f"MISMATCH {engine} {job.id}: expected "
                          f"{expected['answers'][job.id]}, got {got}",
                          file=sys.stderr)
    attempted = sum(runs.values())

    def median_of(engine, mode, key):
        return statistics.median(c[key] for c in samples[engine, mode])

    def median_scaled(engine, mode, key):
        return statistics.median(scaled(c, c[key])
                                 for c in samples[engine, mode])

    raw = {}
    if trace:
        overhead = {e: median_scaled(e, "traced", "engine_s")
                    - median_scaled(e, "plain", "engine_s") for e in ENGINES}
        metrics = {
            name: (value, layer_unit(name))
            for name, value in layer_metrics(
                typical(samples["symbolic", "traced"]),
                typical(samples["enumerate", "traced"]), overhead).items()
        }
    else:
        setups = [c for e in ENGINES for c in samples[e, "plain"]]
        while len(setups) < MIN_SETUP_SAMPLES:
            engine = ENGINES[len(setups) % 2]
            setups.append(spawn(engine, workload, seed, "setup", deadline))
        metrics = {"setup_s": (statistics.median(
            scaled_setup(c) for c in setups), "s")}
        raw["setup_s"] = statistics.median(c["setup_s"] for c in setups)
        for engine in ENGINES:
            metrics[f"{engine}_s"] = (
                median_scaled(engine, "plain", "engine_s"), "s")
            metrics[f"{engine}_rss_mb"] = (
                median_of(engine, "plain", "rss_mb"), "MB")
            raw[f"{engine}_s"] = median_of(engine, "plain", "engine_s")

    first = samples["symbolic", "plain"][0]
    counts = {e: len(samples[e, "plain"]) for e in ENGINES}
    env = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "children": counts,
        "jobs": len(jobs),
        "backend": first["backend"],
        "commit": commit(),
        "python": first["python"],
        "numpy": first["numpy"],
        "nproc": os.cpu_count(),
        "run_s": round(time.monotonic() - started, 3),
        # per engine, to show that the probe reads the machine and not the
        # engine it runs in
        "probe_s": {e: statistics.median(
            p for c in samples[e, "plain"] for p in c["probe_s"])
            for e in ENGINES},
    }
    if raw:
        env["raw"] = raw
    print(f"{workload}: seed {seed}, {len(jobs)} job(s) per child, "
          + ", ".join(f"{counts[e]} {e} children" for e in ENGINES)
          + (" (each also traced)" if trace else ""))
    for name, (value, unit) in metrics.items():
        print(f"  {name:38s} {value:14.6g} {unit}")
    error_rate = sum(failed.values()) / attempted
    print(f"  {'error_rate':38s} {error_rate:14.6g} ratio  ("
          + ", ".join(f"{e} {failed[e]}/{runs[e]}" for e in ENGINES)
          + " job runs failed)")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": error_rate == 0,
        "attempted": attempted,
        "failed": sum(failed.values()),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if error_rate == 0 else 1


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    choices = [*workloads.WORKLOADS, workloads.SELFTEST_WORKLOAD, "all"]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=choices)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    try:
        if not (ROOT / "src" / "ptasynth" / "__init__.py").is_file():
            raise BenchError(f"no ptasynth sources under {ROOT / 'src'}")
        answers = json.loads((HERE / "answers.json").read_text())
        return max(run_workload(name, args.seed, args.seconds,
                                bool(args.trace), answers)
                   for name in names)
    except (BenchError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
