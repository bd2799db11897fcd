"""Spans and counts at the module boundaries of ptasynth, recorded from
outside the program by replacing functions with wrappers.

A span is (name, start, end, parent); spans are kept in memory in flat
arrays and reduced at the end of the run to calls, self time and work per
name.  A span's self time is its duration minus the durations of its
direct children and minus time ``exclude`` took out of it.  Functions
that are called too often for a span each (``covers``,
``ConstraintSet.extended`` and the like) only count calls.

A function imported by name must be replaced in the importing module, or
calls through that name are missed: ``pdbm.covers``,
``pdbm.bound_le_constraint``, ``baseline.build_automaton`` and
``explore.negate_atom`` are such names, and ``StateStore.resolve`` is
replaced on the class.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work: Counter = Counter()
        self.counts: Counter = Counter()
        self.excluded: Counter = Counter()  # span index -> seconds
        self._open = -1  # index of the innermost open span

    def timed(self, name: str, fn, work=None):
        """Wrap ``fn`` so each call records a span; ``work(args, result)``,
        when given, is added to the name's work total."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        names, parents = self.name, self.parent
        starts, ends = self.start, self.end
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(tracer._open)
            ends.append(0.0)
            tracer._open = idx
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                tracer._open = parents[idx]
            if work is not None:
                tracer.work[name] += work(args, result)
            return result

        return traced

    def exclude(self, seconds: float) -> None:
        """Take time spent on something else, such as a probe run from a
        signal handler, out of the innermost open span's self time.  It
        only adds to a counter, so a signal between the steps of a span's
        bookkeeping cannot leave the span arrays out of step."""
        if self._open >= 0:
            self.excluded[self._open] += seconds

    def counted(self, name: str, fn, tally=None):
        """Wrap ``fn`` to count calls; ``tally(result)`` names an extra
        counter to bump, or returns None."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += 1
            if tally is not None:
                extra = tally(result)
                if extra is not None:
                    counts[extra] += 1
            return result

        return wrapper

    def install(self) -> None:
        """Replace the boundary functions of the imported ptasynth."""
        from ptasynth import baseline, explore, params, pdbm, zones
        from ptasynth.params import Cover

        def branches(args, result):
            return len(result)

        span = self.timed
        for name in ("apply_guard", "canonicalize", "extrapolate"):
            setattr(pdbm, name, span(f"pdbm.{name}", getattr(pdbm, name),
                                     branches))
        pdbm.evaluate_all = span("pdbm.evaluate_all", pdbm.evaluate_all)
        pdbm.covers = self.counted(
            "params.covers", pdbm.covers,
            lambda r: "params.covers.split" if r is Cover.SPLIT else None)
        pdbm.bound_le_constraint = self.counted(
            "params.bound_le_constraint", pdbm.bound_le_constraint)
        params.ConstraintSet.extended = self.counted(
            "params.extended", params.ConstraintSet.extended)
        negate = self.counted("pdbm.negate_atom", pdbm.negate_atom)
        pdbm.negate_atom = explore.negate_atom = baseline.negate_atom = negate

        explore.successors = span("explore.successors", explore.successors,
                                  branches)
        explore.deadlock_valuations = span("explore.deadlock",
                                           explore.deadlock_valuations)
        explore.StateStore.resolve = span("explore.store.resolve",
                                          explore.StateStore.resolve)
        explore.cumulative_ndfs_graph = span("explore.ndfs",
                                             explore.cumulative_ndfs_graph)
        frontend = span("frontend", explore.build_automaton,
                        lambda args, result: len(result[0].locations))
        explore.build_automaton = baseline.build_automaton = frontend

        zones.close = span("zones.close", zones.close)
        zones.close_many = span("zones.close_many", zones.close_many,
                                lambda args, result: args[0].shape[0])
        baseline.instantiate = span("baseline.instantiate",
                                    baseline.instantiate)

    def summary(self) -> dict:
        """Per span name: calls, self time in seconds and work; then the
        call counters."""
        n = len(self.start)
        name = np.frombuffer(self.name, dtype=np.int32)[:n]
        parent = np.frombuffer(self.parent, dtype=np.int32)[:n]
        dur = (np.frombuffer(self.end, dtype=np.float64)[:n]
               - np.frombuffer(self.start, dtype=np.float64)[:n])
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=dur[nested],
                                 minlength=n)
        excluded = np.zeros(n)
        for idx, seconds in self.excluded.items():
            excluded[idx] = seconds
        self_time = np.bincount(name, weights=dur - child_time - excluded,
                                minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        spans = {
            nm: {"calls": int(calls[i]), "s": float(self_time[i]),
                 "work": int(self.work[nm])}
            for i, nm in enumerate(self.names)
        }
        return {"spans": spans, "counts": dict(self.counts)}
