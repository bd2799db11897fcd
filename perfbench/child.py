"""Run one engine over one workload's jobs in this process, which the
benchmark starts fresh for every run of an engine.

    python3 perfbench/child.py ENGINE WORKLOAD SEED SPAWNED MODE

ENGINE is ``symbolic`` or ``enumerate``; SPAWNED is the parent's
``time.monotonic()`` just before it started this process, so the set-up
time covers interpreter start, imports and model loading; MODE is
``plain``, ``traced`` or ``setup`` (stop before the first engine call).
Prints one JSON object as the last line of standard output.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time


def main() -> int:
    engine, workload, seed, spawned, mode = sys.argv[1:6]

    import numpy as np
    import ptasynth
    from ptasynth import enumerate_box, synthesize, zones
    from ptasynth.errors import InputError

    import workloads
    from probe import SpeedMeter

    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    run = {"symbolic": synthesize, "enumerate": enumerate_box}[engine]
    if tracer is not None:
        run = tracer.timed(engine, run)

    prepared = []
    for job in workloads.jobs(workload, int(seed)):
        net = workloads.network(job)
        prepared.append((job, net, net.box(job.box)))

    setup_s = time.monotonic() - float(spawned)
    doc = {
        "setup_s": setup_s,
        "backend": zones.BACKEND,
        "package": ptasynth.__file__,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    meter = SpeedMeter(tracer.exclude if tracer else None)
    with meter:
        if mode != "setup":
            engine_s = 0.0
            outcomes = {}
            stats: dict[str, int] = {}
            for job, net, box in prepared:
                spent = meter.spent
                t0 = time.perf_counter()
                try:
                    res = run(net, job.prop, box)
                except InputError as exc:
                    outcomes[job.id] = f"error:{exc.kind}"
                    res = None
                except Exception as exc:  # every other outcome is a failure
                    outcomes[job.id] = f"failure:{type(exc).__name__}: {exc}"
                    res = None
                engine_s += time.perf_counter() - t0 - (meter.spent - spent)
                if res is not None:
                    outcomes[job.id] = workloads.outcome_of(res)
                    for key, val in res.stats.items():
                        if isinstance(val, int):
                            stats[key] = stats.get(key, 0) + val
            doc.update(engine_s=engine_s, outcomes=outcomes, stats=stats)
            if tracer is not None:
                doc["trace"] = tracer.summary()
    doc["probe_s"] = meter.samples
    doc["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
