"""Workload definitions shared by the benchmark runner (``run.py``), the
engine child (``child.py``) and the answer recorder (``record.py``).

A job is one (model, property, parameter box) triple; a workload is a list
of jobs that both engines run.  The models are frozen copies kept under
``models/`` and the fuzz jobs come from the frozen generator in
``fuzzgen.py``, so nothing outside this directory can change a workload.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
MODELS = HERE / "models"

# The fuzz pool is the first FUZZ_JOBS jobs the frozen generator draws
# from Random(FUZZ_GENERATOR_SEED).  Per-job times are heavy-tailed (a
# coefficient of variation of about 2.5 in this pool), so a job set drawn
# afresh from each benchmark seed would change the amount of work by tens
# of percent between seeds.  The benchmark seed therefore fixes the order
# in which the pool runs, not which jobs are in it.
FUZZ_GENERATOR_SEED = 1
FUZZ_JOBS = 200

# Why each workload exists; BENCHMARK.json repeats these lines.
WORKLOADS = {
    "dense3": "two-train gate, 3 parameters, 100 points, safety: many "
              "valuations per symbolic state; store and pdbm closure dominate",
    "live6": "six-parameter gate, 4 free parameters, 16 points, G F: the only "
             "workload with accepting cycles, so NDFS and accumulation run",
    "fuzz": "200 small random networks and properties, one at a time: front "
            "end and per-job fixed costs are a visible share",
}

# A few-point box used only by selftest.py.
SELFTEST_WORKLOAD = "tiny"


@dataclass(frozen=True)
class Job:
    id: str
    src: str                  # model text
    prop: str
    box: dict | None = None   # parameter-range overrides, name -> (lo, hi)
    model: str | None = None  # file under models/ the text was read from


def _model_job(job_id: str, model: str, prop: str, box: dict) -> Job:
    src = (MODELS / model).read_text(encoding="utf-8")
    return Job(job_id, src, prop, box, model)


def fuzz_pool() -> list[Job]:
    """The fuzz jobs in generation order."""
    from fuzzgen import random_model, random_property

    rng = random.Random(FUZZ_GENERATOR_SEED)
    out = []
    for k in range(FUZZ_JOBS):
        src, labels = random_model(rng)
        out.append(Job(f"fuzz-{k:03d}", src, random_property(rng, labels)))
    return out


def jobs(workload: str, seed: int) -> list[Job]:
    """The workload's jobs in the order one run executes them."""
    if workload == "dense3":
        # the test_c9 acceptance box is p1=0..8, p2=1..8, p3=0..8; this is
        # its low corner, small enough for several runs per minute
        return [_model_job("dense3", "traingate.pta",
                           "G !(Train1.Cross && Train2.Cross)",
                           {"p1": (0, 4), "p2": (1, 4), "p3": (0, 4)})]
    if workload == "live6":
        # p1, p2, p3, p5 free; p4 and p6 pinned to 1
        return [_model_job("live6", "traingate6.pta", "G F Train1.Cross",
                           {"p1": (2, 3), "p2": (1, 2), "p3": (0, 1),
                            "p4": (1, 1), "p6": (1, 1)})]
    if workload == "fuzz":
        pool = fuzz_pool()
        random.Random(seed).shuffle(pool)
        return pool
    if workload == SELFTEST_WORKLOAD:
        return [_model_job("tiny", "traingate.pta",
                           "G !(Train1.Cross && Train2.Cross)",
                           {"p1": (2, 3), "p2": (1, 1), "p3": (1, 2)})]
    raise KeyError(workload)


def network(job: Job):
    """The job's network: its model file read with ``load_model``, or the
    generated text parsed."""
    from ptasynth import load_model
    from ptasynth.model import parse_model

    if job.model is not None:
        return load_model(MODELS / job.model)
    return parse_model(job.src)


def jobs_digest(job_list: list[Job]) -> str:
    """Digest of a job list that does not depend on its order."""
    h = hashlib.sha256()
    for job in sorted(job_list, key=lambda j: j.id):
        h.update(json.dumps([job.id, job.src, job.prop, job.box],
                            sort_keys=True).encode())
    return h.hexdigest()


def outcome_of(result) -> str:
    """Digest of a result's satisfying, violating and deadlock sets.  The
    engine statistics are left out: later versions may change them."""
    doc = result.to_json()
    doc.pop("stats")
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return "sets:" + hashlib.sha256(text.encode()).hexdigest()[:32]
