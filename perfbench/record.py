#!/usr/bin/env python3
"""Record the expected answer of every benchmark job in answers.json.

    python3 perfbench/record.py

Runs both engines on every job with default options and records a job's
answer only where the two agree: the digest of its satisfying, violating
and deadlock sets, or the kind of the input error both raise.  Refuses to
write the file if the engines disagree on any job or a job ends in any
other error, capacity errors included.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from ptasynth import enumerate_box, synthesize  # noqa: E402
from ptasynth.errors import InputError  # noqa: E402

import workloads  # noqa: E402


def outcome(engine, net, job) -> str:
    try:
        return workloads.outcome_of(engine(net, job.prop, net.box(job.box)))
    except InputError as exc:
        return f"error:{exc.kind}"


def main() -> int:
    doc = {}
    bad = 0
    for name in [*workloads.WORKLOADS, workloads.SELFTEST_WORKLOAD]:
        job_list = workloads.jobs(name, 0)
        answers = {}
        for job in job_list:
            net = workloads.network(job)
            sym = outcome(synthesize, net, job)
            enu = outcome(enumerate_box, net, job)
            if sym != enu:
                print(f"{name} {job.id}: symbolic {sym} != enumerate {enu}",
                      file=sys.stderr)
                bad += 1
            answers[job.id] = sym
        doc[name] = {"jobs_digest": workloads.jobs_digest(job_list),
                     "answers": dict(sorted(answers.items()))}
        print(f"{name}: {len(job_list)} job(s) recorded")
    if bad:
        print(f"{bad} job(s) disagree; answers.json not written",
              file=sys.stderr)
        return 1
    (HERE / "answers.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
