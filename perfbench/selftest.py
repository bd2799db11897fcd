#!/usr/bin/env python3
"""Fast self-check of the benchmark on the few-point ``tiny`` workload.

    python3 perfbench/selftest.py

Checks that the metric names and units a run prints, with and without
tracing, are those BENCHMARK.json declares, and that a corrupted expected
digest makes the run fail with ``error_rate > 0`` and a non-zero exit
code.  Prints ``selftest ok`` and exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
import workloads


def bench(call) -> tuple[int, str]:
    """Exit code and standard output of ``call()``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = call()
    return code, out.getvalue()


def error_rate(stdout: str) -> float:
    line = next(ln for ln in stdout.splitlines()
                if ln.split()[:1] == ["error_rate"])
    return float(line.split()[1])


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")

    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        code, out = bench(lambda: run.main([
            "--workload", workloads.SELFTEST_WORKLOAD, "--seconds", "1",
            "--trace", trace]))
        result = json.loads(out.splitlines()[-1])
        declared = {m["name"]: m["unit"] for m in spec[key]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        if code != 0 or not result["correct"] or error_rate(out) != 0:
            problems.append(f"--trace {trace}: clean run failed (exit {code})")
        if printed != declared:
            units = sorted(n for n in declared.keys() & printed.keys()
                           if declared[n] != printed[n])
            problems.append(
                f"--trace {trace}: printed metrics differ from {key}: "
                f"missing {sorted(declared.keys() - printed.keys())}, "
                f"extra {sorted(printed.keys() - declared.keys())}, "
                f"other units {units}")

    answers = json.loads((run.HERE / "answers.json").read_text())
    expected = answers[workloads.SELFTEST_WORKLOAD]["answers"]
    for job_id in expected:
        expected[job_id] = "sets:" + "0" * 32
    code, out = bench(lambda: run.run_workload(
        workloads.SELFTEST_WORKLOAD, 1, 1, False, answers))
    result = json.loads(out.splitlines()[-1])
    if code != 1 or result["correct"] or result["failed"] == 0 \
            or not error_rate(out) > 0:
        problems.append("a corrupted expected digest did not fail the run")

    for p in problems:
        print(p, file=sys.stderr)
    if problems:
        return 1
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
