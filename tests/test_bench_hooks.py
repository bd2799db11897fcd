"""The benchmark's tracer (``perfbench/tracer.py``) replaces ptasynth
functions by name, so deleting or renaming one of them breaks the
benchmark.  Installing it here makes such a change fail the test suite."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_child(code: str) -> subprocess.CompletedProcess:
    # a child process, so that no replaced function leaks into this one
    path = [str(ROOT / "src"), str(ROOT / "perfbench"),
            os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True, text=True, timeout=120)


def test_tracer_installs():
    proc = run_child("import tracer; tracer.Tracer().install()")
    assert proc.returncode == 0, proc.stderr


LIVE6_SPANS = """
import json
import tracer
import workloads
from ptasynth import synthesize

t = tracer.Tracer()
t.install()
[job] = workloads.jobs("live6", 1)
net = workloads.network(job)
stats = synthesize(net, job.prop, net.box(job.box)).stats
spans = t.summary()["spans"]
print(json.dumps({"expansions": stats["expansions"],
                  "successors": spans["explore.successors"],
                  "resolve": spans["explore.store.resolve"]}))
"""


def test_tracer_sees_every_expansion_and_arrival():
    # build_graph must call successors and StateStore.resolve through the
    # names the tracer replaces: inlining either would zero its metrics
    proc = run_child(LIVE6_SPANS)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["successors"]["calls"] == got["expansions"] > 0
    # every successor branch arrives at the node table, and so does
    # every initial matrix
    assert got["resolve"]["calls"] > got["successors"]["work"] > 0


LIVE6_INSTANTIATE = """
import json
import tracer
import workloads
from ptasynth import enumerate_box

t = tracer.Tracer()
t.install()
[job] = workloads.jobs("live6", 1)
net = workloads.network(job)
enumerate_box(net, job.prop, net.box(job.box))
print(json.dumps(t.summary()["spans"].get("baseline.instantiate")))
"""


def test_tracer_times_instantiate():
    # _explore must build its per-box tables through the name the tracer
    # replaces: calling the class directly would zero the
    # baseline.instantiate metrics and book the time as baseline self time
    proc = run_child(LIVE6_INSTANTIATE)
    assert proc.returncode == 0, proc.stderr
    span = json.loads(proc.stdout)
    assert span is not None and span["calls"] == 1
