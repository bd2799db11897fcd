import importlib.util
import os
import random
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

FIXTURES = Path(__file__).parent / "fixtures"

SEED = int(os.environ.get("PTASYNTH_SEED", "20260808"))

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

# model file -> properties: one safety G-form, one response form, one
# liveness F/U-form (some models carry extras)
CORPUS = {
    "gap.pta": ["G !inB", "G (inA -> F inB)", "true U inB"],
    "window.pta": ["G !work", "G (idle -> F work)", "F work"],
    "zeno.pta": ["G !inB", "G (inA -> F inB)", "F inB"],
    "counter.pta": ["G (inB -> c <= 0)", "G (inA -> F inB)", "true U c >= 2"],
    "handshake.pta": ["G !busy", "G (waiting -> F idle)", "F busy"],
    "branchy.pta": ["G !inB", "G (inA -> F inB)", "F inB"],
    "strict.pta": ["G !inB", "G (inA -> F inB)", "true U inB"],
    "staggered.pta": ["G !inB", "G (inA -> F inB)", "F inB"],
    "urgent.pta": ["G !inC", "G (inB -> F inC)", "F inC"],
    "traingate.pta": ["G !(Train1.Cross && Train2.Cross)",
                      "G (Train1.Appr -> F Train1.Cross)",
                      "F (Train1.Cross || Train2.Cross)"],
}


@pytest.fixture
def rng():
    return random.Random(SEED)


def fixture_path(name: str) -> Path:
    return FIXTURES / name


def load_fixture(name: str):
    from ptasynth.model import load_model

    return load_model(fixture_path(name))


def load_perfbench(name: str):
    """The module ``perfbench/<name>.py``, loaded by path once and kept
    under its name, as perfbench's own imports between its modules expect;
    the perfbench directory itself stays off ``sys.path``."""
    module = sys.modules.get(name)
    if module is None:
        path = Path(__file__).resolve().parent.parent / "perfbench" / \
            f"{name}.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module


def load_fuzzgen():
    """The random model and property generator ``perfbench/fuzzgen.py``:
    the fuzz gate and the perfbench ``fuzz`` workload draw their jobs from
    the one file."""
    return load_perfbench("fuzzgen")


def load_workloads():
    """perfbench's job definitions ``perfbench/workloads.py``, whose
    ``fuzz_pool`` imports ``fuzzgen``."""
    load_fuzzgen()
    return load_perfbench("workloads")


def reset_zone(z, clocks, release=False):
    """``z`` with ``clocks`` reset to zero and, with ``release``, time
    released: pdbm's row helper ``_reset_rows`` on a constrained matrix."""
    from ptasynth import pdbm

    rows = pdbm._reset_rows(z.mat, sorted(clocks), release)
    return pdbm.CPDBM(z.bits, tuple(map(tuple, rows)), z.canonical)


def free_zone(z, clocks):
    """``z`` with ``clocks`` freed: pdbm's row helper ``_free_rows`` on a
    constrained matrix."""
    from ptasynth import pdbm

    rows = pdbm._free_rows([list(r) for r in z.mat], clocks)
    return pdbm.CPDBM(z.bits, tuple(map(tuple, rows)), z.canonical)


def unbound_zone(z, gate):
    """``z`` with the lower bounds of clock ``gate`` dropped: pdbm's row
    helper ``_unbound_below`` on a constrained matrix."""
    from ptasynth import pdbm

    rows = pdbm._unbound_below([list(r) for r in z.mat], gate)
    return pdbm.CPDBM(z.bits, tuple(map(tuple, rows)), z.canonical)


def oracle_bound(enc):
    """An encoded kernel bound as an oracle bound."""
    import oracle_dbm as od
    from ptasynth import zones

    return od.INF if enc >= zones.INF else (enc >> 1, not enc & 1)


def to_oracle(m):
    return [[oracle_bound(e) for e in row] for row in m.tolist()]


def from_oracle(m):
    """An oracle matrix in the kernels' int64 encoding."""
    import numpy as np

    import oracle_dbm as od
    from ptasynth import zones

    return np.array([[zones.INF if e is od.INF else zones.encode(*e)
                      for e in row] for row in m], dtype=np.int64)


def one_clock_bounds(a, box):
    """Every atom's magnitude over the box, both signs, maximized per clock
    over the whole automaton: the one bound vector all locations were
    widened with before per-location bounds, computed here without
    ``model.clock_tables``."""
    maxima = [0] * len(a.clock_names)
    for loc in a.locations:
        for atoms in [loc.inv] + [e.atoms for e in loc.edges]:
            for i, j, b in atoms:
                m = max(b.expr.max_bound(box), (-b.expr).max_bound(box))
                for c in (i, j):
                    if c:
                        maxima[c] = max(maxima[c], m)
    return maxima


def every_accepting(a, box=None):
    """Every accepting location of ``a``: the gated set of the non-Zeno
    construction before ``model.zeno_accepting``, with the signature of
    that analysis."""
    return {l for l, loc in enumerate(a.locations) if loc.accepting}


def fully_gated_automaton(net, prop: str, aut=None):
    """The shared front end's product with every accepting location gated
    (``make_nonzeno(p, every_accepting(p))``), built without
    ``model.zeno_accepting`` and, unless the property automaton ``aut`` is
    given, on the tableau translation of the negated property as it is,
    without ``ltl.bisimulation_quotient``."""
    from ptasynth import ltl
    from ptasynth.model import compose, make_nonzeno, product

    if aut is None:
        aut = ltl.to_buchi(ltl.to_nnf(ltl.neg(ltl.parse_ltl(prop))))
    pta, lab = compose(net)
    p = product(pta, lab, aut)
    return make_nonzeno(p, every_accepting(p))


def one_vector_enumeration(net, prop: str, box, aut=None):
    """The enumeration engine on ``fully_gated_automaton`` with
    ``one_clock_bounds`` for every location, no clock freed and the
    non-Zeno clock's lower bounds kept: (violating bits, deadlock bits,
    zone states), an exactness reference for the automaton quotient, the
    Zeno analysis, per-location bounds, inactive clocks and the gate step
    that runs none of them."""
    import dataclasses

    from ptasynth import baseline
    from ptasynth.model import Options

    tba = fully_gated_automaton(net, prop, aut)
    one = [tuple(one_clock_bounds(tba, box))] * len(tba.locations)
    accepted, deadlock, total, _ = baseline._explore(
        dataclasses.replace(tba, gate=0), box, one,
        [()] * len(tba.locations), Options())
    return accepted, deadlock, total


def scan_stored_bounds(g) -> int:
    """Verify that every finite bound of every node's matrix in the
    finished graph ``g`` (an ``explore.StateStore``) evaluates within
    [-maxima[column], maxima[row]] at every valuation of the node's
    colour, for the clock bounds ``maxima`` of the node's location;
    returns the number of entries checked.  The node table makes the same
    check on every arrival, through its window memo; this scan is the
    reference for it, read entry by entry off the box's values."""
    from ptasynth.errors import SoundnessError
    from ptasynth.params import ValuationSet

    checked = 0
    table = g.table
    box = table.box
    for loc, mat, colour in zip(g.locs, g.mats, g.colour):
        maxima = g.bounds[loc]
        idx = ValuationSet(box, colour).indices()
        for i, row in enumerate(mat):
            for j, b in enumerate(map(table.bound, row)):
                if b.is_inf or i == j:
                    continue
                vals = box.values(b.expr)[idx]
                if (vals > maxima[i]).any() or (vals < -maxima[j]).any():
                    raise SoundnessError(
                        f"stored bound out of range at entry ({i},{j}): {b}")
                checked += 1
    return checked
