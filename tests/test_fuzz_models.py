"""Cross-engine fuzz: random small networks and properties must get
identical violating and deadlock sets from both engines."""

import dataclasses
import random
import re

import pytest

from conftest import (
    CORPUS,
    SEED,
    every_accepting,
    load_fixture,
    load_fuzzgen,
    one_vector_enumeration,
)
from ptasynth import baseline, explore, model
from ptasynth.baseline import enumerate_box
from ptasynth.errors import CapacityError, InputError
from ptasynth.explore import synthesize
from ptasynth.model import Options, parse_model

fuzzgen = load_fuzzgen()


def test_random_models_agree():
    rng = random.Random(SEED ^ 0xF022)
    checked = 0
    skipped = 0
    while checked < 120:
        src, labels = fuzzgen.random_model(rng)
        prop = fuzzgen.random_property(rng, labels)
        net = parse_model(src)
        opts = Options(limit_states=30000)
        try:
            sym = synthesize(net, prop, opts=opts)
        except CapacityError:
            skipped += 1
            assert skipped < 20
            continue
        except InputError as exc:
            # a generated handshake can chain updates out of range, which
            # is a composition error by contract; both engines must agree
            assert exc.kind == "update-out-of-range"
            with pytest.raises(InputError):
                enumerate_box(net, prop, opts=opts)
            skipped += 1
            assert skipped < 20
            continue
        base = enumerate_box(net, prop, opts=opts)
        context = f"property {prop!r} on\n{src}"
        assert sym.accepted.bits == base.accepted.bits, context
        assert sym.satisfying.bits == base.satisfying.bits, context
        assert sym.deadlock.bits == base.deadlock.bits, context
        checked += 1


def sets(res):
    return res.satisfying.bits, res.accepted.bits, res.deadlock.bits


# the atom shapes the grammar allows and the generator never emits: a
# clock-free comparison (a guard on the parameters alone), a difference
# with the zero clock on either side, and an equality
ATOM_SHAPES = ("0 {op} {e}", "{x} - 0 {op} {e}", "0 - {x} {op} {e}",
               "{x} == {e}")


def with_atom_shapes(rng, src: str) -> tuple[str, int]:
    """``src`` with an atom of one of the ``ATOM_SHAPES`` appended to about
    half of its guards that are not ``true``, and the number of those
    atoms that read no clock."""
    params = re.findall(r"^param (\w+)", src, re.M)
    clocks = re.search(r"^clock (.*)$", src, re.M).group(1).split()
    clock_free = 0

    def extend(m):
        nonlocal clock_free
        if m.group(1) == "true" or rng.random() < 0.5:
            return m.group(0)
        p, k = rng.choice(params), rng.randrange(0, 4)
        shape = rng.choice(ATOM_SHAPES)
        clock_free += shape == ATOM_SHAPES[0]
        atom = shape.format(op=rng.choice(["<", "<=", ">", ">=", "=="]),
                            x=rng.choice(clocks),
                            e=rng.choice([f"{p} - {k}", f"{k} - {p}", k]))
        return f"guard {m.group(1)} && {atom}"

    return re.sub(r"guard (.+?)(?=;| })", extend, src), clock_free


def test_every_atom_shape_agrees():
    # generator jobs with those shapes added: both engines give the same
    # sets, and no soundness check fails
    rng = random.Random(3)
    clock_free = 0
    for _ in range(120):
        src, labels = fuzzgen.random_model(rng)
        prop = fuzzgen.random_property(rng, labels)
        src, added = with_atom_shapes(rng, src)
        net = parse_model(src)
        assert sets(synthesize(net, prop)) == sets(enumerate_box(net, prop)), \
            f"property {prop!r} on\n{src}"
        clock_free += added
    assert clock_free > 20


def test_first_thousand_jobs_of_generator_seed_1_agree():
    # the fixed job list every engine change is checked on: the first
    # 1,000 (model, property) pairs drawn from Random(1), under default
    # options (none of them raises).  Both engines share the Zeno analysis,
    # the per-location bounds, the freeing of inactive clocks and the
    # dropping of the non-Zeno clock's lower bounds, so the violating and
    # deadlock sets are also checked against enumeration with every
    # accepting location gated, one bound vector for every location, no
    # clock freed and those lower bounds kept: that reference is what
    # checks all four steps here
    rng = random.Random(1)
    for k in range(1000):
        src, labels = fuzzgen.random_model(rng)
        prop = fuzzgen.random_property(rng, labels)
        net = parse_model(src)
        sym = synthesize(net, prop)
        context = f"job {k}: property {prop!r} on\n{src}"
        assert sets(sym) == sets(enumerate_box(net, prop)), context
        assert (sym.accepted.bits, sym.deadlock.bits) == \
            one_vector_enumeration(net, prop, sym.box)[:2], context


def exact_and_never_grows(monkeypatch, engine, count, patches):
    """Run ``engine`` on the corpus with its properties and the first 200
    generator-seed-1 jobs, as it is and with each ``(module, attr,
    value)`` of ``patches`` set: the three sets agree, the ``count`` stat
    is never higher as it is, and lower on some jobs."""
    rng = random.Random(1)
    jobs = [(load_fixture(name), prop) for name, props in CORPUS.items()
            for prop in props]
    for _ in range(200):
        src, labels = fuzzgen.random_model(rng)
        jobs.append((parse_model(src), fuzzgen.random_property(rng, labels)))
    on = [engine(net, prop) for net, prop in jobs]
    for module, attr, value in patches:
        monkeypatch.setattr(module, attr, value)
    fewer = 0
    for (net, prop), got in zip(jobs, on):
        kept = engine(net, prop)
        assert sets(got) == sets(kept), prop
        states = got.stats[count], kept.stats[count]
        assert states[0] <= states[1], prop
        fewer += states[0] < states[1]
    assert fewer > 0


def freeing_none(build_automaton):
    """The front end ``build_automaton`` handing the engines an
    inactive-clock table that frees no clock."""

    def front_end(*args):
        tba, bounds, _ = build_automaton(*args)
        return tba, bounds, [()] * len(tba.locations)

    return front_end


def test_freeing_inactive_clocks_is_exact_and_never_grows(monkeypatch):
    # with no clock ever freed
    exact_and_never_grows(monkeypatch, synthesize, "stored_states",
                          [(explore, "build_automaton",
                            freeing_none(explore.build_automaton))])


@pytest.mark.parametrize("engine,count", [
    (synthesize, "stored_states"), (enumerate_box, "zone_states_total")])
def test_gating_only_zeno_accepting_is_exact_and_never_grows(monkeypatch,
                                                             engine, count):
    # with every accepting location gated, as before the Zeno analysis
    exact_and_never_grows(monkeypatch, engine, count,
                          [(model, "zeno_accepting", every_accepting)])


def test_dropping_gate_lower_bounds_is_exact_and_never_grows(monkeypatch):
    # on every accepting location gated, so that most jobs have a gate
    # clock: with the front end recording none, every matrix keeps the
    # non-Zeno clock's lower bounds
    monkeypatch.setattr(model, "zeno_accepting", every_accepting)
    make_nonzeno = model.make_nonzeno
    exact_and_never_grows(
        monkeypatch, synthesize, "stored_states",
        [(model, "make_nonzeno",
          lambda a, gated: dataclasses.replace(make_nonzeno(a, gated),
                                               gate=0))])


def test_enumeration_projection_is_exact_and_never_grows(monkeypatch):
    # the enumeration engine with no clock freed and the non-Zeno clock's
    # lower bounds kept, under the same per-location clock bounds
    build_automaton = freeing_none(baseline.build_automaton)

    def gateless(*args):
        tba, bounds, free = build_automaton(*args)
        return dataclasses.replace(tba, gate=0), bounds, free

    exact_and_never_grows(monkeypatch, enumerate_box, "zone_states_total",
                          [(baseline, "build_automaton", gateless)])


def test_job_837_stays_small():
    # job 837 of that list, the largest symbolic graph in it: 5,468 nodes
    # when every location was widened with one bound vector, 2,120 states
    # in the older per-extension store, 1,173 nodes with per-location
    # bounds, 1,099 with inactive clocks freed, 641 with the gate clock's
    # lower bounds dropped, 640 with only the accepting locations that can
    # be Zeno gated
    net = load_fixture("fuzz837.pta")
    sym = synthesize(net, "G !al1")
    assert sets(sym) == sets(enumerate_box(net, "G !al1"))
    assert sym.stats["stored_states"] <= 660
