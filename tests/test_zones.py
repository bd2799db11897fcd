"""The concrete-zone kernels against the naive oracle, and the two
backends against each other."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import oracle_dbm as od
from conftest import from_oracle, oracle_bound, to_oracle
from ptasynth import zones
from ptasynth import _zonecore_py as pure

KERNEL_SOURCE = (Path(__file__).resolve().parent.parent / "src" / "ptasynth"
                 / "_zonecore.c")


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """The compiled kernel built from the current source into a fresh
    directory, so that a stale in-place build cannot stand in for it.
    Skips only when the C compiler fails."""
    from setuptools import Distribution, Extension
    from setuptools.command.build_ext import build_ext
    from setuptools.errors import CCompilerError

    out = tmp_path_factory.mktemp("zonecore")
    cmd = build_ext(Distribution({"ext_modules": [
        Extension("ptasynth._zonecore", [str(KERNEL_SOURCE)])]}))
    cmd.build_lib = str(out)
    cmd.build_temp = str(out / "tmp")
    cmd.ensure_finalized()
    try:
        cmd.run()
    except CCompilerError as exc:
        pytest.skip(f"the C compiler failed: {exc}")
    spec = importlib.util.spec_from_file_location(
        "ptasynth._zonecore", cmd.get_ext_fullpath("ptasynth._zonecore"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(params=["pure", "compiled"])
def kernel(request):
    if request.param == "pure":
        return pure
    return request.getfixturevalue("compiled")


def random_zone(rng, n):
    m = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if i == j:
                m[i, j] = zones.ZERO_WEAK
            elif rng.random() < 0.25:
                m[i, j] = zones.INF
            else:
                m[i, j] = zones.encode(rng.randrange(-6, 9),
                                       rng.random() < 0.5)
    return m


def built_kernels(request):
    """The pure kernel, and the compiled one unless the C compiler fails."""
    try:
        return [pure, request.getfixturevalue("compiled")]
    except pytest.skip.Exception:
        return [pure]


def test_encode_decode_round_trip():
    for val in (-5, 0, 7):
        for strict in (False, True):
            enc = zones.encode(val, strict)
            assert (enc >> 1, not enc & 1) == (val, strict)
            assert enc < zones.INF


def test_backend_reported():
    assert zones.BACKEND in ("compiled", "python")


def widened_zones(rng, n, count):
    """Canonical zones, some with time released, widened by
    ``zones.extrapolate`` at random maxima; only those it changed."""
    out = []
    while len(out) < count:
        m = canonical_zone(rng, n)
        if rng.random() < 0.5:
            zones.up(m)
        maxima = np.array([0] + [rng.randrange(4) for _ in range(n - 1)],
                          dtype=np.int64)
        if zones.extrapolate(m, maxima):
            out.append(m)
    return out


def negative_diagonal_zone(rng, n):
    m = random_zone(rng, n)
    k = rng.randrange(n)
    m[k, k] = zones.encode(rng.randrange(-3, 1), True)
    return m


def late_empty_zone(rng, n):
    """Each clock at least 0 and no other bound on the zero clock, with a
    negative cycle among the other clocks (n >= 3): the zone is empty, but
    the round through clock 0 changes nothing."""
    m = np.full((n, n), zones.INF, dtype=np.int64)
    np.fill_diagonal(m, zones.ZERO_WEAK)
    m[0] = zones.ZERO_WEAK
    cycle = rng.sample(range(1, n), rng.randrange(2, n))
    total = 0
    for a, b in zip(cycle, cycle[1:]):
        value = rng.randrange(-3, 4)
        m[a, b] = zones.encode(value, False)
        total += value
    m[cycle[-1], cycle[0]] = zones.encode(-total, True)
    return m


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_close_matches_oracle(rng, n, request, monkeypatch):
    """``zones.close_many`` on each kernel closes stacks as the oracle
    closes their zones one by one: random zones, canonical zones widened
    by ``zones.extrapolate`` (the engine's only input to it), zones with
    a negative diagonal entry, and zones empty only at a later pivot."""
    kinds = [[random_zone(rng, n) for _ in range(120)],
             widened_zones(rng, n, 60),
             [negative_diagonal_zone(rng, n) for _ in range(20)]]
    if n > 2:  # with one clock besides 0, every cycle passes through 0
        kinds.append([late_empty_zone(rng, n) for _ in range(20)])
    oracles = [[to_oracle(m) for m in zs] for zs in kinds]
    oks = [[od.close(om) for om in oms] for oms in oracles]
    assert all(oks[1]) and not any(sum(oks[2:], []))
    for kernel in built_kernels(request):
        monkeypatch.setattr(zones, "_core", kernel)
        for zs, oms, want in zip(kinds, oracles, oks):
            got = np.stack(zs)
            assert zones.close_many(got).tolist() == want
            for m, om, ok in zip(got, oms, want):
                if ok:  # empty zones leave unspecified contents behind
                    assert np.array_equal(m, from_oracle(om))


def test_diagonal_atom_is_a_floyd_warshall_round(rng, kernel):
    """An atom (0, <=) on diagonal entry k re-closes any matrix as round k
    of Floyd-Warshall does; below (0, <=) on that entry, it is skipped and
    the zone is reported empty."""
    for n in range(1, 6):
        for k in range(n):
            ms = np.stack([random_zone(rng, n) for _ in range(30)])
            pos = np.full((30, 1), k * (n + 1), dtype=np.int64)
            enc = np.full((30, 1), zones.ZERO_WEAK, dtype=np.int64)
            got, ok = ms.copy(), np.zeros(30, dtype=np.uint8)
            kernel.constrain_many(got, pos, enc, ok)
            for m, flag, om in zip(got, ok, map(to_oracle, ms)):
                for i in range(n):
                    for j in range(n):
                        om[i][j] = od.minimum(om[i][j],
                                              od.add(om[i][k], om[k][j]))
                assert np.array_equal(m, from_oracle(om))
                assert flag == all(not od.lt(om[i][i], (0, False))
                                   for i in range(n))
            got[:, k, k] = zones.encode(0, True)
            kernel.constrain_many(got, pos, enc, ok)
            assert not ok.any()


def test_close_many_matches_single(rng):
    ms = np.stack([random_zone(rng, 4) for _ in range(40)])
    singles = ms.copy()
    flags = zones.close_many(ms)
    for t in range(40):
        assert flags[t] == zones.close(singles[t])
        if flags[t]:
            assert np.array_equal(ms[t], singles[t])
    assert zones.close_many(ms[:0]).shape == (0,)


def test_backends_agree(rng, compiled, monkeypatch):
    assert compiled.INF == pure.INF
    for n in range(1, 7):
        ms = np.stack([random_zone(rng, n) for _ in range(60)])
        ms1, ms2 = ms.copy(), ms.copy()
        monkeypatch.setattr(zones, "_core", compiled)
        ok1 = zones.close_many(ms1)
        monkeypatch.setattr(zones, "_core", pure)
        ok2 = zones.close_many(ms2)
        assert np.array_equal(ok1, ok2)
        assert ms1[ok1].tobytes() == ms2[ok2].tobytes()


def test_compiled_rejects_bad_buffers(compiled):
    """The compiled kernel's buffer checks on the stack and the flags."""
    square = np.full((3, 3), zones.ZERO_WEAK, dtype=np.int64)
    batch = np.stack([square, square])
    read_only = batch.copy()
    read_only.flags.writeable = False
    strided = np.full((2, 4, 4), 1, dtype=np.int64)[:, ::2, ::2]
    pos = np.zeros((2, 1), dtype=np.int64)
    enc = np.full((2, 1), zones.ZERO_WEAK, dtype=np.int64)
    ok = np.zeros(2, dtype=np.uint8)
    for bad in (batch.astype(np.int32), batch.astype(np.float64),
                batch[:, :, :2], strided, batch[::-1], read_only,
                [[[1]], [[1]]], square, batch[None]):
        with pytest.raises(ValueError):
            compiled.constrain_many(bad, pos, enc, ok)
    for bad_ok in (np.zeros(3, dtype=np.uint8), np.zeros(2, dtype=np.int64)):
        with pytest.raises(ValueError):
            compiled.constrain_many(batch, pos, enc, bad_ok)


def canonical_zone(rng, n):
    """A closed non-empty zone: random bounds, each loosened where needed
    to hold at one random point, then closed."""
    at = [0] + [rng.randrange(6) for _ in range(n - 1)]
    m = random_zone(rng, n)
    for i in range(n):
        for j in range(n):
            if m[i, j] < zones.INF and m[i, j] >> 1 <= at[i] - at[j]:
                m[i, j] = zones.encode(at[i] - at[j], False)
    om = to_oracle(m)
    assert od.close(om)
    return from_oracle(om)


def random_atom_rows(rng, ms, width):
    """Per zone of the stack, ``width`` atoms as ``(pos, enc)`` arrays:
    random bounds (strict or weak) at random entries, diagonals included,
    some bounding the entry of the atom before (duplicates), some equal to
    or looser than the entry (not tighter), and padding (0, INF)."""
    count, n, _ = ms.shape
    pos = np.zeros((count, width), dtype=np.int64)
    enc = np.full((count, width), zones.INF, dtype=np.int64)
    for t in range(count):
        for a in range(width):
            kind = rng.random()
            if kind < 0.1:
                continue
            pos[t, a] = (pos[t, a - 1] if a and kind < 0.3
                         else rng.randrange(n * n))
            if kind > 0.85:
                enc[t, a] = min(ms[t].flat[pos[t, a]] + rng.randrange(3),
                                zones.INF)
            else:
                enc[t, a] = zones.encode(rng.randrange(-6, 9),
                                         rng.random() < 0.5)
    return pos, enc


def oracle_constrain(m, pos, enc):
    """Tighten, then close in full, on the oracle: (non-empty, matrix)."""
    om = to_oracle(m)
    n = len(om)
    for p, e in zip(pos.tolist(), enc.tolist()):
        od.constrain(om, p // n, p % n, oracle_bound(e))
    ok = od.close(om)
    return ok, from_oracle(om)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_constrain_matches_oracle(rng, kernel, n):
    """Each row of canonical zones tightened by its atoms and re-closed
    through them is the oracle's tightened and fully closed zone; a row
    no atom tightens keeps every byte."""
    seen = {"empty": 0, "tightened": 0, "unchanged": 0}
    for width in (1, 2, 3):
        ms = np.stack([canonical_zone(rng, n) for _ in range(60)])
        pos, enc = random_atom_rows(rng, ms, width)
        got = ms.copy()
        ok = np.zeros(len(ms), dtype=np.uint8)
        kernel.constrain_many(got, pos, enc, ok)
        for t in range(len(ms)):
            want_ok, want = oracle_constrain(ms[t], pos[t], enc[t])
            assert ok[t] == want_ok
            if not want_ok:
                seen["empty"] += 1
                continue
            assert np.array_equal(got[t], want)
            tighter = (enc[t] < ms[t].reshape(-1)[pos[t]]).any()
            seen["tightened" if tighter else "unchanged"] += 1
            if not tighter:
                assert got[t].tobytes() == ms[t].tobytes()
    # a one-clock zone is its diagonal: a tighter bound empties it
    assert seen["unchanged"] and seen["empty"]
    assert seen["tightened"] or n == 1


def test_constrain_backends_agree(rng, compiled):
    for n in range(1, 7):
        for width in (1, 2, 3):
            ms = np.stack([canonical_zone(rng, n) for _ in range(80)])
            pos, enc = random_atom_rows(rng, ms, width)
            ms1, ms2 = ms.copy(), ms.copy()
            ok1 = np.zeros(len(ms), dtype=np.uint8)
            ok2 = np.zeros(len(ms), dtype=np.uint8)
            compiled.constrain_many(ms1, pos, enc, ok1)
            pure.constrain_many(ms2, pos, enc, ok2)
            assert np.array_equal(ok1, ok2)
            assert ms1[ok1 == 1].tobytes() == ms2[ok2 == 1].tobytes()


def test_constrain_padding_duplicates_and_emptying(kernel):
    z = np.full((3, 3), zones.ZERO_WEAK, dtype=np.int64)
    zones.up(z)  # x1, x2 >= 0 and equal
    le = zones.encode
    rows = [
        # padding only: unchanged
        ([0, 0], [zones.INF, zones.INF]),
        # x1 <= 4 twice, then x1 < 2: the last one counts
        ([3, 3, 3], [le(4, False), le(4, False), le(2, True)]),
        # x1 < 2, then x1 <= 4 is not tighter
        ([3, 3], [le(2, True), le(4, False)]),
        # x1 >= 3, then x1 <= 2: empty
        ([1, 3], [le(-3, False), le(2, False)]),
        # x1 - x1 < 0 on the diagonal: empty
        ([4], [le(0, True)]),
    ]
    width = max(len(p) for p, _ in rows)
    pos = np.zeros((len(rows), width), dtype=np.int64)
    enc = np.full((len(rows), width), zones.INF, dtype=np.int64)
    for t, (p, e) in enumerate(rows):
        pos[t, :len(p)] = p
        enc[t, :len(e)] = e
    ms = np.stack([z] * len(rows))
    ok = np.zeros(len(rows), dtype=np.uint8)
    kernel.constrain_many(ms, pos, enc, ok)
    assert ok.tolist() == [1, 1, 1, 0, 0]
    assert ms[0].tobytes() == z.tobytes()
    for t in (1, 2):
        # x1 < 2 carries over to x2 through their equality
        assert ms[t, 1, 0] == ms[t, 2, 0] == le(2, True)


def test_constrain_rejects_bad_inputs(kernel):
    ms = np.stack([np.full((3, 3), zones.ZERO_WEAK, dtype=np.int64)] * 2)
    pos = np.array([[3, 0], [5, 1]], dtype=np.int64)
    enc = np.array([[2, zones.INF], [4, 4]], dtype=np.int64)
    ok = np.full(2, 7, dtype=np.uint8)
    read_only = ms.copy()
    read_only.flags.writeable = False
    bad = [
        # positions outside [0, n * n), in a later row too
        (ms, np.array([[3, 0], [9, 1]]), enc, ok),
        (ms, np.array([[-1, 0], [5, 1]]), enc, ok),
        # shapes and counts that do not fit
        (ms, pos[:, :1], enc, ok),
        (ms, pos[:1], enc[:1], ok),
        (ms, pos, enc, ok[:1]),
        (ms, pos[:, :, None], enc[:, :, None], ok),
        (ms[:, :, :2].copy(), pos, enc, ok),
        # dtypes
        (ms.astype(np.int32), pos, enc, ok),
        (ms.astype(np.float64), pos, enc, ok),
        (ms, pos.astype(np.int32), enc, ok),
        (ms, pos, enc.astype(np.float64), ok),
        (ms, pos, enc, ok.astype(np.int64)),
        # buffers that are not C-contiguous, or not writable
        (ms[::-1], pos, enc, ok),
        (ms, np.repeat(pos, 2, axis=1)[:, ::2], enc, ok),
        (ms, pos, np.repeat(enc, 2, axis=1)[:, ::2], ok),
        (ms, pos, enc, np.repeat(ok, 2)[::2]),
        (read_only, pos, enc, ok),
        (ms.tolist(), pos, enc, ok),
    ]
    for args in bad:
        before = [np.array(a, copy=True) for a in (args[0], args[3])]
        with pytest.raises(ValueError):
            kernel.constrain_many(*args)
        assert np.array_equal(np.asarray(args[0]), before[0])
        assert np.array_equal(np.asarray(args[3]), before[1])
    kernel.constrain_many(ms, pos, enc, ok)
    assert ok.tolist() == [1, 1]


def test_close_many_strided_batch(rng, kernel, monkeypatch):
    """``zones.close_many`` passes the stack to the kernel as it is: a
    strided, reversed, non-square, int32 or float64 stack raises
    ValueError and is left as it was."""
    monkeypatch.setattr(zones, "_core", kernel)
    base = np.stack([random_zone(rng, 4) for _ in range(40)])
    for stack in (base[::2], base[:, ::2, ::2], base[::-1],
                  base[:, :, :2].copy(), base.astype(np.int32),
                  base.astype(np.float64)):
        before = stack.copy()
        with pytest.raises(ValueError):
            zones.close_many(stack)
        assert np.array_equal(stack, before)


def test_constrain_many_strided_batch(rng, kernel, monkeypatch):
    """``zones.constrain_many`` passes its arrays to the kernel as they
    are: a strided stack or strided atom arrays raise ValueError before
    anything is written."""
    monkeypatch.setattr(zones, "_core", kernel)
    base = np.stack([canonical_zone(rng, 4) for _ in range(40)])
    untouched = base.copy()
    pos, enc = random_atom_rows(rng, base[::2], 4)
    for args in ((base[::2], pos, enc), (base[:, ::2, ::2], pos, enc),
                 (base[:20], pos[:, ::-1], enc),
                 (base[:20], pos, enc.T.copy().T)):
        with pytest.raises(ValueError):
            zones.constrain_many(*args)
        assert np.array_equal(base, untouched)


def test_up_and_extrapolate_match_oracle(rng):
    for _ in range(80):
        m = random_zone(rng, 4)
        if not zones.close(m):
            continue
        om = to_oracle(m)
        zones.up(m)
        od.up(om)
        assert np.array_equal(m, from_oracle(om))
        maxima = np.array([0] + [rng.randrange(0, 6) for _ in range(3)],
                          dtype=np.int64)
        zones.extrapolate(m, maxima)
        od.extrapolate(om, list(maxima))
        assert np.array_equal(m, from_oracle(om))


def test_extrapolate_stack_takes_one_bound_row_per_matrix(rng):
    ms = np.stack([random_zone(rng, 4) for _ in range(40)])
    # entries lie in -6..8: a row of 8s leaves its matrix unchanged
    bounds = np.array([[0] + [rng.choice((rng.randrange(0, 6), 8))
                              for _ in range(3)] for _ in ms], dtype=np.int64)
    bounds[::4, 1:] = 8
    want = ms.copy()
    changed = [bool(zones.extrapolate(m, b)) for m, b in zip(want, bounds)]
    assert zones.extrapolate(ms, bounds).tolist() == changed
    assert np.array_equal(ms, want)
    assert any(changed) and not all(changed)

