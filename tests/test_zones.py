"""The concrete-zone kernels against the naive oracle, and the two
backends against each other."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import oracle_dbm as od
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


def to_oracle(m):
    out = []
    for row in m.tolist():
        out.append([od.INF if e >= zones.INF else (e >> 1, not (e & 1))
                    for e in row])
    return out


def from_oracle(m):
    n = len(m)
    out = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            e = m[i][j]
            out[i, j] = zones.INF if e is od.INF else zones.encode(e[0], e[1])
    return out


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


def tighten_random(rng, m):
    """Tighten 1-3 random entries of the matrix in place (a drawn bound that
    is not tighter is skipped); returns the sorted clocks of the entries
    that changed, the pivots that close it again."""
    n = m.shape[0]
    pivots = set()
    for _ in range(rng.randrange(1, 4)):
        i, j = rng.randrange(n), rng.randrange(n)
        enc = zones.encode(rng.randrange(-6, 9), rng.random() < 0.5)
        if enc < m[i, j]:
            m[i, j] = enc
            pivots.update((i, j))
    return sorted(pivots)


def closed_and_tightened(rng, n):
    """A random closed non-empty zone, tightened; with its pivots."""
    while True:
        m = random_zone(rng, n)
        if pure.close(m):
            return m, tighten_random(rng, m)


def test_encode_decode_round_trip():
    for val in (-5, 0, 7):
        for strict in (False, True):
            assert zones.decode(zones.encode(val, strict)) == (val, strict)
    assert zones.decode(zones.INF) is None


def test_backend_reported():
    assert zones.BACKEND in ("compiled", "python")


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_close_matches_oracle(rng, n):
    for _ in range(120):
        m = random_zone(rng, n)
        om = to_oracle(m)
        ok = zones.close(m)
        ook = od.close(om)
        assert ok == ook
        if ok:
            assert np.array_equal(m, from_oracle(om))
    for _ in range(120):  # closure through the tightened entries' clocks
        m, pivots = closed_and_tightened(rng, n)
        om = to_oracle(m)
        ok = zones.close(m, pivots)
        assert ok == od.close(om)
        if ok:
            assert np.array_equal(m, from_oracle(om))


def test_close_many_matches_single(rng):
    ms = np.stack([random_zone(rng, 4) for _ in range(40)])
    singles = ms.copy()
    flags = zones.close_many(ms)
    for t in range(40):
        assert flags[t] == zones.close(singles[t])
        if flags[t]:
            assert np.array_equal(ms[t], singles[t])


def test_backends_agree(rng, compiled):
    assert compiled.INF == pure.INF
    for n in range(1, 7):
        for _ in range(60):
            m = random_zone(rng, n)
            m1, m2 = m.copy(), m.copy()
            ok = compiled.close(m1)
            assert ok == pure.close(m2)
            if ok:  # empty zones leave unspecified contents behind
                assert np.array_equal(m1, m2)
        for _ in range(60):  # pivot closure against the full closure
            m, pivots = closed_and_tightened(rng, n)
            full = m.copy()
            ok = pure.close(full)
            for backend in (compiled, pure):
                m1 = m.copy()
                assert backend.close(m1, pivots) == ok
                if ok:
                    assert m1.tobytes() == full.tobytes()
        ms = np.stack([random_zone(rng, n) for _ in range(30)])
        ms1, ms2 = ms.copy(), ms.copy()
        ok1 = np.zeros(30, dtype=np.uint8)
        ok2 = np.zeros(30, dtype=np.uint8)
        compiled.close_many(ms1, ok1)
        pure.close_many(ms2, ok2)
        assert np.array_equal(ok1, ok2)
        assert np.array_equal(ms1[ok1 == 1], ms2[ok2 == 1])


def test_compiled_rejects_bad_buffers(compiled):
    square = np.full((3, 3), zones.ZERO_WEAK, dtype=np.int64)
    read_only = square.copy()
    read_only.flags.writeable = False
    for bad in (square.astype(np.int32), square.astype(np.float64),
                square[:, :2], np.full((4, 4), 1, dtype=np.int64)[::2, ::2],
                square[None], read_only, [[1]]):
        with pytest.raises(ValueError):
            compiled.close(bad)
    batch = np.stack([square, square])
    for ms, ok in ((batch, np.zeros(3, dtype=np.uint8)),
                   (batch[::-1], np.zeros(2, dtype=np.uint8)),
                   (batch, np.zeros(2, dtype=np.int64)),
                   (square, np.zeros(3, dtype=np.uint8))):
        with pytest.raises(ValueError):
            compiled.close_many(ms, ok)


def test_rejects_bad_pivots(kernel):
    square = np.full((3, 3), zones.ZERO_WEAK, dtype=np.int64)
    before = square.copy()
    for bad in ([-1], [0, 3], [1, 2 ** 70], [-(2 ** 70)], [1.0], [np.float64(1)],
                ["1"], [None], 1, "01", object()):
        with pytest.raises(ValueError):
            kernel.close(square, bad)
        assert np.array_equal(square, before)  # rejected before any write
    assert kernel.close(square, [np.int64(2), 0])


def test_close_many_strided_batch(rng, kernel, monkeypatch):
    """A batch that is not C-contiguous is closed in place all the same."""
    monkeypatch.setattr(zones, "_core", kernel)
    base = np.stack([random_zone(rng, 4) for _ in range(40)])
    untouched = base[1::2].copy()
    batch = base[::2]
    singles = batch.copy()
    flags = zones.close_many(batch)
    for t in range(len(singles)):
        assert flags[t] == pure.close(singles[t])
        if flags[t]:
            assert np.array_equal(base[2 * t], singles[t])
    assert np.array_equal(base[1::2], untouched)


def test_reset_matches_oracle(rng):
    for _ in range(80):
        m = random_zone(rng, 4)
        if not zones.close(m):
            continue
        om = to_oracle(m)
        clocks = [c for c in (1, 2, 3) if rng.random() < 0.5]
        zones.reset(m, clocks)
        od.reset(om, clocks)
        assert np.array_equal(m, from_oracle(om))


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


def test_dump_lists_finite_entries():
    m = zones.zero_zone(2)
    zones.up(m)
    text = zones.dump(m, ["0", "x"])
    assert "0 - x <= 0" in text
    assert "x - 0" not in text  # infinite entries are omitted
