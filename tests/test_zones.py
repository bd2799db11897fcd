"""The concrete-zone kernels against the naive oracle, and the two
backends against each other."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import oracle_dbm as od
from conftest import from_oracle, to_oracle
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


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_close_matches_oracle(rng, n, request):
    """Each kernel closes a stack of random zones as the oracle closes them
    one by one."""
    ms = np.stack([random_zone(rng, n) for _ in range(120)])
    oms = [to_oracle(m) for m in ms]
    oks = [od.close(om) for om in oms]
    for kernel in built_kernels(request):
        got = ms.copy()
        flags = np.zeros(len(ms), dtype=np.uint8)
        kernel.close_many(got, flags)
        assert flags.tolist() == oks
        for m, om, ok in zip(got, oms, oks):
            if ok:  # empty zones leave unspecified contents behind
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
        ms = np.stack([random_zone(rng, n) for _ in range(60)])
        ms1, ms2 = ms.copy(), ms.copy()
        ok1 = np.zeros(60, dtype=np.uint8)
        ok2 = np.zeros(60, dtype=np.uint8)
        compiled.close_many(ms1, ok1)
        pure.close_many(ms2, ok2)
        assert np.array_equal(ok1, ok2)
        assert np.array_equal(ms1[ok1 == 1], ms2[ok2 == 1])


def test_compiled_rejects_bad_buffers(compiled):
    square = np.full((3, 3), zones.ZERO_WEAK, dtype=np.int64)
    batch = np.stack([square, square])
    read_only = batch.copy()
    read_only.flags.writeable = False
    strided = np.full((2, 4, 4), 1, dtype=np.int64)[:, ::2, ::2]
    ok = np.zeros(2, dtype=np.uint8)
    for bad in (batch.astype(np.int32), batch.astype(np.float64),
                batch[:, :, :2], strided, batch[::-1], read_only,
                [[[1]], [[1]]], square, batch[None]):
        with pytest.raises(ValueError):
            compiled.close_many(bad, ok)
    for bad_ok in (np.zeros(3, dtype=np.uint8), np.zeros(2, dtype=np.int64)):
        with pytest.raises(ValueError):
            compiled.close_many(batch, bad_ok)


def test_close_many_strided_batch(rng, kernel, monkeypatch):
    """A batch that is not C-contiguous is closed in place all the same."""
    monkeypatch.setattr(zones, "_core", kernel)
    base = np.stack([random_zone(rng, 4) for _ in range(40)])
    untouched = base[1::2].copy()
    batch = base[::2]
    want = batch.copy()
    ok = np.zeros(len(want), dtype=np.uint8)
    kernel.close_many(want, ok)
    assert zones.close_many(batch).tolist() == ok.astype(bool).tolist()
    assert np.array_equal(base[::2][ok == 1], want[ok == 1])
    assert np.array_equal(base[1::2], untouched)


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

