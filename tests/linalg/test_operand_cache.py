"""The one operand cache: count-down release, LRU cap, threaded stress.

It serves the *emulated* compute precisions only: an FP32/FP64 kernel
reads the panel tile's payload itself (``linalg/kernels.py``), so a
uniform-precision factorization never touches it and a mixed mosaic's
``uses`` count the emulated consumers alone.
"""

import sys

import numpy as np
import pytest

from repro.gwas.config import PrecisionPlan
from repro.linalg.cholesky import cholesky
from repro.linalg.kernels import OPERANDS, OperandCache, panel_operand
from repro.precision.formats import Precision
from repro.runtime.runtime import Runtime
from repro.tiles.matrix import TileMatrix
from repro.tiles.tile import Tile


def _tile(seed: int = 0) -> Tile:
    return Tile(np.random.default_rng(seed).standard_normal((8, 8)),
                precision=Precision.FP32)


def bits(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    return a.view({2: np.uint16, 4: np.uint32, 8: np.uint64}[a.dtype.itemsize])


class TestOperandCache:
    def test_entry_is_dropped_with_its_last_consumer(self):
        cache, tile = OperandCache(), _tile()
        first = cache.take(1, Precision.FP16, tile, uses=3)
        assert len(cache) == 1
        assert cache.take(1, Precision.FP16, tile, uses=3) is first
        assert len(cache) == 1
        assert cache.take(1, Precision.FP16, tile, uses=3) is first
        assert len(cache) == 0 and cache.released == 1
        want = panel_operand(tile, Precision.FP16)
        np.testing.assert_array_equal(first.as_float(np.float32),
                                      want.as_float(np.float32))

    def test_single_consumer_is_never_stored(self):
        cache = OperandCache()
        cache.take(1, Precision.BF16, _tile())
        assert len(cache) == 0 and cache.released == 0

    def test_cap_evicts_least_recently_used(self):
        cache = OperandCache(cap=2)
        for key in (1, 2):
            cache.take(key, Precision.BF16, _tile(key), uses=5)
        cache.take(1, Precision.BF16, _tile(1), uses=5)  # 1 is now newest
        cache.take(3, Precision.BF16, _tile(3), uses=5)  # evicts 2
        assert cache.evicted == 1
        assert sorted(key for key, _ in cache._entries) == [1, 3]

    def test_drop_forgets_only_the_named_keys(self):
        cache = OperandCache()
        for key in (1, 2, 3):
            cache.take(key, Precision.BF16, _tile(key), uses=2)
            cache.take(key, Precision.FP16, _tile(key), uses=2)
        cache.drop({1, 3})
        assert set(cache._entries) == {(2, Precision.FP16),
                                       (2, Precision.BF16)}


# 28 tile rows under a two-precision mosaic: a panel has about 50 live
# operands, so with the cap lowered to 24 the cap evicts while the
# count-down releases; 3.6k tasks keep 8 threads contending.  (The
# stock cap of 96 needs 64+ tile rows — 45k tasks — to overflow.)
N, TILE, CAP = 224, 8, 24


def _mixed_mosaic(n: int = N, storage: Precision = Precision.FP32):
    """A kernel whose adaptive map mixes FP32, FP16 and FP8 tiles."""
    rng = np.random.default_rng(5)
    g = rng.integers(0, 3, size=(n, 64)).astype(np.float64)
    sq = (g * g).sum(axis=1)
    dense = np.exp(-0.05 * (sq[:, None] + sq[None, :] - 2.0 * g @ g.T))
    # tile rows on different scales (a congruence, so still SPD): the
    # adaptive rule then mixes FP8 and FP16 within every block column
    scale = np.repeat(10.0 ** rng.uniform(-1.0, 0.0, n // TILE), TILE)
    dense = (dense + 0.5 * np.eye(n)) * scale[:, None] * scale[None, :]
    kernel = TileMatrix.from_dense(dense, TILE, storage, symmetric=True)
    plan = PrecisionPlan.adaptive_fp8(accuracy=3e-3)
    pmap = plan.precision_map(kernel.layout, matrix=kernel)
    assert {Precision.FP8_E4M3, Precision.FP16} <= set(pmap.values())
    return kernel, dict(working_precision=plan.working_precision,
                        precision_map=pmap)


def _runtime(execution):
    return None if execution == "reference" else Runtime(execution=execution,
                                                         workers=4)


# At the parent commit the first test fails on both drains for the plain
# reason that it cached FP32/FP64 operands too (every panel tile of a
# uniform factorization went through ``OPERANDS``: released > 0), and
# the second fails on the reference, which kept a memo of its own
# beside the cache.
@pytest.mark.parametrize("execution", ["reference", "serial", "threaded"])
@pytest.mark.parametrize("p", [Precision.FP32, Precision.FP64],
                         ids=lambda p: p.value)
def test_native_factorization_never_touches_the_cache(p, execution):
    kernel, _ = _mixed_mosaic(64, storage=p)
    released, evicted = OPERANDS.released, OPERANDS.evicted
    result = cholesky(kernel, working_precision=p, runtime=_runtime(execution))
    assert sum(result.task_counts.values()) == 120
    assert len(OPERANDS) == 0
    assert (OPERANDS.released, OPERANDS.evicted) == (released, evicted)


@pytest.mark.parametrize("execution", ["reference", "serial", "threaded"])
def test_mixed_mosaic_counts_to_zero_without_drop(monkeypatch, execution):
    """``uses`` names the emulated consumers exactly: every entry leaves
    with its last one, none is left for ``OPERANDS.drop`` to sweep."""
    kernel, kwargs = _mixed_mosaic(64)
    monkeypatch.setattr(OPERANDS, "drop", lambda keys: None)
    released, evicted = OPERANDS.released, OPERANDS.evicted
    cholesky(kernel, runtime=_runtime(execution), **kwargs)
    assert len(OPERANDS) == 0
    assert OPERANDS.released > released and OPERANDS.evicted == evicted


def test_threaded_drain_shares_the_cache_and_matches_serial(monkeypatch):
    kernel, kwargs = _mixed_mosaic()
    reference = cholesky(kernel, **kwargs).factor

    monkeypatch.setattr(OPERANDS, "cap", CAP)
    released, evicted = OPERANDS.released, OPERANDS.evicted
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # force interleavings inside take()
    try:
        rt = Runtime(execution="threaded", workers=8)
        factor = cholesky(kernel, runtime=rt, **kwargs).factor
    finally:
        sys.setswitchinterval(interval)

    assert len(OPERANDS) == 0, "a finished drain leaves nothing behind"
    assert OPERANDS.released > released, "no entry counted down to zero"
    assert OPERANDS.evicted > evicted, "the cap never evicted"
    nt = kernel.layout.tile_rows
    for i in range(nt):
        for j in range(i + 1):
            want, got = reference.get_tile(i, j), factor.get_tile(i, j)
            assert got.precision is want.precision, (i, j)
            np.testing.assert_array_equal(bits(got.data), bits(want.data),
                                          err_msg=f"{(i, j)}")
