"""One precision decision per kernel.

An adaptive kernel's mosaic is decided once: by the Build, from the
Frobenius norms it takes while it stores each tile, or by
``KRRSession.adopt_kernel`` for a dense kernel.  The factorization
reads the precisions from the tiles, so no Associate route — one alpha,
a direct or CG regularization path, a boost retry — decides again, and
the Build's decision is bitwise the one ``decide_tile_precisions`` takes
on the FP64-staged kernel.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from repro.distance.build import KernelBuilder
from repro.gwas.config import KRRConfig, PrecisionPlan
from repro.gwas.session import KRRSession
from repro.linalg.cholesky import cholesky
from repro.precision.formats import Precision
from repro.precision.quantize import quantize
from repro.runtime.runtime import Runtime
from repro.store import TileStore
from repro.tiles.adaptive import decide_tile_precisions
from repro.tiles.matrix import TileMatrix

PLANS = {"fp16": PrecisionPlan.adaptive_fp16(),
         "fp8": PrecisionPlan.adaptive_fp8()}


@contextmanager
def no_decision():
    """Every way of deciding a mosaic raises inside the block."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a precision decision was taken")

    with mock.patch.object(PrecisionPlan, "precision_map", forbidden), \
            mock.patch("repro.tiles.adaptive.decide_tile_precisions",
                       forbidden), \
            mock.patch.object(TileMatrix, "norm", forbidden):
        yield


def _cohort(n, ns=64, seed=5):
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 3, size=(n, ns)).astype(np.int8),
            rng.standard_normal((n, 2)))


def _indefinite_kernel(n, min_eig, seed=0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.linspace(1.0, 2.0, n)
    eigs[0] = min_eig
    k = (q * eigs) @ q.T
    return (k + k.T) / 2.0


def _assert_same_tiles(got: TileMatrix, want: TileMatrix):
    for i, j in want.layout.iter_lower_tiles():
        a, b = got.get_tile(i, j), want.get_tile(i, j)
        assert a.precision is b.precision, (i, j)
        assert a.data.dtype == b.data.dtype, (i, j)
        np.testing.assert_array_equal(a.data, b.data)


class TestAssociateNeverDecides:
    @pytest.mark.parametrize("plan", list(PLANS))
    def test_associate(self, plan):
        g, y = _cohort(256)
        session = KRRSession(KRRConfig(tile_size=64,
                                       precision_plan=PLANS[plan]))
        session.build(g)
        kernel = session.kernel_
        mosaic = {(i, j): kernel.tile_precision(i, j)
                  for i, j in kernel.layout.iter_lower_tiles()}
        with no_decision():
            session.associate(y)
        assert len(set(mosaic.values())) > 1
        factor = session.factorization_.factor
        for i, j in factor.layout.iter_lower_tiles(include_diagonal=False):
            assert factor.tile_precision(i, j) is mosaic[i, j]

    @pytest.mark.parametrize("solver", ["direct", "cg"])
    def test_associate_path(self, solver):
        g, y = _cohort(256)
        session = KRRSession(KRRConfig(tile_size=64, solver=solver))
        session.build(g)
        with no_decision():
            weights = session.associate_path(y, [0.1, 1.0, 10.0])
        assert len(weights) == 3
        assert session.factorization_count_ == (1 if solver == "cg" else 3)

    def test_boost_retry(self):
        session = KRRSession(KRRConfig(tile_size=16, alpha=1.0))
        session.adopt_kernel(_indefinite_kernel(48, min_eig=-5.0))
        with no_decision():
            session.associate(np.ones(48))
        assert session.regularization_boosts_ == 1


def _builder(plan, tile, **kwargs):
    return KernelBuilder(gamma=0.01, tile_size=tile,
                         adaptive_rule=PLANS[plan].adaptive_rule(), **kwargs)


class TestBuildDecidesFromItsNorms:
    """The Build's map and stored tiles are ``decide_tile_precisions``
    plus ``apply_precision_map`` on the FP64-staged kernel, and the
    Build reads no tile back to get them."""

    @staticmethod
    def reference(g, plan, tile):
        staged = KernelBuilder(gamma=0.01, tile_size=tile,
                               storage_precision=Precision.FP64,
                               runtime=Runtime(execution="serial"))
        kernel = staged.build_training(g).kernel
        pmap = decide_tile_precisions(kernel, PLANS[plan].adaptive_rule())
        kernel.apply_precision_map(pmap)
        return kernel, pmap

    @pytest.mark.parametrize("n, tile", [(300, 64), (300, 256), (520, 256)])
    @pytest.mark.parametrize("plan", list(PLANS))
    @pytest.mark.parametrize("execution", ["serial", "threaded"])
    def test_equals_the_staged_decision(self, n, tile, plan, execution):
        g, _ = _cohort(n, seed=n + tile)
        want, want_map = self.reference(g, plan, tile)
        rt = Runtime(execution=execution, workers=2)
        try:
            with no_decision():
                built = _builder(plan, tile, runtime=rt).build_training(g)
        finally:
            rt.close()
        assert built.precision_map == want_map
        assert list(built.precision_map) == list(want_map)
        _assert_same_tiles(built.kernel, want)

    @pytest.mark.parametrize("plan", list(PLANS))
    def test_store_budget_build(self, plan):
        g, _ = _cohort(300, seed=7)
        want, want_map = self.reference(g, plan, 64)
        store = TileStore(budget_bytes=want.nbytes() // 4)
        try:
            with no_decision():
                built = _builder(plan, 64, store=store,
                                 runtime=Runtime(execution="serial")
                                 ).build_training(g)
            assert store.stats.spills > 0
            assert built.precision_map == want_map
            _assert_same_tiles(built.kernel, want)
        finally:
            store.close()


def test_budgeted_adaptive_build_reloads_each_tile_once_at_most():
    """n = 1000, tile 128, FP8, a quarter of the FP32 mosaic: the Build
    faults a spilled staging tile in only to round it (36 lower tiles;
    reading every norm back through the store took 136 reloads),
    and the budgeted fit predicts bitwise what the resident one does."""
    rng = np.random.default_rng(2024)
    n, tile = 1000, 128
    g = rng.integers(0, 3, size=(n, 256), dtype=np.int8)
    y = rng.standard_normal((n, 2))
    g_test = rng.integers(0, 3, size=(100, 256), dtype=np.int8)
    nt = -(-n // tile)
    budget = nt * (nt + 1) // 2 * tile * tile * 4 // 4
    predictions, reloads = {}, None
    for b in (None, budget):
        session = KRRSession(KRRConfig(
            tile_size=tile, execution="serial", store_budget_bytes=b,
            precision_plan=PrecisionPlan.adaptive_fp8()))
        try:
            session.build(g)
            if b is not None:
                reloads = session.store_stats().reloads
            session.associate(y)
            predictions[b] = session.predict(g_test)
        finally:
            session.close()
    assert reloads == 36
    np.testing.assert_array_equal(predictions[budget], predictions[None])


class TestAdoptedKernels:
    @pytest.mark.parametrize("plan", list(PLANS))
    def test_dense_kernel_is_stored_in_its_decided_mosaic(self, plan):
        g, y = _cohort(200, seed=11)
        k = KernelBuilder(gamma=0.01, tile_size=32,
                          storage_precision=Precision.FP64,
                          runtime=Runtime(execution="serial")
                          ).build_training(g).to_dense()
        staged = TileMatrix.from_dense(k, 32, Precision.FP64, symmetric=True)
        want = decide_tile_precisions(staged, PLANS[plan].adaptive_rule())
        assert len(set(want.values())) > 1

        session = KRRSession(KRRConfig(tile_size=32, alpha=0.5,
                                       precision_plan=PLANS[plan]))
        kernel = session.adopt_kernel(k)
        for i, j in kernel.layout.iter_lower_tiles():
            tile = kernel.get_tile(i, j)
            rs, cs = kernel.layout.tile_slice(i, j)
            assert tile.precision is want[(i, j)]
            np.testing.assert_array_equal(
                tile.data, quantize(k[rs, cs], want[(i, j)]))

        with no_decision():
            session.associate(y)
        factor = session.factorization_.factor
        regularized = kernel.shallow_copy().add_diagonal(0.5)
        expected = cholesky(regularized, working_precision=Precision.FP32)
        for i, j in kernel.layout.iter_lower_tiles(include_diagonal=False):
            assert factor.tile_precision(i, j) is want[(i, j)]
        _assert_same_tiles(factor, expected.factor)

    def test_an_adopted_tile_matrix_keeps_its_own_mosaic(self):
        """No decision overrides what the caller stored: an FP32 kernel
        adopted under an adaptive plan factors in FP32."""
        g, y = _cohort(200, seed=11)
        kernel = KernelBuilder(gamma=0.01, tile_size=32,
                               runtime=Runtime(execution="serial")
                               ).build_training(g).kernel
        session = KRRSession(KRRConfig(tile_size=32,
                                       precision_plan=PLANS["fp8"]))
        session.adopt_kernel(kernel)
        with no_decision():
            session.associate(y)
        factor = session.factorization_.factor
        assert {factor.tile_precision(i, j)
                for i, j in factor.layout.iter_tiles()} == {Precision.FP32}
        assert set(session.flops_by_precision) == {Precision.FP32}
