"""Tests for the streaming, thread-parallel Build pipeline.

The rebuilt Build phase must (1) produce kernels bitwise identical to
the historical dense-staging path at every storage precision, (2) never
materialize the full dense FP64 kernel for the symmetric training case,
and (3) give identical results whether the tile loop runs sequentially
or on a thread pool.
"""

import numpy as np
import pytest

from repro.distance.build import BuildStats, KernelBuilder
from repro.distance.euclidean import squared_euclidean_gemm, squared_norms
from repro.distance.kernels import gaussian_kernel
from repro.precision.formats import Precision
from repro.runtime.runtime import Runtime
from repro.tiles.adaptive import AdaptivePrecisionRule, candidates_for_gpu
from repro.tiles.matrix import TileMatrix


@pytest.fixture
def genotypes(small_genotypes):
    return small_genotypes[:72]


def _seed_path_training(genotypes, gamma, tile_size, storage_precision,
                        adaptive_rule=None):
    """The historical Build: dense FP64 staging + ``from_dense`` re-tiling."""
    dense = gaussian_kernel(squared_euclidean_gemm(genotypes), gamma)
    np.fill_diagonal(dense, 1.0)
    if adaptive_rule is not None:
        from repro.tiles.adaptive import decide_tile_precisions

        tiled = TileMatrix.from_dense(dense, tile_size, Precision.FP64,
                                      symmetric=True)
        pmap = decide_tile_precisions(tiled, adaptive_rule)
        tiled.apply_precision_map(pmap)
        return tiled
    return TileMatrix.from_dense(dense, tile_size, storage_precision,
                                 symmetric=True)


class TestSeedPathRegression:
    @pytest.mark.parametrize("storage", [
        Precision.FP64, Precision.FP32, Precision.FP16, Precision.FP8_E4M3,
    ])
    def test_training_bitwise_identical_to_seed_path(self, genotypes, storage):
        builder = KernelBuilder(gamma=0.03, tile_size=16,
                                storage_precision=storage,
                                runtime=Runtime(workers=1))
        streamed = builder.build_training(genotypes).to_dense()
        reference = _seed_path_training(genotypes, 0.03, 16, storage).to_dense()
        np.testing.assert_array_equal(streamed, reference)

    def test_training_adaptive_matches_seed_path(self, genotypes):
        rule = AdaptivePrecisionRule(candidates=candidates_for_gpu("A100"))
        builder = KernelBuilder(gamma=0.2, tile_size=16, adaptive_rule=rule,
                                runtime=Runtime(workers=1))
        result = builder.build_training(genotypes)
        reference = _seed_path_training(genotypes, 0.2, 16, Precision.FP32,
                                        adaptive_rule=rule)
        np.testing.assert_array_equal(result.to_dense(), reference.to_dense())
        # same mosaic, tile for tile
        for (i, j), p in result.precision_map.items():
            assert reference.tile_precision(i, j) is p

    def test_cross_bitwise_identical_to_reference(self, genotypes):
        builder = KernelBuilder(gamma=0.03, tile_size=16,
                                runtime=Runtime(workers=1))
        test, train = genotypes[:24], genotypes[24:]
        streamed = builder.build_cross(test, train).to_dense()
        reference = gaussian_kernel(squared_euclidean_gemm(test, train), 0.03)
        np.testing.assert_array_equal(streamed, reference)


def _int64_seed_training(genotypes, gamma, tile, snp_block):
    """The seed Build, frozen: per tile and SNP block an int64 host
    matmul of freshly quantized INT8 operands with an INT32 store, a
    dense FP64 staging matrix, and a ``from_dense`` re-tiling copy."""
    n, ns = genotypes.shape
    int32 = np.iinfo(np.int32)

    def gemm_int8(a, b):
        qa = np.clip(np.rint(a.astype(np.float64)), -128, 127).astype(np.int8)
        qb = np.clip(np.rint(b.astype(np.float64)), -128, 127).astype(np.int8)
        prod = qa.astype(np.int64) @ qb.astype(np.int64).T
        assert int32.min <= prod.min() and prod.max() <= int32.max
        return prod.astype(np.int32)

    d = squared_norms(genotypes).astype(np.float64)
    k = np.zeros((n, n), dtype=np.float64)
    for r0 in range(0, n, tile):
        rs = slice(r0, min(r0 + tile, n))
        for c0 in range(r0, n, tile):
            cs = slice(c0, min(c0 + tile, n))
            gram = np.zeros((rs.stop - rs.start, cs.stop - cs.start))
            for s0 in range(0, ns, snp_block):
                gram += gemm_int8(genotypes[rs, s0:s0 + snp_block],
                                  genotypes[cs, s0:s0 + snp_block])
            dist = np.maximum(d[rs, None] + d[None, cs] - 2.0 * gram, 0.0)
            k[rs, cs] = gaussian_kernel(dist, gamma)
            k[cs, rs] = k[rs, cs].T
    np.fill_diagonal(k, 1.0)
    return TileMatrix.from_dense(k, tile, Precision.FP32, symmetric=True)


class TestInt64SeedRegression:
    """The BLAS-backed, SNP-blocked, streamed engine against the seed
    path it replaced, under every drain: same bits, nothing staged."""

    @pytest.mark.parametrize("execution, workers", [
        ("serial", 1), ("threaded", 2), ("threaded", 8), ("process", 2)])
    def test_bitwise_identical_and_streamed(self, genotypes, execution,
                                            workers):
        n = genotypes.shape[0]
        seed = _int64_seed_training(genotypes, 0.03, 16, snp_block=16)
        rt = Runtime(execution=execution, workers=workers)
        try:
            result = KernelBuilder(
                gamma=0.03, tile_size=16, snp_block=16,
                storage_precision=Precision.FP32,
                runtime=rt).build_training(genotypes)
        finally:
            rt.close()
        np.testing.assert_array_equal(result.to_dense(), seed.to_dense())
        assert result.stats.dense_staging_elements == 0
        assert result.stats.max_dense_temp_elements <= 16 * n


class TestNoDenseMaterialization:
    def test_training_never_calls_from_dense(self, genotypes, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("streamed Build must not stage a dense matrix")

        monkeypatch.setattr(TileMatrix, "from_dense", classmethod(boom))
        builder = KernelBuilder(gamma=0.03, tile_size=16,
                                runtime=Runtime(workers=1))
        result = builder.build_training(genotypes)
        assert isinstance(result.kernel, TileMatrix)

    def test_adaptive_training_never_calls_from_dense(self, genotypes,
                                                      monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("streamed Build must not stage a dense matrix")

        monkeypatch.setattr(TileMatrix, "from_dense", classmethod(boom))
        rule = AdaptivePrecisionRule(candidates=candidates_for_gpu("A100"))
        builder = KernelBuilder(gamma=0.2, tile_size=16, adaptive_rule=rule,
                                runtime=Runtime(workers=1))
        result = builder.build_training(genotypes)
        assert result.precision_map is not None

    def test_allocation_accounting_peak_at_most_one_tile_row(self, genotypes):
        n = genotypes.shape[0]
        tile_size = 16
        builder = KernelBuilder(gamma=0.03, tile_size=tile_size,
                                runtime=Runtime(workers=1))
        result = builder.build_training(genotypes)
        stats = result.stats
        assert isinstance(stats, BuildStats)
        assert stats.tile_tasks > 0
        # acceptance bound: peak dense temporary <= one tile row of K
        assert stats.max_dense_temp_elements <= tile_size * n
        # no dense staging array for the training kernel
        assert stats.dense_staging_elements == 0

    def test_cross_build_staging_is_the_output(self, genotypes):
        builder = KernelBuilder(gamma=0.03, tile_size=16,
                                runtime=Runtime(workers=1))
        result = builder.build_cross(genotypes[:24], genotypes[24:])
        assert result.stats.dense_staging_elements == 24 * (genotypes.shape[0] - 24)


class TestThreadParallelBuild:
    def test_threaded_training_identical_to_sequential(self, genotypes):
        sequential = KernelBuilder(gamma=0.03, tile_size=8,
                                   runtime=Runtime(workers=1))
        threaded = KernelBuilder(gamma=0.03, tile_size=8,
                                 runtime=Runtime(workers=4))
        k1 = sequential.build_training(genotypes)
        k4 = threaded.build_training(genotypes)
        np.testing.assert_array_equal(k1.to_dense(), k4.to_dense())
        assert threaded.runtime.workers == 4
        assert k1.flops == k4.flops
        assert k1.flops_by_precision == k4.flops_by_precision

    def test_threaded_adaptive_identical_to_sequential(self, genotypes):
        rule = AdaptivePrecisionRule(candidates=candidates_for_gpu("GH200"))
        sequential = KernelBuilder(gamma=0.2, tile_size=8, adaptive_rule=rule,
                                   runtime=Runtime(workers=1))
        threaded = KernelBuilder(gamma=0.2, tile_size=8, adaptive_rule=rule,
                                 runtime=Runtime(workers=4))
        r1 = sequential.build_training(genotypes)
        r4 = threaded.build_training(genotypes)
        np.testing.assert_array_equal(r1.to_dense(), r4.to_dense())
        assert r1.precision_map == r4.precision_map

    def test_threaded_cross_identical_to_sequential(self, genotypes):
        test, train = genotypes[:24], genotypes[24:]
        k1 = KernelBuilder(gamma=0.03, tile_size=8,
                           runtime=Runtime(workers=1)).build_cross(
            test, train)
        k4 = KernelBuilder(gamma=0.03, tile_size=8,
                           runtime=Runtime(workers=4)).build_cross(
            test, train)
        np.testing.assert_array_equal(k1.to_dense(), k4.to_dense())

    def test_threaded_with_confounders(self, genotypes, rng):
        confounders = rng.normal(size=(genotypes.shape[0], 3))
        k1 = KernelBuilder(gamma=0.03, tile_size=8,
                           runtime=Runtime(workers=1)).build_training(
            genotypes, confounders)
        k4 = KernelBuilder(gamma=0.03, tile_size=8,
                           runtime=Runtime(workers=4)).build_training(
            genotypes, confounders)
        np.testing.assert_array_equal(k1.to_dense(), k4.to_dense())

    def test_row_stores_survive_forced_interleavings(self, genotypes):
        """Each row task stores its own tiles and norms from its lane:
        8 lanes on a smaller host, a 1e-5 s switch interval, resident and
        store-backed — a lost store or norm breaks the bitwise kernel or
        the mosaic decided from the norms."""
        import sys
        import threading

        from repro.store import TileStore

        rule = AdaptivePrecisionRule(candidates=candidates_for_gpu("GH200"))

        def build(workers, store=None):
            rt = Runtime(execution="threaded" if workers > 1 else "serial",
                         workers=workers)
            try:
                return KernelBuilder(gamma=0.2, tile_size=8,
                                     adaptive_rule=rule, runtime=rt,
                                     store=store).build_training(genotypes)
            finally:
                rt.close()

        reference = build(1)
        dense = reference.to_dense()
        results = []

        def stress():
            for _ in range(3):
                results.append(build(8))
            with TileStore(budget_bytes=reference.kernel.nbytes() // 4) as s:
                spilled = build(8, store=s)
                results.append((spilled.to_dense(), spilled.precision_map))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            worker = threading.Thread(target=stress, daemon=True)
            worker.start()
            worker.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive() and len(results) == 4
        for result in results[:3]:
            np.testing.assert_array_equal(result.to_dense(), dense)
            assert result.precision_map == reference.precision_map
        np.testing.assert_array_equal(results[3][0], dense)
        assert results[3][1] == reference.precision_map

    def test_default_worker_resolution(self, genotypes):
        """An unset runtime is a ``Runtime()``, resolved like any other."""
        builder = KernelBuilder(gamma=0.03, tile_size=16)
        assert builder.runtime.workers == Runtime().workers
        assert builder.runtime.execution == Runtime().execution
        builder.build_training(genotypes)
        assert builder.runtime.runs_completed == 1


class TestTheBuildStreamsOnEveryLane:
    """The row tasks stream, spill to a store and run on every lane,
    with and without the FP32 confounder Gram."""

    def _build(self, genotypes, confounders, execution="serial", workers=1,
               store=None):
        rt = Runtime(execution=execution, workers=workers)
        try:
            return KernelBuilder(
                gamma=0.03, tile_size=16, runtime=rt,
                store=store).build_training(genotypes, confounders), rt
        finally:
            rt.close()

    @staticmethod
    def _confounders(genotypes, n_conf):
        if not n_conf:
            return None
        return np.random.default_rng(9).normal(size=(genotypes.shape[0],
                                                     n_conf))

    @pytest.mark.parametrize("n_conf", [0, 3])
    def test_serial_threaded_process_identical(self, genotypes, n_conf):
        n = genotypes.shape[0]
        conf = self._confounders(genotypes, n_conf)
        reference, rt = self._build(genotypes, conf)
        dense = reference.to_dense()
        for execution, workers in (("threaded", 2), ("process", 2)):
            result, _ = self._build(genotypes, conf, execution, workers)
            np.testing.assert_array_equal(result.to_dense(), dense)
            assert result.flops == reference.flops
            assert result.flops_by_precision == reference.flops_by_precision
        assert reference.stats.dense_staging_elements == 0
        assert reference.stats.max_dense_temp_elements <= 16 * n
        # the result's count is a read of the drain the ledger folded:
        # each row task's rows x lower-triangle width x (SNPs +
        # confounders) products, the INT8 and the FP32 Gram
        row_ends = [min(r0 + 16, n) for r0 in range(0, n, 16)]
        expected = sum(2.0 * (end - r0) * end * (genotypes.shape[1] + n_conf)
                       for r0, end in zip(range(0, n, 16), row_ends))
        assert rt.ledger["build"].flops == reference.flops == expected
        assert rt.ledger["build"].flops_by_precision == (
            reference.flops_by_precision)

    @pytest.mark.parametrize("n_conf", [0, 3])
    def test_store_backed_identical_to_resident(self, genotypes, n_conf):
        from repro.store import TileStore

        conf = self._confounders(genotypes, n_conf)
        resident, _ = self._build(genotypes, conf)
        budget = resident.kernel.nbytes() // 4
        with TileStore(budget_bytes=budget) as store:
            spilled, _ = self._build(genotypes, conf, "threaded", 2,
                                     store=store)
            np.testing.assert_array_equal(spilled.to_dense(),
                                          resident.to_dense())
            assert store.stats.spills > 0
            assert store.stats.peak_resident_bytes <= budget
        assert spilled.stats.dense_staging_elements == 0


class TestStreamingContainer:
    def test_empty_plus_set_tile_roundtrip(self, rng):
        dense = rng.normal(size=(40, 40))
        sym = dense + dense.T
        tm = TileMatrix.empty(40, 40, 16, Precision.FP64, symmetric=True)
        layout = tm.layout
        for i, j in layout.iter_lower_tiles():
            rs, cs = layout.tile_slice(i, j)
            tm.set_tile(i, j, sym[rs, cs])
        np.testing.assert_array_equal(tm.to_dense(), sym)

    def test_fro_norm_without_dense(self, rng):
        dense = rng.normal(size=(30, 20))
        tm = TileMatrix.from_dense(dense, 8)
        assert tm.norm("fro") == pytest.approx(np.linalg.norm(dense))

    def test_symmetric_fro_norm_counts_mirrored_tiles(self, rng):
        a = rng.normal(size=(32, 32))
        sym = a + a.T
        tm = TileMatrix.from_dense(sym, 8, symmetric=True)
        assert tm.norm("fro") == pytest.approx(np.linalg.norm(sym))

    def test_empty_norm_is_zero(self):
        tm = TileMatrix.empty(16, 16, 8)
        assert tm.norm("fro") == 0.0


class TestBoundedInFlightRows:
    def test_row_payloads_released_after_consume(self, genotypes):
        """A row band lives on no handle — the streamed Build's peak
        stays bounded, not O(n^2)."""
        rt = Runtime(execution="threaded", workers=2)
        builder = KernelBuilder(gamma=0.03, tile_size=8, runtime=rt)
        builder.build_training(genotypes)
        # no handle of the Build's namespace outlives it...
        assert not [n for n in rt.handles if n.startswith("build")]
        # ...and a row task writes none: it stores its own tiles through
        # its on_complete, which the drained graph no longer holds
        rows = [t for t in rt.last_graph.tasks if t.name == "build_row"]
        assert len(rows) == 9
        assert all(not t.accesses and t.spec.on_complete is None
                   and t.spec.aux == () for t in rows)

    def test_no_more_row_bands_alive_than_lanes(self, genotypes,
                                                monkeypatch):
        """Each row task stores its band when it completes, so a lane
        holds one band at a time: a threaded Build of 9 tile rows on 2
        workers never has more than 2 bands alive."""
        import weakref

        from repro.distance.build import BuildRowSpec

        bands, alive = [], []
        run, set_tile = BuildRowSpec.run, TileMatrix.set_tile

        def tracked_run(self, ctx):
            band = run(self, ctx)
            bands.append(weakref.ref(band))
            return band

        def counting_set_tile(self, *args, **kwargs):
            alive.append(sum(ref() is not None for ref in bands))
            return set_tile(self, *args, **kwargs)

        monkeypatch.setattr(BuildRowSpec, "run", tracked_run)
        monkeypatch.setattr(TileMatrix, "set_tile", counting_set_tile)
        rt = Runtime(execution="threaded", workers=2)
        builder = KernelBuilder(gamma=0.03, tile_size=8, runtime=rt)
        builder.build_training(genotypes)  # 9 tile rows at n=72
        assert len(bands) == 9
        assert len(alive) == 9 * 10 // 2  # every lower tile stored
        assert 1 <= max(alive) <= 2


class TestTrainOperands:
    """Shared train-side operand state of the serving micro-batches."""

    def test_cached_cross_rows_bitwise_identical(self, small_genotypes):
        train = small_genotypes[:80]
        tests = [small_genotypes[80:91], small_genotypes[91:120]]
        builder = KernelBuilder(gamma=0.05, tile_size=32)
        cache = builder.train_operands(train)
        for cohort in tests:
            fresh = [b.kernel for b in builder.iter_cross_rows(
                cohort, train, batch_rows=32)]
            cached = [b.kernel for b in builder.iter_cross_rows(
                cohort, train, batch_rows=32, train_cache=cache)]
            assert len(fresh) == len(cached)
            for a, b in zip(fresh, cached):
                assert np.array_equal(a, b)

    def test_cached_confounders_bitwise_identical(self, small_genotypes):
        rng = np.random.default_rng(3)
        train, test = small_genotypes[:80], small_genotypes[80:]
        c_train = rng.standard_normal((80, 3))
        c_test = rng.standard_normal((test.shape[0], 3))
        builder = KernelBuilder(gamma=0.05, tile_size=32)
        cache = builder.train_operands(train, c_train)
        fresh = next(builder.iter_cross_rows(test, train, c_test, c_train))
        cached = next(builder.iter_cross_rows(test, train, c_test, c_train,
                                              train_cache=cache))
        assert np.array_equal(fresh.kernel, cached.kernel)

    def test_foreign_panel_rejected(self, small_genotypes):
        train, other = small_genotypes[:60], small_genotypes[:60].copy()
        builder = KernelBuilder(gamma=0.05, tile_size=32)
        cache = builder.train_operands(train)
        with pytest.raises(ValueError, match="different training"):
            next(builder.iter_cross_rows(small_genotypes[60:], other,
                                         train_cache=cache))

    def test_symmetric_build_rejects_cache(self, small_genotypes):
        train = small_genotypes[:60]
        builder = KernelBuilder(gamma=0.05, tile_size=32)
        cache = builder.train_operands(train)
        with pytest.raises(ValueError, match="cross kernels"):
            builder._prepare_operands(train, train, None, None,
                                      symmetric=True, train_cache=cache)


class TestNoFloatPanel:
    """The genotype panel stays INT8: a Build and a Predict over
    ``ns = 3·snp_block`` SNPs cast one SNP block of the rows they
    multiply at a time, and nothing keeps a float copy of a cohort."""

    def test_build_and_predict_peak_below_one_float32_panel(self):
        import tracemalloc

        from repro.gwas.config import KRRConfig
        from repro.gwas.session import KRRSession

        ns = 3 * KernelBuilder().snp_block
        rng = np.random.default_rng(12)
        g = rng.integers(0, 3, size=(32, ns)).astype(np.int8)
        g_test = rng.integers(0, 3, size=(32, ns)).astype(np.int8)
        y = rng.standard_normal((32, 2))
        panel_f32 = g.size * 4
        session = KRRSession(KRRConfig(tile_size=32, execution="serial"))
        tracemalloc.start()
        try:
            peaks = []
            for step in (lambda: session.fit(g, y),
                         lambda: session.predict(g_test)):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                step()
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        try:
            assert max(peaks) < panel_f32, peaks
            # the training side is held as prepared, INT8 and uncast
            train = session._train_operands
            assert train.q.array is g and train.q._floats == {}
        finally:
            session.close()

    def test_predict_peak_is_the_accumulator_two_casts_and_the_block(self):
        """Past one SNP block a Predict holds one float32 distance
        accumulator, and besides it either the two SNP-block casts that
        add into it or the float64 kernel block read from it, never both:
        no product, INT32 copy or whole-panel cast.  The slack covers
        norms, predictions, the preload's broadcast buffers (~64 KiB)
        and Python objects."""
        import tracemalloc

        from repro.distance.build import SNP_BLOCK
        from repro.gwas.config import KRRConfig
        from repro.gwas.session import KRRSession

        n = n_test = 256
        ns = 3 * SNP_BLOCK + 5
        rng = np.random.default_rng(13)
        g = rng.integers(0, 3, size=(n, ns)).astype(np.int8)
        g_test = rng.integers(0, 3, size=(n_test, ns)).astype(np.int8)
        session = KRRSession(KRRConfig(tile_size=32, execution="serial"))
        try:
            session.fit(g, rng.standard_normal((n, 2)))
            session.predict(g_test)   # prepares the training side
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                session.predict(g_test)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        finally:
            session.close()
        accumulator = 4 * n_test * n
        casts = 4 * (n_test + n) * SNP_BLOCK
        block = 8 * n_test * n
        assert peak <= accumulator + max(casts, block) + 128 * 1024, peak
