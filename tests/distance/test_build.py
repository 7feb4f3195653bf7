"""Tests for the fused tile-wise Build phase."""

import itertools

import numpy as np
import pytest

from repro.distance.build import BuildResult, KernelBuilder
from repro.distance.euclidean import (squared_euclidean_direct,
                                      squared_euclidean_gemm, squared_norms)
from repro.distance.kernels import gaussian_kernel
from repro.precision.formats import Precision
from repro.tiles.adaptive import AdaptivePrecisionRule, candidates_for_gpu
from repro.tiles.matrix import TileMatrix


@pytest.fixture
def genotypes(small_genotypes):
    return small_genotypes[:60]


@pytest.fixture
def confounders(rng, genotypes):
    return rng.normal(size=(genotypes.shape[0], 3))


class TestTrainingBuild:
    def test_matches_reference_kernel(self, genotypes):
        builder = KernelBuilder(gamma=0.03, tile_size=16)
        result = builder.build_training(genotypes)
        expected = gaussian_kernel(squared_euclidean_gemm(genotypes), 0.03)
        np.testing.assert_allclose(result.to_dense(), expected, rtol=1e-6, atol=1e-6)

    def test_returns_symmetric_tile_matrix(self, genotypes):
        result = KernelBuilder(gamma=0.02, tile_size=16).build_training(
            genotypes)
        assert isinstance(result.kernel, TileMatrix)
        assert result.kernel.symmetric
        k = result.to_dense()
        np.testing.assert_allclose(k, k.T)
        np.testing.assert_allclose(np.diag(k), 1.0)

    def test_confounders_included_in_distance(self, genotypes, confounders):
        builder = KernelBuilder(gamma=0.03, tile_size=16)
        with_conf = builder.build_training(genotypes, confounders).to_dense()
        without = builder.build_training(genotypes).to_dense()
        assert not np.allclose(with_conf, without)
        # confounder distances only decrease the kernel values off-diagonal
        off = ~np.eye(genotypes.shape[0], dtype=bool)
        assert np.all(with_conf[off] <= without[off] + 1e-12)

    def test_confounder_reference(self, genotypes, confounders):
        builder = KernelBuilder(gamma=0.03, tile_size=16)
        result = builder.build_training(genotypes, confounders)
        full = np.hstack([genotypes.astype(np.float64), confounders])
        expected = gaussian_kernel(squared_euclidean_direct(full), 0.03)
        np.testing.assert_allclose(result.to_dense(), expected, rtol=1e-4, atol=1e-4)

    def test_adaptive_rule_sets_precision_map(self, genotypes):
        rule = AdaptivePrecisionRule(candidates=candidates_for_gpu("A100"))
        builder = KernelBuilder(gamma=0.2, tile_size=16, adaptive_rule=rule)
        result = builder.build_training(genotypes)
        assert result.precision_map is not None
        precisions = set(result.precision_map.values())
        assert Precision.FP32 in precisions  # diagonal tiles

    def test_flop_accounting(self, genotypes):
        result = KernelBuilder(gamma=0.02, tile_size=16).build_training(
            genotypes)
        n, ns = genotypes.shape
        assert result.flops == pytest.approx(2.0 * n * n * ns, rel=0.6)
        assert Precision.INT8 in result.flops_by_precision

    def test_invalid_tile_size(self):
        with pytest.raises(ValueError):
            KernelBuilder(tile_size=0)


class TestCrossBuild:
    def test_cross_kernel_matches_reference(self, genotypes):
        builder = KernelBuilder(gamma=0.03, tile_size=16)
        test = genotypes[:20]
        train = genotypes[20:]
        result = builder.build_cross(test, train)
        expected = gaussian_kernel(squared_euclidean_gemm(test, train), 0.03)
        np.testing.assert_allclose(result.to_dense(), expected, rtol=1e-6, atol=1e-6)
        assert result.to_dense().shape == (20, 40)

    def test_row_batching_never_changes_a_bit(self, genotypes):
        """``iter_cross_rows`` equals ``build_cross`` for any batching,
        with or without the shared train-side operands and confounders:
        a batch is whole tiles, so the FP32 confounder Gram keeps the
        tile-row shapes (a sub-tile batch would make it a GEMV)."""
        builder = KernelBuilder(gamma=0.03, tile_size=16)
        test, train = genotypes[:27], genotypes[27:]
        c = np.random.default_rng(5).standard_normal((genotypes.shape[0], 3))
        for c_test, c_train in ((None, None), (c[:27], c[27:])):
            whole = builder.build_cross(test, train, c_test, c_train)
            assert whole.stats.dense_staging_elements == whole.kernel.size
            assert whole.stats.max_dense_temp_elements <= 16 * train.shape[0]
            cache = builder.train_operands(train, c_train)
            for batch_rows, train_cache in itertools.product(
                    (None, 1, 7, 16, 100), (None, cache)):
                blocks = list(builder.iter_cross_rows(
                    test, train, c_test, c_train, batch_rows=batch_rows,
                    train_cache=train_cache))
                streamed = np.vstack([b.kernel for b in blocks])
                np.testing.assert_array_equal(streamed, whole.kernel)
                assert sum(b.flops for b in blocks) == whole.flops

    def test_one_int8_gram_per_row_group_assembled_band_by_band(
            self, genotypes, monkeypatch):
        """The exact SNP Gram runs once per row group — consecutive
        batches, across cohorts, of at most ``batch_rows`` rows — and
        each tile-row band is assembled in place in the yielded block;
        batches and bands never straddle a cohort."""
        from repro.distance import build

        grams, bands = [], []
        real_gemm, real_rows = build.gemm_mixed, build.compute_kernel_rows

        def gemm(a, b, **kw):
            grams.append((a.shape[0], kw["variant"].name))
            return real_gemm(a, b, **kw)

        def rows(ctx, gamma, snp_block, rs, cs, out=None, dist=None):
            bands.append(((rs.start, rs.stop), out))
            return real_rows(ctx, gamma, snp_block, rs, cs, out=out, dist=dist)

        monkeypatch.setattr(build, "gemm_mixed", gemm)
        monkeypatch.setattr(build, "compute_kernel_rows", rows)
        builder = KernelBuilder(gamma=0.03, tile_size=16)
        test, train = genotypes[:50], genotypes[50:]
        blocks = list(builder.iter_cross_rows(
            test, train, batch_rows=32, cohort_rows=[5, 0, 20, 25]))
        assert [(b.rows.start, b.rows.stop) for b in blocks] == [
            (0, 5), (5, 25), (25, 50)]
        # [5] + [20] fill one group of ≤ 32 rows; [25] opens the next
        assert grams == [(25, "AB8I_C32I_OP32I"), (25, "AB8I_C32I_OP32I")]
        assert [rs for rs, _ in bands] == [
            (0, 5), (5, 21), (21, 25), (25, 41), (41, 50)]
        owner = [0, 1, 1, 2, 2]
        for (rs, out), b in zip(bands, owner):
            assert np.shares_memory(out, blocks[b].kernel)
        whole = builder.build_cross(test, train).kernel
        np.testing.assert_array_equal(
            np.vstack([b.kernel for b in blocks]), whole)

    def test_no_float64_temporary_of_batch_size(self, genotypes):
        """Producing a batch allocates its block, the group's 4-byte
        distance accumulator (the SNP Gram adds into it in place) and
        nothing batch-sized in float64: the assembly writes in place."""
        import tracemalloc

        builder = KernelBuilder(gamma=0.03, tile_size=16)
        train = np.tile(genotypes, (8, 1))
        test = train[:128]
        cache = builder.train_operands(train)
        stream = builder.iter_cross_rows(test, train, batch_rows=64,
                                         train_cache=cache)
        next(stream)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            block = next(stream).kernel
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert block.shape == (64, train.shape[0])
        band = 16 * train.shape[0] * 8
        assert peak <= block.nbytes + block.nbytes // 2 * 2 + band

    def test_an_empty_cohort_yields_no_batch(self, genotypes):
        builder = KernelBuilder(gamma=0.03, tile_size=16)
        train = genotypes[20:]
        assert list(builder.iter_cross_rows(genotypes[:0], train)) == []
        with pytest.raises(ValueError, match="partition"):
            next(builder.iter_cross_rows(genotypes[:10], train,
                                         cohort_rows=[4, 4]))

    def test_cross_with_confounders_requires_both(self, genotypes, confounders):
        builder = KernelBuilder(gamma=0.03, tile_size=16)
        with pytest.raises(ValueError):
            builder.build_cross(genotypes[:10], genotypes[10:],
                                confounders[:10], None)

    def test_mismatched_snps_raise(self, genotypes):
        builder = KernelBuilder(tile_size=16)
        with pytest.raises(ValueError):
            builder.build_cross(genotypes[:10, :20], genotypes[10:, :30])

    def test_result_dataclass(self, genotypes):
        builder = KernelBuilder(tile_size=16)
        result = builder.build_cross(genotypes[:10], genotypes[10:])
        assert isinstance(result, BuildResult)
        assert result.precision_map is None


class TestSquaredNormsFromFloat32:
    """The folded ``d`` vector comes from the Gram's float32 cast when the
    Gram's own bound ``max|g|²·ns < 2²⁴`` admits sgemm: every partial sum
    is then an integer below 2²⁴, exact in float32 in any order."""

    def _norms(self, g, monkeypatch):
        from repro.distance import build

        fallback = []

        def spy(*args, **kwargs):
            fallback.append(args[0].shape)
            return squared_norms(*args, **kwargs)

        monkeypatch.setattr(build, "squared_norms", spy)
        return KernelBuilder().train_operands(g).d, fallback

    def test_genotype_panel(self, monkeypatch):
        rng = np.random.default_rng(30)
        g = rng.integers(0, 3, size=(70, 513)).astype(np.int8)
        d, fallback = self._norms(g, monkeypatch)
        assert fallback == []
        assert d.dtype == np.float64
        assert np.array_equal(d, squared_norms(g).astype(np.float64))

    @pytest.mark.parametrize("ns, float32_path", [(1023, True),
                                                  (1024, False)])
    def test_int8_extremes_at_the_bound(self, monkeypatch, ns,
                                        float32_path):
        """128²·1023 < 2²⁴ is the widest panel the bound admits; one
        more SNP column reaches 2²⁴ and the int64 norms take over."""
        rng = np.random.default_rng(31)
        g = rng.integers(-128, 128, size=(6, ns)).astype(np.int8)
        g[0] = -128
        g[1] = 127
        g[2, ::2] = -128
        d, fallback = self._norms(g, monkeypatch)
        assert (fallback == []) is float32_path
        assert d[0] == 128 * 128 * ns
        assert np.array_equal(d, squared_norms(g).astype(np.float64))
