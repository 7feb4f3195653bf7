"""Tests for the tiled SYRK and GEMM drivers."""

import numpy as np
import pytest

from repro.linalg.blas3 import gemm, syrk
from repro.precision.formats import Precision
from repro.runtime import Runtime


class TestSyrk:
    def test_matches_gram_matrix(self, rng):
        x = rng.integers(0, 3, size=(60, 24)).astype(np.float64)
        out = syrk(x, tile_size=16, output_precision=Precision.FP64)
        np.testing.assert_allclose(out, x.T @ x, rtol=1e-10)

    def test_symmetry(self, rng):
        x = rng.normal(size=(40, 20))
        out = syrk(x, tile_size=8)
        np.testing.assert_allclose(out, out.T)

    def test_mixed_integer_and_float_columns(self, rng):
        snps = rng.integers(0, 3, size=(50, 16)).astype(np.float64)
        confounders = rng.normal(size=(50, 4))
        x = np.hstack([snps, confounders])
        mask = np.array([True] * 16 + [False] * 4)
        out = syrk(x, tile_size=8, integer_columns=mask,
                   output_precision=Precision.FP64)
        np.testing.assert_allclose(out, x.T @ x, rtol=1e-5, atol=1e-5)

    def test_integer_columns_autodetected(self, rng):
        snps = rng.integers(0, 3, size=(30, 8)).astype(np.float64)
        conf = rng.normal(size=(30, 2))
        x = np.hstack([snps, conf])
        rt = Runtime(execution="serial")
        out = syrk(x, tile_size=4, runtime=rt, phase="gram")
        by_precision = rt.ledger["gram"].flops_by_precision
        # column tiles 0-1 are all-integer, tile 2 holds the confounders
        assert by_precision[Precision.INT8] == 2.0 * 30 * 3 * 16
        assert by_precision[Precision.FP32] == 2.0 * 30 * (2 * 8 + 4)
        np.testing.assert_array_equal(out, syrk(x, tile_size=4))

    def test_runtime_task_counts_flops(self, rng):
        x = rng.integers(0, 3, size=(20, 8)).astype(np.float64)
        rt = Runtime(execution="serial")
        syrk(x, tile_size=4, runtime=rt)
        totals = rt.ledger["syrk"]
        assert totals.tasks == {"syrk": 1}
        # upper-triangle pairs of the two 4-wide column tiles
        assert totals.flops == 3 * 2.0 * 20 * 4 * 4
        assert rt.handles == {}

    def test_wrong_mask_length_raises(self, rng):
        with pytest.raises(ValueError):
            syrk(rng.normal(size=(10, 4)), tile_size=2,
                 integer_columns=np.array([True, False]))


class TestGemm:
    def test_matches_numpy(self, rng):
        a = rng.normal(size=(30, 20))
        b = rng.normal(size=(20, 5))
        out = gemm(a, b, tile_size=8, precision=Precision.FP32)
        np.testing.assert_allclose(out, a @ b, rtol=1e-4, atol=1e-4)

    def test_transpose_options(self, rng):
        a = rng.normal(size=(20, 30))
        b = rng.normal(size=(20, 5))
        out = gemm(a, b, tile_size=8, precision=Precision.FP64, transa=True)
        np.testing.assert_allclose(out, a.T @ b, rtol=1e-10)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            gemm(rng.normal(size=(4, 5)), rng.normal(size=(4, 5)), tile_size=2)

    def test_blocking_independent_of_tile_size(self, rng):
        a = rng.normal(size=(25, 33))
        b = rng.normal(size=(33, 7))
        out1 = gemm(a, b, tile_size=5, precision=Precision.FP64)
        out2 = gemm(a, b, tile_size=64, precision=Precision.FP64)
        np.testing.assert_allclose(out1, out2, rtol=1e-12)
