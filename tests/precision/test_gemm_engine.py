"""Tests for the BLAS-backed mixed-precision GEMM engine.

The engine dispatches the INT8/INT32 variant through float64 dgemm,
which is bit-exact as long as every partial sum stays below 2**53.
These tests pin that claim against the historical int64 reference path
bit for bit, exercise the ``QuantizedOperand`` cache, and cover the
analytic overflow guard.
"""

import numpy as np
import pytest

from repro.precision.formats import Precision
from repro.precision.gemm import (
    EXACT_DGEMM_BOUND,
    QuantizedOperand,
    gemm_mixed,
    integer_backend,
    set_integer_backend,
    syrk_mixed,
)


class TestBlasVsInt64Reference:
    @pytest.mark.parametrize("shape1, shape2", [
        ((17, 23), (11, 23)),       # generic
        ((1, 64), (1, 64)),         # single row
        ((5, 1), (3, 1)),           # inner dimension 1
        ((64, 8192), (16, 8192)),   # k larger than the default snp_block
    ])
    def test_bitwise_equal_across_backends(self, shape1, shape2):
        rng = np.random.default_rng(sum(shape1) + sum(shape2))
        g1 = rng.integers(0, 3, size=shape1).astype(np.int8)
        g2 = rng.integers(0, 3, size=shape2).astype(np.int8)
        with integer_backend("blas"):
            fast = np.asarray(gemm_mixed(g1, g2, variant="AB8I_C32I_OP32I",
                                         transb=True))
        with integer_backend("int64"):
            ref = np.asarray(gemm_mixed(g1, g2, variant="AB8I_C32I_OP32I",
                                        transb=True))
        assert fast.dtype == ref.dtype
        np.testing.assert_array_equal(fast, ref)

    def test_empty_operands(self):
        g1 = np.zeros((0, 16), dtype=np.int8)
        g2 = np.zeros((4, 16), dtype=np.int8)
        out = gemm_mixed(g1, g2, variant="AB8I_C32I_OP32I", transb=True)
        assert np.asarray(out).shape == (0, 4)

    def test_negative_values_bitwise_equal(self):
        rng = np.random.default_rng(99)
        a = rng.integers(-128, 128, size=(23, 301)).astype(np.int8)
        b = rng.integers(-128, 128, size=(19, 301)).astype(np.int8)
        with integer_backend("blas"):
            fast = np.asarray(gemm_mixed(a, b, variant="AB8I_C32I_OP32I",
                                         transb=True))
        with integer_backend("int64"):
            ref = np.asarray(gemm_mixed(a, b, variant="AB8I_C32I_OP32I",
                                        transb=True))
        np.testing.assert_array_equal(fast, ref)

    def test_syrk_bitwise_equal_across_backends(self):
        rng = np.random.default_rng(7)
        g = rng.integers(0, 3, size=(33, 500)).astype(np.int8)
        with integer_backend("blas"):
            fast = np.asarray(syrk_mixed(g, variant="AB8I_C32I_OP32I"))
        with integer_backend("int64"):
            ref = np.asarray(syrk_mixed(g, variant="AB8I_C32I_OP32I"))
        np.testing.assert_array_equal(fast, ref)
        np.testing.assert_array_equal(
            fast.astype(np.int64), g.astype(np.int64) @ g.astype(np.int64).T)

    def test_backend_validation(self):
        with pytest.raises(ValueError, match="backend"):
            set_integer_backend("fp4")

    def test_backend_restored_after_context(self):
        with integer_backend("int64"):
            pass
        # blas is the module default; a nested raise must also restore
        with pytest.raises(RuntimeError):
            with integer_backend("int64"):
                raise RuntimeError("boom")
        g = np.ones((2, 2), dtype=np.int8)
        out = gemm_mixed(g, g, variant="AB8I_C32I_OP32I", transb=True)
        np.testing.assert_array_equal(np.asarray(out), 2 * np.ones((2, 2)))


class TestOverflowGuard:
    def test_analytic_bound_skips_scan_but_stays_exact(self):
        # genotypes {0,1,2} with k=4096: max|a|*max|b|*k = 16384 << 2**31
        rng = np.random.default_rng(3)
        g = rng.integers(0, 3, size=(8, 4096)).astype(np.int8)
        out = gemm_mixed(g, g, variant="AB8I_C32I_OP32I", transb=True)
        np.testing.assert_array_equal(
            np.asarray(out, dtype=np.int64),
            g.astype(np.int64) @ g.astype(np.int64).T)

    def test_overflow_still_detected_beyond_analytic_bound(self):
        a = np.full((1, 140_000), 127, dtype=np.int8)
        with pytest.raises(OverflowError):
            gemm_mixed(a, a, variant="AB8I_C32I_OP32I", transb=True)

    def test_overflow_detected_on_int64_backend_too(self):
        a = np.full((1, 140_000), 127, dtype=np.int8)
        with integer_backend("int64"):
            with pytest.raises(OverflowError):
                gemm_mixed(a, a, variant="AB8I_C32I_OP32I", transb=True)

    def test_syrk_overflow_detected(self):
        a = np.full((2, 140_000), 127, dtype=np.int8)
        with pytest.raises(OverflowError):
            syrk_mixed(a, variant="AB8I_C32I_OP32I")

    def test_exactness_bound_is_2_to_53(self):
        assert EXACT_DGEMM_BOUND == 2.0 ** 53


class TestQuantizedOperand:
    def test_wrap_reuses_matching_operand(self):
        g = np.arange(12, dtype=np.int8).reshape(3, 4) % 3
        q = QuantizedOperand(g, Precision.INT8)
        assert QuantizedOperand.wrap(q, Precision.INT8) is q
        requantized = QuantizedOperand.wrap(q, Precision.FP32)
        assert requantized is not q
        assert requantized.precision is Precision.FP32

    def test_matches_raw_array_result(self):
        rng = np.random.default_rng(11)
        g1 = rng.integers(0, 3, size=(9, 130)).astype(np.int8)
        g2 = rng.integers(0, 3, size=(7, 130)).astype(np.int8)
        raw = np.asarray(gemm_mixed(g1, g2, variant="AB8I_C32I_OP32I",
                                    transb=True))
        q1 = QuantizedOperand(g1, Precision.INT8)
        q2 = QuantizedOperand(g2, Precision.INT8)
        wrapped = np.asarray(gemm_mixed(q1, q2, variant="AB8I_C32I_OP32I",
                                        transb=True))
        np.testing.assert_array_equal(raw, wrapped)

    def test_slices_share_float64_cache(self):
        rng = np.random.default_rng(4)
        g = rng.integers(0, 3, size=(16, 64)).astype(np.int8)
        q = QuantizedOperand(g, Precision.INT8)
        parent = q.as_float(np.float64)
        view = q[2:6, 8:32]
        assert view.as_float(np.float64).base is parent or (
            view.as_float(np.float64).base is not None)
        np.testing.assert_array_equal(view.as_float(np.float64),
                                      parent[2:6, 8:32])

    def test_sliced_gemm_matches_sliced_array(self):
        rng = np.random.default_rng(5)
        g = rng.integers(0, 3, size=(24, 96)).astype(np.int8)
        q = QuantizedOperand(g, Precision.INT8)
        q.as_float(np.float64)
        expected = np.asarray(gemm_mixed(g[:8, 0:48], g[8:, 0:48],
                                         variant="AB8I_C32I_OP32I", transb=True))
        got = np.asarray(gemm_mixed(q[:8, 0:48], q[8:, 0:48],
                                    variant="AB8I_C32I_OP32I", transb=True))
        np.testing.assert_array_equal(expected, got)

    def test_transpose_view(self):
        g = np.arange(6, dtype=np.int8).reshape(2, 3) % 3
        q = QuantizedOperand(g, Precision.INT8)
        q.as_float(np.float64)
        assert q.T.shape == (3, 2)
        np.testing.assert_array_equal(q.T.as_float(np.float64),
                                      q.as_float(np.float64).T)

    def test_max_abs_cached_and_conservative_for_slices(self):
        g = np.array([[0, 1], [2, 0]], dtype=np.int8)
        q = QuantizedOperand(g, Precision.INT8)
        assert q.max_abs() == 2.0
        # slices inherit the parent's bound (conservative, never unsafe)
        assert q[0:1, :].max_abs() == 2.0

    def test_float_precision_operand(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(10, 20))
        q = QuantizedOperand(a, Precision.FP16)
        out = np.asarray(gemm_mixed(q, q, variant="FP16_FP32ACC", transb=True),
                         dtype=np.float64)
        ref = np.asarray(gemm_mixed(a, a, variant="FP16_FP32ACC", transb=True),
                         dtype=np.float64)
        np.testing.assert_array_equal(out, ref)

    def test_mismatched_inner_dims_raise(self):
        q1 = QuantizedOperand(np.zeros((3, 4), dtype=np.int8), Precision.INT8)
        q2 = QuantizedOperand(np.zeros((5, 6), dtype=np.int8), Precision.INT8)
        with pytest.raises(ValueError, match="inner dimensions"):
            gemm_mixed(q1, q2, variant="AB8I_C32I_OP32I")


class TestTriangularSyrk:
    def test_lower_and_upper_agree(self, rng):
        a = rng.normal(size=(12, 7))
        low = np.asarray(syrk_mixed(a, variant="FP64", lower=True))
        up = np.asarray(syrk_mixed(a, variant="FP64", lower=False))
        np.testing.assert_allclose(low, up, rtol=1e-13)
        np.testing.assert_allclose(low, a @ a.T, rtol=1e-13)

    def test_result_exactly_symmetric(self, rng):
        a = rng.normal(size=(20, 9)).astype(np.float32)
        out = np.asarray(syrk_mixed(a, variant="FP32"), dtype=np.float64)
        np.testing.assert_array_equal(out, out.T)

    def test_empty_rank_k(self):
        a = np.zeros((4, 0))
        out = np.asarray(syrk_mixed(a, variant="FP32"), dtype=np.float64)
        np.testing.assert_array_equal(out, np.zeros((4, 4)))
