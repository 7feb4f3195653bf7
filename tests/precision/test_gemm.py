"""Tests for the emulated tensor-core GEMM/SYRK variants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.precision.formats import Precision
from repro.precision.gemm import (
    GemmVariant,
    QuantizedOperand,
    gemm_flop_count,
    gemm_mixed,
    gemm_variant,
    syrk_mixed,
    variant_for_input,
)
from repro.precision.quantize import quantize


class TestVariantRegistry:
    def test_paper_int8_variant(self):
        v = gemm_variant("AB8I_C32I_OP32I")
        assert v.input_precision is Precision.INT8
        assert v.accumulate_precision is Precision.INT32
        assert v.output_precision is Precision.INT32

    def test_fp16_accumulates_in_fp32(self):
        v = gemm_variant("FP16_FP32ACC")
        assert v.input_precision is Precision.FP16
        assert v.accumulate_precision is Precision.FP32

    def test_fp8_variant(self):
        v = gemm_variant("FP8_E4M3_FP32ACC")
        assert v.input_precision is Precision.FP8_E4M3

    def test_case_insensitive(self):
        assert gemm_variant("fp32").name == "FP32"

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown GEMM variant"):
            gemm_variant("FP4")

    @pytest.mark.parametrize("precision, expected", [
        (Precision.INT8, "AB8I_C32I_OP32I"),
        (Precision.FP64, "FP64"),
        (Precision.FP32, "FP32"),
        (Precision.FP16, "FP16_FP32ACC"),
        (Precision.FP8_E4M3, "FP8_E4M3_FP32ACC"),
    ])
    def test_variant_for_input(self, precision, expected):
        assert variant_for_input(precision).name == expected


class TestIntegerGemm:
    def test_exact_for_genotype_data(self, rng):
        g1 = rng.integers(0, 3, size=(17, 23)).astype(np.int8)
        g2 = rng.integers(0, 3, size=(11, 23)).astype(np.int8)
        out = gemm_mixed(g1, g2, variant="AB8I_C32I_OP32I", transb=True)
        expected = g1.astype(np.int64) @ g2.astype(np.int64).T
        np.testing.assert_array_equal(np.asarray(out, dtype=np.int64), expected)

    def test_overflow_detection(self):
        # 127*127*k overflows INT32 for k > ~133000
        a = np.full((1, 140_000), 127, dtype=np.int8)
        with pytest.raises(OverflowError):
            gemm_mixed(a, a, variant="AB8I_C32I_OP32I", transb=True)

    def test_real_values_rounded_to_int8(self):
        a = np.array([[0.4, 1.6]])
        b = np.array([[1.0], [1.0]])
        out = gemm_mixed(a, b, variant="AB8I_C32I_OP32I")
        # 0.4 -> 0, 1.6 -> 2
        assert float(out[0, 0]) == 2.0


class TestFloatGemm:
    def test_fp64_matches_numpy(self, rng):
        a = rng.normal(size=(12, 9))
        b = rng.normal(size=(9, 7))
        out = gemm_mixed(a, b, variant="FP64")
        np.testing.assert_allclose(out, a @ b, rtol=1e-13)

    def test_fp32_close_to_numpy(self, rng):
        a = rng.normal(size=(20, 15))
        b = rng.normal(size=(15, 10))
        out = gemm_mixed(a, b, variant="FP32")
        np.testing.assert_allclose(out, a @ b, rtol=1e-4, atol=1e-5)

    def test_fp16_inputs_lose_precision_but_accumulate_wider(self, rng):
        a = rng.normal(size=(30, 200))
        b = rng.normal(size=(200, 30))
        out16 = np.asarray(gemm_mixed(a, b, variant="FP16_FP32ACC"), dtype=np.float64)
        exact = a @ b
        rel = np.linalg.norm(out16 - exact) / np.linalg.norm(exact)
        # error driven by input rounding (~2^-11), not accumulation length
        assert rel < 5e-3

    def test_fp8_coarser_than_fp16(self, rng):
        a = rng.normal(size=(25, 60))
        b = rng.normal(size=(60, 25))
        exact = a @ b
        err16 = np.linalg.norm(np.asarray(gemm_mixed(a, b, variant="FP16_FP32ACC"),
                                          dtype=np.float64) - exact)
        err8 = np.linalg.norm(np.asarray(gemm_mixed(a, b, variant="FP8_E4M3_FP32ACC"),
                                         dtype=np.float64) - exact)
        assert err8 > err16

    def test_alpha_beta(self, rng):
        a = rng.normal(size=(6, 5))
        b = rng.normal(size=(5, 4))
        c = rng.normal(size=(6, 4))
        out = gemm_mixed(a, b, c, variant="FP64", alpha=-1.0, beta=2.0)
        np.testing.assert_allclose(out, -a @ b + 2.0 * c, rtol=1e-12)

    def test_beta_without_c_raises(self, rng):
        a = rng.normal(size=(3, 3))
        with pytest.raises(ValueError, match="beta"):
            gemm_mixed(a, a, variant="FP32", beta=1.0)

    def test_transpose_flags(self, rng):
        a = rng.normal(size=(5, 8))
        b = rng.normal(size=(4, 8))
        out = gemm_mixed(a, b, variant="FP64", transb=True)
        np.testing.assert_allclose(out, a @ b.T, rtol=1e-12)
        out2 = gemm_mixed(a, a, variant="FP64", transa=True)
        np.testing.assert_allclose(out2, a.T @ a, rtol=1e-12)

    def test_dimension_mismatch_raises(self, rng):
        with pytest.raises(ValueError, match="inner dimensions"):
            gemm_mixed(rng.normal(size=(3, 4)), rng.normal(size=(5, 6)))


class TestSyrk:
    def test_symmetric_output(self, rng):
        a = rng.normal(size=(14, 9))
        out = np.asarray(syrk_mixed(a, variant="FP32"), dtype=np.float64)
        np.testing.assert_allclose(out, out.T, atol=1e-6)

    def test_matches_gram(self, rng):
        a = rng.normal(size=(10, 6))
        out = syrk_mixed(a, variant="FP64")
        np.testing.assert_allclose(out, a @ a.T, rtol=1e-12)

    def test_trans_mode(self, rng):
        a = rng.normal(size=(10, 6))
        out = syrk_mixed(a, variant="FP64", trans=True)
        np.testing.assert_allclose(out, a.T @ a, rtol=1e-12)

    def test_beta_accumulation(self, rng):
        a = rng.normal(size=(5, 4))
        c = np.eye(5)
        out = syrk_mixed(a, c, variant="FP64", alpha=-2.0, beta=3.0)
        np.testing.assert_allclose(out, -2.0 * a @ a.T + 3.0 * c, rtol=1e-12)

    def test_integer_syrk_exact(self, rng):
        g = rng.integers(0, 3, size=(12, 30)).astype(np.int8)
        out = syrk_mixed(g, variant="AB8I_C32I_OP32I")
        np.testing.assert_array_equal(np.asarray(out, dtype=np.int64),
                                      g.astype(np.int64) @ g.astype(np.int64).T)


class TestFlopCounts:
    def test_gemm_flops(self):
        assert gemm_flop_count(10, 20, 30) == 2 * 10 * 20 * 30


class TestGemmProperties:
    @given(st.integers(min_value=1, max_value=12),
           st.integers(min_value=1, max_value=12),
           st.integers(min_value=1, max_value=30))
    @settings(max_examples=30, deadline=None)
    def test_int8_gemm_always_exact_for_genotypes(self, m, n, k):
        rng = np.random.default_rng(m * 100 + n * 10 + k)
        g1 = rng.integers(0, 3, size=(m, k)).astype(np.int8)
        g2 = rng.integers(0, 3, size=(n, k)).astype(np.int8)
        out = gemm_mixed(g1, g2, variant="AB8I_C32I_OP32I", transb=True)
        np.testing.assert_array_equal(np.asarray(out, dtype=np.int64),
                                      g1.astype(np.int64) @ g2.astype(np.int64).T)


class TestAccumulatorIsTheOutput:
    """``alpha=1, beta=0`` with accumulate == output precision returns
    the accumulator as it is — the same bits as the float64 round trip."""

    VARIANTS = ["FP64", "FP32", "FP16_FP32ACC", "FP8_E4M3_FP32ACC"]

    @staticmethod
    def _round_trip(prod, variant):
        result = 1.0 * np.asarray(prod, dtype=np.float64)
        return quantize(result, variant.output_precision)

    @pytest.mark.parametrize("name", VARIANTS)
    def test_gemm_matches_the_round_trip(self, name):
        rng = np.random.default_rng(3)
        variant = gemm_variant(name)
        a, b = rng.standard_normal((9, 7)), rng.standard_normal((5, 7))
        got = gemm_mixed(a, b, variant=variant, transb=True)
        dtype = variant.accumulate_precision.numpy_dtype
        fa = np.asarray(quantize(a, variant.input_precision), dtype=dtype)
        fb = np.asarray(quantize(b, variant.input_precision), dtype=dtype)
        want = self._round_trip(fa @ fb.T, variant)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        # the general path (beta != 0) rounds the same product
        c = rng.standard_normal((9, 5))
        general = gemm_mixed(a, b, c, variant=variant, transb=True, beta=1.0)
        want = quantize(np.asarray(got, dtype=np.float64) + c,
                        variant.output_precision)
        np.testing.assert_array_equal(general, want)

    @pytest.mark.parametrize("name", VARIANTS)
    def test_syrk_matches_gemm_rounding(self, name):
        rng = np.random.default_rng(4)
        variant = gemm_variant(name)
        a = rng.standard_normal((8, 6))
        got = syrk_mixed(a, variant=variant)
        assert got.dtype == variant.output_precision.numpy_dtype
        np.testing.assert_array_equal(got, got.T)
        scaled = syrk_mixed(a, variant=variant, alpha=2.0)
        np.testing.assert_array_equal(
            scaled, quantize(2.0 * np.asarray(got, dtype=np.float64),
                             variant.output_precision))

    def test_float_path_uses_the_operand_cast_cache(self):
        rng = np.random.default_rng(5)
        qa = QuantizedOperand(rng.standard_normal((6, 4)), Precision.FP16)
        qb = QuantizedOperand(rng.standard_normal((6, 4)), Precision.FP16)
        first = gemm_mixed(qa, qb, variant="FP16_FP32ACC", transb=True)
        widened = qa.as_float(np.float32)
        assert widened.dtype == np.float32
        again = gemm_mixed(qa, qb, variant="FP16_FP32ACC", transb=True)
        assert qa.as_float(np.float32) is widened  # one cast, reused
        np.testing.assert_array_equal(first, again)
        syrk_mixed(qa, variant="FP16_FP32ACC")
        assert qa.as_float(np.float32) is widened
