"""Tests for generic quantization helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.precision.formats import Precision
from repro.precision.quantize import quantize, storage_bytes


def quantization_error(x: np.ndarray, precision: Precision | str,
                       ord: str | int | None = "fro") -> float:
    """Norm of the error introduced by quantizing ``x`` to ``precision``."""
    x64 = np.asarray(x, dtype=np.float64)
    q = np.asarray(quantize(x64, precision), dtype=np.float64)
    diff = x64 - q
    if diff.ndim == 1:
        return float(np.linalg.norm(diff))
    return float(np.linalg.norm(diff, ord=ord))


class TestQuantize:
    def test_fp64_passthrough(self):
        x = np.random.default_rng(0).normal(size=20)
        out = quantize(x, Precision.FP64)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, x)

    def test_fp32_cast(self):
        x = np.array([1.0 + 1e-10])
        out = quantize(x, Precision.FP32)
        assert out.dtype == np.float32
        assert float(out[0]) != 1.0 + 1e-10  # precision lost

    def test_fp16_cast_and_clip(self):
        out = quantize(np.array([1e6, -1e6, 1.0]), Precision.FP16)
        assert out.dtype == np.float32
        assert float(out[0]) == pytest.approx(65504.0)
        assert float(out[1]) == pytest.approx(-65504.0)

    def test_fp8_dispatch(self):
        out = quantize(np.array([1000.0]), Precision.FP8_E4M3)
        assert float(out[0]) == 448.0

    def test_int8(self):
        out = quantize(np.array([1.4, 2.6, 200.0, -200.0]), Precision.INT8)
        assert out.dtype == np.int8
        np.testing.assert_array_equal(out, [1, 3, 127, -128])

    def test_int32(self):
        out = quantize(np.array([1.5e10, -1.5e10, 5.0]), Precision.INT32)
        assert out.dtype == np.int32
        assert out[0] == np.iinfo(np.int32).max
        assert out[1] == np.iinfo(np.int32).min

    def test_accepts_string_precision(self):
        out = quantize(np.ones(3), "fp16")
        assert out.dtype == np.float32

    def test_quantization_error_zero_for_exact(self):
        x = np.array([[0.0, 1.0], [2.0, 0.5]])
        assert quantization_error(x, Precision.FP16) == 0.0

    def test_quantization_error_increases_with_narrower_formats(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(30, 30))
        errs = [quantization_error(x, p)
                for p in (Precision.FP32, Precision.FP16, Precision.FP8_E4M3)]
        assert errs[0] < errs[1] < errs[2]


class TestInt8Quantization:
    """``quantize(x, INT8)`` is the library's one INT8 route: it rounds
    to the nearest integer and saturates, with no scale."""

    def test_genotypes_are_exact(self):
        g = np.array([0, 1, 2, 2, 0], dtype=np.int8)
        assert quantize(g, Precision.INT8) is g
        out = quantize(g.astype(np.float64), Precision.INT8)
        assert out.dtype == np.int8
        np.testing.assert_array_equal(out, g)

    def test_roundtrip_error_bounded(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-127.0, 127.0, size=100)
        q = quantize(x, Precision.INT8)
        assert np.max(np.abs(q.astype(np.float64) - x)) <= 0.5

    def test_all_zero_input(self):
        q = quantize(np.zeros(5), Precision.INT8)
        assert q.dtype == np.int8
        np.testing.assert_array_equal(q, 0)

    def test_wide_integers_saturate_rather_than_wrap(self):
        x = np.array([300, -300, 127, -128, 5], dtype=np.int16)
        np.testing.assert_array_equal(quantize(x, Precision.INT8),
                                      [127, -128, 127, -128, 5])


class TestStorageBytes:
    @pytest.mark.parametrize("precision, expected", [
        (Precision.FP64, 800), (Precision.FP32, 400),
        (Precision.FP16, 200), (Precision.FP8_E4M3, 100), (Precision.INT8, 100),
    ])
    def test_matrix_footprint(self, precision, expected):
        assert storage_bytes((10, 10), precision) == expected

    def test_empty_shape(self):
        assert storage_bytes((), Precision.FP32) == 4  # scalar

    def test_accepts_string(self):
        assert storage_bytes((4,), "fp16") == 8


class TestQuantizeProperties:
    @given(st.lists(st.floats(min_value=-1e4, max_value=1e4,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=40),
           st.sampled_from(["fp32", "fp16", "fp8"]))
    @settings(max_examples=60, deadline=None)
    def test_idempotence(self, values, precision):
        x = np.array(values)
        once = np.asarray(quantize(x, precision), dtype=np.float64)
        twice = np.asarray(quantize(once, precision), dtype=np.float64)
        np.testing.assert_array_equal(once, twice)

    @given(st.lists(st.floats(min_value=-100, max_value=100,
                              allow_nan=False, allow_infinity=False),
                    min_size=2, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_wider_format_never_less_accurate(self, values):
        x = np.array(values)
        err16 = quantization_error(x, Precision.FP16)
        err8 = quantization_error(x, Precision.FP8_E4M3)
        assert err16 <= err8 + 1e-12
