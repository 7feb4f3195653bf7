"""Tests for precision format descriptors."""

import numpy as np
import pytest

from repro.precision.formats import (
    FP8_E4M3_MAX,
    Precision,
    unit_roundoff,
)


class TestPrecisionMetadata:
    def test_bytes_per_element(self):
        assert Precision.FP64.bytes_per_element == 8
        assert Precision.FP32.bytes_per_element == 4
        assert Precision.FP16.bytes_per_element == 2
        assert Precision.FP8_E4M3.bytes_per_element == 1
        assert Precision.INT8.bytes_per_element == 1
        assert Precision.INT32.bytes_per_element == 4

    def test_integer_flags(self):
        assert Precision.INT8.is_integer
        assert Precision.INT32.is_integer
        assert not Precision.FP16.is_integer
        assert Precision.FP16.is_float
        assert not Precision.INT8.is_float

    def test_max_finite_values(self):
        assert Precision.FP8_E4M3.max_finite == pytest.approx(448.0)
        assert Precision.FP16.max_finite == pytest.approx(65504.0)
        assert Precision.INT8.max_finite == 127.0

    def test_numpy_dtypes(self):
        assert Precision.FP64.numpy_dtype == np.dtype(np.float64)
        # FP16/FP8 are emulated: stored as float32 on the grid
        assert Precision.FP16.numpy_dtype == np.dtype(np.float32)
        assert Precision.FP8_E4M3.numpy_dtype == np.dtype(np.float32)
        assert Precision.INT8.numpy_dtype == np.dtype(np.int8)

    def test_module_constants(self):
        assert FP8_E4M3_MAX == 448.0


class TestUnitRoundoff:
    def test_standard_values(self):
        assert unit_roundoff(Precision.FP64) == pytest.approx(2.0 ** -53)
        assert unit_roundoff(Precision.FP32) == pytest.approx(2.0 ** -24)
        assert unit_roundoff(Precision.FP16) == pytest.approx(2.0 ** -11)
        assert unit_roundoff(Precision.FP8_E4M3) == pytest.approx(2.0 ** -4)

    def test_integer_roundoff_is_zero(self):
        assert unit_roundoff(Precision.INT8) == 0.0
        assert unit_roundoff(Precision.INT32) == 0.0

    def test_accepts_string(self):
        assert unit_roundoff("fp16") == pytest.approx(2.0 ** -11)

    def test_roundoff_decreases_with_width(self):
        assert (unit_roundoff(Precision.FP64) < unit_roundoff(Precision.FP32)
                < unit_roundoff(Precision.FP16) < unit_roundoff(Precision.FP8_E4M3))


class TestOrdering:
    def test_rank_ordering(self):
        assert Precision.FP64.rank > Precision.FP32.rank > Precision.FP16.rank
        assert Precision.FP16.rank > Precision.FP8_E4M3.rank > Precision.INT8.rank

    def test_narrower(self):
        assert Precision.FP8_E4M3.narrower_than(Precision.FP16)
        assert not Precision.FP32.narrower_than(Precision.FP32)

    def test_narrowest(self):
        assert Precision.narrowest(Precision.FP16, Precision.FP32) is Precision.FP16
        assert Precision.narrowest(Precision.FP8_E4M3) is Precision.FP8_E4M3

    def test_narrowest_requires_argument(self):
        with pytest.raises(ValueError):
            Precision.narrowest()


class TestFromString:
    @pytest.mark.parametrize("alias, expected", [
        ("fp64", Precision.FP64), ("double", Precision.FP64),
        ("float64", Precision.FP64),
        ("float32", Precision.FP32), ("single", Precision.FP32),
        ("fp32", Precision.FP32),
        ("half", Precision.FP16), ("FP16", Precision.FP16),
        ("fp16", Precision.FP16), ("float16", Precision.FP16),
        ("fp8", Precision.FP8_E4M3), ("e4m3", Precision.FP8_E4M3),
        ("fp8_e4m3", Precision.FP8_E4M3),
        ("int8", Precision.INT8), ("int32", Precision.INT32),
    ])
    def test_aliases(self, alias, expected):
        assert Precision.from_string(alias) is expected

    def test_passthrough(self):
        assert Precision.from_string(Precision.FP16) is Precision.FP16

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown precision"):
            Precision.from_string("fp128")

    def test_str_roundtrip(self):
        for p in Precision:
            assert Precision.from_string(str(p)) is p

