"""Tests for the software FP8 emulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.precision.formats import Precision
from repro.precision.fp8 import fp8_grid, is_representable_fp8, quantize_fp8


class TestE4M3Grid:
    def test_exact_values_preserved(self):
        # powers of two and small integers are exactly representable
        exact = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 448.0, -448.0, 0.25])
        out = quantize_fp8(exact)
        np.testing.assert_array_equal(out, exact.astype(np.float32))

    def test_max_finite_saturation(self):
        out = quantize_fp8(np.array([1e6, -1e6, 500.0, np.inf, -np.inf]))
        np.testing.assert_array_equal(out, [448.0, -448.0, 448.0, 448.0, -448.0])

    def test_nan_propagates(self):
        out = quantize_fp8(np.array([np.nan, 1.0]))
        assert np.isnan(out[0])
        assert out[1] == 1.0

    def test_rounding_to_nearest(self):
        # between 1.0 and 1.125 (grid step 1/8), 1.05 rounds to 1.0
        assert quantize_fp8(np.array([1.05]))[0] == pytest.approx(1.0)
        assert quantize_fp8(np.array([1.10]))[0] == pytest.approx(1.125)

    def test_relative_error_bound(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-400, 400, size=1000)
        q = quantize_fp8(x)
        rel = np.abs(q - x) / np.maximum(np.abs(x), 2 ** -9)
        # unit roundoff of E4M3 is 2^-4
        assert np.all(rel <= 2.0 ** -4 + 1e-12)

    def test_subnormal_handling(self):
        tiny = np.array([2.0 ** -9, 2.0 ** -10])
        out = quantize_fp8(tiny)
        assert np.all(out >= 0)
        # smallest subnormal step is 2^-9; 2^-10 rounds to 0 or 2^-9
        assert out[1] in (0.0, 2.0 ** -9)

    def test_output_dtype_float32(self):
        assert quantize_fp8(np.ones(3)).dtype == np.float32

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=200)
        once = quantize_fp8(x)
        twice = quantize_fp8(once)
        np.testing.assert_array_equal(once, twice)


class TestE5M2:
    def test_larger_range_coarser_grid(self):
        x = np.array([5000.0, 57344.0, 60000.0])
        out = quantize_fp8(x, Precision.FP8_E5M2)
        assert out[1] == 57344.0
        assert out[2] == 57344.0  # saturates
        # E4M3 saturates the same values at 448
        out43 = quantize_fp8(x, Precision.FP8_E4M3)
        assert np.all(out43 == 448.0)

    def test_grid_sizes(self):
        g43 = fp8_grid(Precision.FP8_E4M3)
        g52 = fp8_grid(Precision.FP8_E5M2)
        assert g43.max() == 448.0
        assert g52.max() == 57344.0
        assert len(g43) > len(g52) // 2  # E4M3 denser near zero range


class TestGridConsistency:
    def test_quantized_values_lie_on_grid(self):
        grid = fp8_grid(Precision.FP8_E4M3)
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 448, size=500)
        q = quantize_fp8(x)
        # every quantized magnitude must be a grid point
        for v in np.abs(q):
            assert np.any(np.isclose(grid, v, rtol=0, atol=1e-12))

    def test_is_representable(self):
        grid = fp8_grid(Precision.FP8_E4M3)
        assert np.all(is_representable_fp8(grid[:50]))
        assert not is_representable_fp8(np.array([1.01]))[0]

    def test_float64_values_off_the_grid_are_not_representable(self):
        # each rounds onto the grid in float32 (1, 1, 448, 0), so a
        # comparison in float32 would call every one representable
        x = np.array([1 + 1e-12, 1 + 2.0 ** -30, 448.0000001, 1e-300])
        assert not is_representable_fp8(x).any()
        assert is_representable_fp8(x.astype(np.float32)).all()
        for variant in (Precision.FP8_E4M3, Precision.FP8_E5M2):
            grid = fp8_grid(variant)
            assert is_representable_fp8(np.concatenate([grid, -grid]),
                                        variant).all()

    def test_invalid_variant_raises(self):
        with pytest.raises(ValueError):
            quantize_fp8(np.ones(2), Precision.FP16)
        with pytest.raises(ValueError):
            fp8_grid(Precision.FP32)


class TestFP8Properties:
    @given(st.lists(st.floats(min_value=-448, max_value=448,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_quantization_is_monotone(self, values):
        x = np.sort(np.array(values, dtype=np.float64))
        q = quantize_fp8(x)
        assert np.all(np.diff(q) >= 0)

    @given(st.floats(min_value=-448, max_value=448,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=100, deadline=None)
    def test_error_within_half_step(self, value):
        q = float(quantize_fp8(np.array([value]))[0])
        # relative error bounded by u = 2^-4 for normal range
        if abs(value) >= 2 ** -6:
            assert abs(q - value) <= abs(value) * 2.0 ** -4 + 1e-12
        else:
            assert abs(q - value) <= 2.0 ** -10  # subnormal absolute step / 2
