"""Tests for the software FP8 emulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.precision.formats import Precision
from repro.precision.quantize import quantize
from tests.precision.grids import fp8_grid


class TestE4M3Grid:
    def test_exact_values_preserved(self):
        # powers of two and small integers are exactly representable
        exact = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 448.0, -448.0, 0.25])
        out = quantize(exact, Precision.FP8_E4M3)
        np.testing.assert_array_equal(out, exact.astype(np.float32))

    def test_max_finite_saturation(self):
        out = quantize(np.array([1e6, -1e6, 500.0, np.inf, -np.inf]),
                       Precision.FP8_E4M3)
        np.testing.assert_array_equal(out, [448.0, -448.0, 448.0, 448.0, -448.0])

    def test_nan_propagates(self):
        out = quantize(np.array([np.nan, 1.0]), Precision.FP8_E4M3)
        assert np.isnan(out[0])
        assert out[1] == 1.0

    def test_rounding_to_nearest(self):
        # between 1.0 and 1.125 (grid step 1/8), 1.05 rounds to 1.0
        assert quantize(np.array([1.05]), Precision.FP8_E4M3)[0] == pytest.approx(1.0)
        assert quantize(np.array([1.10]), Precision.FP8_E4M3)[0] == pytest.approx(1.125)

    def test_relative_error_bound(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-400, 400, size=1000)
        q = quantize(x, Precision.FP8_E4M3)
        rel = np.abs(q - x) / np.maximum(np.abs(x), 2 ** -9)
        # unit roundoff of E4M3 is 2^-4
        assert np.all(rel <= 2.0 ** -4 + 1e-12)

    def test_subnormal_handling(self):
        tiny = np.array([2.0 ** -9, 2.0 ** -10])
        out = quantize(tiny, Precision.FP8_E4M3)
        assert np.all(out >= 0)
        # smallest subnormal step is 2^-9; 2^-10 rounds to 0 or 2^-9
        assert out[1] in (0.0, 2.0 ** -9)

    def test_output_dtype_float32(self):
        assert quantize(np.ones(3), Precision.FP8_E4M3).dtype == np.float32

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=200)
        once = quantize(x, Precision.FP8_E4M3)
        twice = quantize(once, Precision.FP8_E4M3)
        np.testing.assert_array_equal(once, twice)


class TestGridConsistency:
    def test_quantized_values_lie_on_grid(self):
        grid = fp8_grid()
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 448, size=500)
        q = quantize(x, Precision.FP8_E4M3)
        # every quantized magnitude must be a grid point
        for v in np.abs(q):
            assert np.any(np.isclose(grid, v, rtol=0, atol=1e-12))

    def test_is_representable(self):
        # grid points are the quantizer's fixed points; off-grid values move
        grid = fp8_grid()
        np.testing.assert_array_equal(
            quantize(grid[:50], Precision.FP8_E4M3), grid[:50])
        assert quantize(np.array([1.01]), Precision.FP8_E4M3)[0] != 1.01

    def test_float64_values_off_the_grid_are_not_representable(self):
        # each rounds onto the grid in float32 (1, 1, 448, 0), so only a
        # comparison in float64 shows that the quantizer moved them
        x = np.array([1 + 1e-12, 1 + 2.0 ** -30, 448.0000001, 1e-300])
        q = quantize(x, Precision.FP8_E4M3)
        assert not (q.astype(np.float64) == x).any()
        np.testing.assert_array_equal(q, x.astype(np.float32))
        grid = fp8_grid()
        signed = np.concatenate([grid, -grid])
        np.testing.assert_array_equal(quantize(signed, Precision.FP8_E4M3),
                                      signed)


class TestFP8Properties:
    @given(st.lists(st.floats(min_value=-448, max_value=448,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_quantization_is_monotone(self, values):
        x = np.sort(np.array(values, dtype=np.float64))
        q = quantize(x, Precision.FP8_E4M3)
        assert np.all(np.diff(q) >= 0)

    @given(st.floats(min_value=-448, max_value=448,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=100, deadline=None)
    def test_error_within_half_step(self, value):
        q = float(quantize(np.array([value]), Precision.FP8_E4M3)[0])
        # relative error bounded by u = 2^-4 for normal range
        if abs(value) >= 2 ** -6:
            assert abs(q - value) <= abs(value) * 2.0 ** -4 + 1e-12
        else:
            assert abs(q - value) <= 2.0 ** -10  # subnormal absolute step / 2
