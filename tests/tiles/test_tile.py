"""Tests for the Tile storage object."""

import numpy as np
import pytest

from repro.precision.formats import Precision
from repro.tiles.tile import Tile, retile


class TestTile:
    def test_payload_quantized_on_construction(self):
        tile = Tile(np.array([[1.0 + 1e-8, 2.0]]), precision=Precision.FP16)
        assert tile.data.dtype == np.float32
        assert float(tile.data[0, 0]) == np.float16(1.0)

    def test_fp8_tile_values_on_grid(self):
        tile = Tile(np.array([1000.0, 0.3]), precision=Precision.FP8_E4M3)
        assert float(tile.data[0]) == 448.0

    def test_nbytes_reflects_precision(self):
        data = np.ones((8, 8))
        assert Tile(data, Precision.FP64).nbytes == 8 * 64
        assert Tile(data, Precision.FP16).nbytes == 2 * 64
        assert Tile(data, Precision.FP8_E4M3).nbytes == 64
        # format bytes: an emulated payload is float32 in memory
        for p in (Precision.FP16, Precision.FP8_E4M3):
            assert Tile(data, p).data.nbytes == 4 * 64

    def test_update_requantizes(self):
        tile = Tile(np.zeros((2, 2)), precision=Precision.FP16)
        tile.update(np.full((2, 2), 1e6))
        assert float(tile.data[0, 0]) == pytest.approx(65504.0)

    def test_norm_and_max_abs(self):
        tile = Tile(np.array([[3.0, 4.0]]), precision=Precision.FP64)
        assert tile.norm() == pytest.approx(5.0)
        assert tile.max_abs() == 4.0

    def test_empty_tile_max_abs(self):
        tile = Tile(np.zeros((0, 3)), precision=Precision.FP32)
        assert tile.max_abs() == 0.0

    def test_copy_is_independent(self):
        tile = Tile(np.ones((2, 2)), precision=Precision.FP32, coords=(1, 2))
        dup = tile.copy()
        dup.update(np.zeros((2, 2)))
        assert float(tile.data[0, 0]) == 1.0
        assert dup.coords == (1, 2)

    def test_to_float64_returns_copy(self):
        tile = Tile(np.ones((2, 2)), precision=Precision.FP32)
        arr = tile.to_float64()
        arr[0, 0] = 99.0
        assert float(tile.data[0, 0]) == 1.0


class TestOnGridInvariant:
    """``Tile._on_grid`` adopts, ``retile`` adopts only a matching tile."""

    def test_on_grid_casts_without_rounding(self):
        values = np.array([[1.0, 448.0, 0.015625]])  # on the E4M3 grid
        tile = Tile._on_grid(values, Precision.FP8_E4M3, coords=(0, 1))
        assert tile.precision is Precision.FP8_E4M3
        assert tile.data.dtype == np.float32 and tile.coords == (0, 1)
        assert tile.version == 0
        built = Tile(values, precision=Precision.FP8_E4M3)
        np.testing.assert_array_equal(tile.data, built.data)
        # it does not round: that is the caller's promise, not a check
        off = Tile._on_grid(np.array([1.01]), Precision.FP8_E4M3)
        assert float(off.data[0]) == np.float32(1.01)

    def test_on_grid_keeps_storage_dtype_payload(self):
        payload = np.ones((2, 2), dtype=np.float32)
        tile = Tile._on_grid(payload, Precision.FP16)
        assert tile.data is payload  # no copy when already in storage dtype

    def test_retile_adopts_a_tile_of_the_same_precision(self):
        src = Tile(np.array([[1.05, -3.3]]), precision=Precision.FP8_E4M3)
        same = retile(src, Precision.FP8_E4M3, coords=(2, 1))
        assert same is not src and same.data is src.data
        assert same.coords == (2, 1)

    def test_retile_rounds_arrays_and_other_precisions(self):
        values = np.array([[1.05, -3.3, 1e6]])
        from_array = retile(values, Precision.FP8_E4M3)
        np.testing.assert_array_equal(
            from_array.data, Tile(values, precision=Precision.FP8_E4M3).data)
        wide = Tile(values, precision=Precision.FP32)
        narrowed = retile(wide, Precision.FP8_E4M3)
        assert narrowed.precision is Precision.FP8_E4M3
        np.testing.assert_array_equal(narrowed.data, from_array.data)

    @pytest.mark.parametrize("precision", [Precision.FP64, Precision.FP16,
                                           Precision.FP8_E4M3])
    def test_copy_owns_its_payload_in_the_storage_dtype(self, precision):
        tile = Tile(np.array([[1.0, -0.5], [0.25, 2.0]]), precision=precision,
                    coords=(3, 0))
        dup = tile.copy()
        assert dup.precision is precision and dup.coords == (3, 0)
        assert dup.data.dtype == tile.data.dtype
        assert not np.shares_memory(dup.data, tile.data)
        np.testing.assert_array_equal(dup.data, tile.data)

    def test_norm_and_max_abs_do_not_expose_the_payload(self):
        tile = Tile(np.array([[3.0, -4.0]]), precision=Precision.FP64)
        before = tile.data.copy()
        assert tile.norm() == pytest.approx(5.0)
        assert tile.max_abs() == 4.0
        assert tile.data.flags.writeable
        np.testing.assert_array_equal(tile.data, before)

    def test_norm_does_not_depend_on_the_payload_layout(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((67, 129))
        c_tile = Tile(values, precision=Precision.FP64)
        f_tile = Tile(np.asfortranarray(values), precision=Precision.FP64)
        assert f_tile.data.flags.f_contiguous
        assert f_tile.norm() == c_tile.norm()  # to the last bit
        assert f_tile.max_abs() == c_tile.max_abs()
