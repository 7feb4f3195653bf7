"""Tests for the single-tile POTRF/TRSM/SYRK/GEMM kernels."""

import numpy as np
import pytest
import scipy.linalg

from repro.linalg.kernels import (
    gemm_flops,
    panel_operand,
    potrf_flops,
    syrk_flops,
    tile_gemm,
    tile_potrf,
    tile_syrk,
    tile_trsm,
    trsm_flops,
)
from repro.precision.formats import Precision
from repro.precision.quantize import quantize
from repro.tiles.tile import Tile


@pytest.fixture
def spd_tile(rng):
    a = rng.standard_normal((16, 16))
    return a @ a.T / 16 + 2.0 * np.eye(16)


class TestPotrf:
    def test_matches_numpy_in_fp64(self, spd_tile):
        l = tile_potrf(spd_tile, precision=Precision.FP64)
        np.testing.assert_allclose(l, np.linalg.cholesky(spd_tile), rtol=1e-12)

    def test_reconstruction_fp32(self, spd_tile):
        l = tile_potrf(spd_tile, precision=Precision.FP32)
        np.testing.assert_allclose(l @ l.T, spd_tile, rtol=1e-4, atol=1e-4)

    def test_upper_option(self, spd_tile):
        u = tile_potrf(spd_tile, precision=Precision.FP64, lower=False)
        np.testing.assert_allclose(u.T @ u, spd_tile, rtol=1e-10)

    def test_indefinite_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            tile_potrf(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_low_precision_quantizes_input(self, spd_tile):
        l16 = tile_potrf(spd_tile, precision=Precision.FP16)
        l64 = tile_potrf(spd_tile, precision=Precision.FP64)
        assert not np.allclose(l16, l64)
        np.testing.assert_allclose(l16, l64, rtol=0.02, atol=0.02)


class TestTrsm:
    def test_right_transposed(self, spd_tile, rng):
        l = np.linalg.cholesky(spd_tile)
        b = rng.standard_normal((10, 16))
        x = tile_trsm(l, b, precision=Precision.FP64, side="right", trans=True)
        np.testing.assert_allclose(x @ l.T, b, rtol=1e-10)

    def test_right_not_transposed(self, spd_tile, rng):
        l = np.linalg.cholesky(spd_tile)
        b = rng.standard_normal((10, 16))
        x = tile_trsm(l, b, precision=Precision.FP64, side="right", trans=False)
        np.testing.assert_allclose(x @ l, b, rtol=1e-10)

    def test_left_variants(self, spd_tile, rng):
        l = np.linalg.cholesky(spd_tile)
        b = rng.standard_normal((16, 5))
        x1 = tile_trsm(l, b, precision=Precision.FP64, side="left", trans=False)
        np.testing.assert_allclose(l @ x1, b, rtol=1e-10)
        x2 = tile_trsm(l, b, precision=Precision.FP64, side="left", trans=True)
        np.testing.assert_allclose(l.T @ x2, b, rtol=1e-10)

    def test_upper_triangular_factor(self, spd_tile, rng):
        u = np.linalg.cholesky(spd_tile).T
        b = rng.standard_normal((8, 16))
        x = tile_trsm(u, b, precision=Precision.FP64, side="right", trans=False,
                      lower=False)
        np.testing.assert_allclose(x @ u, b, rtol=1e-10)

    def test_invalid_side(self, spd_tile, rng):
        with pytest.raises(ValueError):
            tile_trsm(np.eye(4), np.ones((4, 4)), side="middle")


class TestSyrkGemm:
    def test_syrk_update(self, rng):
        a = rng.standard_normal((12, 8))
        c = np.eye(12) * 10.0
        out = tile_syrk(a, c, precision=Precision.FP64, alpha=-1.0, beta=1.0)
        np.testing.assert_allclose(out, c - a @ a.T, rtol=1e-10)

    def test_gemm_update(self, rng):
        a = rng.standard_normal((6, 9))
        b = rng.standard_normal((7, 9))
        c = rng.standard_normal((6, 7))
        out = tile_gemm(a, b, c, precision=Precision.FP64, alpha=-1.0, beta=1.0,
                        transb=True)
        np.testing.assert_allclose(out, c - a @ b.T, rtol=1e-10)

    def test_fp16_gemm_less_accurate_than_fp32(self, rng):
        a = rng.standard_normal((20, 40))
        b = rng.standard_normal((20, 40))
        c = np.zeros((20, 20))
        exact = -a @ b.T
        err16 = np.linalg.norm(tile_gemm(a, b, c, precision=Precision.FP16) - exact)
        err32 = np.linalg.norm(tile_gemm(a, b, c, precision=Precision.FP32) - exact)
        assert err32 < err16


class TestFlopFormulas:
    def test_potrf_dominant_term(self):
        assert potrf_flops(100) == pytest.approx(100 ** 3 / 3, rel=0.05)

    def test_trsm_gemm_syrk(self):
        assert trsm_flops(10, 20) == 2000
        assert gemm_flops(4, 5, 6) == 240
        assert syrk_flops(10, 20) == 10 * 11 * 20


class TestTileDestination:
    """SYRK/GEMM read a ``Tile`` destination bit for bit like an array."""

    PRECISIONS = [Precision.FP64, Precision.FP32, Precision.FP16,
                  Precision.BF16, Precision.FP8_E4M3, Precision.FP8_E5M2]

    @staticmethod
    def _operands(rng):
        a = rng.standard_normal((16, 12))
        b = rng.standard_normal((16, 12))
        c = 3.0 * rng.standard_normal((16, 16))
        return a, b, c

    @pytest.mark.parametrize("stored", PRECISIONS, ids=lambda p: p.value)
    @pytest.mark.parametrize("compute", PRECISIONS, ids=lambda p: p.value)
    def test_gemm_tile_equals_ndarray(self, rng, compute, stored):
        a, b, c = self._operands(rng)
        tile = Tile(c, precision=stored)
        # same precision: read without rounding; another one: must
        # still quantize to the compute precision, like the array call
        got = tile_gemm(a, b, tile, precision=compute)
        want = tile_gemm(a, b, tile.to_float64(), precision=compute)
        assert got.dtype == want.dtype == np.float64
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("stored", PRECISIONS, ids=lambda p: p.value)
    @pytest.mark.parametrize("compute", PRECISIONS, ids=lambda p: p.value)
    def test_syrk_tile_equals_ndarray(self, rng, compute, stored):
        a, _, c = self._operands(rng)
        c = c + c.T
        tile = Tile(c, precision=stored)
        got = tile_syrk(a, tile, precision=compute)
        want = tile_syrk(a, tile.to_float64(), precision=compute)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_mismatched_tile_is_quantized(self, rng):
        """An FP64 tile handed to an FP8 update is rounded on read."""
        a, b, c = self._operands(rng)
        zeros = np.zeros_like(a)
        got = tile_gemm(zeros, zeros, Tile(c, precision=Precision.FP64),
                        precision=Precision.FP8_E4M3)
        np.testing.assert_array_equal(
            got, np.asarray(quantize(c, Precision.FP8_E4M3), dtype=np.float64))
        assert not np.array_equal(got, c)

    def test_result_is_adoptable_at_the_compute_precision(self, rng):
        """What the kernels return is on the compute precision's grid, so
        adopting it equals constructing a tile from it."""
        a, b, c = self._operands(rng)
        for p in self.PRECISIONS:
            out = tile_gemm(a, b, c, precision=p)
            adopted, built = Tile._on_grid(out, p), Tile(out, precision=p)
            assert adopted.data.dtype == built.data.dtype == p.numpy_dtype
            np.testing.assert_array_equal(adopted.data, built.data)


class TestPanelOperandFromTile:
    """A panel tile on the operand's input grid is the operand."""

    @pytest.mark.parametrize("stored", TestTileDestination.PRECISIONS,
                             ids=lambda p: p.value)
    @pytest.mark.parametrize("compute", TestTileDestination.PRECISIONS,
                             ids=lambda p: p.value)
    def test_tile_equals_ndarray(self, rng, compute, stored):
        tile = Tile(3.0 * rng.standard_normal((16, 12)), precision=stored)
        got = panel_operand(tile, compute)
        want = panel_operand(tile.to_float64(), compute)
        assert got.precision is want.precision
        assert got.array.dtype == want.array.dtype
        np.testing.assert_array_equal(got.array, want.array)
        assert got.max_abs() == want.max_abs()
        if stored is compute:
            assert got.array is tile.data  # adopted, not re-quantized
