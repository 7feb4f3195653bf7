"""Tests for the TileMatrix container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.precision.formats import Precision
from repro.tiles.matrix import TileMatrix
from repro.tiles.tile import Tile


@pytest.fixture
def dense(rng):
    return rng.normal(size=(50, 30))


class TestConstruction:
    def test_from_dense_roundtrip_fp64(self, dense):
        tm = TileMatrix.from_dense(dense, tile_size=16)
        np.testing.assert_array_equal(tm.to_dense(), dense)
        assert tm.shape == dense.shape
        assert tm.grid_shape == (4, 2)

    def test_roundtrip_fp16_quantizes(self, dense):
        tm = TileMatrix.from_dense(dense, tile_size=16, precision=Precision.FP16)
        back = tm.to_dense()
        assert not np.array_equal(back, dense)
        np.testing.assert_allclose(back, dense, rtol=2 ** -10)

    def test_precision_callable(self, dense):
        tm = TileMatrix.from_dense(
            dense, tile_size=16,
            precision=lambda i, j: Precision.FP32 if i == j else Precision.FP16,
        )
        assert tm.tile_precision(0, 0) is Precision.FP32
        assert tm.tile_precision(1, 0) is Precision.FP16

    def test_precision_mapping(self, dense):
        pmap = {(i, j): Precision.FP64 for i in range(4) for j in range(2)}
        pmap[(0, 1)] = Precision.FP8_E4M3
        tm = TileMatrix.from_dense(dense, tile_size=16, precision=pmap)
        assert tm.tile_precision(0, 1) is Precision.FP8_E4M3

    def test_zeros(self):
        tm = TileMatrix.zeros(10, 12, 4)
        assert tm.to_dense().sum() == 0.0
        assert tm.shape == (10, 12)

    def test_non_2d_raises(self):
        with pytest.raises(ValueError):
            TileMatrix.from_dense(np.zeros(5), tile_size=2)


class TestSymmetricStorage:
    def test_symmetric_roundtrip(self, rng):
        a = rng.normal(size=(40, 40))
        sym = a + a.T
        tm = TileMatrix.from_dense(sym, tile_size=16, symmetric=True)
        np.testing.assert_allclose(tm.to_dense(), sym)

    def test_upper_reads_are_transposes(self, rng):
        a = rng.normal(size=(20, 20))
        sym = a + a.T
        tm = TileMatrix.from_dense(sym, tile_size=8, symmetric=True)
        upper = tm.get_tile(0, 1).to_float64()
        lower = tm.get_tile(1, 0).to_float64()
        np.testing.assert_array_equal(upper, lower.T)

    def test_symmetric_requires_square(self):
        with pytest.raises(ValueError):
            TileMatrix.from_dense(np.zeros((4, 6)), tile_size=2, symmetric=True)

    def test_set_upper_tile_mirrors(self, rng):
        tm = TileMatrix.zeros(8, 8, 4, symmetric=True)
        block = rng.normal(size=(4, 4))
        tm.set_tile(0, 1, block)
        np.testing.assert_allclose(tm.get_tile(1, 0).to_float64(), block.T)

    def test_stored_tile_count_is_lower_triangle(self, rng):
        a = rng.normal(size=(40, 40))
        tm = TileMatrix.from_dense(a + a.T, tile_size=10, symmetric=True)
        assert len(tm._tiles) == 10  # 4*5/2


class TestTileAccess:
    def test_set_tile_shape_check(self):
        tm = TileMatrix.zeros(10, 10, 4)
        with pytest.raises(ValueError, match="shape"):
            tm.set_tile(0, 0, np.zeros((3, 3)))

    def test_set_tile_with_precision(self):
        tm = TileMatrix.zeros(8, 8, 4)
        tm.set_tile(0, 0, np.ones((4, 4)), precision=Precision.FP8_E4M3)
        assert tm.tile_precision(0, 0) is Precision.FP8_E4M3

    def test_set_tile_precision(self, dense):
        tm = TileMatrix.from_dense(dense, tile_size=16)
        tm.set_tile_precision(0, 0, "fp16")
        assert tm.tile_precision(0, 0) is Precision.FP16

    def test_apply_precision_map(self, dense):
        tm = TileMatrix.from_dense(dense, tile_size=16)
        tm.apply_precision_map(Precision.FP16)
        assert all(tm.tile_precision(i, j) is Precision.FP16
                   for i in range(4) for j in range(2))


class TestFootprint:
    def test_nbytes_uniform(self):
        tm = TileMatrix.from_dense(np.zeros((32, 32)), tile_size=16,
                                   precision=Precision.FP32)
        assert tm.nbytes() == 32 * 32 * 4

    def test_mixed_precision_footprint_smaller(self, rng):
        a = rng.normal(size=(64, 64))
        fp32 = TileMatrix.from_dense(a, tile_size=16, precision=Precision.FP32)
        mixed = TileMatrix.from_dense(
            a, tile_size=16,
            precision=lambda i, j: Precision.FP32 if i == j else Precision.FP8_E4M3)
        assert mixed.nbytes() < fp32.nbytes()
        by_prec = mixed.footprint_by_precision()
        assert Precision.FP8_E4M3 in by_prec and Precision.FP32 in by_prec

    def test_symmetric_footprint_half(self, rng):
        a = rng.normal(size=(64, 64))
        sym = TileMatrix.from_dense(a + a.T, tile_size=16, symmetric=True,
                                    precision=Precision.FP32)
        full = TileMatrix.from_dense(a + a.T, tile_size=16,
                                     precision=Precision.FP32)
        assert sym.nbytes() < full.nbytes()

    def test_copy_independent(self, dense):
        tm = TileMatrix.from_dense(dense, tile_size=16)
        dup = tm.copy()
        dup.set_tile(0, 0, np.zeros((16, 16)))
        assert not np.allclose(tm.get_tile(0, 0).to_float64(), 0.0)

    def test_norm_matches_dense(self, dense):
        tm = TileMatrix.from_dense(dense, tile_size=16)
        assert tm.norm() == pytest.approx(np.linalg.norm(dense))


class TestRoundtripProperty:
    @given(st.integers(5, 40), st.integers(5, 40), st.integers(2, 16))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_any_shape(self, rows, cols, tile_size):
        rng = np.random.default_rng(rows * 1000 + cols * 10 + tile_size)
        dense = rng.normal(size=(rows, cols))
        tm = TileMatrix.from_dense(dense, tile_size=tile_size)
        np.testing.assert_array_equal(tm.to_dense(), dense)


class TestDiagonalShift:
    def test_add_diagonal_matches_dense(self, rng):
        a = rng.normal(size=(50, 50))
        a = a + a.T
        tm = TileMatrix.from_dense(a, tile_size=16)
        tm.add_diagonal(0.75)
        np.testing.assert_array_equal(tm.to_dense(), a + 0.75 * np.eye(50))

    def test_add_diagonal_symmetric_storage(self, rng):
        a = rng.normal(size=(48, 48))
        a = a + a.T
        tm = TileMatrix.from_dense(a, tile_size=16, symmetric=True)
        tm.add_diagonal(2.0)
        np.testing.assert_array_equal(tm.to_dense(), a + 2.0 * np.eye(48))

    def test_add_diagonal_touches_only_diagonal_tiles(self, rng):
        a = rng.normal(size=(48, 48))
        tm = TileMatrix.from_dense(a + a.T, tile_size=16, symmetric=True)
        before = {
            (i, j): tm.get_tile(i, j)
            for i in range(3) for j in range(i)
        }
        tm.add_diagonal(1.0)
        for (i, j), tile in before.items():
            # off-diagonal tiles are the exact same objects, untouched
            assert tm.get_tile(i, j) is tile

    def test_add_diagonal_preserves_tile_precision(self, rng):
        a = rng.normal(size=(32, 32))
        tm = TileMatrix.from_dense(
            a + a.T, tile_size=16,
            precision=lambda i, j: Precision.FP32 if i == j else Precision.FP16)
        tm.add_diagonal(0.5)
        assert tm.tile_precision(0, 0) is Precision.FP32
        assert tm.tile_precision(1, 0) is Precision.FP16

    def test_shift_diagonal_moves_the_regularization(self, rng):
        a = rng.normal(size=(40, 40))
        a = a + a.T
        tm = TileMatrix.from_dense(a, tile_size=16)
        tm.add_diagonal(1.0)
        tm.shift_diagonal(1.0, 10.0)
        np.testing.assert_allclose(tm.to_dense(), a + 10.0 * np.eye(40))

    def test_add_diagonal_requires_square(self, dense):
        tm = TileMatrix.from_dense(dense, tile_size=16)  # 50 x 30
        with pytest.raises(ValueError):
            tm.add_diagonal(1.0)


class TestUnpackedLower:
    def test_lower_triangle_matches_symmetric_source(self, rng):
        a = rng.normal(size=(50, 50))
        a = a + a.T
        sym = TileMatrix.from_dense(a, tile_size=16, symmetric=True)
        unpacked = sym.unpacked_lower()
        assert not unpacked.symmetric
        np.testing.assert_array_equal(np.tril(unpacked.to_dense()), np.tril(a))

    def test_copy_is_independent(self, rng):
        a = rng.normal(size=(32, 32))
        sym = TileMatrix.from_dense(a + a.T, tile_size=16, symmetric=True)
        unpacked = sym.unpacked_lower()
        unpacked.set_tile(1, 0, np.zeros((16, 16)))
        assert not np.allclose(sym.get_tile(1, 0).to_float64(), 0.0)

    def test_shares_the_lower_tiles(self, rng):
        # copy-on-write at tile granularity, like shallow_copy: the
        # factorization workspace costs no copy of the mosaic
        a = rng.normal(size=(32, 32))
        sym = TileMatrix.from_dense(a + a.T, tile_size=16, symmetric=True)
        unpacked = sym.unpacked_lower()
        for key in ((0, 0), (1, 0), (1, 1)):
            assert unpacked.get_tile(*key) is sym.get_tile(*key)
        assert not unpacked.has_tile_data(0, 1)

    def test_preserves_tile_precisions(self, rng):
        a = rng.normal(size=(32, 32))
        sym = TileMatrix.from_dense(
            a + a.T, tile_size=16, symmetric=True,
            precision=lambda i, j: Precision.FP32 if i == j else Precision.FP16)
        unpacked = sym.unpacked_lower()
        assert unpacked.tile_precision(0, 0) is Precision.FP32
        assert unpacked.tile_precision(1, 0) is Precision.FP16


class TestSetTileFromTile:
    """``set_tile`` takes a ``Tile`` over without rounding it again."""

    def test_same_precision_shares_the_payload(self, rng):
        tm = TileMatrix.zeros(8, 8, 4, Precision.FP32)
        src = Tile(rng.standard_normal((4, 4)), precision=Precision.FP8_E4M3)
        tm.set_tile(1, 0, src)  # precision omitted: the tile's own
        stored = tm.get_tile(1, 0)
        assert stored.precision is Precision.FP8_E4M3
        assert stored.coords == (1, 0) and stored.data is src.data
        tm.set_tile(0, 1, src, precision=Precision.FP8_E4M3)
        assert tm.get_tile(0, 1).data is src.data

    def test_other_precision_rounds_like_an_array(self, rng):
        values = rng.standard_normal((4, 4))
        a = TileMatrix.zeros(8, 8, 4)
        b = TileMatrix.zeros(8, 8, 4)
        a.set_tile(1, 1, Tile(values, precision=Precision.FP32),
                   precision=Precision.FP8_E4M3)
        b.set_tile(1, 1, np.asarray(values, dtype=np.float32),
                   precision=Precision.FP8_E4M3)
        assert a.get_tile(1, 1).precision is Precision.FP8_E4M3
        np.testing.assert_array_equal(a.get_tile(1, 1).data,
                                      b.get_tile(1, 1).data)

    def test_upper_write_on_symmetric_storage_transposes(self, rng):
        tm = TileMatrix.zeros(8, 8, 4, symmetric=True)
        src = Tile(rng.standard_normal((4, 4)), precision=Precision.FP16)
        tm.set_tile(0, 1, src)
        np.testing.assert_array_equal(tm.get_tile(1, 0).data, src.data.T)
        assert tm.get_tile(1, 0).precision is Precision.FP16

    def test_shape_is_still_checked(self):
        tm = TileMatrix.zeros(8, 8, 4)
        with pytest.raises(ValueError):
            tm.set_tile(0, 0, Tile(np.zeros((3, 4))))

    def test_store_backed_matrix_adopts_too(self, rng):
        from repro.store import TileStore

        src = Tile(rng.standard_normal((4, 4)), precision=Precision.FP8_E4M3)
        with TileStore(budget_bytes=4 * 16 * 4) as store:
            tm = TileMatrix.zeros(8, 8, 4, Precision.FP32).attach_store(store)
            tm.set_tile(1, 0, src)
            assert tm.get_tile(1, 0).precision is Precision.FP8_E4M3
            np.testing.assert_array_equal(tm.get_tile(1, 0).data, src.data)
            tm.set_tile(1, 1, src, precision=Precision.FP16)
            np.testing.assert_array_equal(
                tm.get_tile(1, 1).data,
                Tile(src.data, precision=Precision.FP16).data)


FORMATS = (Precision.FP64, Precision.FP32, Precision.FP16, Precision.FP8_E4M3)


def _bits(a):
    a = np.ascontiguousarray(a)
    return a.view({2: np.uint16, 4: np.uint32, 8: np.uint64}[a.dtype.itemsize])


def _assert_same_payload(got, want):
    """Same values bit for bit, same dtype and same memory order."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert (got.flags.c_contiguous, got.flags.f_contiguous) == \
        (want.flags.c_contiguous, want.flags.f_contiguous)
    np.testing.assert_array_equal(_bits(got), _bits(want))


class TestNoNeedlessRounding:
    """Mirrored reads and precision conversions round nothing that is on
    its grid already: a patched ``quantize`` counts every rounding, and
    the payloads equal what rounding a float64 copy gave, bit for bit
    and in memory order."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import repro.tiles.tile as tile_module

        seen, real = [], tile_module.quantize

        def counting(x, precision):
            seen.append(Precision.from_string(precision))
            return real(x, precision)

        monkeypatch.setattr(tile_module, "quantize", counting)
        return seen

    @staticmethod
    def _mosaic(rng):
        """A symmetric 4×4 tile grid, the stored tiles cycling through
        every float format, C-ordered payloads."""
        tm = TileMatrix.zeros(32, 32, 8, symmetric=True)
        for n, (i, j) in enumerate(tm.layout.iter_lower_tiles()):
            tm.set_tile(i, j, 4.0 * rng.standard_normal((8, 8)),
                        precision=FORMATS[n % len(FORMATS)])
        return tm

    def test_mirrored_read_adopts_a_transposed_copy(self, rng, calls):
        tm = self._mosaic(rng)
        for i, j in tm.layout.iter_lower_tiles():
            if i == j:
                continue
            stored = tm.get_tile(i, j)
            want = Tile(stored.to_float64().T, precision=stored.precision)
            calls.clear()
            got = tm.get_tile(j, i)
            assert calls == []
            assert got.precision is stored.precision and got.coords == (j, i)
            _assert_same_payload(got.data, want.data)
            assert not np.shares_memory(got.data, stored.data)

    def test_conversion_to_its_own_precision_rewraps(self, rng, calls):
        tm = self._mosaic(rng)
        for i, j in tm.layout.iter_lower_tiles():
            stored = tm.get_tile(i, j)
            want = Tile(stored.to_float64(), precision=stored.precision)
            calls.clear()
            tm.set_tile_precision(i, j, stored.precision)
            assert calls == []
            got = tm.get_tile(i, j)
            assert got.precision is stored.precision and got.data is stored.data
            _assert_same_payload(got.data, want.data)

    def test_precision_map_rounds_only_the_tiles_it_changes(self, rng, calls):
        tm = self._mosaic(rng)
        keys = list(tm.layout.iter_lower_tiles())
        pmap = {key: FORMATS[(3 * n) % len(FORMATS)]
                for n, key in enumerate(keys)}
        before = {key: tm.get_tile(*key) for key in keys}
        want = {key: Tile(before[key].to_float64(), precision=pmap[key])
                for key in keys}
        calls.clear()
        tm.apply_precision_map(pmap)
        changed = [pmap[key] for key in keys
                   if before[key].precision is not pmap[key]]
        assert 0 < len(changed) < len(keys)
        assert calls == changed
        for key in keys:
            got = tm.get_tile(*key)
            assert got.precision is pmap[key]
            _assert_same_payload(got.data, want[key].data)
