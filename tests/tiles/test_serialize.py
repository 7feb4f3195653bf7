"""Bitwise round-trip tests for the mixed-precision tile serializer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.precision.formats import Precision
from repro.precision.quantize import quantize
from repro.tiles.matrix import TileMatrix
from repro.tiles.serialize import (
    decode_fp8,
    decode_payload,
    encode_fp8,
    encode_payload,
    pack_tile_matrix,
    unpack_tile_matrix,
    write_archive,
)
from tests.precision.grids import fp8_grid

ALL_STORAGE = [
    Precision.FP64,
    Precision.FP32,
    Precision.FP16,
    Precision.FP8_E4M3,
    Precision.INT8,
    Precision.INT32,
]


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float32).view(np.uint32)


#: On-grid values a random draw seldom hits: NaN, +0, -0 (a negative
#: that rounds to zero), +-448, and the subnormals' ends.
ON_GRID_SPECIALS = [np.nan, 0.0, -1e-30, 448.0, -448.0, 2.0 ** -9,
                    -(2.0 ** -9), 7 * 2.0 ** -9, -(7 * 2.0 ** -9)]


class TestFp8Codec:
    def test_full_grid_round_trips_bitwise(self):
        grid = fp8_grid()
        values = np.concatenate([grid, -grid]).astype(np.float32)
        decoded = decode_fp8(encode_fp8(values))
        assert decoded.dtype == np.float32
        assert np.array_equal(decoded.view(np.uint32), values.view(np.uint32))

    def test_decode_table_is_the_grid(self):
        """Code k decodes to the k-th grid value; 0x7F and 0xFF, E4M3's
        NaN patterns, to the canonical quiet NaN."""
        grid = fp8_grid().astype(np.float32)
        assert grid.size == 127
        want = np.concatenate([grid, [np.nan], -grid, [np.nan]])
        got = decode_fp8(np.arange(256, dtype=np.uint8))
        assert np.array_equal(_bits(got), _bits(want.astype(np.float32)))
        assert _bits(got)[0x7F] == _bits(got)[0xFF] == 0x7FC00000

    def test_quantized_random_data_round_trips(self):
        rng = np.random.default_rng(0)
        x = quantize(rng.standard_normal((64, 64)) * 10.0, Precision.FP8_E4M3)
        assert np.array_equal(decode_fp8(encode_fp8(x)), x)

    def test_nan_round_trips(self):
        x = np.array([np.nan, 1.0, -2.0], dtype=np.float32)
        q = quantize(x, Precision.FP8_E4M3)
        out = decode_fp8(encode_fp8(q))
        assert np.isnan(out[0]) and np.array_equal(out[1:], q[1:])

    def test_one_byte_per_element(self):
        codes = encode_fp8(np.zeros((8, 8), dtype=np.float32))
        assert codes.dtype == np.uint8 and codes.nbytes == 64

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            encode_fp8(np.array([1e6], dtype=np.float32))

    def test_every_code_survives_decode_then_encode(self):
        codes = np.arange(256, dtype=np.uint8)
        back = encode_fp8(decode_fp8(codes))
        nan = (codes & 0x7F) == 0x7F
        assert np.array_equal(back[~nan], codes[~nan])
        assert (back[nan] == 0x7F).all()


class TestFp8CodecProperties:
    @given(st.lists(st.floats(width=32), max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_every_on_grid_float32_round_trips_bitwise(self, values):
        x = quantize(np.array(values + ON_GRID_SPECIALS, dtype=np.float32),
                     Precision.FP8_E4M3)
        back = decode_fp8(encode_fp8(x))
        assert back.dtype == np.float32
        assert np.array_equal(_bits(back), _bits(x))

    @given(st.floats(min_value=448.0, exclude_min=True, width=32),
           st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_values_past_448_are_rejected(self, value, negative):
        value = -value if negative else value
        match = "quantize" if np.isinf(value) else "range"
        with pytest.raises(ValueError, match=match):
            encode_fp8(np.array([0.5, value], dtype=np.float32))


class TestPayloadCodec:
    @pytest.mark.parametrize("precision", ALL_STORAGE)
    def test_round_trip_is_bitwise(self, precision):
        rng = np.random.default_rng(3)
        data = quantize(rng.standard_normal((32, 32)) * 3.0, precision)
        raw = encode_payload(data, precision)
        assert raw.itemsize == precision.bytes_per_element
        back = decode_payload(raw, precision)
        assert back.dtype == data.dtype
        assert np.array_equal(back, data)

    def test_negative_zero_preserved(self):
        x = quantize(np.array([-0.0, 0.0]), Precision.FP8_E4M3)
        back = decode_payload(encode_payload(x, Precision.FP8_E4M3),
                              Precision.FP8_E4M3)
        assert np.array_equal(np.signbit(back), np.signbit(x))


def _mosaic_matrix(n=128, tile=32, symmetric=True,
                   precisions=(Precision.FP32, Precision.FP16,
                               Precision.FP8_E4M3)) -> TileMatrix:
    rng = np.random.default_rng(11)
    a = rng.standard_normal((n, n))
    dense = (a + a.T) / 2.0 if symmetric else a

    def pmap(i, j):
        if i == j:
            return precisions[0]
        return precisions[(i + j) % len(precisions)]

    return TileMatrix.from_dense(dense, tile, pmap, symmetric=symmetric)


class TestTileMatrixRoundTrip:
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_pack_unpack_bitwise(self, symmetric):
        m = _mosaic_matrix(symmetric=symmetric)
        back = unpack_tile_matrix(pack_tile_matrix(m))
        assert back.shape == m.shape
        assert back.symmetric == m.symmetric
        assert back.tile_size == m.tile_size
        for (i, j) in m._iter_stored():
            a, b = m.get_tile(i, j), back.get_tile(i, j)
            assert b.precision is a.precision
            assert b.data.dtype == a.data.dtype
            assert np.array_equal(b.data, a.data)
        assert np.array_equal(back.to_dense(), m.to_dense())

    def test_unmaterialized_tiles_stay_implicit(self):
        m = TileMatrix.empty(96, 96, 32, Precision.FP32)
        m.set_tile(1, 2, np.ones((32, 32)), precision=Precision.FP16)
        arrays = pack_tile_matrix(m)
        assert set(arrays) == {"meta", "t1_2"}
        back = unpack_tile_matrix(arrays)
        assert len(back._tiles) == 1
        assert np.array_equal(back.to_dense(), m.to_dense())

    def test_prefix_allows_embedding(self):
        m = _mosaic_matrix(n=64)
        arrays = pack_tile_matrix(m, prefix="factor/")
        arrays["weights"] = np.ones(3)
        back = unpack_tile_matrix(arrays, prefix="factor/")
        assert np.array_equal(back.to_dense(), m.to_dense())

    def test_save_load_file(self, tmp_path):
        m = _mosaic_matrix()
        p = write_archive(tmp_path / "factor", pack_tile_matrix(m))
        assert p.suffix == ".npz"
        with np.load(p) as archive:
            back = unpack_tile_matrix(archive)
        assert np.array_equal(back.to_dense(), m.to_dense())
        assert back.footprint_by_precision() == m.footprint_by_precision()

    def test_footprint_follows_mosaic(self, tmp_path):
        """The fp8 mosaic's archive is measurably smaller than fp32's."""
        n, tile = 256, 32
        rng = np.random.default_rng(5)
        a = rng.standard_normal((n, n))
        dense = (a + a.T) / 2.0
        fp32 = TileMatrix.from_dense(dense, tile, Precision.FP32,
                                     symmetric=True)

        def fp8_map(i, j):
            return Precision.FP32 if i == j else Precision.FP8_E4M3

        fp8 = TileMatrix.from_dense(dense, tile, fp8_map, symmetric=True)
        p32 = write_archive(tmp_path / "fp32", pack_tile_matrix(fp32))
        p8 = write_archive(tmp_path / "fp8", pack_tile_matrix(fp8))
        assert p8.stat().st_size < 0.5 * p32.stat().st_size

    def test_future_format_version_rejected(self):
        m = _mosaic_matrix(n=64)
        arrays = pack_tile_matrix(m)
        import json
        meta = json.loads(bytes(arrays["meta"].tobytes()).decode())
        meta["format_version"] = 99
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(),
                                       dtype=np.uint8)
        with pytest.raises(ValueError, match="newer format"):
            unpack_tile_matrix(arrays)


class TestCodecHardening:
    """Asymmetries found in review: inf and reserved-pattern collisions."""

    def test_inf_rejected_not_silently_zeroed(self):
        with pytest.raises(ValueError, match="quantize"):
            encode_fp8(np.array([np.inf], dtype=np.float32))
        with pytest.raises(ValueError, match="quantize"):
            encode_fp8(np.array([-np.inf], dtype=np.float32))

    def test_e4m3_cannot_collide_with_nan_pattern(self):
        # 480 would encode as S.1111.111 — E4M3's NaN — if unchecked
        with pytest.raises(ValueError, match="range"):
            encode_fp8(np.array([480.0], dtype=np.float32))
