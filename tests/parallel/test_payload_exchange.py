"""Payload codec and the segment-file tile exchange: bitwise round trips."""

import numpy as np
import pytest

from repro.parallel.exchange import ExchangeSpec, PayloadRef, TileExchange
from repro.parallel.payload import decode_obj, encode_obj
from repro.precision.formats import Precision
from repro.tiles.tile import Tile

TILE_PRECISIONS = (
    Precision.FP64,
    Precision.FP32,
    Precision.FP16,
    Precision.FP8_E4M3,
    Precision.INT8,
    Precision.INT32,
)


def _tile(precision: Precision, seed: int = 0) -> Tile:
    rng = np.random.default_rng(seed)
    return Tile(rng.standard_normal((12, 9)), precision=precision,
                coords=(3, 4))


class TestPayloadCodec:
    @pytest.mark.parametrize("precision", TILE_PRECISIONS)
    def test_tile_round_trip_is_bitwise(self, precision):
        tile = _tile(precision)
        kind, meta, raw = encode_obj(tile)
        assert kind == "tile"
        out = decode_obj(kind, meta, raw)
        assert isinstance(out, Tile)
        assert out.precision is tile.precision
        assert out.coords == tile.coords
        assert out.data.dtype == tile.data.dtype
        np.testing.assert_array_equal(out.data, tile.data)

    @pytest.mark.parametrize("precision", TILE_PRECISIONS)
    def test_tile_crosses_in_its_format_bytes(self, precision):
        # an FP16 tile is float32 in memory and 2 bytes a value on the wire
        tile = _tile(precision)
        kind, meta, raw = encode_obj(tile)
        assert len(raw) == tile.data.size * precision.bytes_per_element
        assert np.dtype(meta["dtype"]).itemsize == precision.bytes_per_element

    def test_array_round_trip_is_bitwise_and_writable(self):
        arr = np.arange(24, dtype=np.float64).reshape(4, 6)
        kind, meta, raw = encode_obj(arr)
        assert kind == "array"
        out = decode_obj(kind, meta, raw)
        np.testing.assert_array_equal(out, arr)
        out[0, 0] = -1.0  # consumers (fill_diagonal) write row blocks

    def test_array_preserves_dtype(self):
        for dtype in (np.float32, np.int8, np.int64):
            arr = np.ones((3, 3), dtype=dtype)
            kind, meta, raw = encode_obj(arr)
            out = decode_obj(kind, meta, raw)
            assert out.dtype == arr.dtype

    def test_none_round_trip(self):
        kind, meta, raw = encode_obj(None)
        assert kind == "none" and raw == b""
        assert decode_obj(kind, meta, raw) is None

    def test_pickle_fallback(self):
        obj = {"gamma": 0.01, "rows": [1, 2, 3]}
        kind, meta, raw = encode_obj(obj)
        assert kind == "pickle"
        assert decode_obj(kind, meta, raw) == obj

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown payload kind"):
            decode_obj("bogus", {}, b"")


def _spec(tmp_path) -> ExchangeSpec:
    return ExchangeSpec(directory=str(tmp_path))


class TestTileExchange:
    def test_put_get_round_trip(self, tmp_path):
        xchg = TileExchange(_spec(tmp_path), producer_tag="t0")
        try:
            tile = _tile(Precision.FP16, seed=7)
            arr = np.linspace(0.0, 1.0, 10)
            ref_t = xchg.put(tile)
            ref_a = xchg.put(arr)
            ref_n = xchg.put(None)
            assert isinstance(ref_t, PayloadRef)
            out_t = xchg.get(ref_t)
            np.testing.assert_array_equal(out_t.data, tile.data)
            assert out_t.precision is tile.precision
            np.testing.assert_array_equal(xchg.get(ref_a), arr)
            assert xchg.get(ref_n) is None
        finally:
            xchg.close()

    def test_refs_are_picklable(self, tmp_path):
        import pickle

        xchg = TileExchange(_spec(tmp_path), producer_tag="t0")
        try:
            ref = xchg.put(_tile(Precision.FP32))
            clone = pickle.loads(pickle.dumps(ref))
            assert clone == ref
            np.testing.assert_array_equal(xchg.get(clone).data,
                                          xchg.get(ref).data)
        finally:
            xchg.close()

    def test_cross_endpoint_read(self, tmp_path):
        """A ref published by one endpoint is readable by another."""
        producer = TileExchange(_spec(tmp_path), producer_tag="p0")
        consumer = TileExchange(_spec(tmp_path), producer_tag="p1")
        try:
            tile = _tile(Precision.FP8_E4M3, seed=3)
            ref = producer.put(tile)
            out = consumer.get(ref)
            np.testing.assert_array_equal(out.data, tile.data)
        finally:
            consumer.close()
            producer.close()

    def test_reset_reclaims_storage(self, tmp_path):
        xchg = TileExchange(_spec(tmp_path), producer_tag="t0")
        try:
            for _ in range(4):
                xchg.put(np.zeros(1000))
            xchg.reset()
            ref = xchg.put(np.ones(5))
            # post-reset refs start the segment over
            assert ref.offset == 0
            np.testing.assert_array_equal(xchg.get(ref), np.ones(5))
        finally:
            xchg.close()

    def test_decode_cache_returns_same_object(self, tmp_path):
        xchg = TileExchange(_spec(tmp_path), producer_tag="t0")
        try:
            ref = xchg.put(_tile(Precision.FP32))
            assert xchg.get_cached(ref) is xchg.get_cached(ref)
            # the coordinator's read keeps nothing alive
            assert xchg.get(ref) is not xchg.get(ref)
        finally:
            xchg.close()
