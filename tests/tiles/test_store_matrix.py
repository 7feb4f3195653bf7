"""TileMatrix ↔ TileStore integration: fault-in, copies, serialization."""

import numpy as np
import pytest

from repro.precision.formats import Precision
from repro.store import TileStore
from repro.tiles.matrix import TileMatrix
from repro.tiles.serialize import (
    pack_tile_matrix,
    unpack_tile_matrix,
    write_archive,
)

TILE = 16


def spd(rng, n=64):
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


class TestAttachDetach:
    def test_attach_twice_same_store_is_noop(self, rng):
        tm = TileMatrix.from_dense(spd(rng), TILE, Precision.FP64)
        with TileStore() as store:
            tm.attach_store(store)
            assert tm.attach_store(store) is tm

    def test_attach_to_second_store_rejected(self, rng):
        tm = TileMatrix.from_dense(spd(rng), TILE, Precision.FP64)
        with TileStore() as s1, TileStore() as s2:
            tm.attach_store(s1)
            with pytest.raises(RuntimeError, match="different TileStore"):
                tm.attach_store(s2)

    def test_detach_restores_full_residency(self, rng):
        tm = TileMatrix.from_dense(spd(rng), TILE, Precision.FP32)
        ref = tm.to_dense().copy()
        logical = tm.nbytes()
        with TileStore(budget_bytes=TILE * TILE * 4) as store:
            tm.attach_store(store)
            assert tm.resident_nbytes() < logical
            tm.detach_store()
            assert tm.store is None
            assert tm.resident_nbytes() == logical
        # store closed, segments gone: the matrix must be self-contained
        np.testing.assert_array_equal(tm.to_dense(), ref)

    def test_store_property(self, rng):
        tm = TileMatrix.from_dense(spd(rng), TILE, Precision.FP64)
        assert tm.store is None
        with TileStore() as store:
            tm.attach_store(store)
            assert tm.store is store


class TestAccessSemantics:
    def test_symmetric_upper_read_faults_lower(self, rng):
        dense = spd(rng)
        tm = TileMatrix.from_dense(dense, TILE, Precision.FP64,
                                   symmetric=True)
        with TileStore(budget_bytes=2 * TILE * TILE * 8) as store:
            tm.attach_store(store)
            upper = tm.get_tile(0, 3).to_float64()
            np.testing.assert_array_equal(
                upper, dense[0:TILE, 3 * TILE:4 * TILE])

    def test_unwritten_tile_materializes_zeros(self, rng):
        tm = TileMatrix.empty(64, 64, TILE, Precision.FP64)
        with TileStore(budget_bytes=TILE * TILE * 8) as store:
            tm.attach_store(store)
            assert not tm.has_tile_data(2, 2)
            np.testing.assert_array_equal(
                tm.get_tile(2, 2).to_float64(), np.zeros((TILE, TILE)))
            assert tm.has_tile_data(2, 2)  # zeros are data once touched

    def test_set_tile_precision_through_store(self, rng):
        dense = spd(rng)
        tm = TileMatrix.from_dense(dense, TILE, Precision.FP64)
        plain = TileMatrix.from_dense(dense, TILE, Precision.FP64)
        with TileStore(budget_bytes=2 * TILE * TILE * 8) as store:
            tm.attach_store(store)
            tm.set_tile_precision(1, 2, Precision.FP16)
            plain.set_tile_precision(1, 2, Precision.FP16)
            assert tm.tile_precision(1, 2) is Precision.FP16
            np.testing.assert_array_equal(
                tm.get_tile(1, 2).to_float64(),
                plain.get_tile(1, 2).to_float64())

    def test_apply_precision_map_spilled(self, rng):
        dense = spd(rng)
        tm = TileMatrix.from_dense(dense, TILE, Precision.FP64,
                                   symmetric=True)
        plain = TileMatrix.from_dense(dense, TILE, Precision.FP64,
                                      symmetric=True)
        pmap = {(i, j): (Precision.FP32 if i == j else Precision.FP16)
                for i in range(4) for j in range(4)}
        with TileStore(budget_bytes=2 * TILE * TILE * 8) as store:
            tm.attach_store(store)
            tm.apply_precision_map(pmap)
            plain.apply_precision_map(pmap)
            np.testing.assert_array_equal(tm.to_dense(), plain.to_dense())

    def test_add_shift_diagonal_spilled(self, rng):
        dense = spd(rng)
        tm = TileMatrix.from_dense(dense, TILE, Precision.FP32,
                                   symmetric=True)
        plain = TileMatrix.from_dense(dense, TILE, Precision.FP32,
                                      symmetric=True)
        with TileStore(budget_bytes=TILE * TILE * 4) as store:
            tm.attach_store(store)
            tm.add_diagonal(0.5)
            plain.add_diagonal(0.5)
            tm.shift_diagonal(0.5, 5.0)
            plain.shift_diagonal(0.5, 5.0)
            np.testing.assert_array_equal(tm.to_dense(), plain.to_dense())


class TestCopies:
    def test_deep_copy_is_store_backed_and_bounded(self, rng):
        tm = TileMatrix.from_dense(spd(rng), TILE, Precision.FP32)
        ref = tm.to_dense().copy()
        budget = 2 * TILE * TILE * 4
        with TileStore(budget_bytes=budget) as store:
            tm.attach_store(store)
            peak_before = store.stats.peak_resident_bytes
            dup = tm.copy()
            assert dup.store is store
            # copying streamed tile by tile: no budget excursion beyond
            # whatever attach already recorded
            assert store.stats.peak_resident_bytes == peak_before
            np.testing.assert_array_equal(dup.to_dense(), ref)
            dup.set_tile(0, 0, np.zeros((TILE, TILE)))
            np.testing.assert_array_equal(tm.to_dense(), ref)  # detached

    def test_shallow_copy_cow_regularization(self, rng):
        dense = spd(rng)
        tm = TileMatrix.from_dense(dense, TILE, Precision.FP32,
                                   symmetric=True)
        plain = TileMatrix.from_dense(dense, TILE, Precision.FP32,
                                      symmetric=True)
        ref = tm.to_dense().copy()
        plain_reg = plain.shallow_copy()
        plain_reg.add_diagonal(2.0)
        with TileStore(budget_bytes=4 * TILE * TILE * 4) as store:
            tm.attach_store(store)
            reg = tm.shallow_copy()
            reg.add_diagonal(2.0)
            # copy-on-write: the source kernel is untouched...
            np.testing.assert_array_equal(tm.to_dense(), ref)
            # ...and the regularized copy matches the store-less path
            # bit for bit, spill cycles and all
            np.testing.assert_array_equal(reg.to_dense(),
                                          plain_reg.to_dense())


class TestSerialization:
    def test_pack_spilled_equals_pack_resident(self, rng):
        dense = spd(rng)
        tm = TileMatrix.from_dense(dense, TILE, Precision.FP16,
                                   symmetric=True)
        plain_pack = pack_tile_matrix(
            TileMatrix.from_dense(dense, TILE, Precision.FP16,
                                  symmetric=True))
        with TileStore(budget_bytes=TILE * TILE * 2) as store:
            tm.attach_store(store)
            store_pack = pack_tile_matrix(tm)
        assert sorted(plain_pack) == sorted(store_pack)
        for name in plain_pack:
            np.testing.assert_array_equal(plain_pack[name], store_pack[name])

    def test_store_backed_load_is_lazy_and_bitwise(self, rng, tmp_path):
        tm = TileMatrix.from_dense(spd(rng), TILE, Precision.FP16)
        path = write_archive(tmp_path / "m.npz", pack_tile_matrix(tm))
        with TileStore() as store, np.load(path) as archive:
            back = unpack_tile_matrix(archive, store=store)
            assert back.resident_nbytes() == 0          # fully spilled
            assert back.nbytes() == tm.nbytes()          # logically whole
            np.testing.assert_array_equal(back.to_dense(), tm.to_dense())

    def test_unpack_store_backed_roundtrip_all_precisions(self, rng):
        pmap = {}
        cycle = [Precision.FP64, Precision.FP32, Precision.FP16,
                 Precision.FP8_E4M3]
        for idx, key in enumerate((i, j) for i in range(4) for j in range(4)):
            pmap[key] = cycle[idx % len(cycle)]
        tm = TileMatrix.from_dense(spd(rng), TILE, pmap)
        packed = pack_tile_matrix(tm)
        with TileStore(budget_bytes=TILE * TILE * 8) as store:
            back = unpack_tile_matrix(packed, store=store)
            np.testing.assert_array_equal(back.to_dense(), tm.to_dense())
            assert back.footprint_by_precision() == tm.footprint_by_precision()
