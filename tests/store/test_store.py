"""Unit tests of the out-of-core tile store (repro.store)."""

import numpy as np
import pytest

from repro.precision.formats import Precision
from repro.store import ResidencyManager, StoreStats, TileStore
from repro.tiles.matrix import TileMatrix
from repro.tiles.serialize import encode_payload

TILE = 16
TILE_BYTES_FP64 = TILE * TILE * 8


def spd(rng, n=64):
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


@pytest.fixture
def matrix(rng):
    return TileMatrix.from_dense(spd(rng), TILE, Precision.FP64)


class TestSpillReload:
    def test_bitwise_roundtrip_under_tight_budget(self, matrix):
        ref = matrix.to_dense().copy()
        with TileStore(budget_bytes=2 * TILE_BYTES_FP64) as store:
            matrix.attach_store(store)
            # re-reading the whole matrix cycles every tile through the
            # spill segment; values must be exact
            np.testing.assert_array_equal(matrix.to_dense(), ref)
            assert store.stats.spills > 0
            assert store.stats.reloads > 0
            matrix.detach_store()
        np.testing.assert_array_equal(matrix.to_dense(), ref)

    @pytest.mark.parametrize("precision", [
        Precision.FP64, Precision.FP32, Precision.FP16, Precision.BF16,
        Precision.FP8_E4M3, Precision.FP8_E5M2,
    ])
    def test_every_codec_roundtrips_bitwise(self, rng, precision):
        tm = TileMatrix.from_dense(spd(rng, 32), TILE, precision)
        ref = tm.to_dense().copy()
        with TileStore(budget_bytes=1) as store:  # evict everything
            tm.attach_store(store)
            np.testing.assert_array_equal(tm.to_dense(), ref)

    def test_clean_eviction_skips_rewrite(self, matrix):
        with TileStore(budget_bytes=TILE_BYTES_FP64) as store:
            matrix.attach_store(store)
            matrix.get_tile(0, 0)       # fault in (clean)
            spills_before = store.stats.spills
            matrix.get_tile(1, 1)       # evicts (0, 0), which is clean
            assert store.stats.spills == spills_before
            assert store.stats.drops > 0

    def test_segment_slot_reused_in_place(self, matrix):
        with TileStore(budget_bytes=TILE_BYTES_FP64) as store:
            binding = matrix.attach_store(store)._binding

            def cycle():
                # dirty (0, 0), then force it through a spill
                t = matrix.get_tile(0, 0)
                matrix.set_tile(0, 0, t.to_float64() + 1.0)
                matrix.get_tile(1, 1)

            cycle()
            segment = binding.index[(0, 0)].segment
            size_after_first = segment.size
            for _ in range(4):
                cycle()
            # same-size respills reuse their slot in place: the segment
            # does not grow by one payload per iteration
            assert segment.size == size_after_first

    def test_explicit_directory_left_in_place(self, matrix, tmp_path):
        directory = tmp_path / "spill"
        store = TileStore(directory=directory, budget_bytes=TILE_BYTES_FP64)
        matrix.attach_store(store)
        matrix.to_dense()
        assert any(directory.glob("seg-*.bin"))
        store.close()
        assert directory.exists()
        assert not any(directory.glob("seg-*.bin"))

    def test_temporary_directory_removed_on_close(self, matrix):
        store = TileStore(budget_bytes=TILE_BYTES_FP64)
        directory = store.directory
        matrix.attach_store(store)
        matrix.to_dense()
        store.close()
        assert not directory.exists()


class TestResidencyAccounting:
    def test_peak_stays_under_budget_for_streamed_writes(self, rng):
        budget = 3 * TILE_BYTES_FP64
        with TileStore(budget_bytes=budget) as store:
            tm = TileMatrix.empty(64, 64, TILE, Precision.FP64)
            tm.attach_store(store)
            for i in range(4):
                for j in range(4):
                    tm.set_tile(i, j, rng.normal(size=(TILE, TILE)))
            assert store.stats.peak_resident_bytes <= budget
            assert store.stats.resident_bytes <= budget

    def test_nbytes_is_logical_resident_is_physical(self, matrix):
        logical = matrix.nbytes()
        with TileStore(budget_bytes=TILE_BYTES_FP64) as store:
            matrix.attach_store(store)
            assert matrix.nbytes() == logical
            assert matrix.resident_nbytes() <= TILE_BYTES_FP64
            assert matrix.resident_nbytes() < logical

    def test_footprint_by_precision_includes_spilled(self, matrix):
        before = matrix.footprint_by_precision()
        with TileStore(budget_bytes=TILE_BYTES_FP64) as store:
            matrix.attach_store(store)
            assert matrix.footprint_by_precision() == before

    def test_tile_precision_of_spilled_tile(self, rng):
        tm = TileMatrix.from_dense(spd(rng, 32), TILE, Precision.FP16)
        with TileStore(budget_bytes=1) as store:
            tm.attach_store(store)
            assert tm.tile_precision(1, 1) is Precision.FP16

    def test_norm_faults_spilled_tiles(self, matrix):
        ref = matrix.norm("fro")
        with TileStore(budget_bytes=TILE_BYTES_FP64) as store:
            matrix.attach_store(store)
            assert matrix.norm("fro") == ref


class TestPinning:
    def test_pinned_tile_survives_pressure(self, matrix):
        with TileStore(budget_bytes=2 * TILE_BYTES_FP64) as store:
            matrix.attach_store(store)
            binding = matrix._binding
            tile = matrix.get_tile(0, 0)
            store.pin([(binding, (0, 0))])
            for d in range(4):
                matrix.get_tile(d, d)  # pressure
            assert matrix._tiles.get((0, 0)) is tile  # never evicted
            store.unpin([(binding, (0, 0))])
            matrix.get_tile(3, 3)
            matrix.get_tile(2, 2)
            assert (0, 0) not in matrix._tiles  # evictable again

    def test_all_pinned_overflows_budget_but_counts_it(self, matrix):
        with TileStore(budget_bytes=TILE_BYTES_FP64) as store:
            matrix.attach_store(store)
            binding = matrix._binding
            deps = [(binding, (d, d)) for d in range(4)]
            store.pin(deps)
            for d in range(4):
                matrix.get_tile(d, d)
            assert store.stats.resident_bytes > store.budget_bytes
            assert store.stats.budget_overflows > 0
            store.unpin(deps)

    def test_pin_before_residency_sticks(self, matrix):
        with TileStore(budget_bytes=2 * TILE_BYTES_FP64) as store:
            matrix.attach_store(store)
            binding = matrix._binding
            # pin while the tile is still spilled
            store.pin([(binding, (2, 2))])
            tile = matrix.get_tile(2, 2)
            matrix.get_tile(0, 0)
            matrix.get_tile(1, 1)
            assert matrix._tiles.get((2, 2)) is tile
            store.unpin([(binding, (2, 2))])


class TestSharingAndAdoption:
    def test_shallow_copy_shares_slots_and_diverges_on_write(self, matrix):
        ref = matrix.to_dense().copy()
        with TileStore(budget_bytes=2 * TILE_BYTES_FP64) as store:
            matrix.attach_store(store)
            dup = matrix.shallow_copy()
            dup.set_tile(0, 0, np.zeros((TILE, TILE)))
            np.testing.assert_array_equal(matrix.to_dense(), ref)
            changed = dup.to_dense()
            assert np.array_equal(changed[TILE:, :], ref[TILE:, :])
            assert np.all(changed[:TILE, :TILE] == 0.0)

    def test_unpacked_lower_of_spilled_symmetric(self, rng):
        tm = TileMatrix.from_dense(spd(rng), TILE, Precision.FP32,
                                   symmetric=True)
        ref = np.tril(tm.to_dense())
        with TileStore(budget_bytes=2 * TILE * TILE * 4) as store:
            tm.attach_store(store)
            work = tm.unpacked_lower()
            assert work.store is store
            np.testing.assert_array_equal(np.tril(work.to_dense()), ref)

    def test_adopt_loads_lazily(self, rng):
        data = rng.normal(size=(TILE, TILE))
        raw = encode_payload(np.asarray(data, dtype=np.float32),
                             Precision.FP32)
        with TileStore() as store:
            tm = TileMatrix.empty(TILE, TILE, TILE, Precision.FP32)
            tm.attach_store(store)
            tm._binding.adopt((0, 0), raw, Precision.FP32)
            assert tm.resident_nbytes() == 0
            assert tm.has_tile_data(0, 0)
            np.testing.assert_array_equal(
                tm.get_tile(0, 0).to_float64(),
                np.asarray(data, dtype=np.float32).astype(np.float64))

    def test_spill_all_then_reload(self, matrix):
        ref = matrix.to_dense().copy()
        with TileStore() as store:  # no budget: spill only on request
            matrix.attach_store(store)
            store.spill_all()
            assert matrix.resident_nbytes() == 0
            np.testing.assert_array_equal(matrix.to_dense(), ref)


class TestResidencyManager:
    def test_lru_order_and_touch(self):
        m = ResidencyManager(budget_bytes=100)
        m.add((0, (0, 0)), 40)
        m.add((0, (0, 1)), 40)
        m.touch((0, (0, 0)))  # (0,1) becomes LRU
        assert m.victims_to_fit(40) == [(0, (0, 1))]

    def test_pinned_skipped(self):
        m = ResidencyManager(budget_bytes=100)
        m.add((0, (0, 0)), 60)
        m.add((0, (0, 1)), 40)
        m.pin((0, (0, 0)))
        assert m.victims_to_fit(40) == [(0, (0, 1))]

    def test_no_candidates_counts_overflow(self):
        m = ResidencyManager(budget_bytes=100)
        m.add((0, (0, 0)), 100)
        m.pin((0, (0, 0)))
        assert m.victims_to_fit(50) is None
        assert m.stats.budget_overflows == 1

    def test_stats_snapshot_is_stable(self):
        m = ResidencyManager(budget_bytes=100)
        m.add((0, (0, 0)), 10)
        snap = m.stats.snapshot()
        m.add((0, (0, 1)), 10)
        assert snap.resident_bytes == 10
        assert isinstance(snap, StoreStats)
        assert snap.to_dict()["resident_bytes"] == 10

    def test_remove_binding_purges(self):
        m = ResidencyManager(budget_bytes=100)
        m.add((0, (0, 0)), 10)
        m.add((1, (0, 0)), 20)
        m.remove_binding(0)
        assert m.stats.resident_bytes == 20
