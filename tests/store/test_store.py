"""Unit tests of the out-of-core tile store (repro.store)."""

import gc
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

import repro.store
from repro.linalg.cholesky import cholesky
from repro.precision.formats import Precision
from repro.resilience.errors import TaskGroupError
from repro.resilience.faults import (
    SITE_SEGMENT_WRITE,
    FaultPlan,
    FaultSite,
    fault_plan,
    no_faults,
)
from repro.runtime.runtime import Runtime
from repro.store import ResidencyManager, StoreStats, TileStore
from repro.store.store import _Segment
from repro.tiles.matrix import TileMatrix
from repro.tiles.serialize import encode_payload
from tests.store import spill_all

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
        Precision.FP64, Precision.FP32, Precision.FP16, Precision.FP8_E4M3,
        Precision.INT8, Precision.INT32,
    ])
    def test_every_codec_roundtrips_bitwise(self, rng, precision):
        tm = TileMatrix.from_dense(spd(rng, 32), TILE, precision)
        ref = tm.to_dense().copy()
        with TileStore(budget_bytes=1) as store:  # evict everything
            tm.attach_store(store)
            np.testing.assert_array_equal(tm.to_dense(), ref)

    @pytest.mark.parametrize("precision", [
        Precision.FP16, Precision.FP8_E4M3,
    ])
    def test_spill_and_residency_count_format_bytes(self, rng, precision):
        """An emulated tile is float32 in memory; the segment holds its
        format's bytes, and the residency count is in the same unit."""
        tm = TileMatrix.from_dense(spd(rng, 32), TILE, precision)
        tiles = len(tm._tiles)
        format_bytes = 32 * 32 * precision.bytes_per_element
        with TileStore(budget_bytes=1) as store:  # evict everything
            tm.attach_store(store)
            assert store.stats.spills == tiles == 4
            assert store.stats.bytes_spilled == format_bytes
            assert store.stats.peak_resident_bytes == format_bytes
            tm.detach_store()

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

    def test_unclosed_store_dies_with_its_last_reference(self, rng,
                                                         tmp_path):
        """A store dropped without ``close()`` is collected, and its
        segment files go with it."""
        matrix = TileMatrix.from_dense(spd(rng), TILE, Precision.FP64)
        store = TileStore(directory=tmp_path)
        matrix.attach_store(store)
        spill_all(store)
        assert any(tmp_path.glob("seg-*.bin"))
        alive = weakref.ref(store)
        del store, matrix
        gc.collect()
        assert alive() is None
        assert not any(tmp_path.glob("seg-*.bin"))


class TestOnDemandReload:
    """A spilled tile comes back when something reads it: on the reading
    thread, with the store lock held, so no read can interleave with a
    re-spill of the same slot and the store needs no thread of its own."""

    @staticmethod
    def record_reads(store, monkeypatch):
        reads, read = [], _Segment.read

        def recording(segment, offset, length):
            reads.append((threading.current_thread().name,
                          store._lock._is_owned()))
            return read(segment, offset, length)

        monkeypatch.setattr(_Segment, "read", recording)
        return reads

    def test_prefetch_is_a_no_op(self, matrix):
        with TileStore() as store:
            binding = matrix.attach_store(store)._binding
            spill_all(store)
            threads = set(threading.enumerate())
            store.prefetch([(binding, key) for key in binding.index])
            assert not matrix._tiles
            assert store.stats.prefetches == 0
            assert store.stats.reloads == 0
            assert set(threading.enumerate()) <= threads

    def test_reload_reads_under_the_lock_on_the_reading_thread(
            self, matrix, monkeypatch):
        ref = matrix.to_dense().copy()
        with no_faults(), TileStore(budget_bytes=2 * TILE_BYTES_FP64) as store:
            matrix.attach_store(store)
            spill_all(store)
            reads = self.record_reads(store, monkeypatch)
            np.testing.assert_array_equal(matrix.to_dense(), ref)
            assert len(reads) == store.stats.reloads > 0
            me = threading.current_thread().name
            assert set(reads) == {(me, True)}

    def test_threaded_drain_reloads_on_its_lanes(self, rng, monkeypatch):
        a = spd(rng, 6 * TILE)
        ref = cholesky(TileMatrix.from_dense(a, TILE, Precision.FP64,
                                             symmetric=True)).to_dense()
        with no_faults(), TileStore(budget_bytes=4 * TILE_BYTES_FP64) as store:
            tm = TileMatrix.from_dense(a, TILE, Precision.FP64,
                                       symmetric=True)
            tm.attach_store(store)
            reads = self.record_reads(store, monkeypatch)
            result = cholesky(tm, runtime=Runtime(execution="threaded",
                                                  workers=2))
            assert store.stats.reloads > 0 and reads
            lanes = {threading.current_thread().name, "repro-runtime-1"}
            assert {name for name, _ in reads} <= lanes
            assert all(locked for _, locked in reads)
            np.testing.assert_array_equal(result.to_dense(), ref)


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
            spill_all(store)
            assert matrix.resident_nbytes() == 0
            np.testing.assert_array_equal(matrix.to_dense(), ref)


class TestCopyOnWriteWorkspace:
    """A store-backed ``unpacked_lower()`` moves no tile: the workspace
    shares the kernel's resident tiles and slots read-only and its
    first write of a tile goes to its own segment — so whatever becomes
    of the factorization, the kernel is what it was."""

    N = 6 * TILE
    LOWER = 21
    TILE_BYTES = TILE * TILE * 4

    @pytest.fixture
    def stored(self, rng):
        """``(kernel, store, check)``: a symmetric FP32 kernel with every
        tile in its slot, and the after-the-factorization assertions."""
        with TileStore(budget_bytes=4 * self.TILE_BYTES) as store:
            kernel = TileMatrix.from_dense(spd(rng, self.N), TILE,
                                           Precision.FP32, symmetric=True)
            kernel.attach_store(store)
            spill_all(store)  # nothing of the kernel is left to write
            tiles = list(kernel.layout.iter_lower_tiles())
            assert len(tiles) == self.LOWER
            before = {k: kernel.get_tile(*k).data.copy() for k in tiles}
            own = kernel._binding._segment
            size = own.path.stat().st_size

            def check():
                for k in tiles:
                    now = kernel.get_tile(*k).data
                    assert now.dtype == before[k].dtype
                    assert now.tobytes() == before[k].tobytes()
                assert store.verify().clean
                assert own.path.stat().st_size == size == own.size
                for segment in store._segments:
                    if segment is not own:
                        # at most one slot per lower tile, re-spilled in place
                        assert segment.size <= self.LOWER * self.TILE_BYTES
                        assert segment.path.stat().st_size == segment.size

            yield kernel, store, check

    @pytest.mark.parametrize("how", ["reference", "serial", "threaded"])
    def test_kernel_untouched_by_a_factorization(self, stored, how):
        kernel, store, check = stored
        ref = np.linalg.cholesky(kernel.to_dense().astype(np.float32))
        rt = None if how == "reference" else Runtime(execution=how, workers=2)
        result = cholesky(kernel, runtime=rt)
        assert result.factor.store is store
        assert store.stats.spills > 0  # the workspace did go through disk
        check()  # before to_dense() materializes the factor's upper zeros
        np.testing.assert_allclose(result.to_dense(), ref, rtol=1e-3,
                                   atol=1e-3)

    def test_workspace_shares_tiles_and_slots_until_written(self, stored):
        kernel, store, _ = stored
        moved = (store.stats.spills, store.stats.reloads)
        work = kernel.unpacked_lower()
        assert (store.stats.spills, store.stats.reloads) == moved
        assert not work.symmetric and work.store is store
        assert work._binding.index == kernel._binding.index
        work.set_tile(1, 0, np.zeros((TILE, TILE)))
        assert np.any(kernel.get_tile(1, 0).data != 0.0)

    def test_resident_tiles_are_shared_not_copied(self, rng):
        with TileStore() as store:  # no budget: everything stays resident
            kernel = TileMatrix.from_dense(spd(rng, self.N), TILE,
                                           Precision.FP32, symmetric=True)
            kernel.attach_store(store)
            work = kernel.unpacked_lower()
            assert len(work._tiles) == self.LOWER
            for key, tile in work._tiles.items():
                assert tile is kernel._tiles[key]

    def test_lower_triangle_only_of_a_full_source(self, rng):
        with TileStore(budget_bytes=4 * self.TILE_BYTES) as store:
            full = TileMatrix.from_dense(spd(rng, self.N), TILE,
                                         Precision.FP32)
            full.attach_store(store)
            work = full.unpacked_lower()
            lower = set(full.layout.iter_lower_tiles())
            assert {key for key in full.layout.iter_tiles()
                    if work._binding.has_data(key)} == lower
            dense = full.to_dense()
            for i, j in full.layout.iter_tiles():
                rs, cs = full.layout.tile_slice(i, j)
                expect = dense[rs, cs] if (i, j) in lower else 0.0
                assert np.all(work.get_tile(i, j).to_float64() == expect)

    @pytest.mark.parametrize("how", ["reference", "serial"])
    def test_kernel_untouched_by_an_indefinite_attempt(self, rng, how):
        with TileStore(budget_bytes=4 * self.TILE_BYTES) as store:
            a = spd(rng, self.N)
            a[-3, -3] = -1.0e6  # a late pivot: most of the factor is written
            kernel = TileMatrix.from_dense(a, TILE, Precision.FP32,
                                           symmetric=True)
            kernel.attach_store(store)
            spill_all(store)
            before = kernel.to_dense()
            size = kernel._binding._segment.path.stat().st_size
            rt = None if how == "reference" else Runtime(execution=how)
            with pytest.raises(np.linalg.LinAlgError):
                cholesky(kernel, runtime=rt)
            assert np.array_equal(kernel.to_dense(), before)
            assert store.verify().clean
            assert kernel._binding._segment.path.stat().st_size == size

    def test_kernel_untouched_by_a_failed_segment_write(self, stored):
        kernel, store, check = stored
        # the 12th write of the factorization and its one retry both fail
        plan = FaultPlan([FaultSite(site=SITE_SEGMENT_WRITE, kind="oserror",
                                    after=11, times=2)])
        with fault_plan(plan):
            with pytest.raises(TaskGroupError) as err:
                # fail-fast whatever REPRO_TASK_RETRIES says: a retried
                # task would find the fault spent and succeed
                cholesky(kernel, runtime=Runtime(execution="serial",
                                                 task_retries=0))
        assert plan.fired == 2
        assert err.value.matches(OSError)
        assert store.stats.io_retries >= 1
        check()


class TestNoMapping:
    def test_store_sources_do_not_map_files(self):
        for path in Path(repro.store.__file__).parent.glob("*.py"):
            assert "mmap" not in path.read_text(), path.name

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="/proc/self/maps")
    def test_no_segment_is_mapped_after_a_store_backed_fit(self, rng):
        from repro.gwas import KRRConfig, KRRSession
        from repro.gwas.config import PrecisionPlan

        g = rng.integers(0, 3, size=(192, 64)).astype(np.int8)
        y = rng.standard_normal((192, 2))
        session = KRRSession(KRRConfig(
            tile_size=32, execution="serial", store_budget_bytes=4 * 32 * 32 * 4,
            precision_plan=PrecisionPlan.fp32()))
        try:
            session.fit(g, y)
            session.predict(g[:16])
            stats = session.store_stats()
            assert stats.spills > 0 and stats.reloads > 0
            assert any(session.store.directory.glob("seg-*.bin"))
            assert "seg-" not in Path("/proc/self/maps").read_text()
        finally:
            session.runtime.close()
            session.store.close()


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
