"""Crash-safety of the tile store: on-disk damage surfaces typed.

Satellite of ISSUE 6: truncation, bit-flips and missing segment files
must raise :class:`~repro.store.StoreCorruptionError` naming the tile
(matrix, coordinates, precision, segment path) for every storage
precision — never a silent wrong answer or an opaque reshape crash —
and :meth:`~repro.store.TileStore.verify` must scrub and repair.
"""

import os

import numpy as np
import pytest

from repro.precision.formats import Precision
from repro.resilience.faults import no_faults
from repro.store import StoreCorruptionError, TileStore
from repro.tiles.matrix import TileMatrix
from tests.store import spill_all

TILE = 16

PRECISIONS = [Precision.FP64, Precision.FP32, Precision.FP16,
              Precision.FP8_E4M3]


def spd(rng, n=48):
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


def spilled_matrix(rng, store, precision):
    """A matrix attached to ``store`` with every tile spilled to disk."""
    tm = TileMatrix.from_dense(spd(rng), TILE, precision)
    tm.attach_store(store)
    spill_all(store)
    assert not tm._tiles, "all tiles must be on disk for these tests"
    return tm


def flip_byte(path, offset):
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ 0xFF]))


def a_slot(tm):
    """One (key, slot) pair of the matrix's spill index."""
    binding = tm._binding
    key = sorted(binding.index)[0]
    return key, binding.index[key]


class TestBitFlip:
    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_flipped_byte_raises_typed_error(self, rng, precision):
        with TileStore() as store:
            tm = spilled_matrix(rng, store, precision)
            key, slot = a_slot(tm)
            flip_byte(slot.segment.path, slot.offset + slot.length // 2)
            with pytest.raises(StoreCorruptionError) as err:
                tm.to_dense()
            assert err.value.coords == key
            assert err.value.precision == precision
            assert "checksum mismatch" in err.value.reason
            assert str(slot.segment.path) == str(err.value.path)
            assert store.stats.crc_failures >= 1

    def test_undamaged_tiles_still_load(self, rng):
        with TileStore() as store:
            tm = spilled_matrix(rng, store, Precision.FP32)
            key, slot = a_slot(tm)
            flip_byte(slot.segment.path, slot.offset)
            good = [k for k in tm._binding.index if k != key]
            for i, j in good:  # the damage is contained to one tile
                assert tm.get_tile(i, j).data is not None


class TestTruncation:
    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_truncated_segment_raises_typed_error(self, rng, precision):
        with TileStore() as store:
            tm = spilled_matrix(rng, store, precision)
            binding = tm._binding
            # truncate mid-slot of the *last* slot in the file
            key, slot = max(binding.index.items(),
                            key=lambda kv: kv[1].offset)
            os.truncate(slot.segment.path, slot.offset + slot.length // 2)
            with pytest.raises(StoreCorruptionError) as err:
                binding.load(key)
            assert err.value.coords == key
            assert "truncated slot" in err.value.reason


class TestMissingSegment:
    def test_unlinked_segment_raises_typed_error(self, rng):
        with TileStore() as store:
            tm = spilled_matrix(rng, store, Precision.FP64)
            key, slot = a_slot(tm)
            os.unlink(slot.segment.path)
            slot.segment.close()  # drop the mmap of the dead file
            with pytest.raises(StoreCorruptionError) as err:
                tm.to_dense()
            assert "segment read failed" in err.value.reason
            assert store.stats.io_retries >= 1  # the retry was attempted


class TestDemandReload:
    """Reloads run on demand with the store lock held, so a slot re-spilled
    in place is read whole and current, and a damaged one is counted
    once and installs nothing.  Injected faults are scoped out: the
    counts here are exact."""

    def test_slot_respilled_in_place_reads_its_new_bytes(self, rng):
        with no_faults(), TileStore() as store:
            tm = spilled_matrix(rng, store, Precision.FP32)
            key, slot = a_slot(tm)
            new = rng.normal(size=slot.shape)
            tm.set_tile(*key, new)
            spill_all(store)
            now = tm._binding.index[key]
            assert now is not slot and now.offset == slot.offset  # in place
            assert np.array_equal(tm.get_tile(*key).data,
                                  new.astype(np.float32))
            assert store.stats.crc_failures == 0
            assert store.stats.io_retries == 0

    def test_damaged_slot_counts_once_and_installs_nothing(self, rng):
        with no_faults(), TileStore() as store:
            tm = spilled_matrix(rng, store, Precision.FP32)
            key, slot = a_slot(tm)
            flip_byte(slot.segment.path, slot.offset + 1)
            with pytest.raises(StoreCorruptionError) as err:
                tm.get_tile(*key)
            assert err.value.coords == key
            assert key not in tm._tiles
            assert store.stats.crc_failures == 1
            assert store.stats.io_retries == 1
            assert store.stats.reloads == 0


class TestVerifyScrub:
    def test_clean_store_verifies_clean(self, rng):
        with TileStore() as store:
            tm = spilled_matrix(rng, store, Precision.FP32)
            report = store.verify()
            assert report.clean
            assert report.slots_checked == len(tm._binding.index)
            assert report.recovered == 0

    def test_resident_copy_repairs_corrupted_slot(self, rng):
        with TileStore() as store:
            tm = spilled_matrix(rng, store, Precision.FP32)
            ref = tm.to_dense().copy()  # faults everything back in
            key, slot = a_slot(tm)
            flip_byte(slot.segment.path, slot.offset + 1)
            report = store.verify()
            assert report.recovered == 1
            assert report.clean
            assert store.stats.recovered_spills == 1
            # the repaired slot round-trips bitwise again
            spill_all(store)
            np.testing.assert_array_equal(tm.to_dense(), ref)

    def test_unrepairable_slot_reported_not_raised(self, rng):
        with TileStore() as store:
            tm = spilled_matrix(rng, store, Precision.FP16)
            key, slot = a_slot(tm)
            flip_byte(slot.segment.path, slot.offset)
            report = store.verify()  # no resident copy: cannot repair
            assert not report.clean
            assert report.recovered == 0
            (error,) = report.errors
            assert error.coords == key
            assert isinstance(error, StoreCorruptionError)

    def test_verify_without_repair_only_reports(self, rng):
        with TileStore() as store:
            tm = spilled_matrix(rng, store, Precision.FP32)
            tm.to_dense()  # resident copies exist...
            key, slot = a_slot(tm)
            flip_byte(slot.segment.path, slot.offset + 2)
            report = store.verify(repair=False)
            assert not report.clean and report.recovered == 0  # ...unused
