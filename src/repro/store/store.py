"""Out-of-core tile store: budgeted residency with spill/reload.

``TileStore`` backs :class:`~repro.tiles.matrix.TileMatrix` objects with
**spill segments** on disk: when the resident tile bytes of all bound
matrices exceed ``budget_bytes``, unpinned tiles — during a drain the
one whose next use in the drain's own order is farthest, otherwise the
least recently used — are encoded to their *native storage precision*
bytes (the same fp64/32/16 and 1-byte FP8 codecs the fitted-model
artifacts use, see :mod:`repro.tiles.serialize`), checksummed and
written to a segment file in one positional write from the encoded
array's buffer; a later access reads the slot back in one positional
read, verifies it and adopts the bytes as the tile, bit for bit.
Because tile payloads are always quantized to their precision's value
grid, the spill round-trip is **exact** — an out-of-core run produces
bitwise the same results as a fully-resident one, for any budget.

Layout on disk: one append-mostly segment file per bound matrix plus an
in-memory offset index ``{(i, j): slot}``.  A re-spill of a tile whose
encoded size is unchanged overwrites its slot in place (the common
spill/reload/spill cycle does not grow the file); slots shared between
matrices (``shallow_copy``, the factorization workspace of
``unpacked_lower``) are immutable and superseded by appends to the
writer's own segment — copy-on-write at tile granularity.

Concurrency contract (the part that makes threaded DAG execution safe):

* every grid mutation of a store-backed matrix — fault-in, ``set_tile``,
  eviction — happens under the **store lock**, then the matrix grid
  lock (always in that order);
* eviction never selects a tile pinned by an in-flight task
  (:class:`~repro.store.stats.ResidencyManager` refcounts pins);
* readers that race an eviction simply fault the tile back in — the
  reload is bitwise, so correctness never depends on pin timing; pins
  exist to keep the working set resident, not to guard values;
* every reload happens on demand, on the thread that reads the tile,
  under the store lock: the store starts no thread, so a serial drain
  makes the same spills and reloads on every run.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import weakref
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.precision.formats import Precision
from repro.resilience.errors import StoreCorruptionError
from repro.resilience.faults import (
    SITE_CORRUPT_READ,
    SITE_SEGMENT_READ,
    SITE_SEGMENT_WRITE,
    SITE_SLOW_READ,
    active_plan,
)
from repro.store.stats import ResidencyManager, StoreStats
from repro.tiles.serialize import decode_payload, encode_payload
from repro.tiles.tile import Tile, retile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tiles.matrix import TileMatrix

__all__ = [
    "TileStore",
    "StoreBinding",
    "StoreCorruptionError",
    "StoreVerifyReport",
    "TileDep",
]

#: A task's declared tile dependency: ``(binding, (i, j))``.
TileDep = tuple["StoreBinding", tuple[int, int]]


# ----------------------------------------------------------------------
# segment files
# ----------------------------------------------------------------------
class _Segment:
    """One spill file: positional writes and reads on one unbuffered file.

    ``pwrite``/``pread`` carry their own offset, so no read or write
    depends on a shared file position, and nothing of the file stays
    mapped into the process.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self._file = None
        self.size = 0

    def _fd(self, create: bool) -> int:
        if self._file is None:
            # only a write creates the file: reading a segment that is
            # gone from disk must fail, not see a fresh empty one
            self._file = open(self.path, "w+b" if create else "r+b",
                              buffering=0)
        return self._file.fileno()

    def write(self, data, offset: int | None = None) -> int:
        """Write buffer ``data`` (at ``offset``, or appended); returns
        its offset."""
        plan = active_plan()
        if plan is not None:
            # fires before any state mutation so a retried write is clean
            plan.inject(SITE_SEGMENT_WRITE, str(self.path))
        if offset is None:
            offset = self.size
        view = memoryview(data).cast("B")
        done = 0
        while done < len(view):  # a short write is legal; finish it
            done += os.pwrite(self._fd(create=True), view[done:],
                              offset + done)
        self.size = max(self.size, offset + done)
        return offset

    def read(self, offset: int, length: int) -> bytes:
        """Read a slot in one positional read.

        Returns *short* bytes when the file is truncated on disk — the
        caller's integrity check turns that into a typed corruption
        error.  Missing or unreadable files surface as ``OSError``.
        """
        plan = active_plan()
        if plan is not None:
            plan.inject(SITE_SLOW_READ, str(self.path))
            plan.inject(SITE_SEGMENT_READ, str(self.path))
        buf = os.pread(self._fd(create=False), length, offset)
        if plan is not None:
            buf = plan.corrupt(SITE_CORRUPT_READ, buf, str(self.path))
        return buf

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


@dataclass
class _Slot:
    """Index record of one spilled tile in a segment."""

    segment: _Segment
    offset: int
    length: int
    dtype: str
    shape: tuple[int, ...]
    precision: Precision
    #: CRC32 of the slot's bytes, verified on every reload.
    crc: int = 0
    #: Bindings referencing this slot; in-place overwrite requires 1.
    owners: int = 1


@dataclass(frozen=True)
class StoreVerifyReport:
    """Outcome of a :meth:`TileStore.verify` scrub."""

    slots_checked: int = 0
    recovered: int = 0
    errors: tuple[StoreCorruptionError, ...] = field(default_factory=tuple)

    @property
    def clean(self) -> bool:
        return not self.errors


# ----------------------------------------------------------------------
# per-matrix binding
# ----------------------------------------------------------------------
class StoreBinding:
    """The store-side state of one bound :class:`TileMatrix`.

    Holds the spill index and performs the fault/spill/set moves for
    its matrix.  All entry points take the store lock, then (where grid
    mutation is needed) the matrix grid lock — the single lock order of
    the subsystem.
    """

    def __init__(self, store: "TileStore", bid: int,
                 matrix: "TileMatrix") -> None:
        self.store = store
        self.bid = bid
        self.matrix = weakref.ref(matrix)
        self.index: dict[tuple[int, int], _Slot] = {}
        #: Keys whose resident payload is bit-identical to their slot
        #: (eviction of a clean tile is a free drop, no write).
        self.clean: set[tuple[int, int]] = set()
        self._segment: _Segment | None = None

    # -- segment helpers ------------------------------------------------
    def _own_segment(self) -> _Segment:
        if self._segment is None:
            self._segment = self.store._new_segment(self.bid)
        return self._segment

    def _write_slot(self, key: tuple[int, int], raw: np.ndarray,
                    precision: Precision) -> _Slot:
        # checksummed and written from the encoded array's own buffer
        # (C order on disk; kernel outputs and codecs are C-ordered, so
        # this is a copy only for a transposed payload)
        raw = np.ascontiguousarray(raw)
        crc = zlib.crc32(raw)
        old = self.index.get(key)
        segment = self._own_segment()
        # in-place reuse (no file growth) only of a slot nobody shares
        reuse = (old is not None and old.owners == 1
                 and old.segment is segment and old.length == raw.nbytes)
        offset = old.offset if reuse else None
        try:
            offset = segment.write(raw, offset)
        except OSError:
            # one immediate retry absorbs transient I/O hiccups; a
            # second failure is a real storage problem and propagates
            self.store.residency.stats.io_retries += 1
            offset = segment.write(raw, offset)
        if old is not None and not reuse:
            old.owners -= 1  # superseded here; other owners keep reading it
        slot = _Slot(segment=segment, offset=offset, length=raw.nbytes,
                     dtype=raw.dtype.str, shape=tuple(raw.shape),
                     precision=precision, crc=crc)
        self.index[key] = slot
        return slot

    def _describe(self) -> str:
        m = self.matrix()
        if m is None:
            return f"store binding {self.bid} (matrix collected)"
        layout = getattr(m, "layout", None)
        if layout is not None:
            return (f"store binding {self.bid} "
                    f"({layout.rows}x{layout.cols} matrix)")
        return f"store binding {self.bid}"

    def _corruption(self, key: tuple[int, int], slot: _Slot,
                    reason: str) -> StoreCorruptionError:
        self.store.residency.stats.crc_failures += 1
        return StoreCorruptionError(
            matrix=self._describe(), coords=key, precision=slot.precision,
            path=slot.segment.path, reason=reason)

    def _read_slot(self, slot: _Slot, key: tuple[int, int]) -> np.ndarray:
        """Read and *verify* a slot's bytes (one transient-fault retry).

        Every reload path — demand fault-in, detach, verify — funnels
        through here, so no corrupted byte ever reaches a tile payload:
        length and CRC32 are checked against the offset index and a
        mismatch raises a typed :class:`StoreCorruptionError` naming the
        tile instead of an opaque reshape crash.
        """
        last_reason = "unreadable slot"
        for attempt in range(2):
            if attempt:
                self.store.residency.stats.io_retries += 1
            try:
                buf = slot.segment.read(slot.offset, slot.length)
            except OSError as exc:
                last_reason = f"segment read failed: {exc}"
                continue
            if len(buf) != slot.length:
                last_reason = (f"truncated slot: got {len(buf)} of "
                               f"{slot.length} bytes")
                continue
            if zlib.crc32(buf) != slot.crc:
                last_reason = "checksum mismatch (corrupted bytes)"
                continue
            return np.frombuffer(buf, dtype=slot.dtype).reshape(slot.shape)
        raise self._corruption(key, slot, last_reason)

    def _decode_slot(self, slot: _Slot, key: tuple[int, int]) -> np.ndarray:
        raw = self._read_slot(slot, key)
        try:
            return decode_payload(raw, slot.precision)
        except Exception as exc:
            raise self._corruption(
                key, slot, f"undecodable payload: {exc}") from exc

    def note_use(self, key: tuple[int, int]) -> None:
        """Recency bump for a resident read (lock-free, see stats.py)."""
        self.store.residency.note_use((self.bid, key))

    # -- fault-in -------------------------------------------------------
    def load(self, key: tuple[int, int],
             materialize_zeros: bool = True) -> Tile | None:
        """Return tile ``key``, faulting it in from its slot if spilled.

        Unwritten tiles materialize as zeros (matching the plain
        :class:`TileMatrix` semantics) unless ``materialize_zeros`` is
        False, in which case ``None`` is returned.
        """
        store = self.store
        with store._lock:
            return self._load_locked(key, materialize_zeros)

    def _load_locked(self, key: tuple[int, int],
                     materialize_zeros: bool) -> Tile | None:
        store = self.store
        m = self.matrix()
        if m is None:
            return None
        with m._grid_lock:
            tile = m._tiles.get(key)
        if tile is not None:
            store.residency.touch((self.bid, key))
            return tile
        slot = self.index.get(key)
        stats = store.residency.stats
        if slot is None:
            if not materialize_zeros:
                return None
            shape = m.layout.tile_shape(*key)
            tile = Tile(np.zeros(shape), precision=m.default_precision,
                        coords=key)
        else:
            payload = self._decode_slot(slot, key)
            tile = Tile._on_grid(payload, slot.precision, key)
            stats.reloads += 1
            stats.bytes_reloaded += slot.length
        store._evict_to_fit(tile.nbytes, exclude=(self.bid, key))
        with m._grid_lock:
            m._tiles[key] = tile
        store.residency.add((self.bid, key), tile.nbytes)
        if slot is not None:
            self.clean.add(key)  # resident bits == slot bits
        else:
            self.clean.discard(key)
        return tile

    # -- writes ---------------------------------------------------------
    def set(self, key: tuple[int, int], payload: "np.ndarray | Tile",
            precision: Precision | None) -> None:
        """Store-side ``set_tile``: replace the tile under the store lock."""
        store = self.store
        with store._lock:
            m = self.matrix()
            if m is None:
                return
            if precision is None:
                with m._grid_lock:
                    cur = m._tiles.get(key)
                if cur is not None:
                    precision = cur.precision
                else:
                    slot = self.index.get(key)
                    precision = (slot.precision if slot is not None
                                 else m.default_precision)
            tile = retile(payload, precision, key)
            self.clean.discard(key)  # any existing slot is now stale
            store._evict_to_fit(tile.nbytes, exclude=(self.bid, key))
            with m._grid_lock:
                m._tiles[key] = tile
            store.residency.add((self.bid, key), tile.nbytes)

    def adopt(self, key: tuple[int, int], raw: np.ndarray,
              precision: Precision) -> None:
        """Register an already-encoded tile as *spilled* (not resident).

        This is how store-backed artifact loading streams an ``.npz``
        straight onto disk: each tile's native bytes go to the segment
        and fault in lazily, so opening a model costs near-zero
        resident tile bytes.
        """
        with self.store._lock:
            m = self.matrix()
            if m is not None:
                with m._grid_lock:
                    resident = key in m._tiles
                if resident:
                    raise RuntimeError(
                        f"tile {key} is already resident; adopt() is for "
                        "spill-only registration")
            self._write_slot(key, raw, precision)
            self.clean.discard(key)

    # -- introspection --------------------------------------------------
    def has_data(self, key: tuple[int, int]) -> bool:
        with self.store._lock:
            m = self.matrix()
            if m is not None:
                with m._grid_lock:
                    if key in m._tiles:
                        return True
            return key in self.index

    def tile_precision(self, key: tuple[int, int]) -> Precision | None:
        with self.store._lock:
            m = self.matrix()
            if m is not None:
                with m._grid_lock:
                    tile = m._tiles.get(key)
                if tile is not None:
                    return tile.precision
            slot = self.index.get(key)
            return slot.precision if slot is not None else None

    def logical_nbytes(self) -> int:
        """Storage footprint of all tiles, resident *or* spilled."""
        with self.store._lock:
            m = self.matrix()
            tiles = {}
            if m is not None:
                with m._grid_lock:
                    tiles = dict(m._tiles)
            total = sum(t.nbytes for t in tiles.values())
            total += sum(slot.length for key, slot in self.index.items()
                         if key not in tiles)
            return total

    def resident_nbytes(self) -> int:
        """Declared bytes of this matrix's resident tiles (what a budget
        sees): ``Tile.nbytes``, the format's bytes per element, not the
        container's, so an FP8 tile counts 1 byte an element while RAM
        holds a 4-byte float32 (ROADMAP item 23(a))."""
        with self.store._lock:
            m = self.matrix()
            if m is None:
                return 0
            with m._grid_lock:
                return sum(t.nbytes for t in m._tiles.values())

    def footprint_by_precision(self) -> dict[Precision, int]:
        with self.store._lock:
            m = self.matrix()
            tiles = {}
            if m is not None:
                with m._grid_lock:
                    tiles = dict(m._tiles)
            out: dict[Precision, int] = {}
            for t in tiles.values():
                out[t.precision] = out.get(t.precision, 0) + t.nbytes
            for key, slot in self.index.items():
                if key not in tiles:
                    out[slot.precision] = out.get(slot.precision, 0) + slot.length
            return out

    # -- lifecycle ------------------------------------------------------
    def detach(self) -> None:
        """Fault every spilled tile in and unbind from the store.

        Residency becomes unmanaged (and unbounded) afterwards — this
        is the escape hatch back to a fully-resident matrix.
        """
        store = self.store
        with store._lock:
            m = self.matrix()
            if m is not None:
                for key in list(self.index):
                    with m._grid_lock:
                        resident = key in m._tiles
                    if not resident:
                        slot = self.index[key]
                        payload = self._decode_slot(slot, key)
                        with m._grid_lock:
                            m._tiles[key] = Tile._on_grid(
                                payload, slot.precision, key)
                m._binding = None
            store._drop_binding(self.bid)


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
class TileStore:
    """Budgeted out-of-core backing store for tile matrices.

    Parameters
    ----------
    directory:
        Where segment files live.  ``None`` creates a private directory
        under ``TMPDIR`` that is removed when the store is closed or
        garbage collected; an explicit directory is left in place (only
        the ``seg-*.bin`` files are removed on close).
    budget_bytes:
        Residency budget over all bound matrices (storage-precision
        bytes).  ``None`` disables eviction — the store then only spills
        on request (``adopt``) and for artifact-backed loads.

    A spilled tile comes back when something reads it, on the reading
    thread; the store starts no thread of its own.
    """

    def __init__(self, directory: str | Path | None = None,
                 budget_bytes: int | None = None) -> None:
        self._lock = threading.RLock()
        self.residency = ResidencyManager(budget_bytes)
        self._owns_directory = directory is None
        self.directory = Path(tempfile.mkdtemp(prefix="repro-store-")
                              if directory is None else directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._bindings: dict[int, StoreBinding] = {}
        self._next_bid = 0
        self._segments: list[_Segment] = []
        self._closed = False

        # GC-time cleanup must not resurrect the store: capture only the
        # state the janitor needs.
        self._finalizer = weakref.finalize(
            self, TileStore._janitor, self._segments, self.directory,
            self._owns_directory)

    # ------------------------------------------------------------------
    @property
    def budget_bytes(self) -> int | None:
        return self.residency.budget_bytes

    @property
    def stats(self) -> StoreStats:
        """The live counters (use ``.snapshot()`` for a stable copy)."""
        return self.residency.stats

    def resident_bytes(self) -> int:
        with self._lock:
            return self.residency.stats.resident_bytes

    # ------------------------------------------------------------------
    # binding lifecycle
    # ------------------------------------------------------------------
    def bind(self, matrix: "TileMatrix") -> StoreBinding:
        """Bind ``matrix``: its tiles become budget-managed.

        Already-resident tiles are accounted immediately (and may be
        spilled right away if they exceed the budget).
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("TileStore is closed")
            bid = self._next_bid
            self._next_bid += 1
            binding = StoreBinding(self, bid, matrix)
            self._bindings[bid] = binding
            with matrix._grid_lock:
                tiles = dict(matrix._tiles)
            for key, tile in tiles.items():
                self.residency.add((bid, key), tile.nbytes)
            weakref.finalize(matrix, self._purge_binding, bid)
            self._evict_to_fit(0)
            return binding

    def clone_binding(self, source: "TileMatrix", target: "TileMatrix",
                      keys=None) -> StoreBinding:
        """Bind ``target`` as a shallow copy of ``source``'s binding.

        The resident tile grid is copied atomically (sharing the tile
        objects — copy-on-write at tile granularity, exactly like
        :meth:`TileMatrix.shallow_copy`), and spill slots are shared
        read-only; a later re-spill from either matrix appends a fresh
        slot to its own segment.  ``keys`` restricts the copy to those
        tiles (the lower triangle of a factorization workspace).
        Shared tiles are accounted once per binding, so the budget view
        is conservative.
        """
        src_binding = source._binding
        if src_binding is None or src_binding.store is not self:
            raise ValueError("source matrix is not bound to this store")
        with self._lock:
            if self._closed:
                raise RuntimeError("TileStore is closed")
            bid = self._next_bid
            self._next_bid += 1
            binding = StoreBinding(self, bid, target)
            with source._grid_lock:
                tiles = {k: t for k, t in source._tiles.items()
                         if keys is None or k in keys}
            target._tiles = dict(tiles)
            binding.index = {k: slot for k, slot in src_binding.index.items()
                             if keys is None or k in keys}
            for slot in binding.index.values():
                slot.owners += 1
            binding.clean = src_binding.clean & binding.index.keys()
            self._bindings[bid] = binding
            # Account shared tiles one at a time, evicting to fit before
            # each: a shallow copy allocates no new payloads, so the
            # accounted peak must not spike by the duplicated bytes —
            # instead the oldest (typically the source's copies) spills
            # until the duplicated residency fits the budget.
            for key, tile in tiles.items():
                self._evict_to_fit(tile.nbytes, exclude=(bid, key))
                self.residency.add((bid, key), tile.nbytes)
            weakref.finalize(target, self._purge_binding, bid)
            return binding

    def _drop_binding(self, bid: int) -> None:
        """Forget a binding (caller holds the lock or is single-owner)."""
        binding = self._bindings.pop(bid, None)
        if binding is not None:
            for slot in binding.index.values():
                slot.owners -= 1
            self.residency.remove_binding(bid)

    def _purge_binding(self, bid: int) -> None:
        """GC callback: a bound matrix died; drop its store state."""
        with self._lock:
            self._drop_binding(bid)

    def _new_segment(self, bid: int) -> _Segment:
        segment = _Segment(self.directory / f"seg-{bid:05d}.bin")
        self._segments.append(segment)
        return segment

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------
    def _evict_to_fit(self, incoming: int,
                      exclude: tuple[int, tuple[int, int]] | None = None
                      ) -> None:
        """Evict unpinned tiles (the residency manager's choice: farthest
        next use under a drain's plan, else LRU) until ``incoming``
        bytes fit.

        Called under the store lock, *before* the incoming tile enters
        the grid — which is what keeps the accounted peak residency
        under the budget whenever the pinned working set fits.
        """
        victims = self.residency.victims_to_fit(incoming, exclude,
                                                self._dirty)
        if victims is None:
            return
        for victim in victims:
            self._evict_one(victim)

    def _dirty(self, entry: tuple[int, tuple[int, int]]) -> bool:
        """Evicting ``entry`` costs a segment write (it is not a drop)."""
        binding = self._bindings.get(entry[0])
        return binding is not None and entry[1] not in binding.clean

    def _evict_one(self, entry: tuple[int, tuple[int, int]]) -> None:
        bid, key = entry
        binding = self._bindings.get(bid)
        if binding is None:
            self.residency.remove(entry)
            return
        m = binding.matrix()
        if m is None:
            self.residency.remove(entry)
            return
        with m._grid_lock:
            tile = m._tiles.get(key)
        if tile is None:
            self.residency.remove(entry)
            return
        stats = self.residency.stats
        slot = binding.index.get(key)
        if key in binding.clean and slot is not None:
            stats.drops += 1
        else:
            raw = encode_payload(tile.data, tile.precision)
            slot = binding._write_slot(key, raw, tile.precision)
            stats.spills += 1
            stats.bytes_spilled += slot.length
        with m._grid_lock:
            # all grid writes of store-backed matrices hold the store
            # lock, so the tile cannot have been replaced — defensive
            if m._tiles.get(key) is tile:
                del m._tiles[key]
        binding.clean.discard(key)
        self.residency.remove(entry)

    # ------------------------------------------------------------------
    # integrity scrub
    # ------------------------------------------------------------------
    def verify(self, repair: bool = True) -> StoreVerifyReport:
        """Scrub every spill slot against its recorded CRC32.

        With ``repair`` (the default), a corrupted slot whose tile is
        still resident is transparently re-spilled from the resident
        payload — the crash-recovery move for slots dirtied by a torn
        write or bit rot while the good copy is still in memory.  Slots
        with no resident copy cannot be repaired; their typed errors
        are returned in the report (``verify`` scrubs everything rather
        than raising at the first hit).
        """
        with self._lock:
            checked = recovered = 0
            errors: list[StoreCorruptionError] = []
            for binding in list(self._bindings.values()):
                m = binding.matrix()
                for key, slot in list(binding.index.items()):
                    checked += 1
                    try:
                        binding._read_slot(slot, key)
                        continue
                    except StoreCorruptionError as exc:
                        error = exc
                    tile = None
                    if m is not None:
                        with m._grid_lock:
                            tile = m._tiles.get(key)
                    if repair and tile is not None:
                        raw = encode_payload(tile.data, tile.precision)
                        binding._write_slot(key, raw, tile.precision)
                        binding.clean.add(key)
                        recovered += 1
                        self.residency.stats.recovered_spills += 1
                    else:
                        errors.append(error)
            return StoreVerifyReport(slots_checked=checked,
                                     recovered=recovered,
                                     errors=tuple(errors))

    # ------------------------------------------------------------------
    # scheduler integration: the plan and pins
    # ------------------------------------------------------------------
    def set_plan(self, uses: dict, length: int) -> None:
        """Adopt a drain's order for eviction (see
        :meth:`ResidencyManager.set_plan`); empty ``uses`` is plain LRU."""
        with self._lock:
            self.residency.set_plan(uses, length)

    def pin(self, deps: Iterable[TileDep],
            position: int | None = None) -> None:
        """Pin tiles against eviction while a task is in flight;
        ``position`` is the task's place in the drain's plan."""
        with self._lock:
            if position is not None:
                self.residency.advance(position)
            for binding, key in deps:
                if binding.store is self:
                    self.residency.pin((binding.bid, key))

    def unpin(self, deps: Iterable[TileDep]) -> None:
        with self._lock:
            for binding, key in deps:
                if binding.store is self:
                    self.residency.unpin((binding.bid, key))

    def prefetch(self, deps: Iterable[TileDep]) -> None:
        """No-op, kept for callers of the former read-ahead: every
        reload happens on demand, so ``stats.prefetches`` stays 0."""

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Delete the segment files.

        Spilled tiles become unreadable — close only once every bound
        matrix is either detached or no longer needed.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._finalizer.detach()
        TileStore._janitor(self._segments, self.directory,
                           self._owns_directory)

    @staticmethod
    def _janitor(segments: list[_Segment], directory: Path,
                 owns_directory: bool) -> None:
        for segment in segments:
            segment.close()
            try:
                segment.path.unlink(missing_ok=True)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        if owns_directory:
            shutil.rmtree(directory, ignore_errors=True)

    def __enter__(self) -> "TileStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats
        budget = s.budget_bytes if s.budget_bytes is not None else "unbounded"
        return (f"TileStore({len(self._bindings)} matrices, "
                f"resident={s.resident_bytes}/{budget} B, "
                f"spills={s.spills}, reloads={s.reloads})")

