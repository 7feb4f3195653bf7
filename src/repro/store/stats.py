"""Counters of the out-of-core tile store.

``StoreStats`` is the observable contract of :class:`~repro.store.TileStore`:
the acceptance criterion of the out-of-core pipeline is *peak resident
tile bytes under budget with bitwise-identical results*, and these
counters are what tests, the ``oocore_fit`` workload of ``bench/`` and
the examples assert that claim against.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from math import inf


@dataclass
class StoreStats:
    """Accounting of one :class:`~repro.store.TileStore`.

    Attributes
    ----------
    budget_bytes:
        Residency budget the store enforces (``None`` = unbounded).
    resident_bytes:
        Tile bytes currently resident across all bound matrices,
        counted at each tile's *storage* precision (an FP8 tile costs
        one byte per element, mirroring the in-memory mosaic).
    peak_resident_bytes:
        High-water mark of ``resident_bytes``.  The out-of-core
        contract is ``peak_resident_bytes <= budget_bytes`` whenever
        the pinned working set fits the budget.
    spills:
        Tile payloads encoded and written to a segment file (dirty
        evictions).
    drops:
        Clean evictions: the resident payload was bit-identical to its
        spill slot, so eviction freed memory without writing.
    reloads:
        Tiles faulted back in from a segment file.
    prefetches:
        Reloads performed ahead of demand by the background reader.
    bytes_spilled, bytes_reloaded:
        Byte totals of the above (storage-precision bytes).
    budget_overflows:
        Times the store had to exceed the budget because every eviction
        candidate was pinned by an in-flight task.
    io_retries:
        Segment reads/writes re-attempted after a transient ``OSError``
        (each slot I/O gets one immediate retry before failing).
    crc_failures:
        Slot reads that failed the integrity check (truncation, CRC32
        mismatch, undecodable bytes) after retry — each surfaced as a
        typed :class:`~repro.resilience.errors.StoreCorruptionError`.
    recovered_spills:
        Corrupted slots rewritten from a still-resident tile by
        :meth:`~repro.store.TileStore.verify`.
    """

    budget_bytes: int | None = None
    resident_bytes: int = 0
    peak_resident_bytes: int = 0
    spills: int = 0
    drops: int = 0
    reloads: int = 0
    prefetches: int = 0
    bytes_spilled: int = 0
    bytes_reloaded: int = 0
    budget_overflows: int = 0
    io_retries: int = 0
    crc_failures: int = 0
    recovered_spills: int = 0

    def snapshot(self) -> "StoreStats":
        """Point-in-time copy (the live object keeps mutating)."""
        return replace(self)

    def to_dict(self) -> dict:
        """JSON-ready view (``bench/`` reads its ``store.*`` counters here)."""
        return {
            "budget_bytes": self.budget_bytes,
            "resident_bytes": self.resident_bytes,
            "peak_resident_bytes": self.peak_resident_bytes,
            "spills": self.spills,
            "drops": self.drops,
            "reloads": self.reloads,
            "prefetches": self.prefetches,
            "bytes_spilled": self.bytes_spilled,
            "bytes_reloaded": self.bytes_reloaded,
            "budget_overflows": self.budget_overflows,
            "io_retries": self.io_retries,
            "crc_failures": self.crc_failures,
            "recovered_spills": self.recovered_spills,
        }


@dataclass
class _Entry:
    """Residency record of one resident tile (keyed by (binding, key))."""

    nbytes: int
    pins: int = 0
    last_used: int = 0


class ResidencyManager:
    """Budgeted residency accounting with pin/unpin refcounts.

    The manager owns *which* tiles may stay resident; the
    :class:`~repro.store.TileStore` owns *how* they move (encode/decode,
    segment I/O, grid mutation).  All methods must be called under the
    store's lock — the manager itself is deliberately lock-free so the
    store can compose residency decisions with grid mutation atomically.

    While a drain's **plan** is set (:meth:`set_plan`: for every tile
    the drain's tasks declare, the positions in the drain's order that
    touch it) the victim is the tile whose next use is farthest — a
    tile no remaining task touches first, a clean one (a free drop)
    before a dirty one — which is the offline-optimal choice on a
    one-lane drain and an approximation on several lanes.  Without a
    plan, and as the tie-break within one, eviction order is
    least-recently-*used*, where "use" is a fault-in, a write, or any
    tile read (:meth:`note_use` — cheap enough for the lock-free read
    fast path, so a hot panel tile consumed by many trailing updates
    keeps its recency).  Pinned entries (tiles an in-flight task
    declared as inputs/outputs) are never selected, so a running task
    can never have a tile evicted under it.
    """

    def __init__(self, budget_bytes: int | None = None) -> None:
        if budget_bytes is not None and budget_bytes <= 0:
            raise ValueError("budget_bytes must be positive (or None)")
        self.budget_bytes = budget_bytes
        self.stats = StoreStats(budget_bytes=budget_bytes)
        # recency lives in each entry's last_used tick (victim scans
        # sort by it), NOT in dict order — so bumping recency is a
        # plain attribute write, safe without the store lock
        self._entries: dict[tuple[int, tuple[int, int]], _Entry] = {}
        self._tick = 0
        # pins may arrive before the tile is resident (a task is
        # dispatched, then faults its inputs in) — track them separately
        self._pending_pins: dict[tuple[int, tuple[int, int]], int] = {}
        # the running drain's order (see set_plan); None = plain LRU
        self._plan: dict[tuple[int, tuple[int, int]], list[int]] | None = None
        self._dispatched = bytearray()
        self._now = 0

    # ------------------------------------------------------------------
    # residency accounting
    # ------------------------------------------------------------------
    def resident(self, key: tuple[int, tuple[int, int]]) -> bool:
        return key in self._entries

    def add(self, key: tuple[int, tuple[int, int]], nbytes: int) -> None:
        """Record a tile becoming resident (fault-in or fresh write)."""
        old = self._entries.pop(key, None)
        pins = old.pins if old is not None else self._pending_pins.pop(key, 0)
        if old is not None:
            self.stats.resident_bytes -= old.nbytes
        self._entries[key] = _Entry(nbytes=int(nbytes), pins=pins)
        self.stats.resident_bytes += int(nbytes)
        if self.stats.resident_bytes > self.stats.peak_resident_bytes:
            self.stats.peak_resident_bytes = self.stats.resident_bytes
        self.touch(key)

    def remove(self, key: tuple[int, tuple[int, int]]) -> None:
        """Record a tile leaving residency (eviction or binding death)."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        self.stats.resident_bytes -= entry.nbytes
        if entry.pins:
            # evicting pinned entries is forbidden; this path is only
            # reached on binding teardown, where the pin is moot
            self._pending_pins[key] = entry.pins

    def touch(self, key: tuple[int, tuple[int, int]]) -> None:
        """Mark ``key`` most-recently-used."""
        self.note_use(key)

    def note_use(self, key: tuple[int, tuple[int, int]]) -> None:
        """Lock-free recency bump for the tile-read fast path.

        A dict read plus an attribute write — both atomic under the
        GIL — so store-backed ``get_tile`` can record every resident
        read without taking the store lock.  A racing eviction may drop
        the entry between lookup and write; the bump is then simply
        lost, which only costs a potential reload later.
        """
        entry = self._entries.get(key)
        if entry is not None:
            self._tick += 1
            entry.last_used = self._tick

    def entries(self) -> list[tuple[int, tuple[int, int]]]:
        """Resident entries, least-recently-used first."""
        order = sorted(self._entries.items(), key=lambda kv: kv[1].last_used)
        return [k for k, _ in order]

    def remove_binding(self, bid: int) -> None:
        """Drop every entry (and pending pin) of a dead binding."""
        for key in [k for k in self._entries if k[0] == bid]:
            entry = self._entries.pop(key)
            self.stats.resident_bytes -= entry.nbytes
        for key in [k for k in self._pending_pins if k[0] == bid]:
            del self._pending_pins[key]

    # ------------------------------------------------------------------
    # pinning
    # ------------------------------------------------------------------
    def pin(self, key: tuple[int, tuple[int, int]]) -> None:
        entry = self._entries.get(key)
        if entry is not None:
            entry.pins += 1
        else:
            self._pending_pins[key] = self._pending_pins.get(key, 0) + 1

    def unpin(self, key: tuple[int, tuple[int, int]]) -> None:
        entry = self._entries.get(key)
        if entry is not None:
            if entry.pins > 0:
                entry.pins -= 1
            return
        left = self._pending_pins.get(key, 0) - 1
        if left > 0:
            self._pending_pins[key] = left
        else:
            self._pending_pins.pop(key, None)

    def pinned(self, key: tuple[int, tuple[int, int]]) -> bool:
        entry = self._entries.get(key)
        if entry is not None:
            return entry.pins > 0
        return self._pending_pins.get(key, 0) > 0

    # ------------------------------------------------------------------
    # the drain's plan
    # ------------------------------------------------------------------
    def set_plan(self, uses: dict[tuple[int, tuple[int, int]], list[int]],
                 length: int) -> None:
        """Adopt a drain's order: ``uses[tile]`` is the ascending
        positions, out of ``length``, of the tasks touching that tile.
        An empty ``uses`` clears the plan."""
        self._plan = uses or None
        self._dispatched = bytearray(length)
        self._now = 0

    def advance(self, position: int) -> None:
        """The task at ``position`` was dispatched.  "Now" is the first
        position not dispatched yet, so tasks several lanes take out of
        order never hide an earlier one's tiles; the plan ends with its
        last dispatch.  A position past the plan (a second runtime on
        the same store replaced it mid-drain) is ignored."""
        if self._plan is None or position >= len(self._dispatched):
            return
        done = self._dispatched
        done[position] = 1
        while self._now < len(done) and done[self._now]:
            self._now += 1
        if self._now == len(done):
            self._plan = None

    # ------------------------------------------------------------------
    # eviction planning
    # ------------------------------------------------------------------
    def would_fit(self, incoming: int) -> bool:
        """True when ``incoming`` bytes fit without any eviction."""
        if self.budget_bytes is None:
            return True
        return self.stats.resident_bytes + int(incoming) <= self.budget_bytes

    def victims_to_fit(
        self, incoming: int,
        exclude: tuple[int, tuple[int, int]] | None = None,
        dirty=None,
    ) -> list[tuple[int, tuple[int, int]]] | None:
        """Victims whose eviction makes ``incoming`` bytes fit: farthest
        next use first under a plan (``dirty(key)`` says whose eviction
        costs a write), least recently used first otherwise.

        Returns ``None`` when the budget cannot be met even after
        evicting every unpinned candidate (the caller then proceeds
        over budget and the overflow is counted).
        """
        if self.budget_bytes is None:
            return []
        need = self.stats.resident_bytes + int(incoming) - self.budget_bytes
        if need <= 0:
            return []
        victims: list[tuple[int, tuple[int, int]]] = []
        plan, now = self._plan, self._now
        if plan is None:
            def rank(kv):
                return kv[1].last_used  # LRU -> MRU
        else:
            def rank(kv):
                uses = plan.get(kv[0], ())
                at = bisect_left(uses, now)  # first use from "now" on
                # a tile no remaining task touches is the farthest of all
                return (-(uses[at] if at < len(uses) else inf),
                        dirty is not None and dirty(kv[0]), kv[1].last_used)
        candidates = [kv for kv in self._entries.items()
                      if kv[1].pins == 0 and kv[0] != exclude]
        for key, entry in sorted(candidates, key=rank):
            victims.append(key)
            need -= entry.nbytes
            if need <= 0:
                return victims
        self.stats.budget_overflows += 1
        return None if not victims else victims
