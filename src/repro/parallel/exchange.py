"""Tile exchange between the coordinator and workers.

Only :class:`PayloadRef` descriptors travel over the control pipe; the
payload bytes themselves land in per-producer append-only *segment
files* in a shared temporary directory, mmap'd by readers.  This
mirrors the out-of-core store's spill segments: the bytes written are
the exact native-precision encoding of each tile (see
:mod:`repro.parallel.payload`), so the file contents double as the
zero-copy wire format.  The directory comes from ``tempfile``, so
``TMPDIR`` places it (``TMPDIR=/dev/shm`` keeps it in memory on hosts
whose temp filesystem is a slow mount).

Each producer (the coordinator and every worker) appends to its own
segment, so no write ever races another; readers locate bytes by
``(segment, offset, length)`` and the coordinator guarantees, through
DAG ordering, that a ref is only read after its producer flushed it.

Between drains the coordinator broadcasts a reset: writers truncate
their segments and every reader drops its mmap and decode caches, so
exchange storage does not grow across phases.
"""

from __future__ import annotations

import mmap
import os
from collections import OrderedDict
from dataclasses import dataclass

from repro.parallel.payload import decode_obj, encode_obj

__all__ = ["ExchangeSpec", "PayloadRef", "TileExchange"]

#: Decoded-payload LRU entries kept per worker (:meth:`TileExchange
#: .get_cached`).  Bounds memory while keeping hot panel tiles (read by
#: every task in a trailing update) decoded exactly once per process.
_DECODE_CACHE_MAX = 64


@dataclass(frozen=True)
class ExchangeSpec:
    """Picklable description of an exchange, shipped to workers."""

    directory: str


@dataclass(frozen=True)
class PayloadRef:
    """Locator of one encoded payload inside the exchange."""

    segment: str  #: segment file path
    offset: int
    length: int
    kind: str  #: payload kind (see repro.parallel.payload)
    meta: tuple  #: small metadata items, e.g. (("precision", "fp32"), ...)

    def meta_dict(self) -> dict:
        return dict(self.meta)


# ----------------------------------------------------------------------
# segment files
# ----------------------------------------------------------------------
class _SegmentWriter:
    def __init__(self, path: str) -> None:
        self.path = path
        self._file = open(path, "ab")

    def append(self, data: bytes) -> tuple[str, int, int]:
        offset = self._file.tell()
        self._file.write(data)
        self._file.flush()
        return self.path, offset, len(data)

    def reset(self) -> None:
        self._file.truncate(0)
        self._file.seek(0)

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:  # pragma: no cover - close is best effort
            pass


class _SegmentReader:
    def __init__(self) -> None:
        self._maps: dict[str, mmap.mmap] = {}

    def read(self, segment: str, offset: int, length: int) -> bytes:
        if length == 0:
            return b""
        end = offset + length
        mapped = self._maps.get(segment)
        if mapped is None or len(mapped) < end:
            # The producer's segment grew past our last mapping (or we
            # never mapped it): re-map the whole file.  The producer
            # flushed before publishing the ref, so `end` is on disk.
            with open(segment, "rb") as f:
                remapped = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
            if mapped is not None:
                mapped.close()
            self._maps[segment] = remapped
            mapped = remapped
        return mapped[offset:end]

    def clear(self) -> None:
        for mapped in self._maps.values():
            mapped.close()
        self._maps.clear()


# ----------------------------------------------------------------------
# facade
# ----------------------------------------------------------------------
class TileExchange:
    """One process's endpoint of the exchange (producer + reader)."""

    def __init__(self, spec: ExchangeSpec, producer_tag: str) -> None:
        self.spec = spec
        self.producer_tag = producer_tag
        path = os.path.join(spec.directory, f"{producer_tag}.seg")
        self._writer = _SegmentWriter(path)
        self._reader = _SegmentReader()
        self._decoded: OrderedDict[tuple, object] = OrderedDict()

    # -- producer side -------------------------------------------------
    def put(self, obj: object) -> PayloadRef:
        kind, meta, raw = encode_obj(obj)
        segment, offset, length = self._writer.append(raw)
        return PayloadRef(segment=segment, offset=offset, length=length,
                          kind=kind, meta=tuple(sorted(meta.items())))

    # -- reader side ---------------------------------------------------
    def get(self, ref: PayloadRef) -> object:
        """The payload behind ``ref``, decoded afresh and kept nowhere:
        the coordinator reads each ref once, so a Build row it stores as
        tiles is freed at once."""
        raw = self._reader.read(ref.segment, ref.offset, ref.length)
        return decode_obj(ref.kind, ref.meta_dict(), raw)

    def get_cached(self, ref: PayloadRef) -> object:
        """:meth:`get` through an LRU, for a worker's re-read panel tiles."""
        key = (ref.segment, ref.offset, ref.length, ref.kind)
        if key in self._decoded:
            self._decoded.move_to_end(key)
            return self._decoded[key]
        obj = self.get(ref)
        self._decoded[key] = obj
        if len(self._decoded) > _DECODE_CACHE_MAX:
            self._decoded.popitem(last=False)
        return obj

    # -- lifecycle -----------------------------------------------------
    def reset(self) -> None:
        """Truncate this producer's segment and drop all reader state.

        Refs published before a reset are invalid after it; the
        coordinator only resets between drains, when no refs are live.
        """
        self._writer.reset()
        self._reader.clear()
        self._decoded.clear()

    def close(self) -> None:
        self._writer.close()
        self._reader.clear()
        self._decoded.clear()
