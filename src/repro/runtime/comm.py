"""Communication accounting with precision-conversion placement.

Section VI-B1 of the paper describes a data-motion optimization unique
to the mixed-precision setting: before PaRSEC moves a tile between
ranks it compares the tile's current precision with the precision the
destination task needs and converts

* **at the sender** when the destination needs a *narrower* precision
  (ship fewer bytes), or
* **at the receiver** when the destination needs a *wider* precision
  (again ship fewer bytes — the narrow representation travels).

Either way the bytes on the wire correspond to the narrower of the two
formats.  :class:`CommunicationEngine` reproduces this policy and
keeps the byte ledger used by the data-motion experiments.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.precision.formats import Precision
from repro.runtime.task import DataHandle


class ConversionPolicy(enum.Enum):
    """Where a precision conversion is performed for a transfer."""

    SENDER = "sender"
    RECEIVER = "receiver"
    NONE = "none"


@dataclass(frozen=True)
class TransferRecord:
    """One tile transfer between devices."""

    handle_name: str
    src_device: int
    dst_device: int
    src_precision: Precision
    dst_precision: Precision
    bytes_moved: int
    policy: ConversionPolicy


def decide_conversion_side(src: Precision, dst: Precision) -> ConversionPolicy:
    """The paper's rule for where to convert a tile before moving it.

    Narrower destination → convert at the sender; wider destination →
    convert at the receiver; equal precisions → no conversion.
    """
    if src == dst:
        return ConversionPolicy.NONE
    if dst.narrower_than(src):
        return ConversionPolicy.SENDER
    return ConversionPolicy.RECEIVER


@dataclass
class CommunicationEngine:
    """Byte ledger for inter-device tile movement.

    Parameters
    ----------
    adaptive_conversion:
        When True (paper behaviour) the conversion-side rule above is
        applied and the wire format is the narrower of source and
        destination precisions.  When False the tile always travels in
        its source precision and any conversion happens at the
        receiver — the baseline the paper improves upon.
    """

    adaptive_conversion: bool = True
    transfers: list[TransferRecord] = field(default_factory=list)

    # ------------------------------------------------------------------
    def wire_precision(self, src: Precision, dst: Precision) -> Precision:
        if not self.adaptive_conversion:
            return src
        return Precision.narrowest(src, dst)

    def record_transfer(self, handle: DataHandle, src_device: int, dst_device: int,
                        required_precision: Precision) -> TransferRecord:
        """Account for moving ``handle`` to ``dst_device`` at ``required_precision``."""
        src_p = handle.precision
        wire_p = self.wire_precision(src_p, required_precision)
        policy = (
            decide_conversion_side(src_p, required_precision)
            if self.adaptive_conversion
            else (ConversionPolicy.NONE if src_p == required_precision
                  else ConversionPolicy.RECEIVER)
        )
        record = TransferRecord(
            handle_name=handle.name,
            src_device=src_device,
            dst_device=dst_device,
            src_precision=src_p,
            dst_precision=required_precision,
            bytes_moved=handle.nbytes(wire_p),
            policy=policy,
        )
        self.transfers.append(record)
        return record

    # ------------------------------------------------------------------
    # ledger queries
    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return sum(t.bytes_moved for t in self.transfers)

    @property
    def num_transfers(self) -> int:
        return len(self.transfers)

    def bytes_by_policy(self) -> dict[ConversionPolicy, int]:
        out: dict[ConversionPolicy, int] = {}
        for t in self.transfers:
            out[t.policy] = out.get(t.policy, 0) + t.bytes_moved
        return out

    def reset(self) -> None:
        self.transfers.clear()
