"""Tests for the communication engine and conversion-placement policy."""

import pytest

from repro.precision.formats import Precision
from repro.runtime.comm import (
    CommunicationEngine,
    ConversionPolicy,
    decide_conversion_side,
)
from repro.runtime.task import DataHandle


class TestConversionSide:
    def test_equal_precisions_no_conversion(self):
        assert decide_conversion_side(Precision.FP32, Precision.FP32) is \
            ConversionPolicy.NONE

    def test_narrower_destination_converts_at_sender(self):
        assert decide_conversion_side(Precision.FP32, Precision.FP16) is \
            ConversionPolicy.SENDER

    def test_wider_destination_converts_at_receiver(self):
        assert decide_conversion_side(Precision.FP8_E4M3, Precision.FP32) is \
            ConversionPolicy.RECEIVER


class TestWirePrecision:
    def test_adaptive_picks_narrower(self):
        engine = CommunicationEngine(adaptive_conversion=True)
        assert engine.wire_precision(Precision.FP32, Precision.FP16) is Precision.FP16
        assert engine.wire_precision(Precision.FP16, Precision.FP32) is Precision.FP16

    def test_non_adaptive_ships_source(self):
        engine = CommunicationEngine(adaptive_conversion=False)
        assert engine.wire_precision(Precision.FP32, Precision.FP16) is Precision.FP32


class TestLedger:
    def _handle(self, precision=Precision.FP32):
        return DataHandle("K(1,0)", shape=(32, 32), precision=precision)

    def test_record_transfer_bytes(self):
        engine = CommunicationEngine()
        record = engine.record_transfer(self._handle(), 0, 1, Precision.FP16)
        assert record.bytes_moved == 32 * 32 * 2  # FP16 on the wire
        assert record.policy is ConversionPolicy.SENDER
        assert engine.total_bytes == record.bytes_moved
        assert engine.num_transfers == 1

    def test_non_adaptive_moves_more_bytes(self):
        adaptive = CommunicationEngine(adaptive_conversion=True)
        baseline = CommunicationEngine(adaptive_conversion=False)
        for engine in (adaptive, baseline):
            engine.record_transfer(self._handle(Precision.FP32), 0, 1, Precision.FP16)
        assert adaptive.total_bytes < baseline.total_bytes

    def test_bytes_by_policy(self):
        engine = CommunicationEngine()
        engine.record_transfer(self._handle(Precision.FP32), 0, 1, Precision.FP16)
        engine.record_transfer(self._handle(Precision.FP16), 1, 0, Precision.FP32)
        by_policy = engine.bytes_by_policy()
        assert ConversionPolicy.SENDER in by_policy
        assert ConversionPolicy.RECEIVER in by_policy

    def test_reset(self):
        engine = CommunicationEngine()
        engine.record_transfer(self._handle(), 0, 1, Precision.FP32)
        engine.reset()
        assert engine.num_transfers == 0
        assert engine.total_bytes == 0
