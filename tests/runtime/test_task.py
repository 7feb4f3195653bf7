"""Tests for tasks and data handles."""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.precision.formats import Precision
from repro.runtime.dag import TaskGraph
from repro.runtime.runtime import Runtime
from repro.runtime.task import (
    AccessMode,
    BodySpec,
    DataHandle,
    ObjectInput,
    Task,
    TaskSpec,
    TileInput,
)
from repro.tiles.matrix import TileMatrix
from tests.runtime.call import call


class TestAccessMode:
    def test_read_flags(self):
        assert AccessMode.READ.reads and not AccessMode.READ.writes
        assert AccessMode.WRITE.writes and not AccessMode.WRITE.reads
        assert AccessMode.READWRITE.reads and AccessMode.READWRITE.writes


class TestDataHandle:
    def test_nbytes_uses_precision(self):
        h = DataHandle("A", shape=(8, 8), precision=Precision.FP16)
        assert h.nbytes() == 128
        assert h.nbytes(Precision.FP64) == 512

    def test_unique_uids(self):
        a = DataHandle("x")
        b = DataHandle("x")
        assert a.uid != b.uid
        assert hash(a) != hash(b)

    def test_scalar_handle(self):
        h = DataHandle("s", shape=(), precision=Precision.FP32)
        assert h.nbytes() == 4


class TestTask:
    def test_reads_and_writes(self):
        a = DataHandle("A")
        b = DataHandle("B")
        t = Task("gemm", ((a, AccessMode.READ), (b, AccessMode.READWRITE)))
        assert t.reads == (a, b)
        assert t.writes == (b,)

    def test_mode_coercion_from_string_value(self):
        a = DataHandle("A")
        t = Task("k", ((a, "RW"),))
        assert t.accesses[0][1] is AccessMode.READWRITE

    def test_execute_inplace_body(self):
        """A task that writes no handle returns no output."""
        a = DataHandle("A", payload=np.ones(3))
        calls = []

        def record(x):
            calls.append(x.sum())
            return ()

        t = Task("noop", ((a, AccessMode.READ),), spec=call(record))
        t.execute()
        assert calls == [3.0]

    def test_execute_returns_new_payload(self):
        a = DataHandle("A", payload=np.ones(3))
        b = DataHandle("B", payload=np.zeros(3))
        t = Task("copy", ((a, AccessMode.READ), (b, AccessMode.WRITE)),
                 spec=call(lambda x, y: x * 2))
        t.execute()
        np.testing.assert_array_equal(b.payload, [2, 2, 2])
        np.testing.assert_array_equal(a.payload, [1, 1, 1])

    def test_execute_output_count_mismatch(self):
        a = DataHandle("A", payload=1.0)
        t = Task("bad", ((a, AccessMode.READ),), spec=call(lambda x: (x, x)))
        with pytest.raises(RuntimeError, match="outputs"):
            t.execute()

    def test_no_body_is_noop(self):
        t = Task("empty", ())
        t.execute()  # must not raise


@dataclass(frozen=True)
class _Sum(BodySpec):
    """Sums whatever it is handed (tiles by their values), ``copies`` times."""

    copies: int = 1

    def run(self, *args):
        total = sum(np.asarray(getattr(a, "data", a), dtype=np.float64)
                    for a in args)
        return total if self.copies == 1 else (total,) * self.copies


class TestInlineDescriptor:
    """``Task.execute`` runs the descriptor itself — what the serial and
    threaded drains do — resolving inputs like the process coordinator."""

    @pytest.fixture
    def matrix(self):
        return TileMatrix.from_dense(np.arange(16.0).reshape(4, 4), 2,
                                     Precision.FP64)

    def test_handles_mode_passes_payloads_and_writes_the_handle(self):
        a = DataHandle("A", payload=np.ones(3))
        b = DataHandle("B", payload=np.full(3, 2.0))
        t = Task("sum", ((a, AccessMode.READ), (b, AccessMode.READWRITE)),
                 spec=TaskSpec(_Sum()))
        t.execute()
        np.testing.assert_array_equal(b.payload, [3, 3, 3])
        np.testing.assert_array_equal(a.payload, [1, 1, 1])

    def test_aux_mode_ignores_payloads(self, matrix):
        token = DataHandle("token", payload=None)  # a pure sync handle
        t = Task("sum", ((token, AccessMode.READWRITE),),
                 spec=TaskSpec(_Sum(), mode="aux",
                               aux=(TileInput(matrix, (0, 1)),
                                    ObjectInput(np.ones((2, 2)), key="one"))))
        t.execute()
        np.testing.assert_array_equal(token.payload, [[3, 4], [7, 8]])

    def test_both_mode_is_payloads_then_aux(self, matrix):
        order = []

        @dataclass(frozen=True)
        class Order(BodySpec):
            def run(self, *args):
                order.extend(type(a).__name__ for a in args)
                return 0.0

        h = DataHandle("x", payload=1.5)
        Task("k", ((h, AccessMode.READWRITE),),
             spec=TaskSpec(Order(), mode="both",
                           aux=(TileInput(matrix, (1, 1)),))).execute()
        assert order == ["float", "Tile"]
        assert h.payload == 0.0

    def test_tile_input_is_read_when_the_task_runs(self, matrix):
        h = DataHandle("out")
        t = Task("sum", ((h, AccessMode.WRITE),),
                 spec=TaskSpec(_Sum(), mode="aux",
                               aux=(TileInput(matrix, (0, 0)),)))
        matrix.set_tile(0, 0, np.full((2, 2), 9.0))  # after insertion
        t.execute()
        np.testing.assert_array_equal(h.payload, np.full((2, 2), 9.0))

    def test_on_complete_receives_outputs_instead_of_the_handles(self, matrix):
        token = DataHandle("token", payload="untouched")
        t = Task("sum", ((token, AccessMode.READWRITE),),
                 spec=TaskSpec(
                     _Sum(), mode="aux", aux=(TileInput(matrix, (1, 0)),),
                     on_complete=lambda out: matrix.set_tile(0, 0, out)))
        t.execute()
        assert token.payload == "untouched"
        np.testing.assert_array_equal(matrix.get_tile(0, 0).data,
                                      matrix.get_tile(1, 0).data)

    def test_output_count_mismatch(self):
        a = DataHandle("A", payload=1.0)
        b = DataHandle("B")
        t = Task("bad", ((a, AccessMode.READ), (b, AccessMode.WRITE)),
                 spec=TaskSpec(_Sum(copies=2)))
        with pytest.raises(RuntimeError, match="returned 2 outputs for 1"):
            t.execute()

    def test_body_and_descriptor_together_are_rejected(self):
        """A task is its descriptor: no ``body`` can be given beside it."""
        a = DataHandle("A", payload=1.0)
        access = (a, AccessMode.READWRITE)
        both = dict(body=lambda x: x, spec=TaskSpec(_Sum()))
        with pytest.raises(TypeError, match="body"):
            Task("twin", (access,), **both)
        with pytest.raises(TypeError, match="body"):
            TaskGraph().insert_task("twin", access, **both)
        rt = Runtime(execution="serial")
        h = rt.register_data("A", payload=1.0)
        with pytest.raises(TypeError, match="body"):
            rt.insert_task("twin", (h, AccessMode.READWRITE), **both)
        assert rt.num_tasks() == 0
