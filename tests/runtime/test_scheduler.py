"""Tests for the scheduler, the device model and graph replayer, traces,
and the Runtime facade."""

from functools import partial

import numpy as np
import pytest

from repro.precision.formats import Precision
from repro.runtime.dag import TaskGraph
from repro.runtime.device import DeviceModel, GENERIC_GPU, make_devices
from repro.runtime.replay import replay
from repro.runtime.runtime import Runtime
from repro.runtime.scheduler import Scheduler
from repro.runtime.task import AccessMode, DataHandle
from tests.runtime.call import call


# module-level task functions: ``Runtime()`` follows REPRO_EXECUTION, and
# the process lane pickles what it runs
def _double(x):
    return x * 2


def _plus_one(x, _written):
    return x + 1


def _same(x):
    return x


def _then(idx, done, _written):
    return done + [idx]


class TestDeviceModel:
    def test_throughput_fallbacks(self):
        assert GENERIC_GPU.throughput_for(Precision.FP16) == \
            GENERIC_GPU.throughput[Precision.FP16]
        # INT32 falls back to INT8
        assert GENERIC_GPU.throughput_for(Precision.INT32) == \
            GENERIC_GPU.throughput[Precision.INT8]

    def test_task_time(self):
        model = DeviceModel("d", {Precision.FP32: 1e12})
        assert model.task_time(1e12, Precision.FP32) == pytest.approx(1.0)

    def test_transfer_time_includes_latency(self):
        model = DeviceModel("d", {Precision.FP32: 1e12}, link_bandwidth=1e9,
                            link_latency=1e-5)
        assert model.transfer_time(0) == 0.0
        assert model.transfer_time(1e9) == pytest.approx(1.0 + 1e-5)

    def test_make_devices(self):
        devices = make_devices(3)
        assert len(devices) == 3
        assert [d.index for d in devices] == [0, 1, 2]
        with pytest.raises(ValueError):
            make_devices(0)


class TestRuntimeExecution:
    def test_correct_execution_order_and_results(self):
        rt = Runtime(workers=2)
        a = rt.register_data("a", payload=np.array([1.0]))
        b = rt.register_data("b", payload=np.array([0.0]))
        rt.insert_task("double", (a, AccessMode.READWRITE),
                       spec=call(_double), flops=10)
        rt.insert_task("copy", (a, AccessMode.READ), (b, AccessMode.WRITE),
                       spec=call(_plus_one), flops=10)
        result = rt.run()
        np.testing.assert_array_equal(a.payload, [2.0])
        np.testing.assert_array_equal(b.payload, [3.0])
        assert result.trace.num_tasks == 2

    def test_serial_drain_runs_readwrite_bodies_in_order(self):
        a = DataHandle("a", payload=1)
        g = TaskGraph()
        g.insert_task("double", (a, AccessMode.READWRITE),
                      spec=call(lambda x: x * 2))
        g.insert_task("inc", (a, AccessMode.READWRITE),
                      spec=call(lambda x: x + 1))
        result = Scheduler(execution="serial").run(g)
        assert a.payload == 3  # (1 * 2) + 1, not (1 + 1) * 2
        assert result.trace.num_tasks == 2

    def test_all_tasks_executed_in_dependency_order(self):
        rt = Runtime(workers=4)
        handles = [rt.register_data(f"x{i}", payload=[] if i == 0 else None)
                   for i in range(6)]
        # chain: each task reads the previous handle and writes the next,
        # so the last holds the order the tasks ran in
        for i in range(5):
            rt.insert_task(f"t{i}", (handles[i], AccessMode.READ),
                           (handles[i + 1], AccessMode.WRITE),
                           spec=call(partial(_then, i)), flops=1.0)
        rt.run()
        assert handles[5].payload == [0, 1, 2, 3, 4]

    def test_duplicate_data_name_raises(self):
        rt = Runtime()
        rt.register_data("a")
        with pytest.raises(ValueError):
            rt.register_data("a")

    def test_makespan_respects_critical_path(self):
        model = DeviceModel("slow", {Precision.FP32: 1e9})
        rt = Runtime()
        a = rt.register_data("a", payload=1.0, precision=Precision.FP32)
        for _ in range(4):
            rt.insert_task("step", (a, AccessMode.READWRITE), flops=1e9,
                           precision=Precision.FP32)
        # a pending graph replays without ever being executed
        result = replay(rt.graph, num_devices=8, device_model=model)
        assert rt.num_tasks() == 4 and rt.runs_completed == 0
        # 4 dependent tasks of 1 s each cannot finish faster than 4 s
        assert result.makespan >= 4.0

    def test_parallel_tasks_use_multiple_devices(self):
        model = DeviceModel("slow", {Precision.FP32: 1e9})
        rt = Runtime()
        handles = [rt.register_data(f"h{i}", payload=1.0, shape=(1,),
                                    home_device=i) for i in range(4)]
        for h in handles:
            rt.insert_task("work", (h, AccessMode.READWRITE), flops=1e9,
                           precision=Precision.FP32)
        result = replay(rt.graph, num_devices=4, device_model=model)
        devices_used = {e.device for e in result.trace.events}
        assert len(devices_used) == 4
        assert result.makespan == pytest.approx(1.0, rel=0.1)

    def test_transfers_recorded_when_data_moves(self):
        rt = Runtime()
        a = rt.register_data("a", payload=np.ones((16, 16)),
                             precision=Precision.FP32, home_device=0)
        b = rt.register_data("b", payload=np.zeros((16, 16)),
                             precision=Precision.FP32, home_device=1)
        rt.insert_task("use", (a, AccessMode.READ), (b, AccessMode.READWRITE),
                       flops=1.0, precision=Precision.FP32)
        rt.run()
        result = replay(rt.last_graph, num_devices=2)
        assert result.comm.num_transfers >= 1
        assert result.comm.total_bytes > 0
        # homes resolve modulo the device count: on one device nothing moves
        assert replay(rt.last_graph).comm.num_transfers == 0

    def test_a_real_drain_reports_its_lanes_through_the_trace(self):
        """A drain's lanes are plain ints and its per-lane busy time is
        the trace's; modelled devices and transfers belong to replay."""
        rt = Runtime(execution="threaded", workers=3)
        handles = [rt.register_data(f"h{i}", payload=np.ones(4))
                   for i in range(6)]
        for h in handles:
            rt.insert_task("work", (h, AccessMode.READWRITE),
                           spec=call(lambda x: x + 1), flops=1.0)
        drained = rt.run()
        lanes = {e.device for e in drained.trace.events}
        assert lanes <= {0, 1, 2}
        busy = drained.trace.busy_time_by_device()
        assert set(busy) == lanes
        assert sum(busy.values()) == pytest.approx(
            sum(e.duration for e in drained.trace.events))
        assert not hasattr(drained, "devices")
        assert not hasattr(drained, "comm")
        assert len(replay(rt.last_graph, num_devices=3).devices) == 3

    def test_priority_breaks_ties(self):
        rt = Runtime(workers=1)
        a = rt.register_data("a", payload=0)
        b = rt.register_data("b", payload=0)
        rt.insert_task("low", (a, AccessMode.READWRITE), spec=call(_same),
                       priority=0)
        rt.insert_task("high", (b, AccessMode.READWRITE), spec=call(_same),
                       priority=10)
        events = rt.run().trace.events
        assert min(events, key=lambda e: e.start).task_name == "high"

    def test_trace_summary_and_flops_by_precision(self):
        rt = Runtime(workers=1)
        a = rt.register_data("a", payload=1.0)
        rt.insert_task("k16", (a, AccessMode.READWRITE), flops=100,
                       precision=Precision.FP16)
        rt.insert_task("k32", (a, AccessMode.READWRITE), flops=50,
                       precision=Precision.FP32)
        result = rt.run()
        summary = result.summary()
        assert summary["total_flops"] == 150
        by_prec = result.trace.flops_by_precision()
        assert by_prec[Precision.FP16] == 100
        assert by_prec[Precision.FP32] == 50

    def test_reset_graph_keeps_data(self):
        rt = Runtime()
        a = rt.register_data("a", payload=1.0)
        rt.insert_task("t", (a, AccessMode.READWRITE), flops=1.0)
        rt.run()
        rt.reset_graph()
        assert rt.num_tasks() == 0
        assert rt.data("a") is a

