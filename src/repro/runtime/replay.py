"""Replay a task graph on modelled devices.

How long a DAG would take on accelerators, and how many bytes it would
move between them, is a pure function of the graph: per-task flops and
compute precision, the handles each task reads and writes, priorities
and handle homes.  :func:`replay` walks a graph — ``Runtime.last_graph``
after a real drain, or a pending graph that was never executed — and
times it; it runs no body, hook, retry or fault.

Tasks are taken in the order a one-lane drain pops them (priority,
then insertion).  Mapping is owner-computes, the PaRSEC default for
tile algorithms: a task runs where its first written handle currently
lives (its round-robin home until something writes it), a task that
writes nothing on the earliest-free device.  Inputs living elsewhere
are moved first, through the Sec. VI-B1 conversion ledger of
:mod:`repro.runtime.comm`; :mod:`repro.runtime.device` times both.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.comm import CommunicationEngine
from repro.runtime.dag import TaskGraph
from repro.runtime.device import Device, DeviceModel, GENERIC_GPU, make_devices
from repro.runtime.scheduler import ScheduleResult
from repro.runtime.task import DataHandle, Task
from repro.runtime.trace import ExecutionTrace

__all__ = ["ReplayResult", "replay"]


@dataclass
class ReplayResult(ScheduleResult):
    """A replay's modelled trace plus its devices (busy time, bytes
    received) and transfer ledger."""

    comm: CommunicationEngine
    devices: list[Device]

    def summary(self) -> dict[str, float]:
        out = super().summary()
        out["bytes_moved"] = float(self.comm.total_bytes)
        out["num_transfers"] = float(self.comm.num_transfers)
        return out


def replay(graph: TaskGraph, num_devices: int = 1,
           device_model: DeviceModel = GENERIC_GPU,
           adaptive_conversion: bool = True) -> ReplayResult:
    """Time ``graph`` on ``num_devices`` devices of ``device_model``.

    ``adaptive_conversion`` enables the paper's sender/receiver
    conversion placement; ``False`` ships every tile in its source
    precision, the baseline the paper improves upon.  The result's
    trace holds modelled seconds, its ``comm`` the transfer ledger and
    its ``devices`` the per-device busy time and bytes received.
    """
    devices = make_devices(num_devices, device_model)
    comm = CommunicationEngine(adaptive_conversion=adaptive_conversion)
    trace = ExecutionTrace()
    #: device of each handle's current valid copy (absent = its home)
    location: dict[DataHandle, int] = {}
    finish_time: dict[Task, float] = {}

    def where(handle: DataHandle) -> int:
        return location.get(handle, handle.home_device % num_devices)

    for task in graph.topological_order(by_priority=True):
        if task.writes:
            device = devices[where(task.writes[0])]
        else:
            device = min(devices, key=lambda d: d.busy_until)

        # inputs become available when predecessors finish
        data_ready = max(
            (finish_time[p] for p in graph.predecessors(task)), default=0.0)

        # transfer inputs that live elsewhere
        transfer_time = 0.0
        for handle in task.reads:
            src = where(handle)
            if src != device.index:
                record = comm.record_transfer(handle, src, device.index,
                                              task.precision)
                transfer_time += device.model.transfer_time(record.bytes_moved)
                device.bytes_received += record.bytes_moved
                location[handle] = device.index

        start = max(device.busy_until, data_ready) + transfer_time
        duration = device.model.task_time(task.flops, task.precision)
        end = start + duration
        device.busy_until = end
        device.busy_time += duration
        device.tasks_executed += 1
        finish_time[task] = end
        for handle in task.writes:
            location[handle] = device.index

        trace.record(task, device.index, start, end)
    return ReplayResult(trace=trace, comm=comm, devices=devices)
