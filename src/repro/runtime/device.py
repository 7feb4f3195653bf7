"""Modelled execution devices with per-precision throughput.

The replayer (:mod:`repro.runtime.replay`) times each task as
``flops / throughput(precision)`` on the device it maps to, plus any
transfer time charged by the communication engine.  Device specs default to the GPUs used in the
paper (V100, A100, MI250X, GH200); exact peak numbers live in
:mod:`repro.perfmodel.gpus`, this module only needs relative
throughputs for scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.precision.formats import Precision


@dataclass(frozen=True)
class DeviceModel:
    """Performance model of one device class.

    Parameters
    ----------
    name:
        Human-readable device name (``"GH200"``...).
    throughput:
        Mapping from precision to sustained throughput in op/s.  Any
        precision missing from the map falls back to the FP32 entry.
    memory_bandwidth:
        Device memory bandwidth in bytes/s (used for bandwidth-bound
        tasks such as the kernel exponentiation).
    link_bandwidth:
        Interconnect bandwidth to peer devices in bytes/s.
    link_latency:
        Per-message latency in seconds.
    memory_capacity:
        Device memory in bytes (used to check that tile working sets fit).
    """

    name: str
    throughput: dict[Precision, float]
    memory_bandwidth: float = 1.0e12
    link_bandwidth: float = 2.5e10
    link_latency: float = 5.0e-6
    memory_capacity: float = 8.0e10

    def throughput_for(self, precision: Precision) -> float:
        if precision in self.throughput:
            return self.throughput[precision]
        if precision is Precision.INT32 and Precision.INT8 in self.throughput:
            return self.throughput[Precision.INT8]
        return self.throughput.get(Precision.FP32, 1.0e12)

    def task_time(self, flops: float, precision: Precision) -> float:
        """Execution time of ``flops`` operations at ``precision``."""
        rate = self.throughput_for(precision)
        return float(flops) / rate if rate > 0 else 0.0

    def transfer_time(self, nbytes: int) -> float:
        """Time to move ``nbytes`` over the device link."""
        if nbytes <= 0:
            return 0.0
        return self.link_latency + nbytes / self.link_bandwidth


#: A generic device model with the relative tensor-core throughput
#: ratios of a Hopper-class GPU, used when no explicit model is given.
GENERIC_GPU = DeviceModel(
    name="generic-gpu",
    throughput={
        Precision.FP64: 3.4e13,
        Precision.FP32: 6.7e13,
        Precision.FP16: 9.9e14,
        Precision.FP8_E4M3: 1.98e15,
        Precision.INT8: 1.98e15,
    },
)


@dataclass
class Device:
    """One modelled device instance (a GPU within a node) of a replay."""

    index: int
    model: DeviceModel = GENERIC_GPU
    busy_until: float = 0.0
    busy_time: float = 0.0
    tasks_executed: int = 0
    bytes_received: float = 0.0


def make_devices(count: int, model: DeviceModel = GENERIC_GPU) -> list[Device]:
    """Create ``count`` identical devices."""
    if count <= 0:
        raise ValueError("device count must be positive")
    return [Device(index=i, model=model) for i in range(count)]
