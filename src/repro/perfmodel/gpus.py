"""GPU generation specifications.

Peak throughputs are the published tensor-core / matrix-core peaks of
each device.  ``sustained_associate`` and ``sustained_build`` are
node-level sustained per-GPU rates of the tiled mixed-precision
Cholesky (Associate) and the INT8 distance SYRK (Build) — calibrated
from the per-GPU throughputs reported in the paper (Sec. VII-C/D:
~57 TFlop/s per A100 for FP64/FP16, ~159 TFlop/s per GH200 for
FP32/FP8, ~316 TFlop/s per GH200 for the Build phase, ...).  The
calibration encodes how much of the peak each precision keeps once the
operation becomes memory- and communication-bound; the *scaling*
behaviour on top of these rates comes from the model in
:mod:`repro.perfmodel.scaling`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.precision.formats import Precision

__all__ = ["GPUSpec", "GPU_REGISTRY", "gpu"]


@dataclass(frozen=True)
class GPUSpec:
    """One GPU (or GPU-like accelerator) generation.

    Attributes
    ----------
    name:
        Device name.
    peak:
        Peak throughput (op/s) per precision, tensor/matrix cores where
        available.
    memory_bandwidth:
        HBM bandwidth in bytes/s.
    memory_capacity:
        Device memory in bytes.
    sustained_associate:
        Sustained per-GPU rate (op/s) of the tiled mixed-precision
        Cholesky, keyed by the *lower* precision of the mix
        (e.g. ``Precision.FP16`` for an FP32/FP16 or FP64/FP16 run).
    sustained_build:
        Sustained per-GPU rate of the INT8/FP32 distance SYRK.
    fp8_capable:
        True for Hopper-class devices (enables the FP8 floor in the
        adaptive precision rule).
    """

    name: str
    peak: dict[Precision, float]
    memory_bandwidth: float
    memory_capacity: float
    sustained_associate: dict[Precision, float] = field(default_factory=dict)
    sustained_build: float = 0.0
    fp8_capable: bool = False

    def peak_for(self, precision: Precision) -> float:
        if precision in self.peak:
            return self.peak[precision]
        if precision is Precision.INT32 and Precision.INT8 in self.peak:
            return self.peak[Precision.INT8]
        return self.peak.get(Precision.FP32, 1.0e13)

    def sustained_associate_for(self, low_precision: Precision) -> float:
        """Sustained Cholesky rate for a mix whose low precision is given."""
        if low_precision in self.sustained_associate:
            return self.sustained_associate[low_precision]
        if low_precision is Precision.FP8_E4M3 and not self.fp8_capable:
            # FP8 requested on non-FP8 hardware falls back to FP16
            return self.sustained_associate.get(
                Precision.FP16, 0.3 * self.peak_for(Precision.FP16))
        # default: 30% of the precision's peak (typical tile-Cholesky fraction)
        return 0.3 * self.peak_for(low_precision)


# ----------------------------------------------------------------------
# Device registry.  Peaks: published vendor numbers; sustained rates:
# calibrated against the paper's per-GPU measurements.
# ----------------------------------------------------------------------
V100 = GPUSpec(
    name="V100",
    peak={
        Precision.FP64: 7.8e12,
        Precision.FP32: 15.7e12,
        Precision.FP16: 125.0e12,
        Precision.INT8: 62.0e12,
    },
    memory_bandwidth=0.9e12,
    memory_capacity=16e9,
    sustained_associate={
        # Summit Fig. 8c: ~154 PF on 6144 GPUs (FP64/FP16) and ~62 PF (FP64/FP32)
        Precision.FP16: 25.0e12,
        Precision.FP32: 10.0e12,
        Precision.FP64: 4.0e12,
    },
    sustained_build=22.0e12,
)

A100 = GPUSpec(
    name="A100",
    peak={
        Precision.FP64: 19.5e12,   # FP64 tensor core
        Precision.FP32: 19.5e12,   # FP32 CUDA-core rate (FP64 TC == FP32 on A100)
        Precision.FP16: 312.0e12,
        Precision.FP8_E4M3: 312.0e12,  # no native FP8: falls back to FP16 rate
        Precision.INT8: 624.0e12,
    },
    memory_bandwidth=2.0e12,
    memory_capacity=64e9,
    sustained_associate={
        # Leonardo Fig. 9c / Fig. 11a: ~243 PF on 4096 GPUs -> ~59 TF/GPU
        # for FP64/FP16 and ~3.6x less for FP64/FP32.
        Precision.FP16: 59.0e12,
        Precision.FP32: 16.5e12,
        Precision.FP64: 16.5e12,
    },
    sustained_build=150.0e12,
)

MI250X = GPUSpec(
    name="MI250X",
    peak={
        Precision.FP64: 47.9e12,
        Precision.FP32: 47.9e12,
        Precision.FP16: 383.0e12,
        Precision.INT8: 383.0e12,
    },
    memory_bandwidth=3.2e12,
    memory_capacity=128e9,
    sustained_associate={
        # Frontier appears in Fig. 14e with 977 PF on 36,100 GCDs -> ~27 TF/GCD
        Precision.FP16: 27.0e12,
        Precision.FP32: 13.0e12,
        Precision.FP64: 13.0e12,
    },
    sustained_build=35.0e12,
)

GH200 = GPUSpec(
    name="GH200",
    peak={
        Precision.FP64: 67.0e12,
        Precision.FP32: 67.0e12,
        Precision.FP16: 990.0e12,
        Precision.FP8_E4M3: 1979.0e12,
        Precision.INT8: 1979.0e12,
    },
    memory_bandwidth=4.0e12,
    memory_capacity=96e9,
    sustained_associate={
        # Alps Fig. 10c / Fig. 12a: ~667 PF (FP32/FP8) and ~440 PF
        # (FP32/FP16) on 4096 GPUs -> ~163 / ~107 TF per GPU; FP32-only
        # is ~4.8x below FP8.
        Precision.FP8_E4M3: 163.0e12,
        Precision.FP16: 107.0e12,
        Precision.FP32: 34.0e12,
        Precision.FP64: 17.0e12,
    },
    # Fig. 7: ~420 TF/GPU at low node counts for the INT8 Build SYRK
    # (107 PF on 256 GPUs); the decline to ~316 TF/GPU at 4096 GPUs
    # emerges from the communication model.
    sustained_build=420.0e12,
    fp8_capable=True,
)

GPU_REGISTRY: dict[str, GPUSpec] = {
    "V100": V100,
    "A100": A100,
    "MI250X": MI250X,
    "GH200": GH200,
}


def gpu(name: str) -> GPUSpec:
    """Look up a GPU spec by name (case-insensitive)."""
    key = name.upper()
    if key not in GPU_REGISTRY:
        raise ValueError(f"unknown GPU {name!r}; available: {sorted(GPU_REGISTRY)}")
    return GPU_REGISTRY[key]
