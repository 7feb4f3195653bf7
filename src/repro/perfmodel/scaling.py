"""Distributed execution-time model (weak/strong scaling).

The model combines three ingredients:

* **per-GPU sustained rates** for the Build SYRK and the Associate
  Cholesky, taken from :class:`~repro.perfmodel.gpus.GPUSpec`
  (calibrated against the paper's measured per-GPU throughputs);
* **operation counts** from :mod:`repro.perfmodel.flops`;
* a **communication model** for the 2D block-cyclic tile Cholesky /
  SYRK: the per-GPU communication volume grows as
  ``c · log2(P) · N² · bytes / sqrt(P)`` and is partially overlapped
  with computation (PaRSEC's asynchronous execution), so the exposed
  communication time is ``max(0, T_comm − overlap · T_comp)``.

Two consequences match the paper's observations (Sec. VII-D): weak
scaling stays near-perfect because the per-GPU work grows with the
matrix, while strong scaling efficiency decays with GPU count — and
decays *faster* for lower precisions, whose higher compute rates leave
less computation to hide the same communication behind.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.perfmodel.flops import (
    associate_flops,
    associate_precision_fractions,
    build_flops,
    solve_flops,
)
from repro.perfmodel.systems import SystemSpec, system as system_lookup
from repro.precision.formats import Precision

__all__ = [
    "PhaseEstimate",
    "ScalingPoint",
    "MachineModel",
    "weak_scaling_series",
    "strong_scaling_series",
]


@dataclass(frozen=True)
class PhaseEstimate:
    """Time/throughput estimate of one phase at one configuration."""

    phase: str
    matrix_size: int
    n_gpus: int
    flops: float
    compute_time: float
    comm_time: float
    exposed_comm_time: float

    @property
    def time(self) -> float:
        return self.compute_time + self.exposed_comm_time

    @property
    def throughput(self) -> float:
        """Sustained op/s (the paper's "mixed-precision flop/s")."""
        return self.flops / self.time if self.time > 0 else 0.0


@dataclass(frozen=True)
class ScalingPoint:
    """One point of a weak/strong scaling series."""

    n_gpus: int
    matrix_size: int
    throughput: float
    time: float
    efficiency: float


@dataclass
class MachineModel:
    """Performance model of one system.

    Parameters
    ----------
    system:
        System spec (or its name).
    tile_size:
        Tile edge used by the tiled algorithms (enters the latency term).
    comm_factor:
        Constant ``c`` of the communication-volume model.
    overlap:
        Fraction of the compute time available to hide communication in
        the Associate phase (PaRSEC's communication/computation overlap).
    build_overlap:
        Same for the Build phase, whose producer/consumer pattern
        (panel broadcast into freshly generated tiles) overlaps less.
    runtime_efficiency:
        Multiplier on the sustained per-GPU rates accounting for
        runtime/scheduling overheads.

    Notes
    -----
    The Associate-phase communication is dominated by the broadcast of
    the TRSM panel, which travels at the *working* precision — so its
    byte count does not shrink with the low precision of the trailing
    updates.  This is exactly why the paper observes the strong-scaling
    efficiency dropping faster for FP16/FP8 runs: the same
    communication has less (faster) computation left to hide behind.
    """

    system: SystemSpec | str
    tile_size: int = 2048
    comm_factor: float = 0.34
    overlap: float = 0.75
    build_overlap: float = 0.0
    runtime_efficiency: float = 1.0

    def __post_init__(self) -> None:
        if isinstance(self.system, str):
            self.system = system_lookup(self.system)
        if self.tile_size <= 0:
            raise ValueError("tile_size must be positive")
        if not 0.0 <= self.overlap <= 1.0:
            raise ValueError("overlap must be in [0, 1]")
        if self.runtime_efficiency <= 0:
            raise ValueError("runtime_efficiency must be positive")

    # ------------------------------------------------------------------
    # communication primitives
    # ------------------------------------------------------------------
    def _comm_time(self, n: int, n_gpus: int, bytes_per_element: float) -> float:
        """Per-GPU communication time of a tile-panel algorithm of order ``n``."""
        sys = self.system
        if n_gpus <= 1:
            return 0.0
        volume = (self.comm_factor * np.log2(n_gpus) * float(n) ** 2
                  * bytes_per_element / np.sqrt(n_gpus))
        bandwidth_time = volume / sys.link_bandwidth
        n_panels = max(n // self.tile_size, 1)
        latency_time = n_panels * np.log2(n_gpus) * sys.link_latency
        return bandwidth_time + latency_time

    @staticmethod
    def _exposed(comm: float, comp: float, overlap: float) -> float:
        return max(0.0, comm - overlap * comp)

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    def build_estimate(self, n_patients: int, n_snps: int, n_gpus: int) -> PhaseEstimate:
        """Build phase (INT8 distance SYRK + fused kernel exponentiation)."""
        if n_gpus <= 0:
            raise ValueError("n_gpus must be positive")
        gpu = self.system.gpu
        flops = build_flops(n_patients, n_snps)
        rate = gpu.sustained_build * self.runtime_efficiency
        comp = flops / (n_gpus * rate)
        # The G panels (N_P × N_S, INT8-encoded) are broadcast across the
        # process grid; the produced K tiles stay resident with their owner.
        if n_gpus > 1:
            volume = (self.comm_factor * np.log2(n_gpus)
                      * float(n_patients) * float(n_snps) / np.sqrt(n_gpus))
            comm = volume / self.system.link_bandwidth
        else:
            comm = 0.0
        exposed = self._exposed(comm, comp, self.build_overlap)
        return PhaseEstimate("build", n_patients, n_gpus, flops, comp, comm, exposed)

    def associate_estimate(self, n_patients: int, n_gpus: int,
                           low_precision: Precision | str = Precision.FP16,
                           working_precision: Precision | str = Precision.FP32,
                           n_phenotypes: int = 0) -> PhaseEstimate:
        """Associate phase (mixed-precision Cholesky + optional solves)."""
        if n_gpus <= 0:
            raise ValueError("n_gpus must be positive")
        low = Precision.from_string(low_precision)
        work = Precision.from_string(working_precision)
        gpu = self.system.gpu

        flops = associate_flops(n_patients)
        nt = max(n_patients // self.tile_size, 1)
        fractions = associate_precision_fractions(nt, low_precision=low,
                                                  working_precision=work)
        comp = 0.0
        for prec, frac in fractions.items():
            rate = gpu.sustained_associate_for(prec) * self.runtime_efficiency
            comp += frac * flops / (n_gpus * rate)
        if n_phenotypes:
            solve_rate = gpu.sustained_associate_for(work) * self.runtime_efficiency
            comp += solve_flops(n_patients, n_phenotypes) / (n_gpus * solve_rate)

        # panel broadcasts travel at the working precision (see class notes)
        comm = self._comm_time(n_patients, n_gpus, work.bytes_per_element)
        exposed = self._exposed(comm, comp, self.overlap)
        return PhaseEstimate("associate", n_patients, n_gpus, flops, comp, comm, exposed)

    def krr_estimate(self, n_patients: int, n_snps: int, n_gpus: int,
                     low_precision: Precision | str = Precision.FP16,
                     working_precision: Precision | str = Precision.FP32,
                     n_phenotypes: int = 1) -> dict[str, PhaseEstimate]:
        """End-to-end KRR estimates: Build, Associate, and the combined total."""
        build = self.build_estimate(n_patients, n_snps, n_gpus)
        associate = self.associate_estimate(
            n_patients, n_gpus, low_precision, working_precision, n_phenotypes
        )
        total_flops = build.flops + associate.flops
        total = PhaseEstimate(
            phase="krr",
            matrix_size=n_patients,
            n_gpus=n_gpus,
            flops=total_flops,
            compute_time=build.compute_time + associate.compute_time,
            comm_time=build.comm_time + associate.comm_time,
            exposed_comm_time=build.exposed_comm_time + associate.exposed_comm_time,
        )
        return {"build": build, "associate": associate, "krr": total}

    # ------------------------------------------------------------------
    # memory-driven problem sizing (the paper's weak-scaling runs max out
    # device memory)
    # ------------------------------------------------------------------
    def matrix_size_for_memory(self, n_gpus: int, bytes_per_element: float = 2.5,
                               fill: float = 0.85) -> int:
        """Largest symmetric matrix order fitting in ``fill`` of aggregate memory."""
        if not 0.0 < fill <= 1.0:
            raise ValueError("fill must be in (0, 1]")
        total_bytes = self.system.memory_for_gpus(n_gpus) * fill
        n = int(np.sqrt(total_bytes / bytes_per_element))
        # round down to a whole number of tiles
        return max((n // self.tile_size) * self.tile_size, self.tile_size)


def weak_scaling_series(model: MachineModel, gpu_counts: list[int],
                        phase: str = "associate",
                        low_precision: Precision | str = Precision.FP16,
                        working_precision: Precision | str = Precision.FP32,
                        snp_ratio: float = 1.0,
                        bytes_per_element: float = 2.5,
                        fill: float = 0.85) -> list[ScalingPoint]:
    """Weak scaling: matrix size grows with GPU count to keep memory full.

    ``snp_ratio`` sets ``NS = snp_ratio * NP`` for phases involving the
    SNP dimension (the paper's Fig. 13 sweeps ``NS = NP·{1..5}``).
    Efficiency is per-GPU throughput normalized by the first point.
    """
    points: list[ScalingPoint] = []
    base_per_gpu: float | None = None
    for p in gpu_counts:
        n = model.matrix_size_for_memory(p, bytes_per_element, fill)
        est = _phase_estimate(model, phase, n, int(round(snp_ratio * n)), p,
                              low_precision, working_precision)
        per_gpu = est.throughput / p
        if base_per_gpu is None:
            base_per_gpu = per_gpu
        points.append(ScalingPoint(
            n_gpus=p, matrix_size=n, throughput=est.throughput, time=est.time,
            efficiency=per_gpu / base_per_gpu if base_per_gpu else 1.0,
        ))
    return points


def strong_scaling_series(model: MachineModel, gpu_counts: list[int],
                          matrix_size: int,
                          phase: str = "associate",
                          low_precision: Precision | str = Precision.FP16,
                          working_precision: Precision | str = Precision.FP32,
                          snp_ratio: float = 1.0) -> list[ScalingPoint]:
    """Strong scaling: fixed matrix size, growing GPU count.

    Efficiency is speedup over the first point divided by the GPU-count
    ratio (the definition behind Fig. 11b / 12b).
    """
    points: list[ScalingPoint] = []
    base: ScalingPoint | None = None
    for p in gpu_counts:
        est = _phase_estimate(model, phase, matrix_size,
                              int(round(snp_ratio * matrix_size)), p,
                              low_precision, working_precision)
        if base is None:
            eff = 1.0
        else:
            speedup = base.time / est.time if est.time > 0 else 0.0
            eff = speedup / (p / base.n_gpus)
        point = ScalingPoint(
            n_gpus=p, matrix_size=matrix_size, throughput=est.throughput,
            time=est.time, efficiency=eff,
        )
        if base is None:
            base = point
        points.append(point)
    return points


def _phase_estimate(model: MachineModel, phase: str, n: int, ns: int, p: int,
                    low_precision: Precision | str,
                    working_precision: Precision | str = Precision.FP32) -> PhaseEstimate:
    if phase == "build":
        return model.build_estimate(n, ns, p)
    if phase == "associate":
        return model.associate_estimate(n, p, low_precision, working_precision)
    if phase == "krr":
        return model.krr_estimate(n, ns, p, low_precision, working_precision)["krr"]
    raise ValueError("phase must be 'build', 'associate' or 'krr'")
