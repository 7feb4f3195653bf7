"""Performance model for the supercomputer-scale experiments.

The paper's performance figures (Figs. 7–14) report PFlop/s of the
Build and Associate phases on Summit, Leonardo, Frontier and Alps at up
to 36,100 GPUs.  Those machines are not available here, so this package
provides an analytic machine model that regenerates the figures:

* :mod:`repro.perfmodel.gpus` — GPU generation specs (peak tensor-core
  throughput per precision, memory bandwidth/capacity) plus sustained
  per-GPU rates for the tiled Cholesky and the distance SYRK,
  calibrated against the per-GPU numbers published in the paper.
* :mod:`repro.perfmodel.systems` — system specs (GPU counts, network).
* :mod:`repro.perfmodel.flops` — operation counts of the GWAS phases.
* :mod:`repro.perfmodel.scaling` — the distributed execution-time model
  (compute + communication) producing weak/strong scaling series.
* :mod:`repro.perfmodel.compare` — cross-system comparison and the
  REGENIE headroom ratio of Sec. VII-F.

Absolute numbers are calibrated; the *shapes* — which precision wins,
by what factor, how efficiency decays with node count — emerge from the
op counts, byte counts and the communication model.
"""

from repro.perfmodel.gpus import GPU_REGISTRY, GPUSpec, gpu
from repro.perfmodel.systems import SYSTEM_REGISTRY, SystemSpec, system
from repro.perfmodel.flops import (
    associate_flops,
    build_flops,
    predict_flops,
)
from repro.perfmodel.scaling import (
    MachineModel,
    PhaseEstimate,
    ScalingPoint,
    strong_scaling_series,
    weak_scaling_series,
)
from repro.perfmodel.compare import regenie_comparison, system_comparison

__all__ = [
    "GPUSpec",
    "gpu",
    "GPU_REGISTRY",
    "SystemSpec",
    "system",
    "SYSTEM_REGISTRY",
    "build_flops",
    "associate_flops",
    "predict_flops",
    "MachineModel",
    "PhaseEstimate",
    "ScalingPoint",
    "weak_scaling_series",
    "strong_scaling_series",
    "regenie_comparison",
    "system_comparison",
]
