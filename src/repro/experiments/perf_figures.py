"""Figs. 7–14 — performance figures from the machine model.

Each driver returns the series the corresponding figure plots.  The
paper's exact matrix sizes and GPU counts are used (these experiments
evaluate the analytic model of :mod:`repro.perfmodel`, not the emulated
numerics, so the paper's dimensions are affordable).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.perfmodel.compare import regenie_comparison, system_comparison
from repro.perfmodel.scaling import (
    MachineModel,
    strong_scaling_series,
    weak_scaling_series,
)
from repro.precision.formats import Precision

__all__ = [
    "run_fig07_build_scaling",
    "run_fig08_to_10_associate",
    "run_fig11_12_efficiency",
    "run_fig13_krr_weak_scaling",
    "run_fig14_breakdown",
    "run_fig14e_systems",
]

#: GPU counts used in Figs. 7 and 11–13.
GPU_SWEEP = [256, 512, 1024, 2048, 4096]

#: Matrix sizes (order N) of the Associate scaling plots, per system and
#: node count, as given in Figs. 8–10 of the paper.
ASSOCIATE_MATRIX_SIZES = {
    ("Summit", 1024): [1_048_576, 2_097_152, 3_145_728, 4_194_304, 5_242_880, 6_291_456],
    ("Leonardo", 1024): [2_097_152, 4_194_304, 6_291_456, 8_388_608],
    ("Alps", 1024): [5_242_880, 7_864_320, 10_485_760, 12_255_232],
}

#: Precision mixes plotted per system (working precision, low precision).
ASSOCIATE_PRECISION_MIXES = {
    "Summit": [("FP64", "FP64"), ("FP64", "FP32"), ("FP64", "FP16")],
    "Leonardo": [("FP64", "FP32"), ("FP64", "FP16")],
    "Alps": [("FP32", "FP32"), ("FP32", "FP16"), ("FP32", "FP8_E4M3")],
}


@dataclass
class FigureSeries:
    """A named series of (x, y) points plus free-form metadata."""

    name: str
    x: list[float] = field(default_factory=list)
    y: list[float] = field(default_factory=list)
    meta: dict[str, object] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Fig. 7 — Build phase weak scaling on Alps
# ----------------------------------------------------------------------
def run_fig07_build_scaling(gpu_counts: list[int] | None = None) -> FigureSeries:
    """Build-phase weak scaling on Alps (INT8 distance SYRK)."""
    gpu_counts = gpu_counts or GPU_SWEEP
    model = MachineModel(system="Alps")
    points = weak_scaling_series(model, gpu_counts, phase="build", snp_ratio=1.0)
    series = FigureSeries(name="Build (INT8) on Alps")
    for p in points:
        series.x.append(p.n_gpus)
        series.y.append(p.throughput / 1e15)
    series.meta["speedup"] = points[-1].throughput / points[0].throughput
    series.meta["parallel_efficiency"] = series.meta["speedup"] / (
        gpu_counts[-1] / gpu_counts[0])
    return series


# ----------------------------------------------------------------------
# Figs. 8–10 — Associate phase across GPU generations
# ----------------------------------------------------------------------
def run_fig08_to_10_associate(system: str = "Alps",
                              n_gpus: int = 4096,
                              matrix_sizes: list[int] | None = None
                              ) -> dict[str, FigureSeries]:
    """Associate-phase throughput vs matrix size for one system.

    ``system`` selects the figure: Summit → Fig. 8, Leonardo → Fig. 9,
    Alps → Fig. 10.  Returns one series per precision mix.
    """
    sizes = matrix_sizes or ASSOCIATE_MATRIX_SIZES.get((system, 1024))
    if sizes is None:
        raise ValueError(f"no default matrix sizes for system {system!r}")
    mixes = ASSOCIATE_PRECISION_MIXES[system]
    model = MachineModel(system=system)
    out: dict[str, FigureSeries] = {}
    for work, low in mixes:
        label = f"{work}/{low}" if work != low else work
        series = FigureSeries(name=label)
        for n in sizes:
            est = model.associate_estimate(
                n, n_gpus,
                low_precision=Precision.from_string(low),
                working_precision=Precision.from_string(work),
            )
            series.x.append(n)
            series.y.append(est.throughput / 1e15)
        out[label] = series
    return out


# ----------------------------------------------------------------------
# Figs. 11–12 — weak/strong scaling efficiency per GPU
# ----------------------------------------------------------------------
def run_fig11_12_efficiency(system: str = "Alps",
                            gpu_counts: list[int] | None = None,
                            strong_matrix_size: int | None = None
                            ) -> dict[str, dict[str, FigureSeries]]:
    """Per-GPU weak and strong scaling of the Associate phase.

    Leonardo → Fig. 11, Alps → Fig. 12.  Returns
    ``{"weak": {...}, "strong": {...}}`` with one series per precision
    mix; the y-values are parallel efficiencies.
    """
    gpu_counts = gpu_counts or GPU_SWEEP
    strong_counts = [c for c in gpu_counts if c >= 1024] or gpu_counts
    mixes = ASSOCIATE_PRECISION_MIXES[system]
    model = MachineModel(system=system)
    if strong_matrix_size is None:
        strong_matrix_size = model.matrix_size_for_memory(strong_counts[0])

    out: dict[str, dict[str, FigureSeries]] = {"weak": {}, "strong": {}}
    for work, low in mixes:
        label = f"{work}/{low}" if work != low else work
        low_p = Precision.from_string(low)
        work_p = Precision.from_string(work)

        weak = weak_scaling_series(model, gpu_counts, phase="associate",
                                   low_precision=low_p, working_precision=work_p)
        s_weak = FigureSeries(name=label)
        for p in weak:
            s_weak.x.append(p.n_gpus)
            s_weak.y.append(p.efficiency)
            s_weak.meta.setdefault("per_gpu_tflops", []).append(
                p.throughput / p.n_gpus / 1e12)
        out["weak"][label] = s_weak

        strong = strong_scaling_series(model, strong_counts, strong_matrix_size,
                                       phase="associate", low_precision=low_p,
                                       working_precision=work_p)
        s_strong = FigureSeries(name=label)
        for p in strong:
            s_strong.x.append(p.n_gpus)
            s_strong.y.append(p.efficiency)
        out["strong"][label] = s_strong
    return out


# ----------------------------------------------------------------------
# Fig. 13 — end-to-end KRR weak scaling vs NS/NP ratio
# ----------------------------------------------------------------------
def run_fig13_krr_weak_scaling(low_precision: str = "FP16",
                               gpu_counts: list[int] | None = None,
                               snp_ratios: tuple[int, ...] = (1, 2, 3, 4, 5)
                               ) -> dict[int, FigureSeries]:
    """KRR (Build + Associate) weak scaling on Alps for NS = NP · ratio."""
    gpu_counts = gpu_counts or GPU_SWEEP
    model = MachineModel(system="Alps")
    out: dict[int, FigureSeries] = {}
    for ratio in snp_ratios:
        series = FigureSeries(name=f"NS = NP * {ratio}")
        points = weak_scaling_series(model, gpu_counts, phase="krr",
                                     low_precision=Precision.from_string(low_precision),
                                     snp_ratio=float(ratio))
        for p in points:
            series.x.append(p.n_gpus)
            series.y.append(p.throughput / 1e15)
        out[ratio] = series
    return out


# ----------------------------------------------------------------------
# Fig. 14a–d — large-scale phase breakdown on Alps
# ----------------------------------------------------------------------
def run_fig14_breakdown(node_counts: tuple[int, ...] = (1024, 1296, 1600, 1936),
                        gpus_per_node: int = 4,
                        snp_ratio: float = 1.0) -> dict[int, list[dict[str, float]]]:
    """Build/Associate/KRR throughput per matrix size and node count."""
    model = MachineModel(system="Alps")
    out: dict[int, list[dict[str, float]]] = {}
    for nodes in node_counts:
        n_gpus = nodes * gpus_per_node
        n_max = model.matrix_size_for_memory(n_gpus)
        sizes = [int(n_max * f) for f in (0.3, 0.6, 0.9, 1.0)]
        rows = []
        for n in sizes:
            est = model.krr_estimate(n, int(snp_ratio * n), n_gpus,
                                     low_precision=Precision.FP8_E4M3)
            rows.append({
                "matrix_size": float(n),
                "build_pflops": est["build"].throughput / 1e15,
                "associate_pflops": est["associate"].throughput / 1e15,
                "krr_pflops": est["krr"].throughput / 1e15,
            })
        out[nodes] = rows
    return out


# ----------------------------------------------------------------------
# Fig. 14e — cross-system comparison + REGENIE headroom
# ----------------------------------------------------------------------
def run_fig14e_systems() -> dict[str, object]:
    """Across-system comparison plus the REGENIE five-orders-of-magnitude ratio."""
    rows = [r.as_dict() for r in system_comparison()]
    alps_krr = next(r for r in rows if r["system"] == "Alps")["krr_pflops"]
    comparison = regenie_comparison(krr_throughput=float(alps_krr) * 1e15)
    return {
        "systems": rows,
        "alps_krr_exaops": float(alps_krr) / 1000.0,
        "regenie_speedup": comparison.speedup,
        "regenie_orders_of_magnitude": comparison.orders_of_magnitude,
    }
