"""System (supercomputer) specifications.

The four GPU systems of the paper plus the CPU system used for the
REGENIE comparison:

=========  =========  ==============  ===========================
System     Device     GPUs/node       Scale used in the paper
=========  =========  ==============  ===========================
Summit     V100       6               18,432 GPUs (2/3 of system)
Leonardo   A100       4               4,096 GPUs (1/3)
Frontier   MI250X     8 (GCDs)        36,100 GCDs (nearly full)
Alps       GH200      4               8,100 superchips (4/5)
Shaheen-3  CPU node   —               1 dual-socket AMD Genoa node
=========  =========  ==============  ===========================
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perfmodel.gpus import A100, GH200, GPUSpec, MI250X, V100

__all__ = ["SystemSpec", "SYSTEM_REGISTRY", "system", "SHAHEEN3_CPU_NODE_PEAK"]

#: Theoretical peak of one dual-socket 96-core AMD Genoa 9654 node of
#: Shaheen-3 (the CPU REGENIE is credited with in Sec. VII-F), in flop/s.
SHAHEEN3_CPU_NODE_PEAK = 7.372e12


@dataclass(frozen=True)
class SystemSpec:
    """One GPU system.

    Attributes
    ----------
    name:
        System name.
    gpu:
        Device spec of its accelerators.
    gpus_per_node:
        Accelerators (or GCDs) per node.
    total_gpus:
        Full-system accelerator count.
    paper_gpus:
        Number of accelerators used in the paper's largest run.
    link_bandwidth:
        Effective per-GPU data-movement bandwidth available to the tile
        algorithm (bytes/s).  This is *not* the NIC injection bandwidth
        alone: most tile traffic in a 2D block-cyclic layout stays
        within the node (NVLink / xGMI), so the effective figure is
        calibrated so that the model reproduces each system's measured
        Associate-phase throughput at the paper's node counts.
    link_latency:
        Per-message network latency (s).
    """

    name: str
    gpu: GPUSpec
    gpus_per_node: int
    total_gpus: int
    paper_gpus: int
    link_bandwidth: float
    link_latency: float = 5.0e-6

    def nodes_for_gpus(self, n_gpus: int) -> int:
        return max(1, -(-n_gpus // self.gpus_per_node))

    def memory_for_gpus(self, n_gpus: int) -> float:
        """Aggregate device memory (bytes) of ``n_gpus`` accelerators."""
        return n_gpus * self.gpu.memory_capacity


SUMMIT = SystemSpec(
    name="Summit",
    gpu=V100,
    gpus_per_node=6,
    total_gpus=27_648,
    paper_gpus=18_432,
    link_bandwidth=4.5e10,
)

LEONARDO = SystemSpec(
    name="Leonardo",
    gpu=A100,
    gpus_per_node=4,
    total_gpus=13_824,
    paper_gpus=4_096,
    link_bandwidth=6.0e10,
)

FRONTIER = SystemSpec(
    name="Frontier",
    gpu=MI250X,
    gpus_per_node=8,          # 8 GCDs per node
    total_gpus=75_264,
    paper_gpus=36_100,
    link_bandwidth=5.0e10,
)

ALPS = SystemSpec(
    name="Alps",
    gpu=GH200,
    gpus_per_node=4,
    total_gpus=10_752,
    paper_gpus=8_100,
    link_bandwidth=50.0e9,   # Slingshot-11, 4 NICs per node
)

SYSTEM_REGISTRY: dict[str, SystemSpec] = {
    "SUMMIT": SUMMIT,
    "LEONARDO": LEONARDO,
    "FRONTIER": FRONTIER,
    "ALPS": ALPS,
}


def system(name: str) -> SystemSpec:
    """Look up a system spec by name (case-insensitive)."""
    key = name.upper()
    if key not in SYSTEM_REGISTRY:
        raise ValueError(f"unknown system {name!r}; available: {sorted(SYSTEM_REGISTRY)}")
    return SYSTEM_REGISTRY[key]
