#!/usr/bin/env python
"""Inspect the task-runtime execution of a tiled mixed-precision Cholesky.

The paper's solver is orchestrated by the PaRSEC dynamic runtime; this
example drives the reproduction's runtime on a small kernel matrix and
prints what PaRSEC-style tracing would show: the task DAG size, the
task mix (POTRF/TRSM/SYRK/GEMM) and the precision-split operation
counts of the real drain, then — replaying the drained graph on
modelled GPUs — the schedule across devices and the bytes moved by the
communication engine under the sender/receiver conversion policy.

Usage::

    python examples/task_runtime_trace.py [--devices 4] [--tiles 8]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.data import make_ukb_like_cohort
from repro.distance.build import KernelBuilder
from repro.experiments.report import format_table
from repro.gwas.config import KRRConfig, PrecisionPlan
from repro.linalg import cholesky
from repro.runtime import Runtime, replay


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--devices", type=int, default=4,
                        help="number of modelled GPUs the drained graph is replayed on")
    parser.add_argument("--tiles", type=int, default=8,
                        help="tile-grid dimension of the kernel matrix")
    parser.add_argument("--tile-size", type=int, default=40)
    args = parser.parse_args()

    n = args.tiles * args.tile_size
    cohort = make_ukb_like_cohort(n_individuals=n, n_snps=64, seed=11)
    cfg = KRRConfig(tile_size=args.tile_size,
                    precision_plan=PrecisionPlan.adaptive_fp16())

    print(f"Building a {n}x{n} kernel matrix ({args.tiles}x{args.tiles} tiles) ...")
    builder = KernelBuilder(gamma=cfg.effective_gamma(cohort.n_snps),
                            tile_size=args.tile_size,
                            adaptive_rule=cfg.precision_plan.adaptive_rule())
    build = builder.build_training(cohort.genotypes, cohort.confounders)
    a = build.to_dense() + cfg.alpha * np.eye(n)

    runtime = Runtime()  # execution/workers from REPRO_* or the defaults
    print(f"Factorizing through the task runtime ({runtime.execution}, "
          f"{runtime.workers} worker(s)) ...")
    result = cholesky(a, tile_size=args.tile_size, working_precision="fp32",
                      precision_map=build.precision_map, runtime=runtime)
    runtime.close()

    # run() drains the pending graph; the executed DAG is retained
    graph = runtime.last_graph
    print(f"\nTask DAG: {graph.num_tasks} tasks, "
          f"{graph.num_edges} dependency edges")
    print("Task mix:", result.task_counts)
    print("Operation count by precision:",
          {p.value: f"{f:.3e}" for p, f in result.flops_by_precision.items()})

    print(f"Wall-clock makespan of the drain: "
          f"{result.schedule.makespan * 1e3:.3f} ms")

    # the accelerator side is a model: replay the same graph on devices
    schedule = replay(graph, num_devices=args.devices)
    print(f"\nReplayed makespan: {schedule.makespan * 1e3:.3f} ms "
          f"on {args.devices} modelled GPUs")
    print(format_table([{
        "device": d, "busy fraction": u,
    } for d, u in sorted(schedule.trace.utilization_by_device().items())],
        precision=3))
    print(f"Bytes moved between devices: {schedule.comm.total_bytes:,} "
          f"({schedule.comm.num_transfers} transfers)")
    by_policy = {k.value: v for k, v in schedule.comm.bytes_by_policy().items()}
    print(f"Conversion placement (sender vs receiver): {by_policy}")

    # correctness check against NumPy
    reference = np.linalg.cholesky(a)
    error = np.linalg.norm(result.to_dense() - reference) / np.linalg.norm(reference)
    print(f"\nRelative error vs FP64 Cholesky: {error:.2e} "
          "(FP16 off-diagonal tiles, FP32 panels)")


if __name__ == "__main__":
    main()
