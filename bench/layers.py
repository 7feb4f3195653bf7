"""Per-layer metrics of one traced rep, derived from its spans.

A layer is a ``repro.<module>``.  Times are span self times unless the
name says otherwise (``gwas.build_s`` and the ``linalg.*_s`` phase
times are inclusive); a task body's own time — what remains of it
after the precision and store spans inside it — belongs to the layer
that inserted the task.  *Counts* repeat exactly between runs of one
seed on the serial workloads; everything else is a measurement.
"""

from __future__ import annotations

import numpy as np

from bench import PER_LAYER_UNITS
from bench.tracer import TASK_LAYER, Span

LAYERS = ("gwas", "distance", "precision", "tiles", "linalg", "runtime",
          "store", "parallel")

#: Metrics that are counts: identical between two runs of one seed.
COUNTS = tuple(name for name, unit in PER_LAYER_UNITS.items() if unit == "count"
               and not name.startswith(("host.", "serve.mean")))


def _layer_of(span: Span) -> str:
    if span.layer == "task":
        return TASK_LAYER.get(span.name, "linalg")
    return span.layer


def _total(spans, layer: str, name: str, inclusive: bool = False) -> float:
    return sum(s.duration if inclusive else s.self_s
               for s in spans if s.layer == layer and s.name == name)


def _under(span: Span, layer: str, name: str) -> bool:
    return any(a.layer == layer and a.name == name for a in span.ancestors())


def layer_self_times(spans) -> dict[str, float]:
    """Self time per layer; a serve dispatcher's spans count like any other."""
    out = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        out[_layer_of(span)] += span.self_s
    return out


def derive(spans, rep, workload, dims, host: dict) -> dict[str, float]:
    """Every span- and counter-derived per-layer metric of one traced rep."""
    m = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    info = rep.info
    self_times = layer_self_times(spans)

    # gwas
    for phase in ("build", "associate", "predict"):
        m[f"gwas.{phase}_s"] = sum(
            s.duration for s in spans if s.layer == "gwas" and s.name == phase
            and not _under(s, "gwas", phase))
    m["gwas.self_s"] = self_times["gwas"]
    m["gwas.cv_sessions"] = sum(
        1 for s in spans if s.name == "session_init"
        and _under(s, "gwas", "grid_search_cv"))
    accounted = {}
    for s in spans:
        if s.layer == "gwas" and isinstance(s.info, tuple):
            accounted[s.info[0]] = s.info[1]   # last snapshot per session
    m["gwas.accounted_gflop"] = sum(accounted.values()) / 1e9

    # distance
    m["distance.build_self_s"] = (
        _total(spans, "distance", "build_training")
        + sum(s.self_s for s in spans if s.layer == "task"
              and _layer_of(s) == "distance"
              and _under(s, "distance", "build_training")))
    m["distance.cross_self_s"] = (
        self_times["distance"] - m["distance.build_self_s"])
    build_s = _total(spans, "distance", "build_training", inclusive=True)
    if build_s:
        builds = sum(1 for s in spans if s.name == "build_training")
        rows = dims.n - dims.n // workload.folds if workload.kind == "cv" else dims.n
        m["distance.build_gops_per_s"] = builds * rows * rows * dims.ns / build_s / 1e9
        m["distance.build_peak_frac"] = (
            m["distance.build_gops_per_s"] / host["host.sgemm_gflops"])

    # precision
    quantize = [s for s in spans if s.layer == "precision" and s.name == "quantize"]
    m["precision.quantize_s"] = sum(s.self_s for s in quantize)
    m["precision.quantize_calls"] = sum(1 for s in quantize if s.info is not None)
    m["precision.quantize_mb"] = sum(s.info or 0 for s in quantize) / 2 ** 20
    gemms = [s for s in spans if s.layer == "precision" and s.name == "gemm"]
    m["precision.gemm_s"] = sum(s.self_s for s in gemms)
    m["precision.gemm_calls"] = len(gemms)
    m["precision.lowp_flop_frac"] = info.get("lowp_flop_frac", 0.0)

    # tiles
    m["tiles.adaptive_s"] = _total(spans, "tiles", "adaptive")
    m["tiles.copy_s"] = _total(spans, "tiles", "copy")
    m["tiles.lowp_tile_frac"] = info.get("lowp_tile_frac", 0.0)
    m["tiles.mosaic_mb"] = info.get("mosaic_mb", 0.0)

    # linalg — factor / solve / cg are disjoint: a preconditioner solve
    # inside cg_solve counts as solve, not cg
    m["linalg.factor_s"] = _total(spans, "linalg", "cholesky", inclusive=True)
    m["linalg.solve_s"] = _total(spans, "linalg", "solve_cholesky", inclusive=True)
    m["linalg.cg_s"] = (
        _total(spans, "linalg", "cg_solve", inclusive=True)
        - sum(s.duration for s in spans if s.name == "solve_cholesky"
              and _under(s, "linalg", "cg_solve")))
    m["linalg.cg_iters"] = sum(s.info or 0 for s in spans if s.name == "cg_solve")
    m["linalg.cg_fallbacks"] = info.get("cg_fallbacks", 0)
    m["linalg.factorizations"] = info.get("factorizations", 0)
    m["linalg.alpha_boosts"] = info.get("alpha_boosts", 0)
    m["linalg.self_s"] = self_times["linalg"]
    drains = [s for s in spans if s.layer == "runtime" and s.info]
    for drain in drains:
        if _under(drain, "linalg", "cholesky"):
            for kernel in ("potrf", "trsm", "syrk", "gemm"):
                m[f"linalg.{kernel}_s"] += drain.info["by_name"].get(kernel, (0, 0.0))[1]
    if m["linalg.factor_s"] and workload.kind != "serve":
        order = dims.n - dims.n // workload.folds if workload.kind == "cv" else dims.n
        m["linalg.factor_gflops"] = (
            m["linalg.factorizations"] * order ** 3 / 3.0 / m["linalg.factor_s"] / 1e9)
        potrf = "host.dpotrf_gflops" if workload.plan == "fp64" else "host.spotrf_gflops"
        m["linalg.factor_peak_frac"] = m["linalg.factor_gflops"] / host[potrf]

    # runtime
    drain_s = 0.0
    for drain in drains:
        rows = drain.info["by_name"].values()
        busy = sum(row[1] for row in rows)
        m["runtime.tasks"] += sum(row[0] for row in rows)
        m["runtime.task_busy_s"] += busy
        m["runtime.retries"] += drain.info["retries"]
        m["runtime.dispatch_s"] += max(
            0.0, drain.duration - busy / drain.info["workers"])
        drain_s += drain.duration * drain.info["workers"]
    if m["runtime.tasks"]:
        m["runtime.dispatch_us_per_task"] = (
            1e6 * m["runtime.dispatch_s"] / m["runtime.tasks"])
        m["runtime.worker_utilization"] = m["runtime.task_busy_s"] / drain_s

    # store
    m["store.io_s"] = sum(s.duration for s in spans if s.layer == "store")
    store = info.get("store")
    if store:
        m["store.spills"] = store["spills"]
        m["store.reloads"] = store["reloads"]
        m["store.spilled_mb"] = store["bytes_spilled"] / 2 ** 20
        m["store.reloaded_mb"] = store["bytes_reloaded"] / 2 ** 20
        m["store.budget_overflows"] = store["budget_overflows"]
        m["store.prefetch_frac"] = (
            store["prefetches"] / store["reloads"] if store["reloads"] else 0.0)
        m["store.peak_resident_mb"] = store["peak_resident_bytes"] / 2 ** 20

    # parallel (coordinator side)
    m["parallel.pool_start_s"] = _total(spans, "parallel", "pool_start", inclusive=True)
    exchange = [s for s in spans if s.name in ("exchange_put", "exchange_get")]
    m["parallel.exchange_s"] = sum(s.duration for s in exchange)
    m["parallel.exchange_mb"] = sum(s.info or 0 for s in exchange) / 2 ** 20
    m["parallel.exchange_puts"] = sum(s.name == "exchange_put" for s in exchange)

    # serve
    serve = info.get("serve")
    if serve:
        for key in ("batches", "mean_coalesced", "shed", "expired"):
            m[f"serve.{key}"] = serve[key]
        m["serve.queue_p50_ms"] = 1e3 * np.percentile(serve["queue_s"], 50)
        m["serve.compute_p50_ms"] = 1e3 * np.percentile(
            serve["request_compute_s"], 50)
        m["serve.latency_p99_ms"] = 1e3 * np.percentile(rep.latencies_s, 99)
        m["serve.compute_share"] = serve["compute_s"] / rep.wall_s

    m["trace.attributed_frac"] = (
        sum(self_times.values()) - self_times["gwas"]) / rep.wall_s
    return m
