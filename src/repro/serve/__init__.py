"""Model serving: registry, micro-batching, concurrent prediction.

The serving tier turns fitted-model artifacts
(:class:`~repro.gwas.model.FittedModel`) into a request/response
prediction API:

``ModelRegistry``
    Named + versioned model store with an LRU eviction budget over the
    precision-aware resident tile bytes.
``PredictionService``
    Accepts concurrent per-cohort predict requests, coalesces them
    into micro-batches (one row-stacked INT8 SNP Gram per row group,
    solo tile-aligned shapes for every float product), executes on one
    shared session runtime
    per model, and returns per-request latency/flops stats.
``plan_micro_batch`` / ``micro_batch_slices``
    Request-group validation and streaming geometry underneath the
    micro-batcher.

See the "Model artifacts & serving" section of ``docs/api.md`` for the
correctness (bitwise per-request) and batching guarantees.
"""

from repro.serve.batching import (
    MicroBatchPlan,
    effective_batch_rows,
    micro_batch_slices,
    plan_micro_batch,
)
from repro.serve.registry import ModelKey, ModelRegistry, RegisteredModel
from repro.serve.service import PredictionService, PredictResult, ServiceStats

__all__ = [
    "MicroBatchPlan",
    "plan_micro_batch",
    "micro_batch_slices",
    "effective_batch_rows",
    "ModelKey",
    "ModelRegistry",
    "RegisteredModel",
    "PredictionService",
    "PredictResult",
    "ServiceStats",
]
