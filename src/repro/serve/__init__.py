"""Model serving: registry and concurrent, micro-batched prediction.

The serving tier turns fitted-model artifacts
(:class:`~repro.gwas.model.FittedModel`) into a request/response
prediction API:

``ModelRegistry``
    Named + versioned model store with an LRU eviction budget over the
    precision-aware resident tile bytes.
``PredictionService``
    Accepts concurrent per-cohort predict requests, coalesces them
    into micro-batches — each one
    :meth:`~repro.gwas.session.KRRSession.predict_many` at the model's
    ``predict_batch_rows`` (one row-stacked INT8 SNP Gram per row
    group, solo tile-aligned shapes for every float product) — on one
    serving session per model, which it closes on ``close()``, and
    returns per-request latency/flops stats.

See the "Model artifacts & serving" section of ``docs/api.md`` for the
correctness (bitwise per-request) and batching guarantees.
"""

from repro.serve.registry import ModelKey, ModelRegistry, RegisteredModel
from repro.serve.service import PredictionService, PredictResult, ServiceStats

__all__ = [
    "ModelKey",
    "ModelRegistry",
    "RegisteredModel",
    "PredictionService",
    "PredictResult",
    "ServiceStats",
]
