"""Micro-batch planning for the prediction service.

A *micro-batch* is a group of queued predict requests against the same
fitted model that execute as one unit: the session row-stacks the
cohorts into one streamed Predict
(:meth:`~repro.gwas.session.KRRSession.predict_many`), so the
train-side operand state is prepared once.

The exact part is row-stacked; the float part keeps solo shapes.  The
INT8 SNP Gram is exact integer arithmetic, so its bits do not depend on
the rows it runs over, and it runs once per *row group*: consecutive
row batches, possibly from several cohorts, of at most one effective
batch of rows.  Float BLAS products are *row-shape-sensitive* in the
last bits: an sgemm over an ``m=33`` panel and the same 33 rows inside
an ``m=233`` panel can round differently.  So the FP32 confounder
Gram, a float ``snp_precision`` Gram and ``K·W`` run per cohort, with
the tile-aligned block shapes a solo ``predict`` would use; batches
and tile-row bands never straddle two cohorts.  That gives the shared
Gram *and* the bitwise per-request contract.

This module holds the model-independent parts: request-group
validation and the tile-aligned row-slice plan (used for stats and
tests; the slices mirror the batches ``iter_cross_rows`` cuts each
cohort into).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.gwas.session import effective_batch_rows

__all__ = ["MicroBatchPlan", "plan_micro_batch", "micro_batch_slices",
           "effective_batch_rows"]


@dataclass(frozen=True)
class MicroBatchPlan:
    """Validated request group plus its per-request streaming geometry.

    Attributes
    ----------
    n_requests:
        Requests coalesced into this micro-batch.
    total_rows:
        Summed cohort rows across the batch.
    row_batches:
        Per request, how many tile-aligned row batches its cohort
        streams through.
    """

    n_requests: int
    total_rows: int
    row_batches: tuple[int, ...]


def micro_batch_slices(n_rows: int, tile_size: int,
                       batch_rows: int | None) -> list[slice]:
    """Tile-aligned row slices one cohort streams through.

    Mirrors the session's streamed Predict: the requested batch is
    rounded to a tile multiple (minimum one tile); ``None`` streams the
    cohort as a single monolithic batch.
    """
    if n_rows < 0:
        raise ValueError("n_rows must be non-negative")
    effective = effective_batch_rows(tile_size, batch_rows)
    if effective is None or n_rows == 0:
        return [slice(0, n_rows)]
    return [slice(r0, min(r0 + effective, n_rows))
            for r0 in range(0, n_rows, effective)]


def plan_micro_batch(genotype_list: list[np.ndarray],
                     confounder_list: list[np.ndarray | None] | None,
                     tile_size: int,
                     batch_rows: int | None) -> MicroBatchPlan:
    """Validate a request group and compute its streaming geometry.

    Raises when the group is not homogeneous — different SNP panels, or
    a mix of confounded and unconfounded requests (the service keys its
    queues so this indicates a caller bug, not a data condition).
    """
    if not genotype_list:
        raise ValueError("cannot plan an empty micro-batch")
    mats = [np.asarray(g) for g in genotype_list]
    for g in mats:
        if g.ndim != 2:
            raise ValueError("each request cohort must be a 2D matrix")
        if g.shape[1] != mats[0].shape[1]:
            raise ValueError("all requests must share the SNP panel")
    if confounder_list is not None:
        if len(confounder_list) != len(mats):
            raise ValueError("confounder_list must match the request list")
        present = [c is not None for c in confounder_list]
        if any(present) != all(present):
            raise ValueError(
                "cannot coalesce confounded and unconfounded requests")
        for c, g in zip(confounder_list, mats):
            if c is not None and np.asarray(c).shape[0] != g.shape[0]:
                raise ValueError(
                    "confounders must have one row per cohort individual")
    effective = effective_batch_rows(tile_size, batch_rows)
    row_batches = tuple(
        1 if effective is None or g.shape[0] == 0
        else max(1, math.ceil(g.shape[0] / effective))
        for g in mats)
    return MicroBatchPlan(
        n_requests=len(mats),
        total_rows=sum(g.shape[0] for g in mats),
        row_batches=row_batches,
    )
