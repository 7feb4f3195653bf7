"""Level-3 BLAS driver: a one-call GEMM, tallied on a runtime's ledger.

The products the paper keeps in FP32 outside the task graph — RR's
``X^T Y`` and confounder blocks, Predict's ``K_test @ W`` — are one
product in their input precision.  (``X^T X``'s SNP block is the INT8
Gram of :func:`repro.distance.build.snp_gram`.)
"""

from __future__ import annotations

import numpy as np

from repro.precision.formats import Precision
from repro.precision.gemm import gemm_flop_count, gemm_mixed, variant_for_input
from repro.precision.quantize import quantize


def gemm(
    a: np.ndarray,
    b: np.ndarray,
    precision: Precision | str = Precision.FP32,
    transa: bool = False,
    transb: bool = False,
    runtime=None,
    phase: str = "gemm",
) -> np.ndarray:
    """Mixed-precision GEMM ``op(A) @ op(B)`` as one ``gemm_mixed`` call.

    Used for ``X^T Y`` in the RR path and ``K_test @ W`` in the Predict
    phase, both of which the paper keeps in FP32: the whole inner
    dimension accumulates in the variant's precision, as one cuBLAS
    ``sgemm`` does.

    With ``runtime`` its operation count is added to the
    ``runtime.ledger[phase]`` the solver sessions read
    (:meth:`Runtime.tally`); the product is not a task.
    """
    precision = Precision.from_string(precision)
    out = gemm_mixed(a, b, variant=variant_for_input(precision),
                     transa=transa, transb=transb)
    if runtime is not None:
        k = np.shape(a)[0 if transa else 1]
        runtime.tally(phase, {precision: gemm_flop_count(*out.shape, k)})
    return np.asarray(quantize(out, precision), dtype=np.float64)
