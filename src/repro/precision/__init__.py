"""Software-emulated low/mixed precision arithmetic.

The paper's performance comes from NVIDIA tensor cores operating in
INT8, FP8 (E4M3), FP16, FP32 and FP64.  On a CPU-only NumPy stack we
reproduce the *numerical* behaviour of those units — value grids,
rounding, saturation, and accumulation precision — so that every
accuracy result in the paper (precision heatmaps, MSPE comparisons,
Pearson correlations) can be reproduced bit-faithfully at the level of
the stored values.

Public surface
--------------
``Precision``
    Enumeration of the supported formats with their numerical metadata
    (unit roundoff, max finite value, bytes per element).
``quantize``
    Round an array to a given format's value grid.
``gemm_mixed``, ``syrk_mixed``
    Tensor-core-style matrix products: operands quantized to a low
    input precision, accumulation in a (usually wider) compute
    precision, output stored in an output precision.
``GemmVariant``
    Named variants matching the cuBLAS calls used in the paper
    (e.g. ``AB8I_C32I_OP32I``).
"""

from repro.precision.formats import (
    FP8_E4M3_MAX,
    FormatSpec,
    Precision,
    unit_roundoff,
)
from repro.precision.quantize import quantize
from repro.precision.gemm import (
    EXACT_DGEMM_BOUND,
    EXACT_SGEMM_BOUND,
    GemmVariant,
    QuantizedOperand,
    gemm_mixed,
    gemm_variant,
    integer_backend,
    integer_gemm_dtype,
    set_integer_backend,
    syrk_mixed,
)

__all__ = [
    "Precision",
    "FormatSpec",
    "unit_roundoff",
    "FP8_E4M3_MAX",
    "quantize",
    "GemmVariant",
    "QuantizedOperand",
    "gemm_variant",
    "gemm_mixed",
    "syrk_mixed",
    "integer_backend",
    "set_integer_backend",
    "integer_gemm_dtype",
    "EXACT_DGEMM_BOUND",
    "EXACT_SGEMM_BOUND",
]
