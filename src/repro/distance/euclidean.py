"""GEMM-form squared Euclidean distances with the INT8 tensor-core path.

The key Build-phase innovation of the paper (Sec. V-B1): for the
patients-by-SNPs matrix ``G`` with integer genotypes {0, 1, 2}, all
pairwise squared distances satisfy

    ||g_i - g_j||^2 = ||g_i||^2 + ||g_j||^2 - 2 * <g_i, g_j>,

so the full distance matrix is

    D = d 1^T + 1 d^T - 2 G G^T,

where ``d`` holds the per-patient squared norms.  ``G G^T`` is a
symmetric rank-k update that maps straight onto INT8 tensor cores
(operands INT8, accumulation INT32) because genotypes are small
integers; the squared norms are folded into a single vector rather than
a full matrix (the memory-footprint optimization of Sec. VI-B2); and
real-valued confounder columns are accumulated separately in FP32 and
added before the kernel exponentiation.
"""

from __future__ import annotations

import numpy as np

from repro.precision.formats import Precision
from repro.precision.gemm import GemmVariant, QuantizedOperand, variant_for_input


def squared_norms(g: np.ndarray, integer: bool = True) -> np.ndarray:
    """Per-row squared Euclidean norms (the folded ``d`` vector).

    For integer genotype data the norms are computed exactly in int64;
    for real-valued confounders in float64.
    """
    g = np.asarray(g)
    if integer:
        if np.issubdtype(g.dtype, np.integer):
            # einsum widens to the accumulation dtype internally —
            # exact, and skips a full int64 copy of the matrix
            return np.einsum("ij,ij->i", g, g, dtype=np.int64)
        gi = g.astype(np.int64)
        return np.einsum("ij,ij->i", gi, gi).astype(np.int64)
    gf = g.astype(np.float64)
    return np.einsum("ij,ij->i", gf, gf)


def snp_gram_variant(precision: Precision) -> GemmVariant:
    """The SNP Gram's GEMM variant at input ``precision`` (FP32 for a
    format other than INT8, FP64, FP32, FP16 and FP8 E4M3)."""
    return variant_for_input(precision if precision in (
        Precision.INT8, Precision.FP64, Precision.FP32, Precision.FP16,
        Precision.FP8_E4M3) else Precision.FP32)


def squared_euclidean_gemm(
    g1: np.ndarray,
    g2: np.ndarray | None = None,
    precision: Precision | str = Precision.INT8,
    snp_block: int = 4096,
) -> np.ndarray:
    """All-pairs squared Euclidean distances via the GEMM trick.

    Parameters
    ----------
    g1:
        ``n1 × ns`` matrix (rows are patients).
    g2:
        Optional ``n2 × ns`` matrix; defaults to ``g1`` (the symmetric
        training-kernel case, where the Gram part is a SYRK).
    precision:
        Input precision of the Gram product.  ``INT8`` (default) is
        exact for genotype data; float precisions model pushing
        real-valued data through the same path.
    snp_block:
        Column blocking of the SNP dimension (keeps INT32 partial sums
        in range and bounds temporary memory, per Sec. VI-B2).

    Returns
    -------
    numpy.ndarray
        ``n1 × n2`` matrix of squared distances (float64 container).
        For ``g2 is None`` the diagonal is exactly zero.
    """
    from repro.distance.build import snp_gram

    precision = Precision.from_string(precision)
    g1 = np.asarray(g1)
    symmetric = g2 is None
    g2v = g1 if symmetric else np.asarray(g2)
    if g2v.shape[1] != g1.shape[1]:
        raise ValueError("G1 and G2 must have the same number of columns")

    integer_input = precision.is_integer
    d1 = squared_norms(g1, integer=integer_input).astype(np.float64)
    d2 = d1 if symmetric else squared_norms(g2v, integer=integer_input).astype(np.float64)

    variant = snp_gram_variant(precision)
    q1 = QuantizedOperand(g1, variant.input_precision)
    q2 = q1 if symmetric else QuantizedOperand(g2v, variant.input_precision)
    gram = snp_gram(q1, q2, variant, snp_block, slice(0, len(g1)),
                    slice(0, len(g2v)))
    dist = d1[:, None] + d2[None, :] - 2.0 * gram
    # numerical floor: distances cannot be negative; integer path is exact
    np.maximum(dist, 0.0, out=dist)
    if symmetric:
        np.fill_diagonal(dist, 0.0)
    return dist


def squared_euclidean_direct(g1: np.ndarray, g2: np.ndarray | None = None) -> np.ndarray:
    """Reference pairwise squared distances (no GEMM trick), float64.

    Used by tests to verify the GEMM formulation and by the ablation
    benchmark comparing the instruction-bound and compute-bound forms.
    """
    g1 = np.asarray(g1, dtype=np.float64)
    g2v = g1 if g2 is None else np.asarray(g2, dtype=np.float64)
    diff = g1[:, None, :] - g2v[None, :, :]
    out = np.einsum("ijk,ijk->ij", diff, diff)
    if g2 is None:
        np.fill_diagonal(out, 0.0)
    return out
