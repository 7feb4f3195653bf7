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


def squared_norms(g: np.ndarray) -> np.ndarray:
    """Per-row squared Euclidean norms (the folded ``d`` vector) of an
    integer genotype panel, exact in int64.  A float panel is a
    ``TypeError`` (no safe cast to int64), never truncated."""
    # einsum widens to the accumulation dtype internally —
    # exact, and skips a full int64 copy of the matrix
    return np.einsum("ij,ij->i", g, g, dtype=np.int64)


def squared_euclidean_gemm(
    g1: np.ndarray,
    g2: np.ndarray | None = None,
    snp_block: int | None = None,
) -> np.ndarray:
    """All-pairs squared Euclidean distances via the GEMM trick.

    Parameters
    ----------
    g1:
        ``n1 × ns`` integer matrix (rows are patients), values in
        [−128, 127]: the Gram product is the exact INT8 one.
    g2:
        Optional ``n2 × ns`` matrix; defaults to ``g1`` (the symmetric
        training-kernel case, where the Gram part is a SYRK).
    snp_block:
        Column blocking of the SNP dimension (bounds temporary memory,
        per Sec. VI-B2); the Build's ``SNP_BLOCK`` when ``None``.

    Returns
    -------
    numpy.ndarray
        ``n1 × n2`` matrix of squared distances (float64 container):
        the exact integers of the Build's distance accumulator
        (:func:`~repro.distance.build.snp_gram`), so the diagonal of
        the ``g2 is None`` case is exactly zero.
    """
    from repro.distance.build import SNP_BLOCK, genotype_operand, snp_gram

    g1 = np.asarray(g1)
    symmetric = g2 is None
    g2v = g1 if symmetric else np.asarray(g2)
    if g2v.shape[1] != g1.shape[1]:
        raise ValueError("G1 and G2 must have the same number of columns")

    q1 = genotype_operand(g1)
    q2 = q1 if symmetric else genotype_operand(g2v)
    d1 = squared_norms(q1.array).astype(np.float64)
    d2 = d1 if symmetric else squared_norms(q2.array).astype(np.float64)
    block = SNP_BLOCK if snp_block is None else snp_block
    dist = snp_gram(q1, q2, block, slice(0, len(g1)), slice(0, len(g2v)),
                    (d1, d2))
    return dist.astype(np.float64)


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
