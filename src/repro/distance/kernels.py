"""Kernel functions for KRR (Algorithm 5 of the paper).

Two kernel families are implemented:

* The **Gaussian (RBF) kernel** ``k(p1, p2) = exp(-gamma * ||p1 - p2||^2)``,
  the kernel the paper uses for its accuracy and performance results
  (γ = 0.01 in Fig. 5).
* The **IBS (identical-by-state) kernel** from SKAT,
  ``k(p1, p2) = (number of shared alleles) / (2 * NS)``, which counts,
  per SNP, how many of the two alleles two individuals share
  (2 - |g1 - g2| for genotypes coded 0/1/2).
"""

from __future__ import annotations

import numpy as np


def gaussian_kernel(sq_distances: np.ndarray, gamma: float,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Gaussian kernel from precomputed squared distances.

    ``K = exp(-gamma * D)`` applied element-wise; this is the
    exponentiation fused into the Build phase tile release in the paper.
    ``out`` (which may be ``sq_distances`` itself) receives the result.
    Integer distances are converted to float64 inside the product.
    """
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    out = np.multiply(sq_distances, -gamma, out=out, dtype=np.float64)
    return np.exp(out, out=out)


def gaussian_kernel_pairwise(g1: np.ndarray, g2: np.ndarray | None, gamma: float,
                             precision="int8") -> np.ndarray:
    """Gaussian kernel computed end-to-end from genotype matrices."""
    from repro.distance.euclidean import squared_euclidean_gemm

    d = squared_euclidean_gemm(g1, g2, precision=precision)
    return gaussian_kernel(d, gamma)


def ibs_kernel(g1: np.ndarray, g2: np.ndarray | None = None) -> np.ndarray:
    """Identical-by-state kernel for genotypes coded 0/1/2.

    For two individuals with genotypes ``a`` and ``b`` at one biallelic
    SNP, the number of alleles identical by state is ``2 - |a - b|``
    (2 when equal, 1 when they differ by one, 0 when one is 0 and the
    other 2).  The kernel averages this over SNPs and normalizes by the
    2 alleles per locus, giving values in [0, 1] with 1 on the diagonal.
    """
    g1 = np.asarray(g1, dtype=np.float64)
    g2v = g1 if g2 is None else np.asarray(g2, dtype=np.float64)
    ns = g1.shape[1]
    if g2v.shape[1] != ns:
        raise ValueError("genotype matrices must have the same number of SNPs")
    if ns == 0:
        raise ValueError("at least one SNP is required")
    # sum over SNPs of |a - b| via the L1 distance
    l1 = np.abs(g1[:, None, :] - g2v[None, :, :]).sum(axis=2)
    shared = 2.0 * ns - l1
    return shared / (2.0 * ns)


def kernel_from_distance(sq_distances: np.ndarray, kernel_type: str = "gaussian",
                         gamma: float = 0.01) -> np.ndarray:
    """Apply a kernel function to a precomputed squared-distance matrix."""
    if kernel_type.lower() == "gaussian":
        return gaussian_kernel(sq_distances, gamma)
    raise ValueError(
        f"kernel {kernel_type!r} cannot be computed from distances alone; "
        "use ibs_kernel for the IBS kernel"
    )
