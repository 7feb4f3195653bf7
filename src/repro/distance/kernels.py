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
    """
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    d = np.asarray(sq_distances, dtype=np.float64)
    out = np.multiply(d, -gamma, out=out)
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


def ibs_kernel_gemm(g1: np.ndarray, g2: np.ndarray | None = None) -> np.ndarray:
    """IBS kernel computed with GEMM-friendly indicator encoding.

    ``|a - b|`` summed over SNPs can be obtained from inner products of
    the dosages and of the 0/2 genotype indicators, turning the IBS
    kernel into matrix products just like the Gaussian kernel — the
    "similarity kernels recast as distance kernels" observation of the
    paper's conclusions.
    """
    g1 = np.asarray(g1)
    g2v = g1 if g2 is None else np.asarray(g2)
    ns = g1.shape[1]
    if ns == 0:
        raise ValueError("at least one SNP is required")

    dose1 = np.clip(np.rint(np.asarray(g1, dtype=np.float64)), 0, 2)
    dose2 = np.clip(np.rint(np.asarray(g2v, dtype=np.float64)), 0, 2)
    # for values in {0,1,2}: |a-b| = (a-b)^2 - 2*I[|a-b|=2], where
    # I[|a-b|=2] = I[a=0,b=2] + I[a=2,b=0]
    sq = (
        np.einsum("ij,ij->i", dose1, dose1)[:, None]
        + np.einsum("ij,ij->i", dose2, dose2)[None, :]
        - 2.0 * dose1 @ dose2.T
    )
    a0 = (dose1 == 0).astype(np.float64)
    a2 = (dose1 == 2).astype(np.float64)
    b0 = (dose2 == 0).astype(np.float64)
    b2 = (dose2 == 2).astype(np.float64)
    extreme = a0 @ b2.T + a2 @ b0.T
    l1 = sq - 2.0 * extreme
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
