"""Distance computations and kernel-matrix construction (the Build phase).

Implements Sec. V-B1 and VI-B2 of the paper:

* :func:`squared_euclidean_gemm` — the GEMM-form squared Euclidean
  distance trick: fold per-patient squared norms into a vector ``d``
  and accumulate ``D = d·1ᵀ + 1·dᵀ − 2·G·Gᵀ`` with an INT8 SYRK, so
  the instruction-bound pairwise distance computation becomes a
  compute-bound matrix product.
* :func:`gaussian_kernel` — the kernel function of Algorithm 5.
* :class:`KernelBuilder` — the fused, tile-wise Build phase producing
  the KRR matrix ``K`` (optionally as a
  :class:`~repro.tiles.matrix.TileMatrix` with adaptive per-tile
  precisions), with the exact INT8 SNP contribution and the FP32
  confounder contribution accumulated separately.  It is the one route
  from genotypes to a kernel.
"""

from repro.distance.euclidean import (
    squared_euclidean_direct,
    squared_euclidean_gemm,
    squared_norms,
)
from repro.distance.kernels import gaussian_kernel
from repro.distance.build import BuildResult, BuildStats, KernelBuilder

__all__ = [
    "squared_norms",
    "squared_euclidean_gemm",
    "squared_euclidean_direct",
    "gaussian_kernel",
    "KernelBuilder",
    "BuildResult",
    "BuildStats",
]
