"""The kernel function of KRR (Algorithm 5 of the paper).

The **Gaussian (RBF) kernel** ``k(p1, p2) = exp(-gamma * ||p1 - p2||^2)``
is the kernel the paper uses for its accuracy and performance results
(γ = 0.01 in Fig. 5), and the only one the Build computes.
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
