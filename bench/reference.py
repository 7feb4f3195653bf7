"""Correctness oracle: dense FP64 kernel ridge regression.

Independent of ``repro``: the Gaussian kernel, the bandwidth
normalisation and the regularised solve are restated here from their
definitions, so a change under ``src/`` cannot move the reference with
it.  The only approximation is none: squared distances of 0/1/2
genotypes are integers below ``4 * ns``, which float32 holds exactly
while ``4 * ns < 2**24``, so the sgemm below is exact.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

#: ``pred_rel_err`` a precision plan may reach before its rep fails.
TOLERANCE = {
    "fp64": 1e-10,
    "fp32": 1e-4,
    "adaptive_fp16": 1e-2,
    "adaptive_fp8": 0.25,
}

#: Largest relative deviation of a CG-route fold MSPE from the dense solve.
CV_MSPE_TOLERANCE = 1e-6

#: SNP count the bandwidth ``gamma`` is quoted at (``KRRConfig`` docs).
GAMMA_REFERENCE_SNPS = 200.0


def effective_gamma(gamma: float, n_snps: int) -> float:
    return gamma * GAMMA_REFERENCE_SNPS / n_snps


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ns = a.shape[1]
    dtype = np.float32 if 4 * ns < 2 ** 24 else np.float64
    out = (a.astype(dtype) @ b.astype(dtype).T).astype(np.float64)
    # in place: every fresh n x n array is set-up time spent in page faults
    out *= -2.0
    out += np.einsum("ij,ij->i", a, a, dtype=np.int64)[:, None]
    out += np.einsum("ij,ij->i", b, b, dtype=np.int64)[None, :]
    return out


def gaussian_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    out = squared_distances(a, b)
    out *= -gamma
    return np.exp(out, out=out)


def krr_weights(kernel: np.ndarray, y: np.ndarray, alpha: float):
    """``(W, means)`` of ``(K + alpha I) W = Y - means``; ``kernel`` is consumed."""
    kernel[np.diag_indices_from(kernel)] += alpha
    means = y.mean(axis=0)
    factor = cho_factor(kernel, lower=True, overwrite_a=True,
                        check_finite=False)
    return cho_solve(factor, y - means, check_finite=False), means


def krr_predict(g: np.ndarray, y: np.ndarray, g_test: np.ndarray,
                alpha: float, gamma: float) -> np.ndarray:
    """Dense FP64 KRR predictions for ``g_test`` (``gamma`` already effective)."""
    weights, means = krr_weights(gaussian_kernel(g, g, gamma), y, alpha)
    return gaussian_kernel(g_test, g, gamma) @ weights + means


def fold_mspes(g_train, y_train, g_valid, y_valid, alphas, gamma) -> list[float]:
    """Validation MSPE of one fold at every ``alpha``, by dense solves."""
    kernel = gaussian_kernel(g_train, g_train, gamma)
    cross = gaussian_kernel(g_valid, g_train, gamma)
    out = []
    for alpha in alphas:
        weights, means = krr_weights(kernel.copy(), y_train, alpha)
        out.append(float(np.mean((y_valid - (cross @ weights + means)) ** 2)))
    return out


def rel_err(pred: np.ndarray, ref: np.ndarray) -> float:
    """``||pred - ref||_F / ||ref||_F``."""
    return float(np.linalg.norm(pred - ref) / np.linalg.norm(ref))


def perturbed(ref):
    """A deliberately wrong reference: every check against it must fail."""
    return np.asarray(ref, dtype=np.float64) * 2.0 + 1.0
