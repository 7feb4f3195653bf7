"""Population-genetics statistics the simulator tests check against."""

import numpy as np


def allele_frequencies(genotypes: np.ndarray) -> np.ndarray:
    """Empirical allele frequency of each SNP from a 0/1/2 matrix."""
    g = np.asarray(genotypes, dtype=np.float64)
    return g.mean(axis=0) / 2.0


def ld_matrix(genotypes: np.ndarray) -> np.ndarray:
    """Pairwise LD (squared Pearson correlation, r²) between SNPs."""
    g = np.asarray(genotypes, dtype=np.float64)
    g = g - g.mean(axis=0, keepdims=True)
    std = g.std(axis=0, keepdims=True)
    std[std == 0] = 1.0
    g = g / std
    r = (g.T @ g) / g.shape[0]
    return r ** 2
