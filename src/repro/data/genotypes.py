"""Synthetic genotype matrices with allele-frequency and LD structure.

Genotypes are additive dosage codes 0/1/2 (number of minor alleles at a
biallelic SNP).  Two structural features matter for the paper's
experiments:

* **allele-frequency spectrum** — minor allele frequencies (MAF) are
  drawn from a Beta-like spectrum skewed toward rare variants, as in
  real SNP panels;
* **linkage disequilibrium (LD)** — neighbouring SNPs are correlated.
  The simulator generates haplotypes per LD block from a shared latent
  Gaussian with exponentially decaying correlation, then thresholds to
  alleles, which yields the familiar block-diagonal LD pattern that the
  paper's discussion of false positives (Sec. III) revolves around.

Optionally, a simple two-subpopulation structure can be injected (an
``F_ST``-like frequency divergence), providing the population-structure
confounding that multivariate methods are meant to absorb.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LDBlockConfig", "GenotypeSimulator", "simulate_genotypes"]


@dataclass(frozen=True)
class LDBlockConfig:
    """Linkage-disequilibrium block structure parameters.

    Parameters
    ----------
    block_size:
        Number of SNPs per LD block.
    decay:
        Correlation between adjacent SNPs within a block (``rho``);
        correlation between SNPs ``k`` apart decays as ``rho**k``.
    """

    block_size: int = 20
    decay: float = 0.7

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")
        if not 0.0 <= self.decay < 1.0:
            raise ValueError("decay must be in [0, 1)")


@dataclass
class GenotypeSimulator:
    """Simulator for 0/1/2 genotype matrices.

    Parameters
    ----------
    maf_low, maf_high:
        Range of minor allele frequencies; each SNP's MAF is sampled
        from a Beta(0.8, 3) distribution rescaled to this range, giving
        the rare-variant-heavy spectrum of SNP arrays.
    ld:
        LD block configuration; ``None`` generates independent SNPs.
    population_structure:
        When > 0, individuals are split into two subpopulations whose
        allele frequencies diverge by roughly this F_ST-like amount.
    seed:
        Seed of the underlying :class:`numpy.random.Generator`.
    """

    maf_low: float = 0.05
    maf_high: float = 0.5
    ld: LDBlockConfig | None = LDBlockConfig()
    population_structure: float = 0.0
    seed: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.maf_low <= self.maf_high <= 0.5:
            raise ValueError("require 0 < maf_low <= maf_high <= 0.5")
        if not 0.0 <= self.population_structure < 1.0:
            raise ValueError("population_structure must be in [0, 1)")
        self._rng = np.random.default_rng(self.seed)

    # ------------------------------------------------------------------
    def sample_mafs(self, n_snps: int) -> np.ndarray:
        """Draw minor allele frequencies for ``n_snps`` SNPs."""
        raw = self._rng.beta(0.8, 3.0, size=n_snps)
        return self.maf_low + raw * (self.maf_high - self.maf_low)

    def _haplotypes(self, n_haplotypes: int, mafs: np.ndarray) -> np.ndarray:
        """Sample 0/1 haplotypes with within-block LD."""
        n_snps = mafs.shape[0]
        if self.ld is None:
            u = self._rng.random((n_haplotypes, n_snps))
            return (u < mafs[None, :]).astype(np.int8)

        block = self.ld.block_size
        rho = self.ld.decay
        haplos = np.zeros((n_haplotypes, n_snps), dtype=np.int8)
        # latent AR(1) Gaussian per block, thresholded at the MAF quantile
        from scipy.stats import norm

        thresholds = norm.ppf(mafs)
        for start in range(0, n_snps, block):
            stop = min(start + block, n_snps)
            width = stop - start
            z = np.empty((n_haplotypes, width))
            z[:, 0] = self._rng.standard_normal(n_haplotypes)
            for k in range(1, width):
                innov = self._rng.standard_normal(n_haplotypes)
                z[:, k] = rho * z[:, k - 1] + np.sqrt(1.0 - rho ** 2) * innov
            haplos[:, start:stop] = (z < thresholds[None, start:stop]).astype(np.int8)
        return haplos

    def simulate(self, n_individuals: int, n_snps: int) -> np.ndarray:
        """Return an ``n_individuals × n_snps`` int8 genotype matrix (0/1/2)."""
        if n_individuals <= 0 or n_snps <= 0:
            raise ValueError("dimensions must be positive")
        mafs = self.sample_mafs(n_snps)

        if self.population_structure > 0.0:
            # split individuals into two subpopulations with diverged MAFs
            half = n_individuals // 2
            fst = self.population_structure
            shift = self._rng.normal(0.0, np.sqrt(fst * mafs * (1 - mafs)))
            mafs_a = np.clip(mafs + shift, 0.01, 0.99)
            mafs_b = np.clip(mafs - shift, 0.01, 0.99)
            g_a = self._diploid(half, mafs_a)
            g_b = self._diploid(n_individuals - half, mafs_b)
            genotypes = np.vstack([g_a, g_b])
            perm = self._rng.permutation(n_individuals)
            return genotypes[perm]

        return self._diploid(n_individuals, mafs)

    def _diploid(self, n_individuals: int, mafs: np.ndarray) -> np.ndarray:
        h1 = self._haplotypes(n_individuals, mafs)
        h2 = self._haplotypes(n_individuals, mafs)
        return (h1 + h2).astype(np.int8)


def simulate_genotypes(n_individuals: int, n_snps: int, seed: int | None = None,
                       ld_block_size: int = 20, ld_decay: float = 0.7,
                       maf_low: float = 0.05, maf_high: float = 0.5,
                       population_structure: float = 0.0) -> np.ndarray:
    """Convenience wrapper around :class:`GenotypeSimulator`."""
    sim = GenotypeSimulator(
        maf_low=maf_low,
        maf_high=maf_high,
        ld=LDBlockConfig(block_size=ld_block_size, decay=ld_decay)
        if ld_block_size > 1 else None,
        population_structure=population_structure,
        seed=seed,
    )
    return sim.simulate(n_individuals, n_snps)
