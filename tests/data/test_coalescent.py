"""Tests for the simplified coalescent (msprime stand-in) simulator."""

import numpy as np
import pytest

from repro.data.coalescent import (
    CoalescentSimulator,
    simulate_coalescent_genotypes,
)
from tests.data.popgen import allele_frequencies, ld_matrix


def site_frequency_spectrum(genotypes: np.ndarray, n_bins: int = 10) -> np.ndarray:
    """Histogram of derived-allele frequencies.

    Under the neutral coalescent the expected spectrum is ∝ 1/f — most
    sites rare — which is what distinguishes coalescent data from the
    uniform-frequency random fills also used in the paper's largest runs.
    """
    g = np.asarray(genotypes, dtype=np.float64)
    freqs = g.mean(axis=0) / 2.0
    hist, _ = np.histogram(freqs, bins=n_bins, range=(0.0, 1.0))
    return hist


class TestCoalescentGenotypes:
    def test_shape_and_values(self):
        g = simulate_coalescent_genotypes(80, 50, seed=0)
        assert g.shape == (80, 50)
        assert set(np.unique(g)).issubset({0, 1, 2})

    def test_deterministic(self):
        g1 = simulate_coalescent_genotypes(40, 30, seed=3)
        g2 = simulate_coalescent_genotypes(40, 30, seed=3)
        np.testing.assert_array_equal(g1, g2)

    def test_every_site_segregates(self):
        # one mutation is placed per site, so no column is monomorphic
        # across the *haplotypes*; at the genotype level a column can
        # still be all-zero only if the mutation hit a single haplotype
        # carried by nobody, which cannot happen.
        g = simulate_coalescent_genotypes(60, 40, seed=1)
        assert np.all(g.sum(axis=0) > 0)

    def test_rare_variant_skew(self):
        # neutral coalescent: the site-frequency spectrum is dominated by
        # low-frequency variants
        g = simulate_coalescent_genotypes(150, 400, seed=2)
        freqs = allele_frequencies(g)
        assert np.mean(freqs < 0.1) > np.mean(freqs > 0.4)

    def test_sfs_histogram(self):
        g = simulate_coalescent_genotypes(100, 200, seed=4)
        sfs = site_frequency_spectrum(g, n_bins=10)
        assert sfs.sum() == 200
        assert sfs[0] >= sfs[5]

    def test_ld_within_segments(self):
        sim = CoalescentSimulator(segment_snps=25, seed=5)
        g = sim.simulate(400, 50)
        r2 = ld_matrix(g)
        within = np.mean([r2[i, j] for i in range(20) for j in range(i + 1, 25)])
        between = np.mean([r2[i, j] for i in range(25) for j in range(25, 50)])
        assert within > between

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            CoalescentSimulator(seed=0).simulate(0, 10)
        with pytest.raises(ValueError):
            CoalescentSimulator(segment_snps=0)

    def test_partial_last_segment(self):
        g = simulate_coalescent_genotypes(30, 37, segment_snps=10, seed=6)
        assert g.shape == (30, 37)
