"""Tests for the LD-block genotype simulator."""

import numpy as np
import pytest

from repro.data.genotypes import (
    GenotypeSimulator,
    LDBlockConfig,
    simulate_genotypes,
)
from tests.data.popgen import allele_frequencies, ld_matrix


class TestGenotypeValues:
    def test_values_are_dosages(self):
        g = simulate_genotypes(100, 50, seed=0)
        assert g.dtype == np.int8
        assert set(np.unique(g)).issubset({0, 1, 2})
        assert g.shape == (100, 50)

    def test_deterministic_with_seed(self):
        g1 = simulate_genotypes(50, 30, seed=5)
        g2 = simulate_genotypes(50, 30, seed=5)
        np.testing.assert_array_equal(g1, g2)

    def test_different_seeds_differ(self):
        g1 = simulate_genotypes(50, 30, seed=1)
        g2 = simulate_genotypes(50, 30, seed=2)
        assert not np.array_equal(g1, g2)

    def test_maf_within_requested_range(self):
        g = simulate_genotypes(2000, 60, seed=3, maf_low=0.2, maf_high=0.5)
        freqs = allele_frequencies(g)
        # sampling noise allows slight excursions beyond the range
        assert freqs.min() > 0.1
        assert freqs.max() < 0.65

    def test_invalid_dimensions(self):
        sim = GenotypeSimulator(seed=0)
        with pytest.raises(ValueError):
            sim.simulate(0, 10)

    def test_invalid_maf_range(self):
        with pytest.raises(ValueError):
            GenotypeSimulator(maf_low=0.6, maf_high=0.7)

    def test_invalid_ld_config(self):
        with pytest.raises(ValueError):
            LDBlockConfig(block_size=0)
        with pytest.raises(ValueError):
            LDBlockConfig(decay=1.5)


class TestLDStructure:
    def test_within_block_ld_exceeds_between_block(self):
        sim = GenotypeSimulator(ld=LDBlockConfig(block_size=10, decay=0.8),
                                maf_low=0.2, seed=4)
        g = sim.simulate(1500, 40)
        r2 = ld_matrix(g)
        within = [r2[i, i + 1] for b in range(0, 40, 10) for i in range(b, b + 9)]
        between = [r2[i, j] for i in range(0, 10) for j in range(20, 30)]
        assert np.mean(within) > 5 * abs(np.mean(between))
        assert np.mean(within) > 0.1

    def test_no_ld_when_disabled(self):
        sim = GenotypeSimulator(ld=None, maf_low=0.3, seed=5)
        g = sim.simulate(1500, 30)
        r2 = ld_matrix(g)
        off = r2[~np.eye(30, dtype=bool)]
        assert np.mean(off) < 0.02

    def test_ld_decays_with_distance(self):
        sim = GenotypeSimulator(ld=LDBlockConfig(block_size=20, decay=0.8),
                                maf_low=0.25, seed=6)
        g = sim.simulate(2000, 20)
        r2 = ld_matrix(g)
        adjacent = np.mean([r2[i, i + 1] for i in range(19)])
        distant = np.mean([r2[i, i + 10] for i in range(10)])
        assert adjacent > distant


class TestPopulationStructure:
    def test_structure_increases_pc_separation(self):
        plain = GenotypeSimulator(population_structure=0.0, seed=7).simulate(300, 80)
        structured = GenotypeSimulator(population_structure=0.2, seed=7).simulate(300, 80)
        from repro.data.confounders import genotype_principal_components

        pc_plain = genotype_principal_components(plain, 1).std()
        pc_struct = genotype_principal_components(structured, 1).std()
        assert pc_struct > pc_plain

    def test_invalid_structure_parameter(self):
        with pytest.raises(ValueError):
            GenotypeSimulator(population_structure=1.5)


class TestDiagnostics:
    def test_allele_frequencies_range(self):
        g = simulate_genotypes(200, 40, seed=8)
        freqs = allele_frequencies(g)
        assert np.all(freqs >= 0) and np.all(freqs <= 1)

    def test_ld_matrix_diagonal_one(self):
        g = simulate_genotypes(200, 20, seed=9, maf_low=0.3)
        r2 = ld_matrix(g)
        np.testing.assert_allclose(np.diag(r2), 1.0, atol=1e-10)
