"""Tests for dataset containers, splitting, I/O, confounders and the UKB cohort."""

import numpy as np
import pytest

from repro.data.confounders import genotype_principal_components, simulate_confounders
from repro.data.dataset import GWASDataset, TrainTestSplit
from repro.data.ukb import DISEASES, make_ukb_like_cohort


@pytest.fixture
def dataset(small_genotypes, rng):
    n = small_genotypes.shape[0]
    phenotypes = rng.normal(size=(n, 2))
    confounders = rng.normal(size=(n, 3))
    return GWASDataset(genotypes=small_genotypes, phenotypes=phenotypes,
                       confounders=confounders,
                       phenotype_names=["trait_a", "trait_b"], name="test")


class TestGWASDataset:
    def test_dimension_properties(self, dataset):
        assert dataset.n_individuals == 120
        assert dataset.n_snps == 40
        assert dataset.n_phenotypes == 2
        assert dataset.n_confounders == 3

    def test_phenotype_lookup(self, dataset):
        np.testing.assert_array_equal(dataset.phenotype("trait_b"),
                                      dataset.phenotypes[:, 1])
        with pytest.raises(KeyError):
            dataset.phenotype("missing")

    def test_one_dimensional_phenotypes_without_confounders(
            self, small_genotypes, rng):
        ds = GWASDataset(small_genotypes, rng.normal(size=120))
        assert ds.n_confounders == 0
        assert ds.n_phenotypes == 1  # 1D phenotypes promoted to a column

    def test_row_mismatch_raises(self, small_genotypes, rng):
        with pytest.raises(ValueError):
            GWASDataset(small_genotypes, rng.normal(size=50))

    def test_confounder_mismatch_raises(self, small_genotypes, rng):
        with pytest.raises(ValueError):
            GWASDataset(small_genotypes, rng.normal(size=120),
                        confounders=rng.normal(size=(60, 2)))

    def test_phenotype_names_default(self, small_genotypes, rng):
        ds = GWASDataset(small_genotypes, rng.normal(size=(120, 3)))
        assert ds.phenotype_names == ["phenotype_0", "phenotype_1", "phenotype_2"]

    def test_phenotype_name_length_mismatch(self, small_genotypes, rng):
        with pytest.raises(ValueError):
            GWASDataset(small_genotypes, rng.normal(size=(120, 2)),
                        phenotype_names=["only_one"])

    def test_subset(self, dataset):
        sub = dataset.subset(np.arange(10))
        assert sub.n_individuals == 10
        assert sub.phenotype_names == dataset.phenotype_names


class TestSplit:
    def test_split_sizes(self, dataset):
        split = dataset.split(train_fraction=0.8, seed=0)
        assert split.n_train == 96
        assert split.n_test == 24
        assert split.train.n_individuals == 96

    def test_split_disjoint_and_covering(self, dataset):
        split = dataset.split(0.75, seed=1)
        union = np.union1d(split.train_indices, split.test_indices)
        np.testing.assert_array_equal(union, np.arange(120))

    def test_split_reproducible(self, dataset):
        s1 = dataset.split(0.8, seed=3)
        s2 = dataset.split(0.8, seed=3)
        np.testing.assert_array_equal(s1.train_indices, s2.train_indices)

    def test_invalid_fraction(self, dataset):
        with pytest.raises(ValueError):
            dataset.split(1.5)

    def test_overlap_detection(self, dataset):
        with pytest.raises(ValueError):
            TrainTestSplit(dataset, np.array([0, 1]), np.array([1, 2]))


class TestConfounders:
    def test_shape_with_pcs(self, small_genotypes):
        c = simulate_confounders(120, genotypes=small_genotypes,
                                 n_principal_components=2, seed=0)
        assert c.shape == (120, 5)

    def test_shape_without_genotypes(self):
        c = simulate_confounders(50, seed=1)
        assert c.shape == (50, 3)

    def test_standardized_columns(self, small_genotypes):
        c = simulate_confounders(120, genotypes=small_genotypes, seed=2)
        assert np.all(np.abs(c.mean(axis=0)) < 0.5)
        assert np.all(c.std(axis=0) < 2.0)

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            simulate_confounders(0)

    def test_principal_components_orthogonal(self, small_genotypes):
        pcs = genotype_principal_components(small_genotypes, 3)
        assert pcs.shape == (120, 3)
        corr = np.corrcoef(pcs.T)
        off = corr[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off) < 1e-6)


class TestUKBCohort:
    def test_default_diseases(self):
        cohort = make_ukb_like_cohort(n_individuals=120, n_snps=30, seed=0)
        assert cohort.phenotype_names == list(DISEASES.keys())
        assert cohort.n_individuals == 120
        assert cohort.n_snps == 30
        assert cohort.confounders is not None

    def test_binary_phenotypes_option(self):
        cohort = make_ukb_like_cohort(n_individuals=200, n_snps=30, seed=1,
                                      binary_phenotypes=True)
        assert set(np.unique(cohort.phenotypes)).issubset({0.0, 1.0})
        # prevalences roughly respected
        assert cohort.phenotype("Hypertension").mean() == pytest.approx(0.27, abs=0.05)

    def test_continuous_phenotypes_standardized(self):
        cohort = make_ukb_like_cohort(n_individuals=150, n_snps=30, seed=2)
        assert np.allclose(cohort.phenotypes.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(cohort.phenotypes.std(axis=0), 1.0, atol=1e-9)

    def test_reproducible(self):
        c1 = make_ukb_like_cohort(n_individuals=100, n_snps=20, seed=3)
        c2 = make_ukb_like_cohort(n_individuals=100, n_snps=20, seed=3)
        np.testing.assert_array_equal(c1.genotypes, c2.genotypes)
        np.testing.assert_array_equal(c1.phenotypes, c2.phenotypes)

    def test_override_diseases(self):
        cohort = make_ukb_like_cohort(n_individuals=80, n_snps=20, seed=4,
                                      diseases=(("Asthma", 0.12),))
        assert cohort.phenotype_names == ["Asthma"]
