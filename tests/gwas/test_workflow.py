"""Tests for cross-validation and the end-to-end workflow driver."""

import numpy as np
import pytest

from repro.gwas.config import KRRConfig, RRConfig
from repro.gwas.cv import CrossValidationResult, grid_search_cv, kfold_indices
from repro.gwas.workflow import GWASWorkflow


class TestKFold:
    def test_partition(self):
        folds = kfold_indices(50, 5, seed=0)
        assert len(folds) == 5
        all_valid = np.concatenate([v for _, v in folds])
        np.testing.assert_array_equal(np.sort(all_valid), np.arange(50))

    def test_train_valid_disjoint(self):
        for train, valid in kfold_indices(30, 3, seed=1):
            assert np.intersect1d(train, valid).size == 0
            assert train.size + valid.size == 30

    def test_invalid_folds(self):
        with pytest.raises(ValueError):
            kfold_indices(10, 1)
        with pytest.raises(ValueError):
            kfold_indices(2, 5)


class TestGridSearch:
    def test_selects_best_hyperparameters(self, small_cohort):
        result = grid_search_cv(
            small_cohort.genotypes, small_cohort.phenotypes[:, 0],
            alphas=(0.5, 5.0), gammas=(0.01, 0.05),
            n_folds=2, base_config=KRRConfig(tile_size=64), seed=0,
        )
        assert isinstance(result, CrossValidationResult)
        assert (result.best_alpha, result.best_gamma) in result.scores
        assert result.best_score == min(result.scores.values())
        assert len(result.scores) == 4
        assert all(len(v) == 2 for v in result.fold_scores.values())

    def test_best_config_carries_selection(self, small_cohort):
        result = grid_search_cv(
            small_cohort.genotypes[:120], small_cohort.phenotypes[:120, 0],
            alphas=(1.0,), gammas=(0.02,), n_folds=2,
            base_config=KRRConfig(tile_size=40), seed=1,
        )
        cfg = result.best_config(KRRConfig(tile_size=40))
        assert cfg.alpha == result.best_alpha
        assert cfg.gamma == result.best_gamma
        assert cfg.tile_size == 40

    def test_empty_grid_raises(self, small_cohort):
        with pytest.raises(ValueError):
            grid_search_cv(small_cohort.genotypes, small_cohort.phenotypes[:, 0],
                           alphas=(), gammas=(0.1,))


class TestWorkflow:
    def test_rr_and_krr_use_same_split(self, small_cohort):
        wf = GWASWorkflow(small_cohort, train_fraction=0.8, seed=0)
        results = wf.compare(RRConfig(tile_size=16, regularization=10.0),
                             KRRConfig(tile_size=52))
        assert set(results.keys()) == {"rr", "krr"}
        n_test = wf.split.n_test
        assert results["rr"].predictions.shape[0] == n_test
        assert results["krr"].predictions.shape[0] == n_test
        # both read their session's ledger: RR's INT8 Gram is "build"
        for result in results.values():
            assert result.phase_flops["build"] > 0
            assert result.phase_flops["associate"] > 0

    def test_report_contains_all_phenotypes(self, small_cohort):
        wf = GWASWorkflow(small_cohort, seed=0)
        res = wf.run_krr(KRRConfig(tile_size=52))
        assert set(res.report.keys()) == set(small_cohort.phenotype_names)
        for metrics in res.report.values():
            assert {"mspe", "pearson", "r2"} <= set(metrics.keys())

    def test_mean_helpers(self, small_cohort):
        wf = GWASWorkflow(small_cohort, seed=0)
        res = wf.run_rr(RRConfig(tile_size=16, regularization=10.0))
        assert res.mean_mspe() == pytest.approx(
            np.mean([m["mspe"] for m in res.report.values()]))
        assert -1.0 <= res.mean_pearson() <= 1.0

    def test_krr_records_phase_flops(self, small_cohort):
        wf = GWASWorkflow(small_cohort, seed=0)
        res = wf.run_krr(KRRConfig(tile_size=52))
        assert res.phase_flops["build"] > 0
        assert res.phase_flops["associate"] > 0
