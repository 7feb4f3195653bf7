"""Tests for the REGENIE-like stacked ridge and the GRM-based LMM baselines."""

import numpy as np
import pytest

from repro.baselines.lmm import GRMLinearMixedModel, genetic_relationship_matrix
from repro.baselines.regenie import RegenieConfig, RegenieLikeRegression
from repro.data.genotypes import simulate_genotypes
from repro.data.phenotypes import PhenotypeModel
from repro.gwas.metrics import pearson_correlation


@pytest.fixture(scope="module")
def additive_cohort():
    g = simulate_genotypes(500, 60, seed=21, maf_low=0.2)
    model = PhenotypeModel(n_causal=20, n_epistatic_pairs=0,
                           heritability_additive=0.6,
                           heritability_epistatic=0.0, seed=22)
    y = model.simulate(g)
    return g, y


class TestRegenie:
    def test_predicts_additive_signal(self, additive_cohort):
        g, y = additive_cohort
        model = RegenieLikeRegression(RegenieConfig(block_size=16, n_folds=3))
        pred = model.fit_predict(g[:400], y[:400], g[400:])
        assert pearson_correlation(y[400:], pred) > 0.4

    def test_beats_mean_predictor(self, additive_cohort):
        g, y = additive_cohort
        model = RegenieLikeRegression(RegenieConfig(block_size=16, n_folds=3))
        pred = model.fit_predict(g[:400], y[:400], g[400:])
        mse_model = np.mean((y[400:] - pred) ** 2)
        mse_mean = np.mean((y[400:] - y[:400].mean()) ** 2)
        assert mse_model < mse_mean

    def test_level1_lambda_selected_from_grid(self, additive_cohort):
        g, y = additive_cohort
        cfg = RegenieConfig(block_size=16, n_folds=3,
                            level1_ridge_values=(0.1, 10.0))
        model = RegenieLikeRegression(cfg)
        model.fit(g[:300], y[:300])
        assert model._level1_lambda in cfg.level1_ridge_values

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            RegenieLikeRegression().predict(np.zeros((3, 8)))

    def test_multivariate_fit(self, additive_cohort):
        g, y = additive_cohort
        models = RegenieLikeRegression(RegenieConfig(block_size=16, n_folds=2)) \
            .fit_multivariate(g[:200], np.column_stack([y[:200], y[:200]]))
        assert len(models) == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RegenieConfig(block_size=0)
        with pytest.raises(ValueError):
            RegenieConfig(n_folds=1)
        with pytest.raises(ValueError):
            RegenieConfig(level0_ridge_values=())

    def test_keyword_overrides(self):
        model = RegenieLikeRegression(block_size=8)
        assert model.config.block_size == 8


class TestGRM:
    def test_grm_diagonal_near_one(self, additive_cohort):
        g, _ = additive_cohort
        grm = genetic_relationship_matrix(g[:100])
        assert np.mean(np.diag(grm)) == pytest.approx(1.0, abs=0.15)
        np.testing.assert_allclose(grm, grm.T)

    def test_cross_grm_shape(self, additive_cohort):
        g, _ = additive_cohort
        cross = genetic_relationship_matrix(g[:30], reference=g[30:80])
        assert cross.shape == (30, 50)

    def test_snp_mismatch_raises(self, additive_cohort):
        g, _ = additive_cohort
        with pytest.raises(ValueError):
            genetic_relationship_matrix(g[:10, :20], reference=g[:10, :30])


class TestLMM:
    def test_heritability_estimated_high_for_heritable_trait(self, additive_cohort):
        g, y = additive_cohort
        model = GRMLinearMixedModel().fit(g[:300], y[:300])
        assert model.heritability_ > 0.3

    def test_heritability_low_for_noise(self, additive_cohort, rng):
        g, _ = additive_cohort
        noise = rng.normal(size=300)
        model = GRMLinearMixedModel().fit(g[:300], noise)
        assert model.heritability_ < 0.4

    def test_blup_prediction_correlates(self, additive_cohort):
        g, y = additive_cohort
        pred = GRMLinearMixedModel().fit_predict(g[:400], y[:400], g[400:])
        assert pred.shape == (100,)
        assert pearson_correlation(y[400:], pred) > 0.2

    def test_predict_before_fit_raises(self, additive_cohort):
        g, _ = additive_cohort
        with pytest.raises(RuntimeError):
            GRMLinearMixedModel().predict(g[:5])

    def test_covariate_shape_mismatch(self, additive_cohort, rng):
        g, y = additive_cohort
        model = GRMLinearMixedModel().fit(g[:200], y[:200],
                                          covariates=rng.normal(size=(200, 2)))
        with pytest.raises(ValueError):
            model.predict(g[200:250])  # covariates missing
