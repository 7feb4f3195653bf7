"""Tests for the three-phase KRR GWAS solver (``KRRSession``)."""

import numpy as np
import pytest

from repro.distance.euclidean import squared_euclidean_gemm
from repro.distance.kernels import gaussian_kernel
from repro.gwas.config import KRRConfig, PrecisionPlan
from repro.gwas.session import KRRSession
from repro.precision.formats import Precision
from repro.tiles.matrix import TileMatrix


def _reference_krr(g_train, y_train, g_test, gamma, alpha):
    """Direct FP64 KRR (no tiling, no mixed precision)."""
    k = gaussian_kernel(squared_euclidean_gemm(g_train, precision="fp64"), gamma)
    y_mean = y_train.mean(axis=0)
    w = np.linalg.solve(k + alpha * np.eye(k.shape[0]), y_train - y_mean)
    k_test = gaussian_kernel(
        squared_euclidean_gemm(g_test, g_train, precision="fp64"), gamma)
    return k_test @ w + y_mean


@pytest.fixture
def cohort_arrays(small_cohort):
    split = small_cohort.split(0.8, seed=0)
    return split.train, split.test


class TestPhases:
    def test_build_returns_symmetric_kernel(self, cohort_arrays):
        train, _ = cohort_arrays
        build = KRRSession(KRRConfig(tile_size=52)).build(train.genotypes)
        assert isinstance(build.kernel, TileMatrix)
        k = build.to_dense()
        np.testing.assert_allclose(k, k.T)
        np.testing.assert_allclose(np.diag(k), 1.0)

    def test_associate_solves_regularized_system(self, cohort_arrays):
        train, _ = cohort_arrays
        cfg = KRRConfig(tile_size=52, alpha=0.5,
                        precision_plan=PrecisionPlan.fp32())
        session = KRRSession(cfg)
        build = session.build(train.genotypes)
        weights = session.associate(train.phenotypes)
        k = build.to_dense()
        y_centered = train.phenotypes - train.phenotypes.mean(axis=0)
        residual = (k + 0.5 * np.eye(k.shape[0])) @ weights - y_centered
        assert np.linalg.norm(residual) / np.linalg.norm(y_centered) < 1e-3

    def test_fit_predict_matches_reference_in_high_precision(self, cohort_arrays):
        train, test = cohort_arrays
        cfg = KRRConfig(tile_size=52, alpha=0.5, gamma=0.02, normalize_gamma=False,
                        precision_plan=PrecisionPlan.fp64(),
                        snp_precision=Precision.INT8)
        pred = KRRSession(cfg).fit_predict(train.genotypes, train.phenotypes, test.genotypes)
        reference = _reference_krr(train.genotypes, train.phenotypes,
                                   test.genotypes, 0.02, 0.5)
        np.testing.assert_allclose(pred, reference, rtol=1e-4, atol=1e-4)

    def test_adaptive_fp16_close_to_fp32(self, cohort_arrays):
        train, test = cohort_arrays
        base = dict(tile_size=52, alpha=0.5)
        pred32 = KRRSession(KRRConfig(
            precision_plan=PrecisionPlan.fp32(), **base)).fit_predict(
            train.genotypes, train.phenotypes, test.genotypes)
        pred16 = KRRSession(KRRConfig(
            precision_plan=PrecisionPlan.adaptive_fp16(), **base)).fit_predict(
            train.genotypes, train.phenotypes, test.genotypes)
        assert np.corrcoef(pred32.ravel(), pred16.ravel())[0, 1] > 0.99

    def test_fp8_floor_degrades_but_correlates(self, cohort_arrays):
        train, test = cohort_arrays
        base = dict(tile_size=52, alpha=0.5)
        pred32 = KRRSession(KRRConfig(
            precision_plan=PrecisionPlan.fp32(), **base)).fit_predict(
            train.genotypes, train.phenotypes, test.genotypes)
        pred8 = KRRSession(KRRConfig(
            precision_plan=PrecisionPlan.adaptive_fp8(), **base)).fit_predict(
            train.genotypes, train.phenotypes, test.genotypes)
        err8 = np.linalg.norm(pred8 - pred32)
        assert err8 > 0  # FP8 storage is visibly different
        assert np.corrcoef(pred32.ravel(), pred8.ravel())[0, 1] > 0.9

    def test_phase_flops_recorded(self, cohort_arrays):
        train, test = cohort_arrays
        session = KRRSession(KRRConfig(tile_size=52))
        session.fit(train.genotypes, train.phenotypes, train.confounders)
        flops = session.phase_flops
        assert flops["build"] > 0 and flops["associate"] > 0
        session.predict(test.genotypes, test.confounders)
        assert session.phase_flops["predict"] > 0

    def test_precision_map_attached_for_adaptive_plans(self, cohort_arrays):
        train, _ = cohort_arrays
        session = KRRSession(KRRConfig(
            tile_size=52, precision_plan=PrecisionPlan.adaptive_fp16()))
        session.fit(train.genotypes, train.phenotypes)
        assert session.build_result_.precision_map is not None


class TestErrorsAndReuse:
    def test_snp_panel_mismatch(self, cohort_arrays):
        train, test = cohort_arrays
        session = KRRSession(KRRConfig(tile_size=52))
        session.fit(train.genotypes, train.phenotypes)
        with pytest.raises(ValueError):
            session.predict(test.genotypes[:, :10])

    def test_confounder_configuration_mismatch(self, cohort_arrays):
        train, test = cohort_arrays
        session = KRRSession(KRRConfig(tile_size=52))
        session.fit(train.genotypes, train.phenotypes, train.confounders)
        with pytest.raises(ValueError):
            session.predict(test.genotypes)  # confounders missing

    def test_row_mismatch(self, cohort_arrays):
        train, _ = cohort_arrays
        with pytest.raises(ValueError):
            KRRSession(KRRConfig(tile_size=52)).fit(
                train.genotypes, train.phenotypes[:-3])

    def test_solve_additional_phenotypes_matches_full_fit(self, cohort_arrays, rng):
        train, _ = cohort_arrays
        cfg = KRRConfig(tile_size=52, precision_plan=PrecisionPlan.fp32())
        session = KRRSession(cfg)
        session.fit(train.genotypes, train.phenotypes[:, :1])
        extra = session.solve_additional_phenotypes(train.phenotypes[:, 1:])
        full = KRRSession(cfg)
        full.fit(train.genotypes, train.phenotypes)
        np.testing.assert_allclose(extra, full.weights_[:, 1:],
                                   rtol=1e-5, atol=1e-6)

    def test_additional_phenotypes_need_one_row_per_individual(
            self, cohort_arrays):
        """A longer panel used to be solved on its first rows."""
        train, _ = cohort_arrays
        session = KRRSession(KRRConfig(tile_size=52))
        session.fit(train.genotypes, train.phenotypes[:, :1])
        extra = np.vstack([train.phenotypes, train.phenotypes[:30]])
        with pytest.raises(ValueError, match="one row per training"):
            session.solve_additional_phenotypes(extra)

    def test_keyword_overrides(self):
        session = KRRSession(alpha=2.0, gamma=0.5)
        assert session.config.alpha == 2.0
        assert session.config.gamma == 0.5
