"""End-to-end integration tests of the paper's headline claims.

These tests exercise the whole stack — synthetic cohort generation,
the INT8 GEMM-form Build phase, the adaptive-precision tiled Cholesky
Associate phase, and the Predict phase — and assert the qualitative
results of the paper's evaluation:

1. KRR captures epistatic signal that linear RR misses (Table I/Fig. 5).
2. The adaptive FP16 mosaic preserves the FP32 accuracy (Fig. 5).
3. The FP8 floor degrades accuracy only slightly (Fig. 6 / Table I).
4. The runtime-scheduled factorization is numerically identical to the
   direct tile-by-tile execution.
5. KRR also beats the REGENIE-like and LMM baselines on epistatic traits.
"""

import numpy as np
import pytest

from repro.baselines.lmm import GRMLinearMixedModel
from repro.baselines.regenie import RegenieConfig, RegenieLikeRegression
from repro.gwas.config import KRRConfig, PrecisionPlan, RRConfig
from repro.gwas.session import KRRSession
from repro.gwas.metrics import pearson_correlation
from repro.gwas.workflow import GWASWorkflow


@pytest.fixture(scope="module")
def workflow(accuracy_workflow):
    return accuracy_workflow


@pytest.fixture(scope="module")
def krr_result(workflow):
    return workflow.run_krr(KRRConfig(tile_size=64,
                                      precision_plan=PrecisionPlan.adaptive_fp16()))


@pytest.fixture(scope="module")
def rr_result(workflow):
    return workflow.run_rr(RRConfig(tile_size=16, regularization=10.0,
                                    precision_plan=PrecisionPlan.adaptive_fp16()))


class TestKRRvsRR:
    def test_krr_pearson_higher_on_average(self, krr_result, rr_result):
        assert krr_result.mean_pearson() > rr_result.mean_pearson() + 0.1

    def test_krr_mspe_lower_on_average(self, krr_result, rr_result):
        assert krr_result.mean_mspe() < 0.92 * rr_result.mean_mspe()

    def test_krr_wins_on_majority_of_diseases(self, krr_result, rr_result, workflow):
        names = workflow.dataset.phenotype_names
        wins = sum(krr_result.pearson(n) > rr_result.pearson(n) for n in names)
        assert wins >= len(names) - 1

    def test_rr_correlation_in_paper_range(self, rr_result):
        # linear RR saturates at the additive+confounder share (~0.2-0.4)
        assert 0.0 < rr_result.mean_pearson() < 0.5

    def test_krr_correlation_substantial(self, krr_result):
        assert krr_result.mean_pearson() > 0.4


class TestPrecisionPlans:
    def test_adaptive_fp16_matches_fp32_accuracy(self, workflow):
        fp32 = workflow.run_krr(KRRConfig(tile_size=64,
                                          precision_plan=PrecisionPlan.fp32()))
        fp16 = workflow.run_krr(KRRConfig(tile_size=64,
                                          precision_plan=PrecisionPlan.adaptive_fp16()))
        assert fp16.mean_mspe() == pytest.approx(fp32.mean_mspe(), rel=0.05)
        assert fp16.mean_pearson() == pytest.approx(fp32.mean_pearson(), abs=0.05)

    def test_fp8_floor_small_degradation_still_beats_rr(self, workflow, rr_result):
        fp8 = workflow.run_krr(KRRConfig(tile_size=64,
                                         precision_plan=PrecisionPlan.adaptive_fp8()))
        fp16 = workflow.run_krr(KRRConfig(tile_size=64,
                                          precision_plan=PrecisionPlan.adaptive_fp16()))
        # degradation vs FP16 is bounded ...
        assert fp8.mean_pearson() > fp16.mean_pearson() - 0.15
        # ... and FP8 KRR still clearly better than FP16 RR (Table I, last column)
        assert fp8.mean_pearson() > rr_result.mean_pearson()


class TestRuntimeConsistency:
    def test_runtime_and_direct_factorization_agree_end_to_end(self, workflow):
        """The task-runtime path must not change the numerics."""
        from repro.linalg import cholesky, solve_cholesky
        from repro.runtime import Runtime

        train = workflow.split.train
        session = KRRSession(KRRConfig(tile_size=64,
                                       precision_plan=PrecisionPlan.fp32()))
        build = session.build(train.genotypes, train.confounders)
        a = build.to_dense() + session.config.alpha * np.eye(train.n_individuals)

        direct = cholesky(a, tile_size=64, working_precision="fp32")
        runtime = Runtime(execution="threaded", workers=4)
        scheduled = cholesky(a, tile_size=64, working_precision="fp32",
                             runtime=runtime)
        np.testing.assert_array_equal(scheduled.to_dense(), direct.to_dense())

        y = train.phenotypes[:, :1] - train.phenotypes[:, :1].mean(axis=0)
        w_direct = solve_cholesky(direct, y, precision="fp32")
        w_sched = solve_cholesky(scheduled, y, precision="fp32")
        np.testing.assert_allclose(w_sched, w_direct, rtol=1e-5, atol=1e-6)


class TestAgainstBaselines:
    def test_krr_beats_regenie_on_epistatic_trait(self, workflow, krr_result):
        split = workflow.split
        train, test = split.train, split.test
        regenie = RegenieLikeRegression(RegenieConfig(block_size=16, n_folds=3))
        name = workflow.dataset.phenotype_names[0]
        pred = regenie.fit_predict(train.genotypes, train.phenotype(name),
                                   test.genotypes)
        regenie_rho = pearson_correlation(test.phenotype(name), pred)
        assert krr_result.pearson(name) > regenie_rho

    def test_krr_beats_lmm_on_epistatic_trait(self, workflow, krr_result):
        split = workflow.split
        train, test = split.train, split.test
        name = workflow.dataset.phenotype_names[1]
        lmm = GRMLinearMixedModel()
        pred = lmm.fit_predict(train.genotypes, train.phenotype(name),
                               test.genotypes)
        lmm_rho = pearson_correlation(test.phenotype(name), pred)
        assert krr_result.pearson(name) > lmm_rho
