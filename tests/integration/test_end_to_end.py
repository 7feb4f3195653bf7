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
"""

import numpy as np
import pytest

from repro.gwas.config import KRRConfig, PrecisionPlan, RRConfig
from repro.gwas.session import KRRSession
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

