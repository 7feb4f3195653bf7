"""Tests for the ridge-regression GWAS solver (``RRSession``)."""

import numpy as np
import pytest

from repro.gwas.config import KRRConfig, PrecisionPlan, RRConfig
from repro.gwas.session import KRRSession, RRSession
from repro.linalg.kernels import (potrf_flops, syrk_flops, trsm_flops,
                                   trtri_flops)
from repro.precision.formats import Precision
from repro.precision.gemm import gemm_flop_count


def _reference_ridge(x, y, lam):
    """Closed-form ridge on standardized X / centered Y (FP64)."""
    xs = (x - x.mean(axis=0)) / x.std(axis=0)
    yc = y - y.mean(axis=0)
    p = xs.shape[1]
    beta = np.linalg.solve(xs.T @ xs + lam * np.eye(p), xs.T @ yc)
    return beta


@pytest.fixture
def linear_problem(rng):
    n, p = 300, 24
    x = rng.integers(0, 3, size=(n, p)).astype(np.int8)
    beta_true = rng.normal(size=p)
    y = (x - x.mean(0)) @ beta_true + 0.3 * rng.normal(size=n)
    return x, y[:, None]


class TestFit:
    def test_matches_closed_form_fp64(self, linear_problem):
        x, y = linear_problem
        model = RRSession(RRConfig(
            regularization=5.0, tile_size=8,
            precision_plan=PrecisionPlan.fp64()))
        fitted = model.fit(x, y)
        reference = _reference_ridge(x, y, 5.0)
        np.testing.assert_allclose(fitted.beta_, reference, rtol=1e-4, atol=1e-5)

    def test_fp32_close_to_fp64(self, linear_problem):
        x, y = linear_problem
        m64 = RRSession(RRConfig(regularization=5.0, tile_size=8,
                                           precision_plan=PrecisionPlan.fp64()))
        m32 = RRSession(RRConfig(regularization=5.0, tile_size=8,
                                           precision_plan=PrecisionPlan.fp32()))
        b64 = m64.fit(x, y).beta_
        b32 = m32.fit(x, y).beta_
        np.testing.assert_allclose(b32, b64, rtol=1e-2, atol=1e-2)

    def test_recovers_strong_linear_signal(self, linear_problem):
        x, y = linear_problem
        model = RRSession(RRConfig(regularization=1.0, tile_size=8))
        pred = model.fit_predict(x[:250], y[:250], x[250:])
        corr = np.corrcoef(pred[:, 0], y[250:, 0])[0, 1]
        assert corr > 0.8

    def test_shrinkage_with_regularization(self, linear_problem):
        x, y = linear_problem
        small = RRSession(RRConfig(regularization=0.1, tile_size=8))
        large = RRSession(RRConfig(regularization=1000.0, tile_size=8))
        beta_small = small.fit(x, y).beta_
        beta_large = large.fit(x, y).beta_
        assert np.linalg.norm(beta_large) < np.linalg.norm(beta_small)

    def test_multivariate_phenotypes(self, linear_problem, rng):
        x, y = linear_problem
        y2 = np.hstack([y, rng.normal(size=y.shape)])
        model = RRSession(RRConfig(tile_size=8))
        fitted = model.fit(x, y2)
        assert fitted.beta_.shape == (x.shape[1], 2)
        pred = model.predict(x[:10])
        assert pred.shape == (10, 2)

    def test_flop_accounting_by_precision(self, linear_problem):
        x, y = linear_problem
        model = RRSession(RRConfig(tile_size=8))
        fitted = model.fit(x, y)
        assert fitted.flops_ > 0
        assert Precision.INT8 in fitted.flops_by_precision

    @pytest.mark.parametrize("execution", ["serial", "process"])
    def test_flops_count_the_whole_fit(self, rng, execution):
        """``flops_`` = Gram + factorization + XᵀY GEMM + two sweeps —
        the ledger of the session's runtime, against the closed forms
        of the products that run: the whole INT8 ``GᵀG``, the FP32
        ``GᵀC`` and ``CᵀC``."""
        n, s, tile, nph = 60, 20, 8, 2
        g = rng.integers(0, 3, size=(n, s)).astype(np.int8)
        c = rng.normal(size=(n, 1))  # one confounder column
        y = rng.normal(size=(n, nph))
        p = s + 1
        session = RRSession(RRConfig(tile_size=tile, execution=execution,
                                     workers=2))
        try:
            session.fit(g, y, c)
            ledger = session.runtime.ledger
            assert list(ledger) == ["build", "associate"]
            assert session.flops_ == pytest.approx(
                sum(session.flops_by_precision.values()), rel=1e-12)
        finally:
            session.runtime.close()

        gram_int8 = gemm_flop_count(s, s, n)
        gram_fp32 = gemm_flop_count(s, 1, n) + gemm_flop_count(1, 1, n)
        assert ledger["build"].tasks == {}   # an inline Gram is not a task
        assert ledger["build"].flops_by_precision == {
            Precision.INT8: gram_int8, Precision.FP32: gram_fp32}

        widths = [8, 8, 5]  # the last column tile holds the confounder
        factor = sum(potrf_flops(w) for w in widths)
        # a column with panel tiles below also inverts its factor tile
        factor += sum(trtri_flops(w) for w in widths[:-1])
        for k in range(3):
            for i in range(k + 1, 3):
                factor += trsm_flops(widths[k], widths[i])
                factor += syrk_flops(widths[i], widths[k])
                factor += sum(gemm_flop_count(widths[i], widths[j], widths[k])
                              for j in range(k + 1, i))
        assert session.factorization_.flops == pytest.approx(factor, rel=1e-12)
        xty = gemm_flop_count(p, nph, n)
        sweeps = 2 * float(p * p * nph)
        assert ledger["associate"].flops == pytest.approx(
            factor + xty + sweeps, rel=1e-12)
        assert session.flops_ == pytest.approx(
            gram_int8 + gram_fp32 + factor + xty + sweeps, rel=1e-12)
        assert not [k for k in vars(session) if "flops" in k]

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            RRSession().predict(np.zeros((2, 3)))

    def test_row_mismatch_raises(self, linear_problem):
        x, y = linear_problem
        with pytest.raises(ValueError):
            RRSession(RRConfig(tile_size=8)).fit(x, y[:-5])

    def test_reuse_factorization_for_new_phenotypes(self, linear_problem, rng):
        x, y = linear_problem
        model = RRSession(RRConfig(regularization=2.0, tile_size=8,
                                             precision_plan=PrecisionPlan.fp64()))
        model.fit(x, y)
        y_new = rng.normal(size=(x.shape[0], 1))
        reused = model.solve_additional_phenotypes(x, y_new)
        direct = RRSession(RRConfig(regularization=2.0, tile_size=8,
                                              precision_plan=PrecisionPlan.fp64()))
        expected = direct.fit(x, y_new).beta_
        np.testing.assert_allclose(reused, expected, rtol=1e-6, atol=1e-8)

    def test_reuse_rejects_mismatched_rows_before_any_task(
            self, linear_problem, rng):
        """Mismatched rows used to surface as a task failure wrapping a
        BLAS shape error."""
        x, y = linear_problem
        model = RRSession(RRConfig(tile_size=8)).fit(x, y)
        with pytest.raises(ValueError, match="same number of rows"):
            model.solve_additional_phenotypes(x, y[:-5])
        assert "solve" not in model.runtime.ledger

    def test_keyword_override_constructor(self):
        model = RRSession(regularization=7.0)
        assert model.config.regularization == 7.0


@pytest.fixture
def cohort(rng):
    """An INT8 panel with two confounders and two phenotypes."""
    n, s = 200, 30
    g = rng.integers(0, 3, size=(n, s)).astype(np.int8)
    c = rng.normal(size=(n, 2))
    y = np.hstack([g, c]) @ rng.normal(size=(s + 2, 2)) \
        + 0.3 * rng.normal(size=(n, 2))
    return g, c, y


class TestGram:
    """``XᵀX`` of ``X = [G | C]``, never assembled: the SNP block is the
    one INT8 Gram, the blocks that touch confounders FP32 products."""

    def test_snps_and_confounders_against_xtx(self, rng):
        snps = rng.integers(0, 3, size=(50, 16)).astype(np.int8)
        confounders = rng.normal(size=(50, 4))
        x = np.hstack([snps, confounders])
        gram = RRSession(RRConfig(tile_size=8))._gram(snps, confounders)
        np.testing.assert_allclose(gram, x.T @ x, rtol=1e-5, atol=1e-5)
        wide = snps.astype(np.int64)
        assert np.array_equal(gram[:16, :16], wide.T @ wide)
        assert np.array_equal(gram, gram.T)

    def test_matches_closed_form_with_confounders(self, cohort):
        g, c, y = cohort
        model = RRSession(RRConfig(regularization=3.0, tile_size=8,
                                   precision_plan=PrecisionPlan.fp64()))
        model.fit(g, y, c)
        x = np.hstack([g, c])
        np.testing.assert_allclose(model.beta_, _reference_ridge(x, y, 3.0),
                                   rtol=1e-4, atol=1e-5)
        xs = (x - x.mean(axis=0)) / x.std(axis=0)
        np.testing.assert_allclose(
            model.predict(g[:20], c[:20]),
            xs[:20] @ model.beta_ + y.mean(axis=0), rtol=1e-4, atol=1e-4)

    def test_reuse_with_confounders_matches_a_fresh_fit(self, cohort, rng):
        g, c, y = cohort
        config = RRConfig(regularization=2.0, tile_size=8,
                          precision_plan=PrecisionPlan.fp64())
        model = RRSession(config).fit(g, y, c)
        y_new = rng.normal(size=(len(g), 1))
        np.testing.assert_allclose(
            model.solve_additional_phenotypes(g, y_new, c),
            RRSession(config).fit(g, y_new, c).beta_, rtol=1e-6, atol=1e-8)


    def test_gram_peak_is_the_gram_and_one_accumulator(self):
        """At 4096 individuals × 2048 SNPs + 3 confounders ``_gram`` holds
        the float64 ``XᵀX`` (32 MiB), the float32 SNP accumulator
        (16 MiB) and one cast block of 1024 individuals (8 MiB): no
        whole-panel cast, product copy or INT32 Gram (96 MiB before)."""
        import tracemalloc

        rng = np.random.default_rng(47)
        g = rng.integers(0, 3, size=(4096, 2048)).astype(np.int8)
        c = rng.normal(size=(4096, 3))
        session = RRSession(RRConfig(execution="serial"))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            gram = session._gram(g, c)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 66 * 2 ** 20, peak / 2 ** 20
        # float64 products of integers under 2⁵³ are the exact GᵀG
        wide = g.astype(np.float64)
        assert np.array_equal(gram[:2048, :2048], wide.T @ wide)


class TestGenotypePanel:
    """RR takes KRR's genotype panel: one validation rule for both."""

    @pytest.mark.parametrize("bad", [0.5, 128.0, -129.0])
    def test_a_panel_that_is_not_int8_is_rejected(self, cohort, bad):
        g, c, y = cohort
        wrong = g.astype(np.float64)
        wrong[3, 4] = bad
        model = RRSession(RRConfig(tile_size=8))
        with pytest.raises(ValueError, match=r"\[-128, 127\]"):
            model.fit(wrong, y, c)
        krr = KRRSession(KRRConfig(tile_size=8, execution="serial"))
        try:
            with pytest.raises(ValueError, match=r"\[-128, 127\]"):
                krr.fit(wrong, y, c)
        finally:
            krr.close()
        model.fit(g, y, c)
        with pytest.raises(ValueError, match=r"\[-128, 127\]"):
            model.predict(wrong, c)
        with pytest.raises(ValueError, match=r"\[-128, 127\]"):
            model.solve_additional_phenotypes(wrong, y, c)
        assert list(model.runtime.ledger) == ["build", "associate"]

    def test_integer_valued_float_panel_is_the_int8_panel(self, cohort):
        g, c, y = cohort
        config = RRConfig(tile_size=8)
        a = RRSession(config).fit(g, y, c)
        b = RRSession(config).fit(g.astype(np.float64), y, c)
        assert np.array_equal(a.beta_, b.beta_)
        assert np.array_equal(a.predict(g, c),
                              b.predict(g.astype(np.float64), c))

    def test_predict_checks_the_training_columns(self, cohort):
        g, c, y = cohort
        model = RRSession(RRConfig(tile_size=8)).fit(g, y, c)
        with pytest.raises(ValueError, match="SNP panel"):
            model.predict(g[:, :-1], c)
        with pytest.raises(ValueError, match="SNP panel"):
            model.predict(np.hstack([g, g[:, :1]]), c[:, :1])
        with pytest.raises(ValueError, match="confounders"):
            model.predict(g)
        with pytest.raises(ValueError, match="confounders"):
            model.predict(g, c[:, :1])
