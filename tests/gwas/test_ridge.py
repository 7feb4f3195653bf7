"""Tests for the ridge-regression GWAS solver (``RRSession``)."""

import numpy as np
import pytest

from repro.gwas.config import PrecisionPlan, RRConfig
from repro.gwas.session import RRSession
from repro.linalg.kernels import gemm_flops, potrf_flops, syrk_flops, trsm_flops
from repro.precision.formats import Precision


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
    x = rng.integers(0, 3, size=(n, p)).astype(np.float64)
    beta_true = rng.normal(size=p)
    y = (x - x.mean(0)) @ beta_true + 0.3 * rng.normal(size=n)
    return x, y[:, None]


class TestFit:
    def test_matches_closed_form_fp64(self, linear_problem):
        x, y = linear_problem
        model = RRSession(RRConfig(
            regularization=5.0, tile_size=8,
            precision_plan=PrecisionPlan.fp64(), snp_precision=Precision.INT8))
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
        fitted = model.fit(x, y, integer_columns=np.ones(x.shape[1], dtype=bool))
        assert fitted.flops_ > 0
        assert Precision.INT8 in fitted.flops_by_precision

    @pytest.mark.parametrize("execution", ["serial", "process"])
    def test_flops_count_the_whole_fit(self, rng, execution):
        """``flops_`` = SYRK + factorization + XᵀY GEMM + two sweeps —
        the ledger of the session's runtime, against the closed forms
        (the last two were traced but never reported before)."""
        n, p, tile, nph = 60, 21, 8, 2
        x = np.hstack([rng.integers(0, 3, size=(n, p - 1)).astype(np.float64),
                       rng.normal(size=(n, 1))])  # one confounder column
        y = rng.normal(size=(n, nph))
        session = RRSession(RRConfig(tile_size=tile, execution=execution,
                                     workers=2))
        try:
            session.fit(x, y)
            ledger = session.runtime.ledger
            assert list(ledger) == ["build", "associate"]
            assert session.flops_ == pytest.approx(
                sum(session.flops_by_precision.values()), rel=1e-12)
        finally:
            session.runtime.close()

        widths = [8, 8, 5]  # the last column tile holds the confounder
        pairs = [(j, k) for j in range(3) for k in range(j, 3)]
        syrk_int8 = sum(2.0 * n * widths[j] * widths[k]
                        for j, k in pairs if k < 2)
        syrk_fp32 = sum(2.0 * n * widths[j] * widths[k]
                        for j, k in pairs if k == 2)
        assert ledger["build"].tasks == {"syrk": 1}
        assert ledger["build"].flops_by_precision == {
            Precision.INT8: syrk_int8, Precision.FP32: syrk_fp32}

        factor = sum(potrf_flops(w) for w in widths)
        for k in range(3):
            for i in range(k + 1, 3):
                factor += trsm_flops(widths[k], widths[i])
                factor += syrk_flops(widths[i], widths[k])
                factor += sum(gemm_flops(widths[i], widths[j], widths[k])
                              for j in range(k + 1, i))
        assert session.factorization_.flops == pytest.approx(factor, rel=1e-12)
        xty = gemm_flops(p, nph, n)
        sweeps = 2 * float(p * p * nph)
        assert ledger["associate"].flops == pytest.approx(
            factor + xty + sweeps, rel=1e-12)
        assert session.flops_ == pytest.approx(
            syrk_int8 + syrk_fp32 + factor + xty + sweeps, rel=1e-12)
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
