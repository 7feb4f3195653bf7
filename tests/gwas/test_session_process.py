"""Process-backend KRR sessions: the full-pipeline bitwise matrix.

``KRRConfig(execution="process")`` must drive Build → Factor → Solve →
Predict through worker OS processes and reproduce the serial session
bit for bit — across precision plans, worker counts, and store budgets.
This is the acceptance contract of the process backend at the level
users actually touch.
"""

import numpy as np
import pytest

from repro.gwas.config import KRRConfig, PrecisionPlan
from repro.gwas.session import KRRSession

TILE = 64

PLANS = {
    "fp32": PrecisionPlan.fp32(),
    "adaptive-fp16": PrecisionPlan.adaptive_fp16(),
    "adaptive-fp8": PrecisionPlan.adaptive_fp8(),
}

#: serial references, computed once per precision plan
_REFERENCE: dict = {}


@pytest.fixture(scope="module")
def cohort():
    rng = np.random.default_rng(53)
    g_train = rng.integers(0, 3, size=(192, 80)).astype(np.float64)
    y = rng.standard_normal((192, 2))
    g_test = rng.integers(0, 3, size=(64, 80)).astype(np.float64)
    return g_train, y, g_test


def fit_predict(config, cohort):
    g_train, y, g_test = cohort
    session = KRRSession(config)
    try:
        session.fit(g_train, y)
        return (session.predict(g_test), session.weights_.copy(),
                session.alpha_, session.kernel_.nbytes(),
                session.store_stats())
    finally:
        session.runtime.close()


def reference(plan_name, cohort):
    if plan_name not in _REFERENCE:
        _REFERENCE[plan_name] = fit_predict(
            KRRConfig(tile_size=TILE, precision_plan=PLANS[plan_name],
                      execution="serial"), cohort)
    return _REFERENCE[plan_name]


@pytest.mark.parametrize("plan_name", list(PLANS))
@pytest.mark.parametrize("workers", [1, 2, 8])
def test_process_session_bitwise_vs_serial(cohort, plan_name, workers):
    ref_pred, ref_weights, ref_alpha, _, _ = reference(plan_name, cohort)
    pred, weights, alpha, _, _ = fit_predict(
        KRRConfig(tile_size=TILE, precision_plan=PLANS[plan_name],
                  execution="process", workers=workers), cohort)
    np.testing.assert_array_equal(pred, ref_pred)
    np.testing.assert_array_equal(weights, ref_weights)
    assert alpha == ref_alpha


@pytest.mark.parametrize("plan_name", ["fp32", "adaptive-fp8"])
def test_process_session_bitwise_under_tight_budget(cohort, plan_name):
    ref_pred, ref_weights, ref_alpha, mosaic, _ = reference(plan_name, cohort)
    # workers=2 keeps the pinned working set inside the quarter budget
    pred, weights, alpha, _, stats = fit_predict(
        KRRConfig(tile_size=TILE, precision_plan=PLANS[plan_name],
                  execution="process", workers=2,
                  store_budget_bytes=mosaic // 4), cohort)
    np.testing.assert_array_equal(pred, ref_pred)
    np.testing.assert_array_equal(weights, ref_weights)
    assert alpha == ref_alpha
    assert stats.spills > 0
    assert stats.reloads > 0


def test_env_driven_process_session(cohort, monkeypatch):
    """REPRO_EXECUTION/REPRO_WORKERS select the backend without code."""
    monkeypatch.setenv("REPRO_EXECUTION", "process")
    monkeypatch.setenv("REPRO_WORKERS", "2")
    ref_pred, ref_weights, ref_alpha, _, _ = reference("fp32", cohort)
    session = KRRSession(KRRConfig(tile_size=TILE,
                                   precision_plan=PLANS["fp32"]))
    try:
        assert session.runtime.execution == "process"
        assert session.runtime.workers == 2
        g_train, y, g_test = cohort
        session.fit(g_train, y)
        np.testing.assert_array_equal(session.predict(g_test), ref_pred)
        np.testing.assert_array_equal(session.weights_, ref_weights)
        assert session.alpha_ == ref_alpha
    finally:
        session.runtime.close()
