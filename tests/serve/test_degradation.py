"""Graceful degradation of the prediction service under pressure.

ISSUE 6's serving ladder: a full admission queue *sheds* (typed, at
submit), an expired deadline *fails fast* before micro-batch planning
(no wasted kernel work), an abandoned ``predict(timeout=)`` *cancels*
its queue slot, and a transient dispatch fault *retries* bitwise.
"""

import time

import numpy as np
import pytest

from repro.gwas.config import KRRConfig, PrecisionPlan, ServeConfig
from repro.gwas.session import KRRSession
from repro.resilience import (
    DeadlineExceededError,
    FaultPlan,
    FaultSite,
    ServiceOverloadedError,
)
from repro.resilience.faults import (
    SITE_SERVE_DISPATCH,
    clear_plan,
    fault_plan,
)
from repro.serve.service import PredictionService
from tests.gwas.test_model import _restored

N_TRAIN, NS = 128, 32


@pytest.fixture(autouse=True)
def _clean_plan_state(monkeypatch):
    """Isolate from any suite-wide chaos env (the tier1-chaos CI job)."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    clear_plan()
    yield
    clear_plan()


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(53)
    g = rng.integers(0, 3, size=(N_TRAIN, NS)).astype(np.int8)
    y = rng.standard_normal(N_TRAIN)
    session = KRRSession(KRRConfig(
        tile_size=32, precision_plan=PrecisionPlan.adaptive_fp16()))
    session.fit(g, y)
    return session.export_model()


@pytest.fixture(scope="module")
def cohort():
    rng = np.random.default_rng(59)
    return rng.integers(0, 3, size=(20, NS)).astype(np.int8)


def stall_plan(delay_s=0.4, times=1):
    """Stall the dispatcher inside its first micro-batch execution."""
    return FaultPlan([FaultSite(site=SITE_SERVE_DISPATCH, kind="stall",
                                delay_s=delay_s, times=times)])


def wait_until(predicate, timeout=5.0):
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return False


class TestAdmissionControl:
    def test_full_queue_sheds_typed(self, model, cohort):
        config = ServeConfig(max_batch_requests=1, max_queue_depth=1)
        with fault_plan(stall_plan()):
            with PredictionService(model, config=config) as service:
                first = service.submit(cohort)
                # the dispatcher pulls `first` and stalls inside execute
                assert wait_until(lambda: service.pending() == 0)
                queued = service.submit(cohort)
                with pytest.raises(ServiceOverloadedError) as err:
                    service.submit(cohort)
                assert err.value.queue_depth == 1
                assert err.value.max_queue_depth == 1
                assert service.stats.shed == 1
                # the admitted requests still complete normally
                first.result(timeout=10)
                queued.result(timeout=10)
        assert service.stats.requests == 2

    def test_unbounded_queue_never_sheds(self, model, cohort):
        with PredictionService(model, config=ServeConfig()) as service:
            futures = [service.submit(cohort) for _ in range(12)]
            for future in futures:
                future.result(timeout=10)
            assert service.stats.shed == 0


class TestDeadlines:
    def test_expired_request_fails_fast_typed(self, model, cohort):
        config = ServeConfig(max_batch_requests=4, batch_window_s=0.25)
        with PredictionService(model, config=config) as service:
            future = service.submit(cohort, deadline_s=0.02)
            with pytest.raises(DeadlineExceededError) as err:
                future.result(timeout=10)
            assert err.value.deadline_s == pytest.approx(0.02)
            assert err.value.waited_s >= 0.02
            assert service.stats.expired == 1
            assert service.stats.failures == 0  # degraded, not failed

    def test_config_default_deadline_applies(self, model, cohort):
        config = ServeConfig(max_batch_requests=4, batch_window_s=0.25,
                             request_deadline_s=0.02)
        with PredictionService(model, config=config) as service:
            with pytest.raises(DeadlineExceededError):
                service.submit(cohort).result(timeout=10)

    def test_survivors_unharmed_by_expired_batchmates(self, model, cohort):
        """An expired request is culled; the rest of its batch answers."""
        solo = _restored(model, "predict", cohort)
        config = ServeConfig(max_batch_requests=4, batch_window_s=0.15)
        with PredictionService(model, config=config) as service:
            doomed = service.submit(cohort, deadline_s=0.02)
            live = service.submit(cohort)  # same micro-batch window
            result = live.result(timeout=10)
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=10)
            np.testing.assert_array_equal(result.predictions, solo)
            assert service.stats.expired == 1
            assert service.stats.requests == 1


class TestAbandonment:
    def test_predict_timeout_withdraws_the_request(self, model, cohort):
        config = ServeConfig(max_batch_requests=1)
        with fault_plan(stall_plan()):
            with PredictionService(model, config=config) as service:
                first = service.submit(cohort)
                assert wait_until(lambda: service.pending() == 0)
                with pytest.raises(TimeoutError):
                    service.predict(cohort, timeout=0.03)
                # the queue slot is gone: the dispatcher never plans it
                assert service.pending() == 0
                assert service.stats.cancelled == 1
                first.result(timeout=10)
        assert service.stats.requests == 1


class TestDispatchRetry:
    def test_transient_dispatch_fault_retried_bitwise(self, model, cohort):
        solo = _restored(model, "predict", cohort)
        plan = FaultPlan([FaultSite(site=SITE_SERVE_DISPATCH, kind="raise",
                                    times=1)])
        with fault_plan(plan):
            with PredictionService(
                    model, config=ServeConfig(dispatch_retries=1)) as service:
                result = service.predict(cohort, timeout=10)
        assert plan.fired == 1
        assert service.stats.dispatch_retries == 1
        assert service.stats.failures == 0
        np.testing.assert_array_equal(result.predictions, solo)

    def test_retries_exhausted_fail_the_batch(self, model, cohort):
        plan = FaultPlan([FaultSite(site=SITE_SERVE_DISPATCH, kind="raise",
                                    every=1)])
        with fault_plan(plan):
            with PredictionService(
                    model, config=ServeConfig(dispatch_retries=1)) as service:
                with pytest.raises(Exception, match="serve-dispatch"):
                    service.predict(cohort, timeout=10)
        assert service.stats.failures == 1
        assert service.stats.dispatch_retries == 1

    def test_permanent_dispatch_fault_not_retried(self, model, cohort):
        plan = FaultPlan([FaultSite(site=SITE_SERVE_DISPATCH, kind="raise",
                                    transient=False, times=1)])
        with fault_plan(plan):
            with PredictionService(
                    model, config=ServeConfig(dispatch_retries=3)) as service:
                with pytest.raises(Exception, match="permanent fault"):
                    service.predict(cohort, timeout=10)
        assert service.stats.dispatch_retries == 0
