"""Tests for the concurrent prediction service.

Acceptance contract under test: the service answers >= 8 concurrent
requests with per-request results **bitwise equal** to a solo
``session.predict`` of the same cohort, while coalescing queued
requests into shared micro-batches.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.gwas.config import KRRConfig, PrecisionPlan, ServeConfig
from repro.gwas.session import KRRSession
from repro.serve.registry import ModelKey, ModelRegistry
from repro.serve.service import (
    DEFAULT_MODEL_NAME,
    SERVE_PHASE,
    PredictionService,
)
from tests.runtime.test_ledger import reachable_task_events

N_TRAIN, NS, NPH = 192, 48, 2
#: awkward on purpose: sub-tile, non-tile-aligned and multi-tile cohorts
REQUEST_SIZES = (1, 10, 33, 64, 100, 7, 128, 65)


@pytest.fixture(scope="module")
def fitted_session():
    rng = np.random.default_rng(31)
    g = rng.integers(0, 3, size=(N_TRAIN, NS)).astype(np.int8)
    y = rng.standard_normal((N_TRAIN, NPH))
    session = KRRSession(KRRConfig(
        tile_size=64, precision_plan=PrecisionPlan.adaptive_fp16()))
    session.fit(g, y)
    return session


@pytest.fixture(scope="module")
def model(fitted_session):
    return fitted_session.export_model()


@pytest.fixture(scope="module")
def request_cohorts():
    rng = np.random.default_rng(37)
    return [rng.integers(0, 3, size=(m, NS)).astype(np.int8)
            for m in REQUEST_SIZES]


@pytest.fixture(scope="module")
def solo_predictions(fitted_session, request_cohorts):
    return [fitted_session.predict(c) for c in request_cohorts]


class TestBitwiseServing:
    def test_eight_concurrent_clients_bitwise(self, model, request_cohorts,
                                              solo_predictions):
        """>= 8 concurrent requests, each bitwise equal to solo predict."""
        barrier = threading.Barrier(len(request_cohorts))

        def client(cohort):
            barrier.wait()  # genuinely concurrent submission
            return service.predict(cohort, timeout=60)

        with PredictionService(
                model, config=ServeConfig(batch_window_s=0.02)) as service:
            with ThreadPoolExecutor(len(request_cohorts)) as pool:
                results = list(pool.map(client, request_cohorts))
        assert len(results) >= 8
        for result, ref in zip(results, solo_predictions):
            assert np.array_equal(result.predictions, ref)

    def test_coalesced_batch_is_bitwise(self, model, request_cohorts,
                                        solo_predictions):
        """Deterministic full coalescing: enqueue everything, then start."""
        service = PredictionService(
            model,
            config=ServeConfig(max_batch_requests=len(request_cohorts),
                               batch_window_s=0.2),
            autostart=False)
        futures = [service.submit(c) for c in request_cohorts]
        service.start()
        results = [f.result(timeout=60) for f in futures]
        service.close()
        for result, ref in zip(results, solo_predictions):
            assert np.array_equal(result.predictions, ref)
        assert all(r.coalesced_requests == len(request_cohorts)
                   for r in results)
        assert service.stats.batches == 1
        assert service.stats.requests == len(request_cohorts)

    def test_an_empty_request_leaves_its_micro_batch_bitwise(
            self, fitted_session, request_cohorts):
        """Monolithic batches (``predict_batch_rows=None``) with a 0-row
        request coalesced among others: every request is answered."""
        session = KRRSession(fitted_session.config.with_options(
            predict_batch_rows=None))
        session.fit(fitted_session.training_genotypes_,
                    np.random.default_rng(41).standard_normal((N_TRAIN, NPH)))
        cohorts = [request_cohorts[2], request_cohorts[0][:0],
                   request_cohorts[6]]
        service = PredictionService(
            session.export_model(),
            config=ServeConfig(batch_window_s=0.2),
            autostart=False)
        futures = [service.submit(c) for c in cohorts]
        service.start()
        results = [f.result(timeout=60) for f in futures]
        service.close()
        assert service.stats.batches == 1
        assert results[1].predictions.shape == (0, NPH)
        for result, cohort in zip(results, cohorts):
            assert np.array_equal(result.predictions, session.predict(cohort))

    def test_per_request_mode_disables_coalescing(self, model,
                                                  request_cohorts):
        service = PredictionService(
            model, config=ServeConfig(max_batch_requests=1),
            autostart=False)
        futures = [service.submit(c) for c in request_cohorts[:4]]
        service.start()
        results = [f.result(timeout=60) for f in futures]
        service.close()
        assert all(r.coalesced_requests == 1 for r in results)
        assert service.stats.batches == 4


class TestRequestStats:
    def test_per_request_latency_and_flops(self, model, request_cohorts):
        with PredictionService(model) as service:
            result = service.predict(request_cohorts[4], timeout=60)
        assert result.rows == request_cohorts[4].shape[0]
        assert result.flops == model.predict_flops(result.rows)
        assert result.latency_s > 0
        assert result.latency_s >= result.queue_s
        assert result.compute_s > 0
        assert result.model_key == ModelKey(DEFAULT_MODEL_NAME, 1)

    @pytest.mark.parametrize("batch_rows, batches", [
        (64, 3),     # 64 + 64 + 22
        (1, 3),      # clamped up to one tile
        (None, 1),   # the cohort in one batch
    ])
    def test_the_models_batch_rows_govern_streaming(self, fitted_session,
                                                    batch_rows, batches):
        """The service has no batch size: a micro-batch streams at the
        model's ``predict_batch_rows``, bitwise the solo predict."""
        rng = np.random.default_rng(5)
        cohort = rng.integers(0, 3, size=(150, NS)).astype(np.int8)
        session = KRRSession(fitted_session.config.with_options(
            predict_batch_rows=batch_rows))
        session.fit(fitted_session.training_genotypes_,
                    rng.standard_normal((N_TRAIN, NPH)))
        with PredictionService(session.export_model()) as service:
            result = service.predict(cohort, timeout=60)
            serving = next(iter(service._sessions.values()))
        assert serving.runtime.ledger[SERVE_PHASE].tasks == {
            "predict_group": batches}
        assert np.array_equal(result.predictions, session.predict(cohort))

    def test_stats_accumulate(self, model, request_cohorts):
        with PredictionService(model) as service:
            for c in request_cohorts[:3]:
                service.predict(c, timeout=60)
            stats = service.stats
        assert stats.requests == 3
        assert stats.rows == sum(c.shape[0] for c in request_cohorts[:3])
        assert stats.flops == pytest.approx(sum(
            model.predict_flops(c.shape[0]) for c in request_cohorts[:3]))
        assert stats.batches >= 1
        assert stats.mean_coalesced >= 1.0


class TestRegistryIntegration:
    def test_named_models_and_version_pinning(self, fitted_session,
                                              request_cohorts):
        rng = np.random.default_rng(41)
        g = rng.integers(0, 3, size=(N_TRAIN, NS)).astype(np.int8)
        y = rng.standard_normal((N_TRAIN, NPH))
        other = KRRSession(KRRConfig(tile_size=64))
        other.fit(g, y)

        registry = ModelRegistry()
        registry.register("height", fitted_session.export_model())
        registry.register("height", other.export_model())  # v2

        cohort = request_cohorts[4]
        with PredictionService(registry) as service:
            v1 = service.predict(cohort, model="height", version=1,
                                 timeout=60)
            latest = service.predict(cohort, model="height", timeout=60)
        assert v1.model_key.version == 1
        assert latest.model_key.version == 2
        assert np.array_equal(v1.predictions, fitted_session.predict(cohort))
        assert np.array_equal(latest.predictions, other.predict(cohort))
        assert not np.array_equal(v1.predictions, latest.predictions)

    def test_mixed_model_queue_batches_per_model(self, fitted_session,
                                                 request_cohorts):
        registry = ModelRegistry()
        registry.register("a", fitted_session.export_model())
        registry.register("b", fitted_session.export_model())
        service = PredictionService(registry, autostart=False)
        futures = [service.submit(c, model=("a" if i % 2 else "b"))
                   for i, c in enumerate(request_cohorts[:6])]
        service.start()
        for f, c in zip(futures, request_cohorts[:6]):
            assert np.array_equal(f.result(timeout=60).predictions,
                                  fitted_session.predict(c))
        service.close()
        # a batch never mixes models
        assert service.stats.batches >= 2
        assert service.stats.max_coalesced <= 3

    def test_submit_resolves_the_model_eagerly(self, model, request_cohorts):
        """An eviction after submit must not fail the in-flight request."""
        registry = ModelRegistry(
            max_resident_bytes=int(1.5 * model.resident_bytes()))
        registry.register("pinned", model)
        service = PredictionService(registry, autostart=False)
        future = service.submit(request_cohorts[2], model="pinned")
        registry.register("other", model)  # evicts "pinned"
        assert ModelKey("pinned", 1) not in registry
        service.start()
        assert future.result(timeout=60).predictions.shape[0] == \
            request_cohorts[2].shape[0]
        service.close()


class TestValidationAndLifecycle:
    def test_wrong_snp_panel_rejected_at_submit(self, model):
        with PredictionService(model, autostart=False) as service:
            with pytest.raises(ValueError, match="SNP"):
                service.submit(np.zeros((4, NS + 1), dtype=np.int8))

    def test_non_2d_cohort_rejected_at_submit(self, model):
        with PredictionService(model, autostart=False) as service:
            with pytest.raises(ValueError, match="2D"):
                service.submit(np.zeros(NS, dtype=np.int8))

    def test_confounder_list_of_the_wrong_length_rejected(self,
                                                          fitted_session,
                                                          request_cohorts):
        cohorts = request_cohorts[:2]
        with pytest.raises(ValueError, match="one entry per cohort"):
            fitted_session.predict_many(cohorts, confounder_list=[None])

    def test_confounder_contract_rejected_at_submit(self, model):
        with PredictionService(model, autostart=False) as service:
            with pytest.raises(ValueError, match="confounders"):
                service.submit(np.zeros((4, NS), dtype=np.int8),
                               confounders=np.zeros((4, 2)))

    def test_unknown_model_rejected_at_submit(self, model):
        with PredictionService(model, autostart=False) as service:
            with pytest.raises(KeyError):
                service.submit(np.zeros((4, NS), dtype=np.int8),
                               model="absent")

    def test_queue_backpressure(self, model, request_cohorts):
        service = PredictionService(
            model, config=ServeConfig(max_queue_depth=2), autostart=False)
        service.submit(request_cohorts[0])
        service.submit(request_cohorts[1])
        with pytest.raises(RuntimeError, match="full"):
            service.submit(request_cohorts[2])
        service.start()
        service.close()

    def test_close_drains_pending_requests(self, model, request_cohorts,
                                           solo_predictions):
        service = PredictionService(model, autostart=False)
        futures = [service.submit(c) for c in request_cohorts[:3]]
        service.start()
        service.close()
        for f, ref in zip(futures, solo_predictions[:3]):
            assert np.array_equal(f.result(timeout=1).predictions, ref)

    def test_submit_after_close_raises(self, model, request_cohorts):
        service = PredictionService(model)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(request_cohorts[0])

    def test_execution_failure_propagates_to_futures(self, model,
                                                     request_cohorts,
                                                     monkeypatch):
        def boom(self, *args, **kwargs):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(KRRSession, "predict_many", boom)
        service = PredictionService(model, autostart=False)
        future = service.submit(request_cohorts[0])
        service.start()
        with pytest.raises(RuntimeError, match="injected"):
            future.result(timeout=60)
        service.close()
        assert service.stats.failures == 1

    def test_rejects_unknown_model_container(self):
        with pytest.raises(TypeError):
            PredictionService(np.zeros(3))


class TestConstantMemory:
    def test_fifty_batches_hold_no_more_events_than_one(self, model,
                                                        request_cohorts):
        """A long-running service must not accumulate task events: the
        serving runtime keeps ``ledger["serve"]`` counters, and only
        the latest drain's events (``last_result``) stay reachable."""
        def serve(batches):
            service = PredictionService(
                model, config=ServeConfig(max_batch_requests=1),
                autostart=False)
            futures = [service.submit(request_cohorts[0])
                       for _ in range(batches)]
            service.start()
            for f in futures:
                f.result(timeout=60)
            session = next(iter(service._sessions.values()))
            service.close()
            assert service.stats.batches == batches
            return session.runtime

        one, fifty = serve(1), serve(50)
        assert (reachable_task_events(fifty) == reachable_task_events(one)
                == len(one.last_result.trace.events) == 1)
        # the tally kept counting where the events were let go
        assert set(fifty.ledger) == {SERVE_PHASE}
        assert fifty.ledger[SERVE_PHASE].tasks == {"predict_group": 50}
        assert fifty.ledger[SERVE_PHASE].flops == pytest.approx(
            50 * one.ledger[SERVE_PHASE].flops)


class TestReviewRegressions:
    """Hardening found in review: malformed requests and unstarted close."""

    def test_malformed_confounders_rejected_at_submit(self, fitted_session,
                                                      request_cohorts):
        rng = np.random.default_rng(51)
        g = fitted_session.training_genotypes_
        y = rng.standard_normal((g.shape[0], NPH))
        conf = rng.standard_normal((g.shape[0], 3))
        session = KRRSession(KRRConfig(tile_size=64))
        session.fit(g, y, conf)
        with PredictionService(session.export_model(),
                               autostart=False) as service:
            cohort = request_cohorts[2]
            with pytest.raises(ValueError, match="one row per"):
                service.submit(cohort, confounders=np.zeros((3, 3)))
            with pytest.raises(ValueError, match="confounder column"):
                service.submit(cohort,
                               confounders=np.zeros((cohort.shape[0], 5)))
            # a well-formed request still goes through
            ok = service.submit(
                cohort, confounders=np.zeros((cohort.shape[0], 3)))
        assert ok.result(timeout=60).rows == cohort.shape[0]

    @pytest.mark.parametrize("value", [0.5, float("nan"), 300])
    def test_genotypes_the_int8_gram_would_change_rejected_at_submit(
            self, model, request_cohorts, solo_predictions, value):
        bad = request_cohorts[1].astype(np.float64)
        bad[3, 5] = value
        service = PredictionService(model, autostart=False)
        first = service.submit(request_cohorts[0])
        with pytest.raises(ValueError, match=r"\[-128, 127\]"):
            service.submit(bad)
        # an integer panel of another dtype is accepted, queued as int8
        second = service.submit(request_cohorts[2].astype(np.int64))
        service.close()  # one micro-batch: the rejected cohort is not in it
        assert np.array_equal(first.result(timeout=60).predictions,
                              solo_predictions[0])
        assert np.array_equal(second.result(timeout=60).predictions,
                              solo_predictions[2])
        assert service.stats.failures == 0

    def test_close_without_start_drains_the_backlog(self, model,
                                                    request_cohorts,
                                                    solo_predictions):
        service = PredictionService(model, autostart=False)
        futures = [service.submit(c) for c in request_cohorts[:3]]
        service.close()  # never started: must still resolve the futures
        for f, ref in zip(futures, solo_predictions[:3]):
            assert np.array_equal(f.result(timeout=1).predictions, ref)
        assert service.stats.requests == 3


class TestServiceReleasesItsSessions:
    """``close()`` closes every serving session's runtime and store, and
    so does retiring the session of a model the registry evicted —
    nothing is left to the collector."""

    def _serve(self, model, request_cohorts, **options):
        service = PredictionService(model, autostart=False, **options)
        futures = [service.submit(c) for c in request_cohorts[:3]]
        service.start()
        for f in futures:
            f.result(timeout=60)
        sessions = list(service._sessions.values())
        service.close()
        return sessions

    def test_no_worker_process_outlives_the_service(self, model,
                                                    request_cohorts):
        import multiprocessing

        def workers():
            return {p.pid for p in multiprocessing.active_children()
                    if p.name.startswith("repro-worker")}

        before = workers()
        sessions = self._serve(model, request_cohorts, workers=2,
                               execution="process")
        assert workers() <= before
        assert all(s.runtime.last_result is not None for s in sessions)

    def test_no_segment_file_outlives_the_service(self, model,
                                                  request_cohorts,
                                                  monkeypatch, tmp_path):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setenv("REPRO_STORE_BUDGET", "1m")
        sessions = self._serve(model, request_cohorts)
        assert all(s.store is not None for s in sessions)
        assert not list(tmp_path.rglob("seg-*.bin"))
        assert not list(tmp_path.glob("repro-store-*"))

    def test_an_evicted_models_session_is_closed(self, model,
                                                 request_cohorts,
                                                 monkeypatch, tmp_path):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setenv("REPRO_STORE_BUDGET", "1m")
        registry = ModelRegistry(
            max_resident_bytes=int(1.5 * model.resident_bytes()))
        registry.register("first", model)
        with PredictionService(registry) as service:
            service.predict(request_cohorts[0], model="first", timeout=60)
            registry.register("second", model)  # evicts "first"
            service.predict(request_cohorts[0], model="second", timeout=60)
            # the evicted model's session went with it
            assert list(service._sessions) == [ModelKey("second", 1)]
            assert len(list(tmp_path.glob("repro-store-*"))) == 1
        assert not list(tmp_path.glob("repro-store-*"))
