"""Store-backed fitted models in the serving tier.

The serving story of ``repro.store``: artifacts open with their factor
tiles left on disk (faulted in lazily), so the registry's resident-byte
budget reflects actual memory — and predictions after registry-pressure
eviction and reload stay bitwise identical to the fitting session.
"""

import numpy as np
import pytest

from repro.gwas.config import KRRConfig, PrecisionPlan, ServeConfig
from repro.gwas.model import FittedModel
from repro.gwas.session import KRRSession
from repro.serve.registry import ModelRegistry
from repro.serve.service import PredictionService
from repro.store import TileStore
from tests.gwas.test_model import _restored


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(31)
    g = rng.integers(0, 3, size=(192, 64)).astype(np.float64)
    y = rng.standard_normal((192, 2))
    g_test = rng.integers(0, 3, size=(48, 64)).astype(np.float64)
    session = KRRSession(KRRConfig(
        tile_size=64, precision_plan=PrecisionPlan.adaptive_fp16()))
    session.fit(g, y)
    return session, g_test


@pytest.fixture(scope="module")
def artifact(fitted, tmp_path_factory):
    session, _ = fitted
    path = tmp_path_factory.mktemp("models") / "m.npz"
    session.export_model().save(path)
    return path


class TestStoreBackedLoad:
    def test_resident_bytes_exclude_spilled_factor(self, artifact):
        plain = FittedModel.load(artifact)
        with TileStore() as store:
            lazy = FittedModel.load(artifact, store=store)
            factor_bytes = plain.factor.nbytes()
            assert lazy.factor.nbytes() == factor_bytes  # logically whole
            assert lazy.factor.resident_nbytes() == 0    # nothing faulted
            assert (plain.resident_bytes() - lazy.resident_bytes()
                    == factor_bytes)

    def test_predict_bitwise_equals_session(self, fitted, artifact):
        session, g_test = fitted
        with TileStore() as store:
            lazy = FittedModel.load(artifact, store=store)
            np.testing.assert_array_equal(_restored(lazy, "predict", g_test),
                                          session.predict(g_test))

    def test_factor_reuse_faults_in_and_matches(self, fitted, artifact):
        session, _ = fitted
        extra = np.sin(np.arange(session.weights_.shape[0], dtype=np.float64))
        with TileStore(budget_bytes=64 << 10) as store:
            lazy = FittedModel.load(artifact, store=store)
            np.testing.assert_array_equal(
                _restored(lazy, "solve_additional_phenotypes", extra),
                session.solve_additional_phenotypes(extra))
            assert store.stats.reloads > 0  # the factor came off disk


class TestRegistryPressure:
    def test_predict_after_eviction_and_reload(self, fitted, artifact):
        """The serve satellite: eviction → reload → bitwise predict."""
        session, g_test = fitted
        solo = session.predict(g_test)
        with TileStore() as store:
            lazy = FittedModel.load(artifact, store=store)
            registry = ModelRegistry(
                max_resident_bytes=2 * lazy.resident_bytes())
            registry.register("m", lazy)
            # registry pressure: a fully-resident sibling blows the
            # budget and evicts the store-backed entry (it is LRU)
            big = FittedModel.load(artifact)
            registry.register("other", big)
            registry.register("other2", big)
            assert registry.versions("m") == []  # evicted
            assert registry.evictions >= 1

            # reload from the artifact (store-backed again) and serve:
            # still bitwise equal to the fitting session
            reloaded = FittedModel.load(artifact, store=store)
            registry.register("m", reloaded)
            np.testing.assert_array_equal(
                _restored(registry.get("m"), "predict", g_test), solo)

    def test_store_backed_via_prediction_service(self, fitted, artifact):
        session, g_test = fitted
        with TileStore() as store:
            registry = ModelRegistry()
            registry.register("m", FittedModel.load(artifact, store=store))
            with PredictionService(
                    registry,
                    config=ServeConfig(max_batch_requests=4)) as service:
                result = service.predict(g_test, model="m", timeout=60)
            np.testing.assert_array_equal(result.predictions,
                                          session.predict(g_test))


class TestResidencyRefresh:
    def test_register_repolls_faulted_in_residency(self, fitted, artifact):
        """Budget enforcement sees tiles a store-backed model faulted
        in *after* it was registered."""
        session, _ = fitted
        with TileStore() as store:
            lazy = FittedModel.load(artifact, store=store)
            reg = ModelRegistry(max_resident_bytes=10 << 30)
            reg.register("m", lazy)
            registered_at = reg.resident_bytes()
            # serving faults the whole factor in (unbounded store)
            extra = np.ones(session.weights_.shape[0])
            _restored(lazy, "solve_additional_phenotypes", extra)
            # the next registration re-polls: the total now includes
            # the faulted-in factor tiles
            reg.register("other", FittedModel.load(artifact, store=store))
            refreshed = reg.entry("m").resident_bytes
            assert refreshed > registered_at
            assert refreshed - registered_at == lazy.factor.resident_nbytes()


class TestRunningTotal:
    """The O(n²) eviction fix: the running total must track mutations."""

    def test_total_tracks_register_evict(self, fitted, artifact):
        plain = FittedModel.load(artifact)
        per_model = plain.resident_bytes()
        reg = ModelRegistry(max_resident_bytes=int(3.5 * per_model))
        assert reg.resident_bytes() == 0
        reg.register("a", plain)
        reg.register("b", plain)
        assert reg.resident_bytes() == 2 * per_model
        # churn through evictions: total stays consistent with entries
        for i in range(8):
            reg.register(f"m{i}", plain)
        assert reg.resident_bytes() == sum(
            reg.entry(k.name, k.version).resident_bytes for k in reg.keys())
        assert reg.resident_bytes() <= reg.max_resident_bytes
        assert reg.evictions > 0
