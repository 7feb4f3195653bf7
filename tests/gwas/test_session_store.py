"""Out-of-core KRR sessions: budgeted fit/predict bitwise contracts."""

import threading

import numpy as np
import pytest

from repro.gwas.config import KRRConfig, PrecisionPlan
from repro.gwas.session import KRRSession
from repro.resilience.faults import no_faults
from repro.store import StoreSchedulerHooks, TileStore


@pytest.fixture(scope="module")
def cohort():
    rng = np.random.default_rng(41)
    g_train = rng.integers(0, 3, size=(448, 120)).astype(np.float64)
    y = rng.standard_normal((448, 2))
    g_test = rng.integers(0, 3, size=(96, 120)).astype(np.float64)
    return g_train, y, g_test


def fit_predict(config, cohort):
    g_train, y, g_test = cohort
    session = KRRSession(config)
    session.fit(g_train, y)
    return session, session.predict(g_test)


PLANS = {
    "fp32": PrecisionPlan.fp32(),
    "adaptive-fp16": PrecisionPlan.adaptive_fp16(),
    "adaptive-fp8": PrecisionPlan.adaptive_fp8(),
}


class TestBudgetedFitPredict:
    @pytest.mark.parametrize("plan_name", list(PLANS))
    def test_quarter_budget_bitwise_and_under_budget(self, cohort, plan_name):
        plan = PLANS[plan_name]
        ref_session, ref_pred = fit_predict(
            KRRConfig(tile_size=64, precision_plan=plan), cohort)
        mosaic = ref_session.kernel_.nbytes()

        # workers=2 keeps the pinned working set (<= workers x 3 tiles)
        # inside the quarter budget; the peak<=budget contract only
        # holds when the pinned set fits (REPRO_WORKERS=8 would not)
        oo_session, oo_pred = fit_predict(
            KRRConfig(tile_size=64, precision_plan=plan, workers=2,
                      store_budget_bytes=mosaic // 4), cohort)
        stats = oo_session.store_stats()
        np.testing.assert_array_equal(oo_pred, ref_pred)
        np.testing.assert_array_equal(oo_session.weights_,
                                      ref_session.weights_)
        assert oo_session.alpha_ == ref_session.alpha_
        assert stats.peak_resident_bytes <= stats.budget_bytes
        assert stats.spills > 0
        assert stats.reloads > 0

    def test_threaded_eight_workers_matches_serial_unbudgeted(self, cohort):
        """The acceptance raciness check at session level."""
        ref_session, ref_pred = fit_predict(
            KRRConfig(tile_size=64, execution="serial"), cohort)
        mosaic = ref_session.kernel_.nbytes()
        oo_session, oo_pred = fit_predict(
            KRRConfig(tile_size=64, execution="threaded", workers=8,
                      store_budget_bytes=mosaic // 4), cohort)
        np.testing.assert_array_equal(oo_pred, ref_pred)
        np.testing.assert_array_equal(oo_session.weights_,
                                      ref_session.weights_)

    def test_factor_reuse_faults_from_store(self, cohort):
        g_train, y, _ = cohort
        ref = KRRSession(KRRConfig(tile_size=64)).fit(g_train, y)
        oo = KRRSession(KRRConfig(
            tile_size=64,
            store_budget_bytes=ref.kernel_.nbytes() // 4)).fit(g_train, y)
        extra = np.cos(np.arange(g_train.shape[0], dtype=np.float64))
        np.testing.assert_array_equal(
            oo.solve_additional_phenotypes(extra),
            ref.solve_additional_phenotypes(extra))

    def test_export_model_from_budgeted_session(self, cohort, tmp_path):
        g_train, y, g_test = cohort
        ref = KRRSession(KRRConfig(tile_size=64)).fit(g_train, y)
        oo = KRRSession(KRRConfig(
            tile_size=64,
            store_budget_bytes=ref.kernel_.nbytes() // 4)).fit(g_train, y)
        model = oo.export_model()
        # store knobs never travel with the artifact
        assert model.config.store_budget_bytes is None
        assert model.config.store_dir is None
        path = model.save(tmp_path / "model.npz")
        from repro.gwas.model import FittedModel

        restored = KRRSession.from_model(FittedModel.load(path))
        np.testing.assert_array_equal(restored.predict(g_test),
                                      ref.predict(g_test))
        restored.close()


class TestSerialTrafficRepeats:
    def test_three_serial_fits_move_the_same_tiles_on_demand(self, cohort,
                                                            monkeypatch):
        """Every reload happens on demand on the draining thread, chosen
        by the plan's next-use eviction, so a serial store-backed fit +
        predict repeats its spills and reloads exactly and the store
        starts no thread.  Injected faults are scoped out: a retried
        segment read moves ``io_retries``, not the traffic."""
        g_train, y, g_test = cohort
        mosaic = KRRSession(KRRConfig(tile_size=64)).fit(
            g_train, y).kernel_.nbytes()
        store_threads = set()
        dispatch = StoreSchedulerHooks.task_dispatch

        def watching(hooks, task):
            store_threads.update(t.name for t in threading.enumerate()
                                 if t.name.startswith("repro-store"))
            dispatch(hooks, task)

        monkeypatch.setattr(StoreSchedulerHooks, "task_dispatch", watching)
        runs = []
        with no_faults():
            for _ in range(3):
                session, pred = fit_predict(
                    KRRConfig(tile_size=64, execution="serial",
                              store_budget_bytes=mosaic // 4), cohort)
                runs.append((session.store_stats(), pred))
                session.close()
        first, pred = runs[0]
        assert first.spills > 0 and first.reloads > 0
        assert first.prefetches == 0
        for stats, again in runs[1:]:
            assert stats == first
            np.testing.assert_array_equal(again, pred)
        assert not store_threads
        assert not [t.name for t in threading.enumerate()
                    if t.name.startswith("repro-store")]


class TestStoreWiring:
    def test_no_store_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_BUDGET", raising=False)
        session = KRRSession(KRRConfig(tile_size=64))
        assert session.store is None
        assert session.store_stats() is None

    def test_env_budget_creates_store(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_BUDGET", "8m")
        session = KRRSession(KRRConfig(tile_size=64))
        assert session.store is not None
        assert session.store.budget_bytes == 8 << 20

    def test_explicit_budget_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_BUDGET", "8m")
        session = KRRSession(KRRConfig(tile_size=64,
                                       store_budget_bytes=1 << 20))
        assert session.store.budget_bytes == 1 << 20

    def test_store_dir_is_used(self, cohort, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_BUDGET", raising=False)
        g_train, y, _ = cohort
        spill_dir = tmp_path / "spill"
        session = KRRSession(KRRConfig(
            tile_size=64, store_budget_bytes=64 << 10,
            store_dir=str(spill_dir)))
        session.fit(g_train, y)
        assert any(spill_dir.glob("seg-*.bin"))

    def test_store_knobs_not_serialized(self):
        cfg = KRRConfig(tile_size=64, store_budget_bytes=1 << 20,
                        store_dir="/tmp/somewhere")
        data = cfg.to_dict()
        assert "store_budget_bytes" not in data
        assert "store_dir" not in data
        assert KRRConfig.from_dict(data).store_budget_bytes is None

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError, match="store_budget_bytes"):
            KRRConfig(store_budget_bytes=0)

    def test_scheduler_hooks_installed(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_BUDGET", raising=False)
        session = KRRSession(KRRConfig(tile_size=64,
                                       store_budget_bytes=1 << 20))
        hooks = session.runtime.scheduler.hooks
        assert isinstance(hooks, StoreSchedulerHooks)
        assert hooks.store is session.store

    def test_kernel_and_factor_share_session_store(self, cohort):
        g_train, y, _ = cohort
        session = KRRSession(KRRConfig(tile_size=64,
                                       store_budget_bytes=256 << 10))
        session.fit(g_train, y)
        assert session.kernel_.store is session.store
        assert session.factorization_.factor.store is session.store


class TestGridSearchUnderBudget:
    def test_grid_search_matches_unbudgeted(self, cohort, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_BUDGET", raising=False)
        from repro.gwas.cv import grid_search_cv

        g_train, y, _ = cohort
        kwargs = dict(alphas=(0.1, 1.0), gammas=(0.01,), n_folds=2)
        ref = grid_search_cv(g_train, y[:, 0],
                             base_config=KRRConfig(tile_size=64), **kwargs)
        monkeypatch.setenv("REPRO_STORE_BUDGET", "256k")
        oo = grid_search_cv(g_train, y[:, 0],
                            base_config=KRRConfig(tile_size=64), **kwargs)
        assert oo.best_alpha == ref.best_alpha
        assert oo.best_score == ref.best_score
