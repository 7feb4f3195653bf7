"""Tests for the FittedModel artifact: export, save/load, bitwise predict.

The headline acceptance contract: a session restored from
``FittedModel.load(p)`` predicts ``X`` **exactly** like the
originating session's ``predict(X)``, across
fp64, fp32, adaptive-fp16 and adaptive-fp8 plans, and the serialized
adaptive-fp8 artifact is measurably smaller than the fp32 one.
"""

import numpy as np
import pytest

from repro.gwas.config import KRRConfig, PrecisionPlan
from repro.gwas.model import FittedModel
from repro.gwas.session import KRRSession
from repro.precision.formats import Precision
from repro.runtime.runtime import Runtime


@pytest.fixture(scope="module")
def cohort():
    rng = np.random.default_rng(17)
    n, ns = 256, 64
    g_train = rng.integers(0, 3, size=(n, ns)).astype(np.int8)
    y = rng.standard_normal((n, 3))
    g_test = rng.integers(0, 3, size=(150, ns)).astype(np.int8)
    return g_train, y, g_test


PLANS = [
    pytest.param(PrecisionPlan.fp64(), id="fp64"),
    pytest.param(PrecisionPlan.fp32(), id="fp32"),
    pytest.param(PrecisionPlan.adaptive_fp16(), id="adaptive-fp16"),
    pytest.param(PrecisionPlan.adaptive_fp8(), id="adaptive-fp8"),
]


def _fitted(cohort, plan) -> KRRSession:
    g_train, y, _ = cohort
    session = KRRSession(KRRConfig(tile_size=64, precision_plan=plan))
    session.fit(g_train, y)
    return session


def _restored(model, call, *args):
    """``call`` on a session restored from ``model``, closed after."""
    session = KRRSession.from_model(model)
    try:
        return getattr(session, call)(*args)
    finally:
        session.close()


class TestExport:
    def test_requires_fitted_session(self):
        with pytest.raises(RuntimeError, match="fitted session"):
            KRRSession(KRRConfig()).export_model()

    def test_export_carries_the_predict_state(self, cohort):
        g_train, y, _ = cohort
        session = _fitted(cohort, PrecisionPlan.adaptive_fp16())
        model = session.export_model()
        assert model.n_train == g_train.shape[0]
        assert model.n_snps == g_train.shape[1]
        assert model.n_phenotypes == y.shape[1]
        assert model.gamma == session.gamma_
        assert model.alpha == session.alpha_
        assert np.array_equal(model.weights, session.weights_)
        assert np.array_equal(model.y_means, session.y_means_)

    def test_artifact_arrays_are_frozen(self, cohort):
        model = _fitted(cohort, PrecisionPlan.fp32()).export_model()
        for arr in (model.weights, model.y_means, model.training_genotypes):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_runtime_knobs_are_not_exported(self, cohort):
        g_train, y, _ = cohort
        session = KRRSession(KRRConfig(tile_size=64, workers=2,
                                       execution="serial"))
        session.fit(g_train, y)
        model = session.export_model()
        assert model.config.workers is None
        assert model.config.execution is None

    def test_later_associate_does_not_disturb_exported_model(self, cohort):
        g_train, y, g_test = cohort
        session = _fitted(cohort, PrecisionPlan.fp32())
        model = session.export_model()
        ref = _restored(model, "predict", g_test)
        session.associate(y, alpha=50.0)  # mutates the session, not the model
        assert np.array_equal(_restored(model, "predict", g_test), ref)

    def test_factor_keeps_the_storage_mosaic(self, cohort):
        model = _fitted(cohort, PrecisionPlan.adaptive_fp8()).export_model()
        by_prec = model.footprint_by_precision()
        assert Precision.FP8_E4M3 in by_prec, (
            "the adaptive-fp8 factor should store FP8 tiles")

    def test_the_artifact_is_data_only(self, cohort):
        """No predict entry point and no runtime: a session restored by
        ``KRRSession.from_model`` is what predicts, and its caller
        closes it."""
        model = _fitted(cohort, PrecisionPlan.fp32()).export_model()
        for name in ("session", "predict", "solve_additional_phenotypes"):
            assert not hasattr(model, name)
        assert not any(isinstance(v, (KRRSession, Runtime))
                       for v in vars(model).values())

    def test_predict_flops_linear_in_rows(self, cohort):
        model = _fitted(cohort, PrecisionPlan.fp32()).export_model()
        assert model.predict_flops(20) == pytest.approx(
            2 * model.predict_flops(10))


class TestBitwiseRoundTrip:
    @pytest.mark.parametrize("plan", PLANS)
    def test_load_predicts_bitwise_identically(self, cohort, plan, tmp_path):
        g_train, y, g_test = cohort
        session = _fitted(cohort, plan)
        ref = session.predict(g_test)
        path = session.export_model().save(tmp_path / "model")
        loaded = FittedModel.load(path)
        assert np.array_equal(_restored(loaded, "predict", g_test), ref)

    def test_parent_format_artifact_predicts_bitwise(self, cohort,
                                                     tmp_path):
        """An artifact whose config still carries the retired kernel,
        SNP-precision, γ-normalization and compression keys loads, and
        predicts exactly like the session that wrote it."""
        from repro.tiles.serialize import (meta_from_array, meta_to_array,
                                           write_archive)

        _, _, g_test = cohort
        session = _fitted(cohort, PrecisionPlan.adaptive_fp8())
        ref = session.predict(g_test)
        path = session.export_model().save(tmp_path / "model")
        with np.load(path) as archive:
            arrays = dict(archive)
        meta = meta_from_array(arrays["meta_json"])
        meta["config"].update(kernel_type="gaussian", snp_precision="int8",
                              normalize_gamma=True, artifact_compress=True)
        arrays["meta_json"] = meta_to_array(meta)
        parent = write_archive(tmp_path / "parent", arrays)
        loaded = FittedModel.load(parent)
        assert loaded.config == session.config
        assert np.array_equal(_restored(loaded, "predict", g_test), ref)

    def test_artifact_keeps_its_tile_size(self, cohort, tmp_path):
        """A tile-64 artifact loads and predicts at 64, not the default."""
        _, _, g_test = cohort
        session = _fitted(cohort, PrecisionPlan.adaptive_fp16())
        ref = session.predict(g_test)
        loaded = FittedModel.load(
            session.export_model().save(tmp_path / "model"))
        assert KRRConfig().tile_size != 64
        assert loaded.config.tile_size == 64
        assert loaded.factor.layout.tile_size == 64
        assert np.array_equal(_restored(loaded, "predict", g_test), ref)

    @pytest.mark.parametrize("plan", PLANS)
    def test_factor_round_trips_bitwise(self, cohort, plan, tmp_path):
        session = _fitted(cohort, plan)
        model = session.export_model()
        loaded = FittedModel.load(model.save(tmp_path / "model"))
        for (i, j) in model.factor._iter_stored():
            # has_tile_data/get_tile see spilled tiles too, so this
            # stays exhaustive when the suite runs out-of-core
            # (REPRO_STORE_BUDGET)
            if not model.factor.has_tile_data(i, j):
                continue
            a = model.factor.get_tile(i, j)
            b = loaded.factor.get_tile(i, j)
            assert b.precision is a.precision
            assert np.array_equal(b.data, a.data)

    def test_factor_solves_round_trip_bitwise(self, cohort, tmp_path):
        g_train, y, _ = cohort
        session = _fitted(cohort, PrecisionPlan.adaptive_fp16())
        rng = np.random.default_rng(3)
        extra = rng.standard_normal((g_train.shape[0], 2))
        ref = np.asarray(session.solve_additional_phenotypes(extra))
        loaded = FittedModel.load(
            session.export_model().save(tmp_path / "model"))
        assert np.array_equal(np.asarray(_restored(
            loaded, "solve_additional_phenotypes", extra)), ref)

    def test_confounders_round_trip(self, cohort, tmp_path):
        g_train, y, g_test = cohort
        rng = np.random.default_rng(5)
        conf_train = rng.standard_normal((g_train.shape[0], 4))
        conf_test = rng.standard_normal((g_test.shape[0], 4))
        session = KRRSession(KRRConfig(tile_size=64))
        session.fit(g_train, y, conf_train)
        ref = session.predict(g_test, conf_test)
        loaded = FittedModel.load(
            session.export_model().save(tmp_path / "model"))
        assert loaded.training_confounders is not None
        assert np.array_equal(
            _restored(loaded, "predict", g_test, conf_test), ref)
        with pytest.raises(ValueError):
            _restored(loaded, "predict", g_test)  # confounder contract

    def test_resident_bytes_survive_the_round_trip(self, cohort, tmp_path):
        model = _fitted(cohort, PrecisionPlan.adaptive_fp8()).export_model()
        loaded = FittedModel.load(model.save(tmp_path / "model"))
        assert loaded.resident_bytes() == model.resident_bytes()

    def test_boosted_alpha_is_persisted(self, cohort, tmp_path):
        g_train, y, _ = cohort
        session = _fitted(cohort, PrecisionPlan.fp32())
        loaded = FittedModel.load(
            session.export_model().save(tmp_path / "model"))
        assert loaded.alpha == session.alpha_
        assert loaded.gamma == session.gamma_


class TestArtifactFootprint:
    def test_fp8_artifact_measurably_smaller_than_fp32(self, cohort, tmp_path):
        """Acceptance criterion: the on-disk footprint follows the mosaic."""
        p32 = _fitted(cohort, PrecisionPlan.fp32()).export_model().save(
            tmp_path / "fp32")
        p8 = _fitted(cohort, PrecisionPlan.adaptive_fp8()).export_model().save(
            tmp_path / "fp8")
        size32, size8 = p32.stat().st_size, p8.stat().st_size
        assert size8 < 0.8 * size32, (
            f"adaptive-fp8 artifact ({size8} B) should be measurably "
            f"smaller than fp32 ({size32} B)")

    def test_compression_knob(self, cohort, tmp_path):
        model = _fitted(cohort, PrecisionPlan.fp32()).export_model()
        raw = model.save(tmp_path / "raw", compress=False)
        packed = model.save(tmp_path / "packed", compress=True)
        assert packed.stat().st_size < raw.stat().st_size
        assert np.array_equal(FittedModel.load(packed).weights,
                              FittedModel.load(raw).weights)

    def test_save_is_uncompressed_by_default(self, cohort, tmp_path):
        model = _fitted(cohort, PrecisionPlan.fp32()).export_model()
        default = model.save(tmp_path / "default")
        raw = model.save(tmp_path / "raw", compress=False)
        assert default.stat().st_size == raw.stat().st_size


class TestIOWiring:
    def test_load_rejects_foreign_archives(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, meta_json=np.frombuffer(b'{"format": "other"}',
                                               dtype=np.uint8))
        with pytest.raises(ValueError, match="not a fitted-model"):
            FittedModel.load(path)


class TestFromModel:
    def test_restored_session_supports_factor_reuse(self, cohort):
        g_train, y, _ = cohort
        session = _fitted(cohort, PrecisionPlan.fp32())
        model = session.export_model()
        restored = KRRSession.from_model(model, execution="serial")
        assert restored.runtime.execution == "serial"
        rng = np.random.default_rng(9)
        extra = rng.standard_normal((g_train.shape[0], 2))
        assert np.array_equal(
            np.asarray(restored.solve_additional_phenotypes(extra)),
            np.asarray(session.solve_additional_phenotypes(extra)))

    def test_restored_session_requires_build_before_associate(self, cohort):
        model = _fitted(cohort, PrecisionPlan.fp32()).export_model()
        restored = KRRSession.from_model(model)
        with pytest.raises(RuntimeError, match="build"):
            restored.associate(np.zeros(model.n_train))
