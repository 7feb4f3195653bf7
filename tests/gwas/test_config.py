"""Tests for precision plans and solver configurations."""

import numpy as np
import pytest

from repro.gwas.config import KRRConfig, PrecisionPlan, RRConfig
from repro.precision.formats import Precision
from repro.tiles.layout import TileLayout


class TestPrecisionPlan:
    def test_fp32_uniform(self):
        plan = PrecisionPlan.fp32()
        assert plan.mode == "uniform"
        assert plan.label() == "100(FP32)"
        layout = TileLayout.square(40, 10)
        pmap = plan.precision_map(layout)
        assert all(p is Precision.FP32 for p in pmap.values())

    def test_fp64_uniform(self):
        assert PrecisionPlan.fp64().working_precision is Precision.FP64

    def test_band_plan_label_and_map(self):
        plan = PrecisionPlan.band(0.8)
        assert plan.label() == "80(FP32):20(FP16)"
        layout = TileLayout.square(100, 10)
        pmap = plan.precision_map(layout)
        assert pmap[(0, 0)] is Precision.FP32
        assert pmap[(9, 0)] is Precision.FP16

    def test_adaptive_requires_matrix(self):
        plan = PrecisionPlan.adaptive_fp16()
        with pytest.raises(ValueError):
            plan.precision_map(TileLayout.square(20, 10))

    def test_adaptive_map_from_matrix(self):
        plan = PrecisionPlan.adaptive_fp16()
        rng = np.random.default_rng(0)
        a = 1e-4 * rng.normal(size=(40, 40))
        a = a + a.T + np.diag(2.0 + rng.random(40))
        pmap = plan.precision_map(TileLayout.square(40, 10), matrix=a)
        assert pmap[(0, 0)] is Precision.FP32
        assert pmap[(1, 0)] is Precision.FP16

    def test_adaptive_fp8_floor(self):
        plan = PrecisionPlan.adaptive_fp8()
        assert plan.low_precision is Precision.FP8_E4M3
        assert "FP8" in plan.label().upper()

    def test_adaptive_for_gpu(self):
        assert PrecisionPlan.adaptive("GH200").low_precision is Precision.FP8_E4M3
        assert PrecisionPlan.adaptive("A100").low_precision is Precision.FP16

    def test_adaptive_rule_candidates(self):
        rule = PrecisionPlan.adaptive_fp8().adaptive_rule()
        assert Precision.FP8_E4M3 in rule.candidates
        rule16 = PrecisionPlan.adaptive_fp16().adaptive_rule()
        assert Precision.FP8_E4M3 not in rule16.candidates

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            PrecisionPlan(mode="magic")

    def test_invalid_band_fraction(self):
        with pytest.raises(ValueError):
            PrecisionPlan(mode="band", band_high_fraction=2.0)

    @pytest.mark.parametrize("accuracy", [np.nan, np.inf, 0.0, -1e-3])
    def test_invalid_accuracy(self, accuracy):
        with pytest.raises(ValueError, match="accuracy"):
            PrecisionPlan.adaptive_fp16(accuracy=accuracy)

    def test_string_precisions_coerced(self):
        plan = PrecisionPlan(mode="uniform", working_precision="fp64",
                             low_precision="fp8")
        assert plan.working_precision is Precision.FP64
        assert plan.low_precision is Precision.FP8_E4M3


class TestRRConfig:
    def test_defaults(self):
        cfg = RRConfig()
        assert cfg.regularization == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RRConfig(regularization=-1.0)
        with pytest.raises(ValueError):
            RRConfig(tile_size=0)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="regularization"):
                RRConfig(regularization=bad)


class TestKRRConfig:
    def test_defaults(self):
        cfg = KRRConfig()
        assert cfg.precision_plan.mode == "adaptive"

    @pytest.mark.parametrize("n_snps", [1, 50, 200, 43_333])
    def test_effective_gamma_is_gamma_times_reference_over_snps(self, n_snps):
        """γ is always normalized: ``γ · GAMMA_REFERENCE_SNPS / NS``."""
        cfg = KRRConfig(gamma=0.01)
        assert cfg.effective_gamma(n_snps) == pytest.approx(
            0.01 * KRRConfig.GAMMA_REFERENCE_SNPS / n_snps)

    def test_effective_gamma_normalization(self):
        cfg = KRRConfig(gamma=0.01)
        anchored = cfg.effective_gamma(int(KRRConfig.GAMMA_REFERENCE_SNPS))
        assert anchored == pytest.approx(0.01)
        # more SNPs -> smaller effective gamma (distances grow with NS)
        assert cfg.effective_gamma(400) < anchored
        assert cfg.effective_gamma(100) > anchored

    def test_validation(self):
        with pytest.raises(ValueError):
            KRRConfig(gamma=-0.1)
        with pytest.raises(ValueError):
            KRRConfig(alpha=-1.0)
        with pytest.raises(ValueError):
            KRRConfig(tile_size=-2)
        for field in ("gamma", "alpha", "cg_tol"):
            for bad in (np.nan, np.inf):
                with pytest.raises(ValueError, match=field):
                    KRRConfig(**{field: bad})


class TestWithOptions:
    def test_krr_with_options_replaces_fields(self):
        base = KRRConfig(alpha=0.5, gamma=0.01, tile_size=64)
        derived = base.with_options(alpha=2.0, gamma=0.1)
        assert derived.alpha == 2.0 and derived.gamma == 0.1
        assert derived.tile_size == 64
        # the original is untouched (frozen dataclass semantics)
        assert base.alpha == 0.5

    def test_rr_with_options(self):
        base = RRConfig(regularization=1.0)
        assert base.with_options(regularization=9.0).regularization == 9.0

    def test_precision_plan_with_options(self):
        plan = PrecisionPlan.adaptive_fp16().with_options(accuracy=1e-2)
        assert plan.accuracy == 1e-2

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="unknown KRRConfig option"):
            KRRConfig().with_options(aplha=1.0)  # typo on purpose

    def test_validation_reruns_on_replace(self):
        with pytest.raises(ValueError):
            KRRConfig().with_options(alpha=-1.0)


class TestPredictBatchRows:
    def test_default_batch(self):
        assert KRRConfig().predict_batch_rows == 1024

    def test_validation(self):
        with pytest.raises(ValueError):
            KRRConfig(predict_batch_rows=0)
        assert KRRConfig(predict_batch_rows=None).predict_batch_rows is None


class TestExecutionKnobs:
    """The unified workers/execution knob."""

    def test_defaults(self):
        cfg = KRRConfig()
        assert cfg.workers is None
        assert cfg.execution is None

    def test_workers_and_execution_validate(self):
        assert KRRConfig(workers=4, execution="threaded").workers == 4
        assert RRConfig(workers=2, execution="serial").execution == "serial"
        with pytest.raises(ValueError):
            KRRConfig(workers=0)
        with pytest.raises(ValueError):
            KRRConfig(execution="warp-speed")
        with pytest.raises(ValueError):
            RRConfig(execution="warp-speed")

    def test_session_runtime_follows_config(self):
        from repro.gwas.session import KRRSession, RRSession

        session = KRRSession(KRRConfig(workers=2, execution="serial"))
        assert session.runtime.execution == "serial"
        assert session.runtime.workers == 2
        rr = RRSession(RRConfig(workers=3, execution="threaded"))
        assert rr.runtime.execution == "threaded"
        assert rr.runtime.workers == 3


class TestConfigSerialization:
    """to_dict/from_dict — the artifact embedding of configs."""

    def test_krr_round_trip(self):
        cfg = KRRConfig(
            gamma=0.035, alpha=2.5, tile_size=32,
            precision_plan=PrecisionPlan.adaptive_fp8(accuracy=0.3),
            predict_batch_rows=256)
        back = KRRConfig.from_dict(cfg.to_dict())
        assert back == cfg

    #: the config an artifact written before the one Build route embeds
    PARENT_FORMAT = {
        "gamma": 0.035, "alpha": 2.5, "kernel_type": "gaussian",
        "tile_size": 32,
        "precision_plan": PrecisionPlan.adaptive_fp8(accuracy=0.3).to_dict(),
        "snp_precision": "int8", "predict_batch_rows": 256,
        "normalize_gamma": True, "artifact_compress": True}

    def test_parent_format_loads(self):
        back = KRRConfig.from_dict(self.PARENT_FORMAT)
        assert back == KRRConfig(
            gamma=0.035, alpha=2.5, tile_size=32,
            precision_plan=PrecisionPlan.adaptive_fp8(accuracy=0.3),
            predict_batch_rows=256)
        assert KRRConfig.from_dict(back.to_dict()) == back

    @pytest.mark.parametrize("key, value", [
        ("kernel_type", "gaussian"), ("snp_precision", "int8"),
        ("normalize_gamma", True), ("artifact_compress", True),
        ("artifact_compress", False)])
    def test_each_parent_key_loads_alone(self, key, value):
        cfg = KRRConfig(gamma=0.02, tile_size=64)
        back = KRRConfig.from_dict({**cfg.to_dict(), key: value})
        assert back == cfg
        assert key not in back.to_dict()

    @pytest.mark.parametrize("key, value", [
        ("kernel_type", "ibs"), ("snp_precision", "fp32"),
        ("normalize_gamma", False), ("kernel_type", "laplacian"),
        ("snp_precision", "fp16")])
    def test_parent_format_other_values_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            KRRConfig.from_dict({**self.PARENT_FORMAT, key: value})

    def test_runtime_knobs_not_serialized(self):
        cfg = KRRConfig(workers=7, execution="serial")
        data = cfg.to_dict()
        assert "workers" not in data and "execution" not in data
        back = KRRConfig.from_dict(data)
        assert back.workers is None and back.execution is None

    def test_dict_is_json_ready(self):
        import json

        payload = json.dumps(KRRConfig().to_dict())
        assert KRRConfig.from_dict(json.loads(payload)) == KRRConfig()

    def test_precision_plan_round_trip(self):
        plan = PrecisionPlan.band(0.6, low_precision="fp8")
        assert PrecisionPlan.from_dict(plan.to_dict()) == plan


class TestServeConfig:
    def test_defaults(self):
        from repro.gwas.config import ServeConfig

        cfg = ServeConfig()
        assert cfg.max_batch_requests == 8
        assert cfg.batch_window_s > 0
        assert cfg.max_queue_depth is None

    def test_validation(self):
        from repro.gwas.config import ServeConfig

        with pytest.raises(ValueError):
            ServeConfig(max_batch_requests=0)
        with pytest.raises(ValueError):
            ServeConfig(batch_window_s=-1.0)
        for field in ("batch_window_s", "request_deadline_s"):
            for bad in (np.nan, np.inf):
                with pytest.raises(ValueError, match=field):
                    ServeConfig(**{field: bad})
        with pytest.raises(ValueError):
            ServeConfig(max_queue_depth=0)

    def test_with_options(self):
        from repro.gwas.config import ServeConfig

        cfg = ServeConfig().with_options(max_batch_requests=16)
        assert cfg.max_batch_requests == 16
        with pytest.raises(ValueError):
            ServeConfig().with_options(window=1)  # unknown field
