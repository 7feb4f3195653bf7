"""Tests for the named/versioned model registry and its LRU byte budget."""

import numpy as np
import pytest

from repro.gwas.config import KRRConfig, PrecisionPlan
from repro.gwas.session import KRRSession
from repro.serve.registry import ModelKey, ModelRegistry


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(23)
    g = rng.integers(0, 3, size=(128, 48)).astype(np.int8)
    y = rng.standard_normal((128, 2))
    session = KRRSession(KRRConfig(
        tile_size=64, precision_plan=PrecisionPlan.adaptive_fp16()))
    session.fit(g, y)
    return session.export_model()


class TestVersions:
    def test_versions_increment_per_name(self, model):
        reg = ModelRegistry()
        assert reg.register("height", model) == ModelKey("height", 1)
        assert reg.register("height", model) == ModelKey("height", 2)
        assert reg.register("bmi", model) == ModelKey("bmi", 1)
        assert reg.versions("height") == [1, 2]
        assert reg.names() == ["bmi", "height"]

    def test_get_defaults_to_latest(self, model):
        reg = ModelRegistry()
        reg.register("m", model)
        reg.register("m", model)
        assert reg.entry("m").key.version == 2
        assert reg.entry("m", version=1).key.version == 1
        assert reg.get("m") is model

    def test_missing_lookups_raise(self, model):
        reg = ModelRegistry()
        with pytest.raises(KeyError, match="no model"):
            reg.get("absent")
        reg.register("m", model)
        with pytest.raises(KeyError, match="version 7"):
            reg.get("m", version=7)

    def test_register_rejects_non_models(self):
        with pytest.raises(TypeError):
            ModelRegistry().register("m", np.zeros(3))


class TestLRUEviction:
    def test_budget_evicts_least_recently_used(self, model):
        per_model = model.resident_bytes()
        reg = ModelRegistry(max_resident_bytes=int(2.5 * per_model))
        k1 = reg.register("a", model)
        k2 = reg.register("b", model)
        reg.get("a")  # b becomes least recently used
        k3 = reg.register("c", model)
        assert k1 in reg and k3 in reg
        assert k2 not in reg, "the LRU entry should have been evicted"
        assert reg.evictions == 1
        assert reg.resident_bytes() <= reg.max_resident_bytes

    def test_new_registration_is_never_the_victim(self, model):
        per_model = model.resident_bytes()
        reg = ModelRegistry(max_resident_bytes=int(0.5 * per_model))
        key = reg.register("only", model)
        # over budget, but evicting the sole model would serve nothing
        assert key in reg and len(reg) == 1

    def test_resident_bytes_tracks_the_precision_mosaic(self, model):
        reg = ModelRegistry()
        reg.register("m", model)
        assert reg.resident_bytes() == model.resident_bytes()

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            ModelRegistry(max_resident_bytes=0)

    def test_fp8_models_pack_denser_than_fp32(self):
        """The serving motivation for FP8 storage: more models per budget."""
        rng = np.random.default_rng(29)
        g = rng.integers(0, 3, size=(128, 48)).astype(np.int8)
        y = rng.standard_normal((128, 2))

        def fitted(plan):
            s = KRRSession(KRRConfig(tile_size=64, precision_plan=plan))
            s.fit(g, y)
            return s.export_model()

        fp32 = fitted(PrecisionPlan.fp32())
        fp8 = fitted(PrecisionPlan.adaptive_fp8())
        assert fp8.resident_bytes() < fp32.resident_bytes()
        budget = 2 * fp32.resident_bytes()
        reg = ModelRegistry(max_resident_bytes=budget)
        n = 0
        while reg.evictions == 0:
            reg.register(f"m{n}", fp8)
            n += 1
            assert n < 64  # safety net
        assert n > 2, "FP8 artifacts should outpack the fp32 budget"
