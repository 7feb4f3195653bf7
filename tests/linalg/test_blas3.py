"""Tests for the one-call GEMM driver."""

import numpy as np
import pytest

from repro.linalg import blas3
from repro.linalg.blas3 import gemm
from repro.precision.formats import Precision
from repro.precision.gemm import gemm_mixed, variant_for_input
from repro.precision.quantize import quantize
from repro.runtime import Runtime


class TestGemm:
    def test_matches_numpy(self, rng):
        a = rng.normal(size=(30, 20))
        b = rng.normal(size=(20, 5))
        out = gemm(a, b, precision=Precision.FP32)
        np.testing.assert_allclose(out, a @ b, rtol=1e-4, atol=1e-4)

    def test_transpose_options(self, rng):
        a = rng.normal(size=(20, 30))
        b = rng.normal(size=(20, 5))
        out = gemm(a, b, precision=Precision.FP64, transa=True)
        np.testing.assert_allclose(out, a.T @ b, rtol=1e-10)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            gemm(rng.normal(size=(4, 5)), rng.normal(size=(4, 5)))

    def test_one_gemm_mixed_call_on_every_lane(self, rng, monkeypatch):
        """The whole inner dimension is one product in the variant's
        accumulator — no k-blocks summed in float64 — and a serial,
        threaded or process runtime computes it with that one call."""
        a = rng.normal(size=(25, 33))
        b = rng.normal(size=(33, 7))
        calls = []

        def spy(x, y, **kw):
            calls.append(kw)
            return gemm_mixed(x, y, **kw)

        monkeypatch.setattr(blas3, "gemm_mixed", spy)
        out = gemm(a, b, precision=Precision.FP32)
        assert calls == [dict(variant=variant_for_input(Precision.FP32),
                              transa=False, transb=False)]
        assert np.array_equal(out, gemm_mixed(a, b, variant="FP32"))
        for execution in ("serial", "threaded", "process"):
            rt = Runtime(execution=execution, workers=2)
            try:
                assert np.array_equal(
                    gemm(a, b, precision=Precision.FP32, runtime=rt), out)
            finally:
                rt.close()
        assert len(calls) == 1 + 3    # every runtime, on the caller's thread

    @pytest.mark.parametrize("precision", [Precision.FP32, Precision.FP64,
                                           Precision.FP16])
    @pytest.mark.parametrize("transa, transb", [(False, False), (True, True)])
    def test_bitwise_one_gemm_mixed_call(self, precision, transa, transb):
        rng = np.random.default_rng(29)
        a = rng.normal(size=(300, 250) if transa else (250, 300))
        b = rng.normal(size=(7, 300) if transb else (300, 7))
        out = gemm(a, b, precision=precision, transa=transa, transb=transb)
        one = gemm_mixed(a, b, variant=variant_for_input(precision),
                         transa=transa, transb=transb)
        assert out.dtype == np.float64 and out.shape == (250, 7)
        assert np.array_equal(
            out, np.asarray(quantize(one, precision), dtype=np.float64))


@pytest.mark.parametrize("execution", ["serial", "threaded", "process"])
class TestInlineWithRuntime:
    """With ``runtime=`` a dense product still runs on the caller's
    thread: the runtime only tallies its operations."""

    @pytest.fixture
    def rt(self, execution):
        rt = Runtime(execution=execution, workers=2)

        def no_drain(graph):
            raise AssertionError("a dense product drained the runtime")

        rt.scheduler.run = no_drain
        yield rt
        assert rt.num_tasks() == 0 and rt.runs_completed == 0
        assert rt.last_graph is None and rt.handles == {}
        assert getattr(rt.scheduler, "_pool", None) is None
        rt.close()

    def test_gemm(self, rt, rng):
        a = rng.normal(size=(33, 25))
        b = rng.normal(size=(7, 33))
        out = gemm(a, b, transa=True, transb=True, runtime=rt, phase="p")
        assert np.array_equal(out, gemm(a, b, transa=True, transb=True))
        totals = rt.ledger["p"]
        assert totals.tasks == {}
        assert totals.flops == 2.0 * 25 * 7 * 33
        assert totals.flops_by_precision == {Precision.FP32: 2.0 * 25 * 7 * 33}
