"""Tests for the tiled SYRK and GEMM drivers."""

import numpy as np
import pytest

from repro.linalg import blas3
from repro.linalg.blas3 import gemm, syrk
from repro.precision.formats import Precision
from repro.precision.gemm import gemm_mixed, variant_for_input
from repro.precision.quantize import quantize
from repro.runtime import Runtime


class TestSyrk:
    def test_matches_gram_matrix(self, rng):
        x = rng.integers(0, 3, size=(60, 24)).astype(np.float64)
        out = syrk(x, tile_size=16, output_precision=Precision.FP64)
        np.testing.assert_allclose(out, x.T @ x, rtol=1e-10)

    def test_symmetry(self, rng):
        x = rng.normal(size=(40, 20))
        out = syrk(x, tile_size=8)
        np.testing.assert_allclose(out, out.T)

    def test_mixed_integer_and_float_columns(self, rng):
        snps = rng.integers(0, 3, size=(50, 16)).astype(np.float64)
        confounders = rng.normal(size=(50, 4))
        x = np.hstack([snps, confounders])
        mask = np.array([True] * 16 + [False] * 4)
        out = syrk(x, tile_size=8, integer_columns=mask,
                   output_precision=Precision.FP64)
        np.testing.assert_allclose(out, x.T @ x, rtol=1e-5, atol=1e-5)

    def test_integer_columns_autodetected(self, rng):
        snps = rng.integers(0, 3, size=(30, 8)).astype(np.float64)
        conf = rng.normal(size=(30, 2))
        x = np.hstack([snps, conf])
        rt = Runtime(execution="serial")
        out = syrk(x, tile_size=4, runtime=rt, phase="gram")
        by_precision = rt.ledger["gram"].flops_by_precision
        # column tiles 0-1 are all-integer, tile 2 holds the confounders
        assert by_precision[Precision.INT8] == 2.0 * 30 * 3 * 16
        assert by_precision[Precision.FP32] == 2.0 * 30 * (2 * 8 + 4)
        np.testing.assert_array_equal(out, syrk(x, tile_size=4))

    def test_runtime_task_counts_flops(self, rng):
        x = rng.integers(0, 3, size=(20, 8)).astype(np.float64)
        rt = Runtime(execution="serial")
        syrk(x, tile_size=4, runtime=rt)
        totals = rt.ledger["syrk"]
        assert totals.tasks == {}   # a dense product is not a task
        # upper-triangle pairs of the two 4-wide column tiles
        assert totals.flops == 3 * 2.0 * 20 * 4 * 4
        assert rt.handles == {}

    def test_wrong_mask_length_raises(self, rng):
        with pytest.raises(ValueError):
            syrk(rng.normal(size=(10, 4)), tile_size=2,
                 integer_columns=np.array([True, False]))


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

    def test_syrk(self, rt, rng):
        snps = rng.integers(0, 3, size=(30, 8)).astype(np.float64)
        x = np.hstack([snps, rng.normal(size=(30, 2))])
        out = syrk(x, tile_size=4, runtime=rt, phase="p")
        assert np.array_equal(out, syrk(x, tile_size=4))
        gemm(x, x, transa=True, runtime=rt, phase="p")   # adds to the phase
        totals = rt.ledger["p"]
        assert totals.tasks == {}
        assert totals.flops_by_precision == {
            Precision.INT8: 2.0 * 30 * 3 * 16,
            Precision.FP32: 2.0 * 30 * (2 * 8 + 4) + 2.0 * 10 * 10 * 30}
        assert totals.flops == 2.0 * 30 * (3 * 16 + 2 * 8 + 4 + 100)
