"""Tests for the tiled mixed-precision Cholesky factorization."""

import sys
import threading
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from repro.gwas.config import PrecisionPlan
from repro.linalg.cholesky import cholesky
from repro.precision.formats import Precision, unit_roundoff
from repro.runtime.replay import replay
from repro.runtime.runtime import Runtime
from repro.tiles.layout import TileLayout
from repro.tiles.matrix import TileMatrix
from repro.tiles.band import band_precision_map
from tests.runtime.test_dag import critical_path, flops


def _spd(n, seed=0, diag=None):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a = a @ a.T / n
    a += (diag if diag is not None else 2.0) * np.eye(n)
    return a


class TestCorrectness:
    def test_fp64_matches_numpy(self, runtime):
        a = _spd(64)
        result = cholesky(a, tile_size=16, working_precision=Precision.FP64,
                          runtime=runtime)
        np.testing.assert_allclose(result.to_dense(), np.linalg.cholesky(a),
                                   rtol=1e-10, atol=1e-10)

    def test_fp32_reconstruction(self, runtime):
        a = _spd(60)
        result = cholesky(a, tile_size=16, working_precision=Precision.FP32,
                          runtime=runtime)
        l = result.to_dense()
        np.testing.assert_allclose(l @ l.T, a, rtol=1e-4, atol=1e-4)

    def test_uneven_tiles(self, runtime):
        a = _spd(50)
        result = cholesky(a, tile_size=16, working_precision=Precision.FP64,
                          runtime=runtime)
        np.testing.assert_allclose(result.to_dense(), np.linalg.cholesky(a),
                                   rtol=1e-9, atol=1e-9)

    def test_single_tile(self, runtime):
        a = _spd(12)
        result = cholesky(a, tile_size=16, working_precision=Precision.FP64,
                          runtime=runtime)
        np.testing.assert_allclose(result.to_dense(), np.linalg.cholesky(a),
                                   rtol=1e-10)

    def test_factor_is_lower_triangular(self, runtime):
        a = _spd(48)
        result = cholesky(a, tile_size=16, runtime=runtime)
        l = result.to_dense()
        assert np.allclose(l, np.tril(l))

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            cholesky(np.zeros((4, 6)), tile_size=2)

    def test_dense_without_tile_size_raises(self):
        with pytest.raises(ValueError):
            cholesky(_spd(8))

    @pytest.mark.parametrize("tasked", [False, True])
    def test_not_positive_definite_raises(self, runtime, tasked):
        a = -np.eye(16)
        with pytest.raises(np.linalg.LinAlgError):
            cholesky(a, tile_size=8, runtime=runtime if tasked else None)


class TestMixedPrecision:
    def test_fp16_offdiag_still_accurate(self, runtime):
        a = _spd(64, diag=4.0)
        layout = TileLayout.square(64, 16)
        pmap = band_precision_map(layout, 0.0, high=Precision.FP32,
                                  low=Precision.FP16)
        result = cholesky(a, tile_size=16, working_precision=Precision.FP32,
                          precision_map=pmap, runtime=runtime)
        l = result.to_dense()
        rel = np.linalg.norm(l @ l.T - a) / np.linalg.norm(a)
        assert rel < 5e-3

    def test_lower_precision_increases_error_monotonically(self, runtime):
        a = _spd(64, diag=4.0)
        errors = {}
        for low in (Precision.FP32, Precision.FP16, Precision.FP8_E4M3):
            layout = TileLayout.square(64, 16)
            pmap = {t: (Precision.FP32 if t[0] == t[1] else low)
                    for t in layout.iter_tiles()}
            result = cholesky(a, tile_size=16, working_precision=Precision.FP32,
                              precision_map=pmap, runtime=runtime)
            l = result.to_dense()
            errors[low] = np.linalg.norm(l @ l.T - a) / np.linalg.norm(a)
        assert errors[Precision.FP32] <= errors[Precision.FP16] <= \
            errors[Precision.FP8_E4M3]

    def test_flops_by_precision_partition(self, runtime):
        a = _spd(80, diag=4.0)
        layout = TileLayout.square(80, 16)
        pmap = {t: (Precision.FP32 if t[0] == t[1] else Precision.FP16)
                for t in layout.iter_tiles()}
        result = cholesky(a, tile_size=16, precision_map=pmap, runtime=runtime)
        assert result.flops == pytest.approx(sum(result.flops_by_precision.values()))
        # GEMM (FP16) dominates for a 5x5 tile grid
        assert result.flops_by_precision[Precision.FP16] > 0

    @pytest.mark.parametrize("tasked", [False, True])
    def test_task_counts(self, runtime, tasked):
        a = _spd(64)
        result = cholesky(a, tile_size=16, runtime=runtime if tasked else None)
        nt = 4
        assert result.task_counts["potrf"] == nt
        assert result.task_counts["trsm"] == nt * (nt - 1) // 2
        assert result.task_counts["syrk"] == nt * (nt - 1) // 2
        assert result.task_counts["gemm"] == nt * (nt - 1) * (nt - 2) // 6

    def test_tile_matrix_input_with_mosaic(self, runtime):
        a = _spd(48, diag=4.0)
        tm = TileMatrix.from_dense(
            a, 16, precision=lambda i, j: Precision.FP32 if i == j else Precision.FP16)
        result = cholesky(tm, working_precision=Precision.FP32, runtime=runtime)
        l = result.to_dense()
        rel = np.linalg.norm(l @ l.T - a) / np.linalg.norm(a)
        assert rel < 5e-3


class TestRuntimePath:
    def test_runtime_bitwise_matches_serial(self):
        """The DAG path equals the host-ordered reference bit for bit —
        the acceptance contract of the threaded executor."""
        a = _spd(48)
        serial = cholesky(a, tile_size=16, working_precision=Precision.FP32)
        runtime = Runtime(execution="threaded", workers=3)
        via_runtime = cholesky(a, tile_size=16, working_precision=Precision.FP32,
                               runtime=runtime)
        np.testing.assert_array_equal(via_runtime.to_dense(), serial.to_dense())

    def test_without_a_runtime_it_is_the_reference(self, monkeypatch):
        """No runtime means no task graph, whatever the environment
        says — the rule every tiled routine follows."""
        monkeypatch.setenv("REPRO_EXECUTION", "threaded")
        with mock.patch.object(Runtime, "run", side_effect=AssertionError):
            result = cholesky(_spd(32), tile_size=16)
        assert result.schedule is None

    def test_runtime_schedule_attached(self):
        a = _spd(32)
        runtime = Runtime(execution="serial")
        result = cholesky(a, tile_size=16, runtime=runtime)
        assert result.schedule is not None
        # run() drains the pending graph; the drained DAG is retained
        assert runtime.graph.num_tasks == 0
        assert result.schedule.trace.num_tasks == runtime.last_graph.num_tasks
        assert runtime.last_graph.is_acyclic()
        # ... and replays on modelled devices, one event per task
        replayed = replay(runtime.last_graph, num_devices=2)
        assert replayed.trace.num_tasks == runtime.last_graph.num_tasks

    def test_runtime_task_count_matches_tile_algorithm(self):
        a = _spd(64)
        runtime = Runtime(execution="serial")
        cholesky(a, tile_size=16, runtime=runtime)
        counts = Counter(t.name for t in runtime.last_graph.tasks)
        assert counts["potrf"] == 4
        assert counts["gemm"] == 4

    def test_dag_keeps_its_out_of_order_parallelism(self):
        # total work over the heaviest dependency chain bounds what an
        # out-of-order drain can overlap: a property of the task graph
        # (8 x 8 tiles here), not of the host running it
        runtime = Runtime(execution="serial")
        cholesky(_spd(128), tile_size=16, runtime=runtime)
        graph = runtime.last_graph
        assert critical_path(graph) == 22  # 3 * (nt - 1) + 1
        assert graph.total_flops() / critical_path(graph, flops) >= 1.5

    def test_session_runtime_reused_across_factorizations(self):
        """One session-long runtime serves repeated factorizations, with
        a single scheduler and a collision-free handle registry."""
        runtime = Runtime(execution="threaded", workers=2)
        scheduler = runtime.scheduler
        for seed in (0, 1, 2):
            a = _spd(48, seed=seed)
            direct = cholesky(a, tile_size=16)
            again = cholesky(a, tile_size=16, runtime=runtime)
            np.testing.assert_array_equal(again.to_dense(), direct.to_dense())
        assert runtime.scheduler is scheduler  # never silently rebuilt
        assert runtime.runs_completed == 3
        # per-invocation namespaces were released after the copy-back
        assert not [n for n in runtime.handles if n.startswith("chol")]


# 28 tile rows under a two-precision mosaic: 3.6k tasks keep 8 threads
# contending while every update reads its panel tiles as they are
N, TILE = 224, 8


def _mixed_mosaic(n=N, seed=5):
    """A kernel whose adaptive map mixes FP32, FP16 and FP8 tiles."""
    rng = np.random.default_rng(seed)
    g = rng.integers(0, 3, size=(n, 64)).astype(np.float64)
    sq = (g * g).sum(axis=1)
    dense = np.exp(-0.05 * (sq[:, None] + sq[None, :] - 2.0 * g @ g.T))
    # tile rows on different scales (a congruence, so still SPD): the
    # adaptive rule then mixes FP8 and FP16 within every block column
    scale = np.repeat(10.0 ** rng.uniform(-1.0, 0.0, n // TILE), TILE)
    dense = (dense + 0.5 * np.eye(n)) * scale[:, None] * scale[None, :]
    kernel = TileMatrix.from_dense(dense, TILE, Precision.FP32, symmetric=True)
    plan = PrecisionPlan.adaptive_fp8(accuracy=3e-3)
    pmap = plan.precision_map(kernel.layout, matrix=kernel)
    assert {Precision.FP8_E4M3, Precision.FP16} <= set(pmap.values())
    return kernel, dict(working_precision=plan.working_precision,
                        precision_map=pmap)


def _bits(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    return a.view({2: np.uint16, 4: np.uint32, 8: np.uint64}[a.dtype.itemsize])


@pytest.mark.parametrize("execution,workers", [("serial", 1), ("threaded", 8),
                                               ("process", 2)])
def test_mixed_mosaic_drain_matches_the_reference(execution, workers):
    """An FP8/FP16 mosaic drained under forced thread interleavings is
    the host-ordered reference bit for bit, tile precisions included."""
    kernel, kwargs = _mixed_mosaic()
    reference = cholesky(kernel, **kwargs).factor

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    rt = Runtime(execution=execution, workers=workers)
    try:
        factor = cholesky(kernel, runtime=rt, **kwargs).factor
    finally:
        sys.setswitchinterval(interval)
        rt.close()

    _assert_same_factor(factor, reference)


def _assert_same_factor(factor, reference):
    for i in range(reference.layout.tile_rows):
        for j in range(i + 1):
            want, got = reference.get_tile(i, j), factor.get_tile(i, j)
            assert got.precision is want.precision, (i, j)
            np.testing.assert_array_equal(_bits(got.data), _bits(want.data),
                                          err_msg=f"{(i, j)}")


@pytest.mark.parametrize("execution", ["serial", "threaded"])
def test_concurrent_factorizations_share_no_state(execution):
    """Two mosaics factored at once, each on its own runtime in its own
    thread, are each their reference bit for bit: no operand, count or
    reset is shared between drains in one process.  Each reference is
    drained in a worker process of its own, so no state of this one can
    reach it."""
    cases = [_mixed_mosaic(96, seed) for seed in (6, 7)]
    references = []
    for kernel, kwargs in cases:
        rt = Runtime(execution="process", workers=1)
        try:
            references.append(cholesky(kernel, runtime=rt, **kwargs).factor)
        finally:
            rt.close()
    factors, errors = [None, None], []

    def factor(slot):
        kernel, kwargs = cases[slot]
        rt = Runtime(execution=execution, workers=2)
        try:
            factors[slot] = cholesky(kernel, runtime=rt, **kwargs).factor
        except BaseException as exc:  # reported on the main thread
            errors.append(exc)
        finally:
            rt.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=factor, args=(slot,))
                   for slot in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert not any(thread.is_alive() for thread in threads)
    for got, want in zip(factors, references):
        _assert_same_factor(got, want)


def cholesky_flops(n: int) -> float:
    """Total operation count of a Cholesky factorization of order ``n``."""
    return n ** 3 / 3.0 + n ** 2 / 2.0 + n / 6.0


class TestFlopsFormula:
    def test_cholesky_flops_cubic(self):
        assert cholesky_flops(1000) == pytest.approx(1000 ** 3 / 3, rel=0.01)

    def test_accumulated_flops_close_to_formula(self, runtime):
        a = _spd(96)
        result = cholesky(a, tile_size=16, runtime=runtime)
        assert result.flops == pytest.approx(cholesky_flops(96), rel=0.25)


class TestTileNativeInput:
    def test_symmetric_tile_input_never_densifies(self, runtime):
        from repro.tiles.matrix import TileMatrix

        a = _spd(64)
        sym = TileMatrix.from_dense(a, tile_size=16, symmetric=True)

        def forbidden(self, *args, **kwargs):
            raise AssertionError("cholesky densified its TileMatrix input")

        with mock.patch.object(TileMatrix, "to_dense", forbidden):
            result = cholesky(sym, working_precision=Precision.FP64,
                              runtime=runtime)
        np.testing.assert_allclose(result.to_dense(), np.linalg.cholesky(a),
                                   rtol=1e-10, atol=1e-12)

    def test_symmetric_tile_input_matches_dense_input(self, runtime):
        from repro.tiles.matrix import TileMatrix

        a = _spd(80)
        dense_result = cholesky(a, tile_size=16,
                                working_precision=Precision.FP32,
                                runtime=runtime)
        sym = TileMatrix.from_dense(a, tile_size=16, symmetric=True,
                                    precision=Precision.FP32)
        tiled_result = cholesky(sym, working_precision=Precision.FP32,
                                runtime=runtime)
        np.testing.assert_array_equal(tiled_result.to_dense(),
                                      dense_result.to_dense())
        assert tiled_result.flops == dense_result.flops

    @pytest.mark.parametrize("tasked", [False, True])
    @pytest.mark.parametrize("low", [Precision.FP16, Precision.FP8_E4M3],
                             ids=lambda p: p.value)
    def test_the_input_tiles_are_shared_and_never_written(self, runtime,
                                                          tasked, low):
        """The workspace shares the kernel's tile objects until it
        replaces them; read-only payloads prove no kernel writes one."""
        a = _spd(80)
        sym = TileMatrix.from_dense(
            a, tile_size=16, symmetric=True,
            precision=lambda i, j: Precision.FP32 if i == j else low)
        before = {k: (t, t.data.copy()) for k, t in sym._tiles.items()}
        for tile, _ in before.values():
            tile.data.flags.writeable = False
        reference = cholesky(sym.unpacked_lower().copy(),
                             working_precision=Precision.FP32)
        result = cholesky(sym, working_precision=Precision.FP32,
                          runtime=runtime if tasked else None)
        np.testing.assert_array_equal(result.to_dense(),
                                      reference.to_dense())
        for key, (tile, bits) in before.items():
            assert sym._tiles[key] is tile
            np.testing.assert_array_equal(tile.data, bits)


class TestNativeAccuracy:
    """The FP32/FP64 factor is LAPACK/BLAS in that dtype, tile by tile:
    its backward error obeys the uniform-precision bound
    :meth:`cholesky_error_bound` and, for FP32, stays within a small
    factor of LAPACK's own single-precision factorization."""

    @staticmethod
    def cholesky_error_bound(n, precision):
        """Backward-error bound for a Cholesky factorization of order
        ``n``: ``A + dA = L @ L.T`` with ``||dA|| <= bound * ||A||``
        (uniform precision; Higham's ``gamma_{3n+1} = nu / (1 - nu)``
        with ``nu = (3n+1)·u``)."""
        u = unit_roundoff(precision)
        if u == 0.0:
            return 0.0
        nu = (3 * max(n, 1) + 1) * u
        assert nu < 1.0
        return nu / (1.0 - nu)

    @staticmethod
    def _kernel(n):
        rng = np.random.default_rng(n)
        g = rng.integers(0, 3, size=(n, 64)).astype(np.float64)
        sq = (g * g).sum(axis=1)
        return np.exp(-0.02 * (sq[:, None] + sq[None, :] - 2.0 * g @ g.T)) \
            + 0.5 * np.eye(n)

    @staticmethod
    def _backward_error(l, a):
        l = np.asarray(l, dtype=np.float64)
        return np.linalg.norm(l @ l.T - a) / np.linalg.norm(a)

    def test_bound_is_zero_for_integers(self):
        assert self.cholesky_error_bound(100, Precision.INT8) == 0.0

    def test_bound_grows_with_n(self):
        assert self.cholesky_error_bound(100, Precision.FP32) < \
            self.cholesky_error_bound(1000, Precision.FP32)

    def test_narrower_precision_has_the_larger_bound(self):
        assert self.cholesky_error_bound(100, Precision.FP32) < \
            self.cholesky_error_bound(100, Precision.FP16)

    @pytest.mark.parametrize("n", [256, 640, 1000])
    @pytest.mark.parametrize("p", [Precision.FP32, Precision.FP64],
                             ids=lambda p: p.value)
    def test_backward_error_within_the_model_bound(self, runtime, p, n):
        import scipy.linalg

        a = np.asarray(self._kernel(n), dtype=p.numpy_dtype)  # the input, at p
        result = cholesky(a, tile_size=128, working_precision=p,
                          runtime=runtime)
        error = self._backward_error(result.to_dense(), a)
        assert 0.0 < error <= self.cholesky_error_bound(n, p)
        if p is Precision.FP32:
            lapack = scipy.linalg.cholesky(a, lower=True)
            assert lapack.dtype == np.float32
            assert error <= 4.0 * self._backward_error(lapack, a)
