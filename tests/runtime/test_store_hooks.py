"""Scheduler ↔ store integration: pin/unpin lifecycle and eviction
raciness under threaded out-of-order DAG execution.

The headline invariant: an 8-worker threaded DAG Cholesky over a
store-backed workspace with a budget a fraction of the mosaic stays
**bitwise identical** to the serial, fully-resident elimination — for
every precision plan, because spill/reload round-trips are exact and
every ordering constraint is an explicit dependency edge.
"""

import numpy as np
import pytest

from repro.gwas.config import PrecisionPlan
from repro.linalg.cholesky import cholesky
from repro.precision.formats import Precision
from repro.runtime.runtime import Runtime
from repro.runtime.task import AccessMode
from repro.store import StoreSchedulerHooks, TileStore
from repro.tiles.matrix import TileMatrix
from tests.runtime.call import call

TILE = 32


def spd(rng, n):
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


PLANS = {
    "fp64": PrecisionPlan.fp64(),
    "fp32": PrecisionPlan.fp32(),
    "adaptive-fp16": PrecisionPlan.adaptive_fp16(),
    "adaptive-fp8": PrecisionPlan.adaptive_fp8(),
}


class TestHookLifecycle:
    def test_pins_follow_dispatch_and_complete(self, rng):
        """Every pin taken at dispatch is released by completion."""
        tm = TileMatrix.from_dense(spd(rng, 4 * TILE), TILE, Precision.FP64)
        with TileStore(budget_bytes=2 * TILE * TILE * 8) as store:
            tm.attach_store(store)
            binding = tm._binding
            events = []

            class Spy(StoreSchedulerHooks):
                def task_dispatch(self, task):
                    events.append(("dispatch", task.name))
                    super().task_dispatch(task)

                def task_complete(self, task):
                    events.append(("complete", task.name))
                    super().task_complete(task)

            rt = Runtime(execution="threaded", workers=4)
            rt.scheduler.hooks = Spy(store)
            handles = [rt.register_data(f"t{d}", payload=None)
                       for d in range(4)]
            for d in range(4):
                rt.insert_task(
                    f"touch{d}", (handles[d], AccessMode.READWRITE),
                    spec=call((lambda d=d: (lambda _:
                          tm.set_tile(d, d, tm.get_tile(d, d).to_float64()
                                      + 1.0)))()),
                    tile_deps=((binding, (d, d)),),
                )
            rt.run()
            assert len([e for e in events if e[0] == "dispatch"]) == 4
            assert len([e for e in events if e[0] == "complete"]) == 4
            # all pins released: every diagonal tile is evictable again
            for d in range(4):
                assert not store.residency.pinned((binding.bid, (d, d)))

    def test_hooks_fire_in_serial_mode_too(self, rng):
        tm = TileMatrix.from_dense(spd(rng, 2 * TILE), TILE, Precision.FP64)
        with TileStore(budget_bytes=TILE * TILE * 8) as store:
            tm.attach_store(store)
            binding = tm._binding
            seen = []

            class Spy(StoreSchedulerHooks):
                def task_dispatch(self, task):
                    seen.append("dispatch")
                    super().task_dispatch(task)

            rt = Runtime(execution="serial")
            rt.scheduler.hooks = Spy(store)
            h = rt.register_data("x", payload=None)
            rt.insert_task("noop", (h, AccessMode.READWRITE),
                           spec=call(lambda _: None),
                           tile_deps=((binding, (0, 0)),))
            rt.run()
            assert seen == ["dispatch"]

    def test_pins_released_on_task_failure(self, rng):
        tm = TileMatrix.from_dense(spd(rng, 2 * TILE), TILE, Precision.FP64)
        with TileStore(budget_bytes=TILE * TILE * 8) as store:
            tm.attach_store(store)
            binding = tm._binding
            rt = Runtime(execution="threaded", workers=2)
            rt.scheduler.hooks = StoreSchedulerHooks(store)
            h = rt.register_data("x", payload=None)

            def boom(_):
                raise RuntimeError("task failure")

            rt.insert_task("boom", (h, AccessMode.READWRITE), spec=call(boom),
                           tile_deps=((binding, (0, 0)),))
            with pytest.raises(RuntimeError, match="task failure"):
                rt.run()
            assert not store.residency.pinned((binding.bid, (0, 0)))

    def test_attach_store_idempotent_and_exclusive(self):
        rt = Runtime(execution="serial")
        with TileStore() as s1, TileStore() as s2:
            rt.attach_store(s1)
            rt.attach_store(s1)  # no-op
            with pytest.raises(RuntimeError, match="already has"):
                rt.attach_store(s2)


class TestThreadedCholeskyUnderBudget:
    """The eviction-raciness net: threaded + tight budget == serial."""

    N = 8 * TILE  # an 8x8 tile grid: plenty of concurrent trailing GEMMs

    @pytest.fixture(scope="class")
    def matrix(self):
        rng = np.random.default_rng(99)
        return spd(rng, self.N)

    @pytest.mark.parametrize("plan_name", list(PLANS))
    def test_bitwise_vs_serial_unbudgeted(self, matrix, plan_name):
        plan = PLANS[plan_name]

        def tiled_input():
            tm = TileMatrix.from_dense(matrix, TILE, Precision.FP64,
                                       symmetric=True)
            pmap = plan.precision_map(tm.layout, matrix=tm)
            tm.apply_precision_map(pmap)
            return tm, pmap

        ref_tm, pmap = tiled_input()
        ref = cholesky(ref_tm, working_precision=plan.working_precision,
                       precision_map=pmap)

        oo_tm, pmap_oo = tiled_input()
        assert pmap_oo == pmap
        budget = max(oo_tm.nbytes() // 4, 6 * TILE * TILE * 8)
        with TileStore(budget_bytes=budget) as store:
            oo_tm.attach_store(store)
            rt = Runtime(execution="threaded", workers=8)
            res = cholesky(oo_tm, working_precision=plan.working_precision,
                           precision_map=pmap, runtime=rt)
            np.testing.assert_array_equal(res.to_dense(), ref.to_dense())
            assert res.factor.store is store
            assert store.stats.spills > 0
            assert store.stats.reloads > 0
            # flop accounting agrees with the resident path
            assert res.flops == ref.flops
            assert res.flops_by_precision == ref.flops_by_precision

    def test_repeated_runs_deterministic(self, matrix):
        plan = PLANS["adaptive-fp16"]
        outputs = []
        for _ in range(3):
            tm = TileMatrix.from_dense(matrix, TILE, Precision.FP64,
                                       symmetric=True)
            pmap = plan.precision_map(tm.layout, matrix=tm)
            tm.apply_precision_map(pmap)
            with TileStore(budget_bytes=tm.nbytes() // 4) as store:
                tm.attach_store(store)
                rt = Runtime(execution="threaded", workers=8)
                res = cholesky(tm, working_precision=plan.working_precision,
                               precision_map=pmap, runtime=rt)
                outputs.append(res.to_dense())
        np.testing.assert_array_equal(outputs[0], outputs[1])
        np.testing.assert_array_equal(outputs[0], outputs[2])

    def test_peak_resident_under_budget_when_working_set_fits(self, matrix):
        """Build the workspace *inside* the store: peak <= budget."""
        plan = PLANS["fp32"]
        tm = TileMatrix.from_dense(matrix, TILE, Precision.FP64,
                                   symmetric=True)
        pmap = plan.precision_map(tm.layout, matrix=tm)
        tm.apply_precision_map(pmap)
        budget = tm.nbytes() // 2
        with TileStore(budget_bytes=budget) as store:
            # stream the kernel into store-backed storage (as the Build
            # phase does), so residency is budget-managed from tile one
            oo = TileMatrix.empty(self.N, self.N, TILE, Precision.FP64,
                                  symmetric=True)
            oo.attach_store(store)
            for i in range(oo.layout.tile_rows):
                for j in range(i + 1):
                    oo.set_tile(i, j, tm.get_tile(i, j).to_float64(),
                                precision=tm.tile_precision(i, j))
            # 4 workers x <=3 pinned tiles each fits the half budget;
            # larger pools could legitimately overflow it (pins win)
            rt = Runtime(execution="threaded", workers=4)
            res = cholesky(oo, working_precision=plan.working_precision,
                           precision_map=pmap, runtime=rt)
            assert store.stats.peak_resident_bytes <= budget
            assert store.stats.budget_overflows == 0
            ref = cholesky(tm, working_precision=plan.working_precision,
                           precision_map=pmap)
            np.testing.assert_array_equal(res.to_dense(), ref.to_dense())
