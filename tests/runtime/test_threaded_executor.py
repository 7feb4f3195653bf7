"""Tests for the threaded out-of-order executor and runtime reuse.

Three layers of guarantees are pinned here:

1. **Dependency correctness under concurrency** — WAR/WAW/RAW edges
   derived from access declarations are honoured by the worker pool,
   and the critical-path length bounds what can overlap.
2. **Bitwise determinism** — the threaded executor's Cholesky and
   Build outputs equal the serial reference bit for bit, across
   precision plans (fp64 / fp32 / adaptive-fp16 / adaptive-fp8) and
   worker counts {1, 2, 3, 8}.
3. **Lane threads** — a drain of N lanes runs lane 0 on the caller's
   thread and starts exactly N−1 threads; a one-lane drain starts none.
4. **Session-long reuse** — repeated ``run()`` calls drain the pending
   graph without rebuilding scheduler state, namespaces keep the handle
   registry collision-free, and foreign handles are rejected.
"""

import os
import threading

import numpy as np
import pytest

from repro.distance.build import KernelBuilder
from repro.gwas.config import PrecisionPlan
from repro.linalg.cholesky import cholesky
from repro.precision.formats import Precision
from repro.runtime.dag import TaskGraph
from repro.runtime.device import GENERIC_GPU
from repro.runtime.replay import replay
from repro.runtime.runtime import Runtime
from repro.runtime.task import AccessMode, DataHandle
from tests.runtime.call import call
from tests.runtime.test_dag import critical_path, flops


def _spd(n, seed=0, diag=4.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a = a @ a.T / n
    return a + diag * np.eye(n)


PLANS = [
    PrecisionPlan.fp64(),
    PrecisionPlan.fp32(),
    PrecisionPlan.adaptive_fp16(),
    PrecisionPlan.adaptive_fp8(),
]
WORKER_COUNTS = (1, 2, 3, 8)


class TestDependencyOrderingUnderConcurrency:
    def test_waw_chain_executes_in_insertion_order(self):
        """READWRITE tasks on one handle must serialize, even with a
        full worker pool racing over the ready set."""
        rt = Runtime(execution="threaded", workers=8)
        h = rt.register_data("acc", payload=[])
        order = []

        def make_body(idx):
            def body(acc):
                order.append(idx)
                return acc
            return body

        for i in range(64):
            rt.insert_task(f"t{i}", (h, AccessMode.READWRITE),
                           spec=call(make_body(i)))
        rt.run()
        assert order == list(range(64))

    def test_war_blocks_overwrite_until_readers_finish(self):
        """A writer must not run before earlier readers of the handle."""
        rt = Runtime(execution="threaded", workers=8)
        a = rt.register_data("a", payload=np.array([1.0]))
        b = rt.register_data("b", payload=None)
        c = rt.register_data("c", payload=None)
        seen = {}

        rt.insert_task("read1", (a, AccessMode.READ), (b, AccessMode.WRITE),
                       spec=call(lambda x, _: float(x[0])))
        rt.insert_task("read2", (a, AccessMode.READ), (c, AccessMode.WRITE),
                       spec=call(lambda x, _: float(x[0])))
        rt.insert_task("overwrite", (a, AccessMode.WRITE),
                       spec=call(lambda _: np.array([2.0])))
        rt.run()
        seen["b"], seen["c"] = b.payload, c.payload
        # both readers observed the pre-overwrite value
        assert seen == {"b": 1.0, "c": 1.0}
        np.testing.assert_array_equal(a.payload, [2.0])

    def test_independent_tasks_overlap_on_workers(self):
        """Tasks with no shared handles genuinely run concurrently."""
        rt = Runtime(execution="threaded", workers=4)
        barrier = threading.Barrier(4, timeout=10.0)

        def body(payload):
            barrier.wait()  # deadlocks unless 4 bodies are in flight
            return payload

        for i in range(4):
            h = rt.register_data(f"h{i}", payload=i)
            rt.insert_task(f"t{i}", (h, AccessMode.READWRITE), spec=call(body))
        result = rt.run()
        assert result.trace.num_tasks == 4
        assert {e.device for e in result.trace.events} == {0, 1, 2, 3}

    def test_drain_bookkeeping_survives_forced_interleavings(self):
        """More lanes than cores, a tiny switch interval and transient
        faults: every task is retired exactly once and every retry is
        charged — a lost update on the drain's shared state breaks one
        of the counts below."""
        import sys

        from repro.resilience.faults import (
            SITE_TASK_BODY, FaultPlan, FaultSite, fault_plan)

        chains, depth = 24, 12
        rt = Runtime(execution="threaded", workers=8, task_retries=3)
        handles = [rt.register_data(f"c{i}", payload=0) for i in range(chains)]
        for _ in range(depth):
            for i, h in enumerate(handles):
                rt.insert_task("inc", (h, AccessMode.READWRITE),
                               (handles[(i + 1) % chains], AccessMode.READ),
                               spec=call(lambda own, _other: own + 1))
        plan = FaultPlan([FaultSite(site=SITE_TASK_BODY, every=7)], seed=3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        done = []
        try:
            with fault_plan(plan):
                drain = threading.Thread(
                    target=lambda: done.append(rt.run()), daemon=True)
                drain.start()
                drain.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not drain.is_alive() and done, "the drain hung or failed"
        (result,) = done
        assert [h.payload for h in handles] == [depth] * chains
        uids = [e.task_uid for e in result.trace.events]
        assert len(uids) == len(set(uids)) == chains * depth
        assert plan.fired > 0
        assert sum(e.retries for e in result.trace.events) == plan.fired

    def test_exceptions_propagate_from_worker_threads(self):
        from repro.runtime import TaskGroupError

        rt = Runtime(execution="threaded", workers=4)
        h = rt.register_data("x", payload=-np.eye(4))
        rt.insert_task("potrf", (h, AccessMode.READWRITE),
                       spec=call(np.linalg.cholesky))
        rt.insert_task("never", (h, AccessMode.READWRITE),
                       spec=call(lambda a: a))
        with pytest.raises(TaskGroupError) as excinfo:
            rt.run()
        # the aggregate error carries every failure with task context
        exc = excinfo.value
        assert exc.matches(np.linalg.LinAlgError)
        assert [f.task.name for f in exc.failures] == ["potrf"]
        assert "potrf" in str(exc)
        # the successor it blocked is reported, not left pending
        assert [t.name for t in exc.unfinished] == ["potrf", "never"]
        assert rt.num_tasks() == 0

    def test_diamond_dependencies(self):
        """fan-out/fan-in: both branches read the source, the sink reads
        both branches — any interleaving must produce the same sink."""
        for _ in range(5):  # repeat to shake out scheduling races
            rt = Runtime(execution="threaded", workers=8)
            src = rt.register_data("src", payload=np.array([3.0]))
            l = rt.register_data("l", payload=None)
            r = rt.register_data("r", payload=None)
            out = rt.register_data("out", payload=None)
            rt.insert_task("left", (src, AccessMode.READ), (l, AccessMode.WRITE),
                           spec=call(lambda s, _: s * 2))
            rt.insert_task("right", (src, AccessMode.READ), (r, AccessMode.WRITE),
                           spec=call(lambda s, _: s + 1))
            rt.insert_task("join", (l, AccessMode.READ), (r, AccessMode.READ),
                           (out, AccessMode.WRITE),
                           spec=call(lambda x, y, _: x + y))
            rt.run()
            np.testing.assert_array_equal(out.payload, [10.0])


@pytest.fixture
def lane_starts(monkeypatch):
    """Names of the lane threads started while the test runs."""
    start = threading.Thread.start
    names = []

    def recording_start(thread):
        if thread.name.startswith("repro-runtime"):
            names.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return names


def _ident_tasks(rt, count, body=lambda: None):
    """``count`` independent tasks, each recording the thread it ran on."""
    ran = {}
    for i in range(count):
        h = rt.register_data(f"h{i}", payload=i)

        def record(payload, i=i):
            body()
            ran[f"t{i}"] = threading.get_ident()
            return payload

        rt.insert_task(f"t{i}", (h, AccessMode.READWRITE), spec=call(record))
    return ran


class TestLaneThreads:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_lane_zero_is_the_caller_and_n_minus_one_threads_start(
            self, workers, lane_starts):
        rt = Runtime(execution="threaded", workers=workers)
        barrier = threading.Barrier(workers, timeout=10.0)
        # deadlocks unless every lane holds one task
        ran = _ident_tasks(rt, workers, body=barrier.wait)
        events = rt.run().trace.events
        assert lane_starts == [f"repro-runtime-{i}" for i in range(1, workers)]
        lane_of = {e.task_name: e.device for e in events}
        assert sorted(lane_of.values()) == list(range(workers))
        me = threading.get_ident()
        assert len(set(ran.values())) == workers
        for name, ident in ran.items():
            assert (ident == me) == (lane_of[name] == 0)

    @pytest.mark.parametrize("case", ["serial", "one task", "one CPU"])
    def test_a_one_lane_drain_starts_no_thread(self, case, lane_starts,
                                               monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        rt = {"serial": lambda: Runtime(execution="serial", workers=4),
              "one task": lambda: Runtime(execution="threaded", workers=4),
              "one CPU": lambda: Runtime(execution="threaded")}[case]()
        ran = _ident_tasks(rt, 1 if case == "one task" else 4)
        rt.run()
        assert lane_starts == []
        assert set(ran.values()) == {threading.get_ident()}


class TestCriticalPath:
    def test_chain_critical_path_length(self):
        g = TaskGraph()
        h = DataHandle("h")
        for i in range(7):
            g.insert_task(f"t{i}", (h, AccessMode.READWRITE))
        assert critical_path(g) == 7

    def test_parallel_tasks_have_unit_depth(self):
        g = TaskGraph()
        for i in range(5):
            g.insert_task(f"t{i}", (DataHandle(f"h{i}"), AccessMode.READWRITE))
        assert critical_path(g) == 1

    def test_cholesky_dag_depth_matches_elimination_structure(self):
        """Right-looking tiled Cholesky on an nt x nt grid has a
        POTRF -> TRSM -> (SYRK|GEMM) chain per panel: depth 3(nt-1)+1."""
        nt = 4
        rt = Runtime(execution="threaded", workers=2)
        cholesky(_spd(16 * nt), tile_size=16, runtime=rt)
        graph = rt.last_graph
        assert critical_path(graph) == 3 * (nt - 1) + 1
        # and the critical-path flops bound the replayed makespan
        assert critical_path(graph, flops) <= graph.total_flops()
        replayed = replay(graph, num_devices=nt)
        assert replayed.trace.num_tasks == graph.num_tasks
        fastest = max(GENERIC_GPU.throughput.values())
        assert replayed.makespan >= critical_path(graph, flops) / fastest

    def test_empty_graph(self):
        assert critical_path(TaskGraph()) == 0


class TestBitwiseDeterminism:
    @pytest.mark.parametrize("plan", PLANS, ids=lambda p: p.label())
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_threaded_cholesky_bitwise_identical_to_serial(self, plan, workers):
        n, ts = 96, 16
        a = _spd(n, seed=3)
        from repro.tiles.layout import TileLayout

        pmap = plan.precision_map(TileLayout.square(n, ts), matrix=a)
        serial = cholesky(a, tile_size=ts,
                          working_precision=plan.working_precision,
                          precision_map=pmap)
        threaded = cholesky(a, tile_size=ts,
                            working_precision=plan.working_precision,
                            precision_map=pmap,
                            runtime=Runtime(execution="threaded",
                                            workers=workers))
        np.testing.assert_array_equal(threaded.to_dense(), serial.to_dense())
        assert threaded.flops == serial.flops
        assert threaded.flops_by_precision == serial.flops_by_precision

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("storage", [
        Precision.FP64, Precision.FP32, Precision.FP16, Precision.FP8_E4M3,
    ])
    def test_threaded_build_bitwise_identical_to_serial(self, small_genotypes,
                                                        storage, workers):
        genotypes = small_genotypes[:72]
        serial = KernelBuilder(gamma=0.03, tile_size=16,
                               storage_precision=storage,
                               runtime=Runtime(execution="serial")
                               ).build_training(genotypes)
        threaded = KernelBuilder(gamma=0.03, tile_size=16,
                                 storage_precision=storage,
                                 runtime=Runtime(execution="threaded",
                                                 workers=workers)
                                 ).build_training(genotypes)
        np.testing.assert_array_equal(threaded.to_dense(), serial.to_dense())
        assert threaded.flops == serial.flops
        assert threaded.flops_by_precision == serial.flops_by_precision

    def test_stress_repeated_threaded_runs_are_stable(self):
        """Same DAG, many threaded executions, one bit pattern."""
        a = _spd(64, seed=9)
        reference = cholesky(a, tile_size=16).to_dense()
        rt = Runtime(execution="threaded", workers=8)
        for _ in range(10):
            again = cholesky(a, tile_size=16, runtime=rt).to_dense()
            np.testing.assert_array_equal(again, reference)


class TestRuntimeReuse:
    def test_run_drains_pending_tasks_only(self):
        rt = Runtime(execution="threaded", workers=2)
        h = rt.register_data("x", payload=np.array([1.0]))
        rt.insert_task("inc", (h, AccessMode.READWRITE),
                       spec=call(lambda v: v + 1))
        first = rt.run()
        assert first.trace.num_tasks == 1
        # a second run with nothing pending must be a no-op, not a replay
        second = rt.run()
        assert second.trace.num_tasks == 0
        np.testing.assert_array_equal(h.payload, [2.0])

    def test_scheduler_not_rebuilt_between_runs(self):
        rt = Runtime(execution="threaded", workers=2)
        scheduler = rt.scheduler
        for i in range(3):
            h = rt.register_data(f"x{i}", payload=float(i))
            rt.insert_task("t", (h, AccessMode.READWRITE),
                           spec=call(lambda v: v))
            rt.run()
        assert rt.scheduler is scheduler
        rt.reset_graph()
        assert rt.scheduler is scheduler
        assert rt.runs_completed == 3

    def test_foreign_handle_rejected(self):
        rt = Runtime(execution="threaded")
        other = Runtime(execution="threaded")
        foreign = other.register_data("x", payload=1.0)
        with pytest.raises(RuntimeError, match="not registered"):
            rt.insert_task("t", (foreign, AccessMode.READ))

    def test_released_handle_rejected(self):
        rt = Runtime(execution="threaded")
        h = rt.register_data("ns:x", payload=1.0)
        assert rt.release("ns:") == 1
        with pytest.raises(RuntimeError, match="not registered"):
            rt.insert_task("t", (h, AccessMode.READ))

    def test_register_exist_ok_checks_shape(self):
        rt = Runtime(execution="threaded")
        h = rt.register_data("x", shape=(4, 4))
        assert rt.register_data("x", shape=(4, 4), exist_ok=True) is h
        with pytest.raises(ValueError, match="re-registered"):
            rt.register_data("x", shape=(2, 2), exist_ok=True)
        with pytest.raises(ValueError, match="already registered"):
            rt.register_data("x", shape=(4, 4))

    def test_namespaces_are_unique(self):
        rt = Runtime(execution="threaded")
        assert rt.namespace("chol") != rt.namespace("chol")

    def test_workers_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert Runtime(execution="threaded").workers == 3
        assert Runtime(execution="threaded", workers=5).workers == 5

    def test_invalid_execution_mode_rejected(self):
        with pytest.raises(ValueError, match="execution"):
            Runtime(execution="warp-speed")


class TestLibraryDrainGuard:
    def test_insert_and_drain_routines_refuse_pending_foreign_tasks(self):
        from repro.linalg.cholesky import cholesky

        rt = Runtime(execution="threaded", workers=2)
        h = rt.register_data("mine", payload=np.array([1.0]))
        rt.insert_task("foreign", (h, AccessMode.READWRITE),
                       spec=call(lambda v: v))
        a = _spd(32)
        with pytest.raises(RuntimeError, match="unrelated pending"):
            cholesky(a, tile_size=16, runtime=rt)
        # the foreign task was not executed and is still pending
        assert rt.num_tasks() == 1
        rt.run()
        assert rt.num_tasks() == 0
        cholesky(a, tile_size=16, runtime=rt)  # now fine

    def test_register_exist_ok_checks_precision(self):
        rt = Runtime(execution="threaded")
        rt.register_data("x", shape=(4, 4), precision=Precision.FP32)
        with pytest.raises(ValueError, match="re-registered"):
            rt.register_data("x", shape=(4, 4), precision=Precision.FP16,
                             exist_ok=True)
