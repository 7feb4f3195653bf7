"""Plan-driven eviction: the store reads the drain's own order.

``_Drain`` hands the hooks the graph once (``drain_begin``),
``StoreSchedulerHooks`` turns ``topological_order(by_priority=True)``
into per-tile use positions and ``ResidencyManager.victims_to_fit``
evicts the unpinned tile whose next use is farthest.  Pinned: the
victims are Belady's on any pinned trace and never cost more misses
than LRU; a serial store-backed factorization moves fewer tiles than
the same drain without the plan, the same number every run (every
reload is on demand); a
store-backed factorization's updates go column by column while a
resident one keeps the lookahead order; several lanes stay bitwise and
inside the budget; hooks that know nothing of ``drain_begin`` still
drain.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.linalg.cholesky import cholesky
from repro.precision.formats import Precision
from repro.runtime.dag import TaskGraph
from repro.runtime.scheduler import Scheduler
from repro.runtime.runtime import Runtime
from repro.runtime.task import Task
from repro.store import StoreSchedulerHooks, TileStore
from repro.store.stats import ResidencyManager
from repro.tiles.matrix import TileMatrix
from tests.runtime.call import call


# ----------------------------------------------------------------------
# (a) the manager against an offline Belady simulation
# ----------------------------------------------------------------------
def key(tile: int):
    return (0, (tile, 0))


def replay(trace, capacity, planned):
    """Drive a ``ResidencyManager`` the way a one-lane drain drives the
    store: dispatch (advance + pin), fault each tile in (evicting to
    fit), complete (unpin).  Unit-size tiles; returns (misses, victims).
    """
    manager = ResidencyManager(budget_bytes=capacity)
    if planned:
        uses = {}
        for at, tiles in enumerate(trace):
            for tile in tiles:
                uses.setdefault(key(tile), []).append(at)
        manager.set_plan(uses, len(trace))
    misses, evicted = 0, []
    for at, tiles in enumerate(trace):
        manager.advance(at)
        for tile in tiles:
            manager.pin(key(tile))
        for tile in tiles:
            if manager.resident(key(tile)):
                manager.touch(key(tile))
                continue
            misses += 1
            for victim in manager.victims_to_fit(1, exclude=key(tile)):
                manager.remove(victim)
                evicted.append(victim[1][0])
            manager.add(key(tile), 1)
        for tile in tiles:
            manager.unpin(key(tile))
    assert manager.stats.budget_overflows == 0
    assert manager.stats.peak_resident_bytes <= capacity
    return misses, evicted


def belady(trace, capacity):
    """Offline farthest-next-use with the task's tiles pinned, ties to
    the least recently used — written without the manager."""
    resident, last_used, clock = set(), {}, 0
    misses, evicted = 0, []
    for at, tiles in enumerate(trace):
        for tile in tiles:
            clock += 1
            if tile not in resident:
                misses += 1
                if len(resident) == capacity:
                    def next_use(t):
                        return next((p for p in range(at + 1, len(trace))
                                     if t in trace[p]), float("inf"))
                    victim = min((t for t in resident if t not in tiles),
                                 key=lambda t: (-next_use(t), last_used[t]))
                    resident.remove(victim)
                    evicted.append(victim)
                resident.add(tile)
            last_used[tile] = clock
    return misses, evicted


traces = st.lists(
    st.lists(st.integers(0, 11), min_size=1, max_size=3, unique=True),
    min_size=1, max_size=60)


class TestAgainstBelady:
    @settings(max_examples=300, deadline=None)
    @given(trace=traces, capacity=st.integers(3, 8))
    def test_same_victims_and_never_more_misses_than_lru(self, trace,
                                                         capacity):
        planned = replay(trace, capacity, planned=True)
        assert planned == belady(trace, capacity)
        lru_misses, _ = replay(trace, capacity, planned=False)
        assert planned[0] <= lru_misses

    def test_plan_ends_with_its_last_dispatch(self):
        manager = ResidencyManager(budget_bytes=2)
        manager.set_plan({key(0): [0, 2], key(1): [1]}, 3)
        manager.add(key(0), 1)
        manager.add(key(1), 1)  # the more recently used, yet used no more
        manager.advance(0)
        manager.advance(1)
        assert manager.victims_to_fit(1) == [key(1)]
        manager.advance(2)  # the drain is over: plain LRU again
        assert manager.victims_to_fit(1) == [key(0)]

    def test_clean_tile_goes_before_a_dirty_one_at_the_same_distance(self):
        manager = ResidencyManager(budget_bytes=2)
        manager.set_plan({key(9): [0, 1]}, 2)
        manager.add(key(0), 1)
        manager.add(key(1), 1)
        manager.advance(0)
        assert manager.victims_to_fit(
            1, dirty=lambda k: k == key(0)) == [key(1)]

    def test_lanes_out_of_order_do_not_hide_an_earlier_task(self):
        manager = ResidencyManager(budget_bytes=2)
        manager.set_plan({key(0): [1], key(1): [3]}, 4)
        manager.add(key(0), 1)
        manager.add(key(1), 1)
        manager.advance(0)
        manager.advance(2)  # a second lane ran ahead of position 1
        assert manager.victims_to_fit(1) == [key(1)]


# ----------------------------------------------------------------------
# (b), (c) a store-backed factorization under the plan
# ----------------------------------------------------------------------
N, TILE = 1280, 128
LOWER_TILES = (N // TILE) * (N // TILE + 1) // 2
BUDGET = LOWER_TILES * TILE * TILE * 4 // 4  # a quarter of the mosaic


class Unplanned(StoreSchedulerHooks):
    """The store hooks minus the plan: pins only, LRU eviction."""

    drain_begin = None


def factor(a, hooks=StoreSchedulerHooks, budget=BUDGET, **where):
    kernel = TileMatrix.from_dense(a, TILE, Precision.FP32, symmetric=True)
    rt = Runtime(**where)
    try:
        if budget is None:
            return cholesky(kernel, runtime=rt).to_dense(), None
        with TileStore(budget_bytes=budget) as store:
            kernel.attach_store(store)
            rt.scheduler.hooks = hooks(store)
            dense = cholesky(kernel, runtime=rt).to_dense()
            return dense, store.stats.snapshot()
    finally:
        rt.close()


def spd(rng, n):
    a = rng.normal(size=(n, n)).astype(np.float32)
    return (a @ a.T + n * np.eye(n)).astype(np.float64)


class TestFactorUnderThePlan:
    def test_serial_traffic_repeats_and_beats_lru(self, rng):
        a = spd(rng, N)
        resident, _ = factor(a, budget=None, execution="serial")
        first, s1 = factor(a, execution="serial")
        second, s2 = factor(a, execution="serial")
        lru, s0 = factor(a, hooks=Unplanned, execution="serial")
        for dense in (first, second, lru):
            assert np.array_equal(dense, resident)
        assert s1 == s2
        assert s1.spills < s0.spills and s1.reloads < s0.reloads
        for stats in (s0, s1, s2):
            assert stats.budget_overflows == 0

    def test_serial_traffic_is_pinned(self):
        """The drain's counts (plus the dense read-back's) depend on its
        order and the tile sizes, not on the values.  Before the updates
        went column by column they were 254 spills and 223 reloads."""
        a = spd(np.random.default_rng(0), N)
        _, stats = factor(a, execution="serial")
        assert (stats.spills, stats.reloads) == (166, 208)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_threaded_lanes_stay_bitwise_and_in_budget(self, rng, workers):
        """Lanes dispatch out of the plan's order (the plan is then an
        approximation) and fault tiles in concurrently; four lanes on a
        shortened switch interval to shake that."""
        a = spd(rng, N)
        resident, _ = factor(a, budget=None, execution="serial")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            dense, stats = factor(a, execution="threaded", workers=workers)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(dense, resident)
        assert stats.budget_overflows == 0  # 4 lanes pin 12 of 13 tiles


# ----------------------------------------------------------------------
# (d) a store-backed drain goes column by column
# ----------------------------------------------------------------------
UPDATES = ("syrk", "gemm")


def drained_graph(a, store=None):
    """The task graph a serial factorization of ``a`` drained."""
    kernel = TileMatrix.from_dense(a, TILE, Precision.FP32, symmetric=True)
    if store is not None:
        kernel.attach_store(store)
    rt = Runtime(execution="serial")
    cholesky(kernel, runtime=rt)
    return rt.last_graph


class TestColumnOrder:
    def test_store_backed_updates_go_leftmost_column_first(self, rng):
        with TileStore(budget_bytes=BUDGET) as store:
            graph = drained_graph(spd(rng, N), store)
        order = graph.topological_order(by_priority=True)
        # a task's tag is (destination row, destination column, panel)
        columns = [t.tag[1] for t in order if t.name in UPDATES]
        assert columns == sorted(columns)
        assert len(set(columns)) == N // TILE - 1
        panel = [t.priority for t in graph.tasks if t.name not in UPDATES]
        update = [t.priority for t in graph.tasks if t.name in UPDATES]
        assert min(panel) > max(update)

    def test_resident_updates_keep_priority_zero(self, rng):
        graph = drained_graph(spd(rng, N))
        assert {t.priority for t in graph.tasks
                if t.name in UPDATES} == {0}


# ----------------------------------------------------------------------
# (e) drain_begin is optional
# ----------------------------------------------------------------------
def test_foreign_hooks_without_drain_begin_still_drain():
    class Foreign:
        def __init__(self):
            self.seen = []

        def task_dispatch(self, task):
            self.seen.append(("dispatch", task.name))

        def task_complete(self, task):
            self.seen.append(("complete", task.name))

    for execution, workers in (("serial", 1), ("threaded", 2)):
        hooks, ran = Foreign(), []
        graph = TaskGraph()
        for name in ("a", "b"):
            # a task writing no handle returns no output
            graph.add_task(Task(name, (), spec=call(
                lambda n=name: ran.append(n) or ())))
        Scheduler(execution=execution, workers=workers, hooks=hooks).run(graph)
        assert sorted(ran) == ["a", "b"]
        assert sorted(hooks.seen) == sorted(
            (step, name) for name in ("a", "b")
            for step in ("dispatch", "complete"))


def test_drain_begin_sees_the_graph_before_any_task_is_ready():
    calls = []

    class Hooks:
        def drain_begin(self, graph):
            calls.append(("begin", graph.num_tasks))

        def task_dispatch(self, task):
            calls.append(("dispatch", task.name))

        def task_complete(self, task):
            pass

    graph = TaskGraph()
    graph.add_task(Task("only", (), spec=call(lambda: ())))
    Scheduler(execution="serial", hooks=Hooks()).run(graph)
    assert calls == [("begin", 1), ("dispatch", "only")]
