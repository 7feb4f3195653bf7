"""Tests for dataflow dependency derivation and DAG queries."""

import gc
import weakref

import numpy as np
import pytest

from repro.precision.formats import Precision
from repro.resilience.errors import TaskGraphCycleError, TaskGroupError
from repro.runtime import Runtime
from repro.runtime.dag import TaskGraph
from repro.runtime.task import AccessMode, DataHandle, ObjectInput
from tests.runtime.call import call


def critical_path(graph: TaskGraph, weight=lambda task: 1):
    """Heaviest dependency chain of ``graph``, each task weighing
    ``weight(task)``: its task count by default, its work with
    ``weight=flops``.  The oracle the DAG-shape checks compare against."""
    longest: dict = {}
    for task in graph.topological_order():
        longest[task] = weight(task) + max(
            (longest[p] for p in graph.predecessors(task)), default=0)
    return max(longest.values(), default=0)


def flops(task) -> float:
    return float(task.flops)


@pytest.fixture
def handles():
    return DataHandle("A"), DataHandle("B"), DataHandle("C")


class TestDependencies:
    def test_read_after_write(self, handles):
        a, _, _ = handles
        g = TaskGraph()
        w = g.insert_task("write", (a, AccessMode.WRITE))
        r = g.insert_task("read", (a, AccessMode.READ))
        assert w in g.predecessors(r)
        assert g.succ[w][r] == g.pred[r][w] == "RAW"

    def test_write_after_read(self, handles):
        a, _, _ = handles
        g = TaskGraph()
        g.insert_task("init", (a, AccessMode.WRITE))
        r = g.insert_task("read", (a, AccessMode.READ))
        w2 = g.insert_task("overwrite", (a, AccessMode.WRITE))
        assert r in g.predecessors(w2)
        assert g.succ[r][w2] == "WAR"

    def test_write_after_write(self, handles):
        a, _, _ = handles
        g = TaskGraph()
        w1 = g.insert_task("w1", (a, AccessMode.WRITE))
        w2 = g.insert_task("w2", (a, AccessMode.WRITE))
        assert w1 in g.predecessors(w2)
        assert g.succ[w1][w2] == "WAW"

    def test_independent_tasks_have_no_edge(self, handles):
        a, b, _ = handles
        g = TaskGraph()
        t1 = g.insert_task("t1", (a, AccessMode.READWRITE))
        t2 = g.insert_task("t2", (b, AccessMode.READWRITE))
        assert g.num_edges == 0
        assert t2 not in g.successors(t1)

    def test_parallel_reads_share_no_edges(self, handles):
        a, _, _ = handles
        g = TaskGraph()
        g.insert_task("init", (a, AccessMode.WRITE))
        r1 = g.insert_task("r1", (a, AccessMode.READ))
        r2 = g.insert_task("r2", (a, AccessMode.READ))
        assert r1 not in g.predecessors(r2)
        assert r2 not in g.predecessors(r1)

    def test_readwrite_chains_serialize(self, handles):
        a, _, _ = handles
        g = TaskGraph()
        tasks = [g.insert_task(f"t{i}", (a, AccessMode.READWRITE)) for i in range(5)]
        order = g.topological_order()
        assert order == tasks


class TestGraphQueries:
    def _diamond(self):
        a, b, c, d = (DataHandle(x) for x in "abcd")
        g = TaskGraph()
        t0 = g.insert_task("src", (a, AccessMode.WRITE), flops=1.0)
        t1 = g.insert_task("l", (a, AccessMode.READ), (b, AccessMode.WRITE), flops=2.0)
        t2 = g.insert_task("r", (a, AccessMode.READ), (c, AccessMode.WRITE), flops=5.0)
        t3 = g.insert_task("sink", (b, AccessMode.READ), (c, AccessMode.READ),
                           (d, AccessMode.WRITE), flops=1.0)
        return g, (t0, t1, t2, t3)

    def test_topological_order_valid(self):
        g, (t0, t1, t2, t3) = self._diamond()
        order = g.topological_order()
        assert order.index(t0) < order.index(t1) < order.index(t3)
        assert order.index(t0) < order.index(t2) < order.index(t3)

    def test_is_acyclic(self):
        g, _ = self._diamond()
        assert g.is_acyclic()

    def test_total_and_critical_path_flops(self):
        g, _ = self._diamond()
        assert g.total_flops() == 9.0
        assert critical_path(g, flops) == 7.0  # src -> r -> sink

    def test_len_and_precision_default(self):
        g, _ = self._diamond()
        assert len(g) == 4
        assert g.tasks[0].precision is Precision.FP64

    def test_empty_graph(self):
        g = TaskGraph()
        assert critical_path(g, flops) == 0.0
        assert g.topological_order() == []

    def test_cycle_is_detected(self):
        g, (t0, _, _, t3) = self._diamond()
        g._add_edge(t3, t0, "RAW")
        assert not g.is_acyclic()
        with pytest.raises(TaskGraphCycleError):
            g.topological_order()

    def test_order_prefers_the_earliest_inserted_ready_task(self):
        g, tasks = self._diamond()
        assert g.topological_order() == list(tasks)


def _total(_payload, *operands):
    """The sum of the operands (module-level: the process lane pickles it)."""
    return float(sum(operand.sum() for operand in operands))


@pytest.mark.parametrize("execution", ["serial", "threaded", "process"])
def test_a_drained_graph_is_freed_without_the_cyclic_collector(execution):
    # the graph must not refer to itself, nor any drain keep it: a serving
    # session otherwise keeps every request's operands until the collector
    # happens to run
    rt = Runtime(execution=execution, workers=2)
    operand = np.ones((4, 4))
    freed = weakref.ref(operand)
    h = rt.register_data("h", payload=0)
    other = rt.register_data("other", payload=0)
    gc.collect()
    gc.disable()
    try:
        rt.insert_task("hold", (h, AccessMode.WRITE),
                       spec=call(_total, mode="both",
                                 aux=(ObjectInput(operand, key="operand"),)))
        # a second, independent task: two lanes really start
        rt.insert_task("beside", (other, AccessMode.WRITE), spec=call(_total))
        del operand
        graph = weakref.ref(rt.graph)
        rt.run()
        critical_path(graph(), flops)
        rt.insert_task("next", (h, AccessMode.WRITE), spec=call(_total))
        rt.run()
        assert graph() is None and freed() is None
    finally:
        gc.enable()
        rt.close()


def _fail(*_):
    """A task that always fails (module-level: the process lane pickles it)."""
    raise RuntimeError("task failure")


@pytest.mark.parametrize("execution", ["serial", "threaded", "process"])
def test_a_failed_drain_keeps_no_operand_alive(execution):
    # a failed drain is stripped like a drained one: the error's report
    # and last_graph keep the tasks, not the operands of those that ran
    rt = Runtime(execution=execution, workers=2)
    operand = np.ones((4, 4))
    freed = weakref.ref(operand)
    h = rt.register_data("h", payload=0)
    other = rt.register_data("other", payload=0)
    try:
        rt.insert_task("hold", (h, AccessMode.WRITE),
                       spec=call(_total, mode="both",
                                 aux=(ObjectInput(operand, key="operand"),)))
        rt.insert_task("boom", (other, AccessMode.WRITE), spec=call(_fail))
        del operand
        with pytest.raises(TaskGroupError) as err:
            rt.run()
        assert [f.task.name for f in err.value.failures] == ["boom"]
        assert [t.name for t in err.value.completed] == ["hold"]
        gc.collect()
        assert freed() is None
    finally:
        rt.close()


def _cross_kernel(execution, g):
    from repro.distance.build import KernelBuilder

    rt = Runtime(execution=execution, workers=2)
    builder = KernelBuilder(tile_size=32, runtime=rt)
    return builder.build_cross(g[:100], g).kernel, rt


def _predictions(execution, g):
    from repro.gwas.config import KRRConfig
    from repro.gwas.session import KRRSession

    session = KRRSession(KRRConfig(tile_size=32, execution=execution,
                                   workers=2))
    y = np.random.default_rng(1).normal(size=(g.shape[0], 2))
    return session.fit(g, y).predict(g[:100]), session


@pytest.mark.parametrize("execution", ["serial", "threaded", "process"])
@pytest.mark.parametrize("output", [_cross_kernel, _predictions],
                         ids=lambda f: f.__name__.lstrip("_"))
def test_a_drained_graph_keeps_no_output_alive(execution, output):
    # the last drained graph stays for replay(); its tasks' output
    # closures and operands must not, or a result the caller dropped
    # lives until the runtime's next drain
    g = np.random.default_rng(0).integers(0, 3, (160, 48)).astype(np.int8)
    result, owner = output(execution, g)
    try:
        freed = weakref.ref(result)
        del result
        gc.collect()
        assert freed() is None
    finally:
        owner.close()


@pytest.mark.parametrize("execution", ["serial", "threaded", "process"])
def test_a_dropped_resident_factor_leaves_no_tile_alive(execution):
    # the drained graph's handles are released with their namespace: a
    # handle kept by last_graph must not hold a factor tile as payload
    from repro.linalg.cholesky import cholesky

    a = np.random.default_rng(0).standard_normal((96, 96))
    a = a @ a.T / 96 + 2.0 * np.eye(96)
    rt = Runtime(execution=execution, workers=2)
    try:
        factor = cholesky(a, tile_size=32, runtime=rt).factor
        tiles = [weakref.ref(factor.get_tile(i, j).data)
                 for i, j in factor.layout.iter_lower_tiles()]
        del factor
        gc.collect()
        assert [t() for t in tiles] == [None] * len(tiles)
    finally:
        rt.close()
