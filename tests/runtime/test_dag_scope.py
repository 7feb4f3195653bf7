"""``Runtime.dag``: the one scope every library DAG is inserted and
drained in — refuse unrelated pending work, yield a namespace, and on
the way out release its handles always and drop the graph on failure."""

import numpy as np
import pytest

from repro.linalg.cholesky import cholesky
from repro.precision.formats import Precision
from repro.resilience.errors import TaskGroupError
from repro.resilience.faults import clear_plan
from repro.runtime import AccessMode, Runtime
from repro.store import StoreSchedulerHooks, TileStore
from repro.tiles.matrix import TileMatrix
from tests.runtime.call import call

EXECUTIONS = ["serial", "threaded"]


@pytest.fixture(autouse=True)
def _no_chaos(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_TASK_RETRIES", raising=False)
    clear_plan()
    yield
    clear_plan()


def _insert(rt, name, fn=lambda v: v):
    handle = rt.register_data(name, payload=1.0)
    rt.insert_task(name, (handle, AccessMode.READWRITE), flops=1.0,
                   spec=call(fn))
    return handle


@pytest.mark.parametrize("execution", EXECUTIONS)
def test_a_successful_scope_tallies_and_releases(execution):
    rt = Runtime(execution=execution, workers=2)
    with rt.dag("demo") as ns:
        assert ns == "demo#0:"
        handle = _insert(rt, f"{ns}x", fn=lambda v: v + 1)
        rt.run(phase="p")
        assert handle.payload == 2.0  # read inside the scope
    assert handle.payload is None  # released: the drained graph keeps nothing
    assert rt.num_tasks() == 0
    assert rt.handles == {}
    assert rt.ledger["p"].tasks == {f"{ns}x": 1}
    with rt.dag("demo") as again:  # one prefix per invocation
        assert again == "demo#1:"


@pytest.mark.parametrize("execution", EXECUTIONS)
def test_a_failing_task_leaves_nothing_behind(execution):
    """Raise-and-discard: no pending subgraph, no handle of the
    namespace, no ledger entry for the tasks that did complete."""
    rt = Runtime(execution=execution, workers=2)

    def boom(_):
        raise RuntimeError("task failure")

    with pytest.raises(TaskGroupError) as info:
        with rt.dag("demo") as ns:
            _insert(rt, f"{ns}ok")
            bad = _insert(rt, f"{ns}bad", fn=boom)
            rt.insert_task("after", (bad, AccessMode.READWRITE), flops=1.0,
                           spec=call(lambda v: v))
            rt.run(phase="p")
    assert len(info.value.completed) == 1 and len(info.value.unfinished) == 2
    assert rt.num_tasks() == 0
    assert rt.handles == {}
    assert rt.ledger == {}
    # the completed task is not counted by a later drain either
    with rt.dag("demo") as ns:
        _insert(rt, f"{ns}fresh")
        rt.run(phase="p")
    assert rt.ledger["p"].tasks == {"demo#1:fresh": 1}


def test_an_error_while_inserting_discards_the_half_built_graph():
    rt = Runtime(execution="serial")
    with pytest.raises(KeyError):
        with rt.dag("demo") as ns:
            _insert(rt, f"{ns}x")
            raise KeyError("insertion went wrong")
    assert rt.num_tasks() == 0
    assert rt.handles == {}
    with rt.dag("demo"):  # the runtime is usable, not "holding 1 task"
        pass


def test_unrelated_pending_tasks_raise_before_anything_is_inserted():
    rt = Runtime(execution="serial")
    mine = _insert(rt, "mine")
    with pytest.raises(RuntimeError, match="unrelated pending"):
        with rt.dag("demo"):
            raise AssertionError("the scope must not be entered")
    # refused, not discarded: the caller's task and handle are intact,
    # and no namespace was spent
    assert rt.num_tasks() == 1
    assert rt.handles == {"mine": mine}
    rt.run()
    with rt.dag("demo") as ns:
        assert ns == "demo#0:"


def test_store_hooks_are_attached_and_foreign_hooks_tolerated(rng):
    a = rng.standard_normal((64, 64))
    a = a @ a.T / 64 + 2.0 * np.eye(64)
    reference = cholesky(a, tile_size=16).to_dense()
    with TileStore(budget_bytes=3 * 16 * 16 * 8) as store, \
            TileStore() as other:
        def store_backed():
            tm = TileMatrix.from_dense(a, 16, Precision.FP32, symmetric=True)
            return tm.attach_store(store)

        rt = Runtime(execution="threaded", workers=2)
        with rt.dag("demo", store=store):
            assert isinstance(rt.scheduler.hooks, StoreSchedulerHooks)
            assert rt.scheduler.hooks.store is store
        # hooked to another store: pins are skipped, results are not
        foreign = Runtime(execution="threaded", workers=2)
        foreign.attach_store(other)
        for runtime in (rt, foreign):
            got = cholesky(store_backed(), runtime=runtime).to_dense()
            np.testing.assert_array_equal(got, reference)
        assert foreign.scheduler.hooks.store is other
