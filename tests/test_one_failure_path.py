"""One failure path: a drain retries transient faults and reports the
rest in one ``TaskGroupError``, and nothing of it outlives ``run``.

A failed ``Runtime.run`` leaves no pending graph to resume and no lane
thread behind, on the serial lane and the threaded one alike; the
retry budget is the runtime's one failure knob.
"""

import inspect
import threading
import time

import numpy as np
import pytest

from repro.resilience import TaskGroupError
from repro.resilience.faults import clear_plan
from repro.runtime import AccessMode, Runtime
from tests.runtime.call import call


@pytest.fixture(autouse=True)
def _no_chaos(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_TASK_RETRIES", raising=False)
    clear_plan()
    yield
    clear_plan()


def _lanes():
    return [t.name for t in threading.enumerate()
            if t.name.startswith("repro-runtime")]


@pytest.mark.parametrize("execution", ["serial", "threaded"])
def test_a_failed_drain_leaves_no_lane_and_no_pending_graph(execution):
    rt = Runtime(execution=execution, workers=2)
    bad = rt.register_data("bad", payload=np.array([0.0]))
    slow = rt.register_data("slow", payload=np.array([0.0]))

    def boom(_):
        raise RuntimeError("task failure")

    def sleepy(x):
        time.sleep(0.2)
        return x + 42

    rt.insert_task("boom", (bad, AccessMode.READWRITE), spec=call(boom))
    rt.insert_task("sleepy", (slow, AccessMode.READWRITE), spec=call(sleepy))
    with pytest.raises(TaskGroupError) as err:
        rt.run()
    assert [f.task.name for f in err.value.failures] == ["boom"]
    assert [t.name for t in err.value.completed] == ["sleepy"]
    assert _lanes() == []
    assert rt.num_tasks() == 0
    # the slow task ran to its end inside run(), and nothing writes later
    np.testing.assert_array_equal(slow.payload, [42.0])
    np.testing.assert_array_equal(bad.payload, [0.0])


def test_the_retry_budget_is_the_runtimes_one_failure_knob():
    assert list(inspect.signature(Runtime.__init__).parameters) == [
        "self", "execution", "workers", "task_retries"]
