"""One failure path: a drain retries transient faults and reports the
rest in one ``TaskGroupError``, and nothing of it outlives ``run``.

A failed ``Runtime.run`` leaves no pending graph to resume and no lane
thread behind, on the serial lane and the threaded one alike; a lane
thread that cannot start is not used, and the drain finishes on the
lanes it has; an interrupt on the caller's lane stops every lane. The
retry budget is the runtime's one failure knob.
"""

import inspect
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.linalg.cholesky import cholesky
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


@pytest.mark.parametrize("refused", [1, 2])
def test_a_lane_that_cannot_start_is_not_used(refused, monkeypatch):
    """A 3-worker drain whose ``refused``-th lane thread fails to start
    finishes on the lanes it has (the caller's is always one of them),
    bitwise the serial factor, and joins every lane it started."""
    a = np.random.default_rng(4).standard_normal((48, 48))
    a = a @ a.T / 48 + 4.0 * np.eye(48)
    serial = cholesky(a, tile_size=16, runtime=Runtime(execution="serial"))

    start = threading.Thread.start
    asked = []

    def refusing_start(thread):
        if thread.name.startswith("repro-runtime"):
            asked.append(thread.name)
            if len(asked) == refused:
                raise RuntimeError("can't start new thread")
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", refusing_start)
    rt = Runtime(execution="threaded", workers=3)
    threaded = cholesky(a, tile_size=16, runtime=rt)
    assert len(asked) == refused
    assert {e.device for e in rt.last_result.trace.events} <= set(
        range(refused))
    assert _lanes() == []
    np.testing.assert_array_equal(threaded.to_dense(), serial.to_dense())


def test_an_interrupt_on_the_callers_lane_stops_the_drain(monkeypatch):
    """Lane 0 is the caller's thread, where a signal's exception lands.
    Interrupted in its task's retry backoff (its task still in flight),
    the drain stops after the other lane's task, ``run()`` re-raises the
    interrupt, and no lane thread is left waiting for lane 0's task."""
    from repro.runtime import scheduler

    rt = Runtime(execution="threaded", workers=2, task_retries=1)
    both_lanes = threading.Barrier(2, timeout=10.0)
    callers = []

    def body(x):
        both_lanes.wait()  # each lane holds one task
        if threading.get_ident() in callers:
            raise OSError("transient")  # retried after a backoff sleep
        return x + 1

    def sleep(seconds):
        if threading.get_ident() in callers:
            raise KeyboardInterrupt
        time.sleep(seconds)

    monkeypatch.setattr(scheduler, "time", SimpleNamespace(
        perf_counter=time.perf_counter, sleep=sleep))
    handles = [rt.register_data(f"h{i}", payload=np.array([0.0]))
               for i in range(2)]
    for h in handles:
        rt.insert_task("t", (h, AccessMode.READWRITE), spec=call(body))
    raised = []

    def caller():
        callers.append(threading.get_ident())
        try:
            rt.run()
        except BaseException as exc:  # noqa: BLE001 - the outcome checked
            raised.append(exc)

    drain = threading.Thread(target=caller, daemon=True)
    drain.start()
    drain.join(timeout=30.0)
    assert not drain.is_alive(), "a lane waited for the interrupted one"
    assert [type(e) for e in raised] == [KeyboardInterrupt]
    assert _lanes() == []
    assert rt.num_tasks() == 0
    assert sorted(float(h.payload[0]) for h in handles) == [0.0, 1.0]
