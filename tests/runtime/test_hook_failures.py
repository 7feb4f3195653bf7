"""A lifecycle hook that raises fails *its task*, not the drain.

In every execution mode a ``task_dispatch`` / ``task_complete`` hook
that raises is a :class:`TaskFailure` of the
task it was called for: the drain goes on past it, the task's
successors stay blocked, the pending graph is left empty and no lane
is lost.  (Before the one-drain refactor the serial drain let the
exception escape, the process drain tore its pool down and the
threaded drain hung with the task forever in flight — hence the join
timeout around every scenario here.)
"""

import threading

import numpy as np
import pytest

from repro.linalg.solve import SolveGemmSpec
from repro.precision.formats import Precision
from repro.resilience import TaskGroupError
from repro.resilience.faults import clear_plan
from repro.runtime.runtime import Runtime
from repro.runtime.task import AccessMode, ObjectInput, TaskSpec

MODES = ("serial", "threaded", "process")
HOOKS = ("task_dispatch", "task_complete")

A = np.arange(12.0).reshape(3, 4)
B = np.arange(8.0).reshape(4, 2)
#: what every task of ``_graph`` writes: the solve update ``0 - A @ B``
OUT = -(A @ B)


class FailingHooks:
    """Raises ``OSError`` from ``method`` for the task named ``victim``,
    ``times`` times."""

    def __init__(self, method, victim, times):
        self.method, self.victim, self.times = method, victim, times
        self.calls = []

    def _call(self, method, task):
        self.calls.append((method, task.name))
        if (method, task.name) == (self.method, self.victim) and self.times:
            self.times -= 1
            raise OSError(f"{method} hook failed for {task.name}")

    def task_dispatch(self, task):
        self._call("task_dispatch", task)

    def task_complete(self, task):
        self._call("task_complete", task)


@pytest.fixture(autouse=True)
def _no_chaos(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_TASK_RETRIES", raising=False)
    clear_plan()
    yield
    clear_plan()


def _graph(rt):
    """first -> second on one handle, left and right on their own; every
    task is a descriptor, so the process lane ships all four."""
    handles = [rt.register_data(f"h{i}", shape=(3, 2)) for i in range(3)]
    for name, handle in (("first", 0), ("second", 0), ("left", 1),
                         ("right", 2)):
        rt.insert_task(
            name, (handles[handle], AccessMode.WRITE), flops=1.0,
            spec=TaskSpec(SolveGemmSpec(Precision.FP64, transpose=False),
                          mode="aux",
                          aux=(ObjectInput(B, key="b"),
                               ObjectInput(np.zeros((3, 2)), key="acc"),
                               ObjectInput(A, key="a"))))
    return handles


def _within(seconds, scenario):
    """Run ``scenario`` on a thread; a hang is a failure, not a stuck suite."""
    outcome = []

    def target():
        try:
            outcome.append(scenario())
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            outcome.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive(), "the drain hung"
    if isinstance(outcome[0], BaseException):
        raise outcome[0]
    return outcome[0]


@pytest.mark.parametrize("hook", HOOKS)
@pytest.mark.parametrize("mode", MODES)
def test_raising_hook_fails_its_task_and_the_drain_goes_on(mode, hook):
    def scenario():
        rt = Runtime(execution=mode, workers=2, task_retries=0)
        try:
            hooks = rt.scheduler.hooks = FailingHooks(hook, "first", times=1)
            handles = _graph(rt)
            with pytest.raises(TaskGroupError) as err:
                rt.run()
            (failure,) = err.value.failures
            assert failure.task.name == "first"
            assert isinstance(failure.error, OSError)
            assert hook in str(failure.error)
            # the drain went on past it; the successor stayed blocked
            assert sorted(t.name for t in err.value.completed) == \
                ["left", "right"]
            assert [t.name for t in err.value.unfinished] == \
                ["first", "second"]
            assert ("task_dispatch", "second") not in hooks.calls
            for handle in handles[1:]:
                np.testing.assert_array_equal(handle.payload, OUT)
            assert rt.num_tasks() == 0
            # no lane was lost to the failure
            assert not [t for t in threading.enumerate()
                        if t.name.startswith("repro-runtime")]
            if mode == "process":
                assert rt.scheduler._pool.respawns == 0
        finally:
            rt.close()

    _within(60.0, scenario)


@pytest.mark.parametrize("hook", ("task_dispatch", "task_complete"))
@pytest.mark.parametrize("mode", MODES)
def test_transient_hook_failure_is_retried_like_a_body_failure(mode, hook):
    def scenario():
        rt = Runtime(execution=mode, workers=2, task_retries=1)
        try:
            rt.scheduler.hooks = FailingHooks(hook, "first", times=1)
            handles = _graph(rt)
            result = rt.run()
            retries = {e.task_name: e.retries for e in result.trace.events}
            assert retries == {"first": 1, "second": 0, "left": 0, "right": 0}
            np.testing.assert_array_equal(handles[0].payload, OUT)
        finally:
            rt.close()

    _within(60.0, scenario)
