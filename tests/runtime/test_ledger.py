"""``Runtime.ledger``: the one operation tally, written only by ``run``.

Per-phase counters (task count by name, flops, flops by precision,
retries) folded from each drain's trace; the events themselves live on
the ``ScheduleResult`` a run returns, so a runtime does not grow with
the number of drains it has executed.
"""

import gc
import types

import pytest

from repro.precision.formats import Precision
from repro.resilience.errors import InjectedFault, TaskGroupError
from repro.resilience.faults import clear_plan
from repro.runtime import AccessMode, PhaseTotals, Runtime, TaskEvent
from tests.runtime.call import call

EXECUTIONS = ["serial", "threaded"]


@pytest.fixture(autouse=True)
def _clean_plan_state(monkeypatch):
    """Exact retry/task counts: isolate from a suite-wide chaos env."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_TASK_RETRIES", raising=False)
    clear_plan()
    yield
    clear_plan()


def _insert(rt, name, flops, precision=Precision.FP32, fn=lambda v: v,
            **kwargs):
    handle = rt.register_data(f"{name}#{len(rt.handles)}", payload=1.0)
    rt.insert_task(name, (handle, AccessMode.READWRITE), flops=flops,
                   precision=precision, spec=call(fn), **kwargs)
    return handle


class TestLedger:
    @pytest.mark.parametrize("execution", EXECUTIONS)
    def test_ledger_accumulates_across_runs(self, execution):
        rt = Runtime(execution=execution, workers=2)
        for i in range(3):
            _insert(rt, "t", 10.0)
            rt.run(phase="build" if i == 0 else "associate")
        assert list(rt.ledger) == ["build", "associate"]
        assert rt.ledger["build"] == PhaseTotals(
            tasks={"t": 1}, flops=10.0,
            flops_by_precision={Precision.FP32: 10.0})
        assert rt.ledger["associate"].tasks == {"t": 2}
        assert rt.ledger["associate"].flops == 20.0
        # resetting a phase is the dict's own pop; the rest is untouched
        rt.ledger.pop("associate")
        assert list(rt.ledger) == ["build"]
        assert rt.runs_completed == 3

    def test_flops_detail_splits_the_precisions(self):
        rt = Runtime(execution="serial")
        _insert(rt, "row", 30.0, precision=Precision.INT8,
                flops_detail={Precision.INT8: 20.0, Precision.FP32: 10.0})
        _insert(rt, "plain", 5.0, precision=Precision.FP32)
        rt.run(phase="build")
        assert rt.ledger["build"].flops == 35.0
        assert rt.ledger["build"].flops_by_precision == {
            Precision.INT8: 20.0, Precision.FP32: 15.0}

    def test_an_unlabelled_run_is_not_tallied(self):
        rt = Runtime(execution="serial")
        _insert(rt, "t", 10.0)
        result = rt.run()
        assert rt.ledger == {}
        assert result.trace.num_tasks == 1

    def test_retries_are_counted(self):
        calls = []

        def flaky(v):
            calls.append(1)
            if len(calls) < 3:
                raise InjectedFault("task-body", "t", transient=True)
            return v

        rt = Runtime(execution="serial", task_retries=3)
        _insert(rt, "t", 10.0, fn=flaky)
        rt.run(phase="p")
        assert rt.ledger["p"].retries == 2
        assert rt.ledger["p"].tasks == {"t": 1}  # one task, not three


class TestFailedDrains:
    """A failed drain counts none of its tasks, the completed ones
    included, and leaves nothing pending for a later drain to count."""

    @pytest.mark.parametrize("execution", EXECUTIONS)
    def test_a_failed_drain_counts_none_of_its_tasks(self, execution):
        rt = Runtime(execution=execution, workers=2)

        def boom(v):
            raise RuntimeError("task failure")

        _insert(rt, "ok", 10.0)
        _insert(rt, "ok", 10.0)
        bad = _insert(rt, "bad", 7.0, precision=Precision.FP64, fn=boom)
        # blocked behind the failing task
        rt.insert_task("after", (bad, AccessMode.READWRITE), flops=3.0,
                       precision=Precision.FP32, spec=call(lambda v: v))
        with pytest.raises(TaskGroupError) as info:
            rt.run(phase="p")
        assert len(info.value.completed) == 2
        assert rt.ledger == {}
        assert rt.num_tasks() == 0
        _insert(rt, "fresh", 1.0)
        rt.run(phase="p")
        assert rt.ledger["p"].tasks == {"fresh": 1}
        assert rt.ledger["p"].flops == 1.0


def reachable_task_events(root) -> int:
    """``TaskEvent``s reachable from ``root`` through instance state
    (not through classes, modules or code, which reach everything)."""
    opaque = (type, types.ModuleType, types.FunctionType,
              types.BuiltinFunctionType, types.MethodType)
    seen, stack, events = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, opaque):
            continue
        seen.add(id(obj))
        events += isinstance(obj, TaskEvent)
        stack.extend(gc.get_referents(obj))
    return events


def test_a_runtime_does_not_grow_with_its_drains():
    """Events live on the returned ``ScheduleResult`` only: after 50
    drains a runtime holds one drain's worth (``last_result``)."""
    rt = Runtime(execution="serial")
    held = []
    for _ in range(50):
        for _ in range(4):
            _insert(rt, "t", 1.0)
        rt.run(phase="p")
        rt.release("t")
        held.append(reachable_task_events(rt))
    assert held[0] == held[-1] == 4 == len(rt.last_result.trace.events)
    assert rt.ledger["p"].tasks == {"t": 200}
