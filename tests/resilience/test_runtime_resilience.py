"""Fault-tolerant runtime semantics: retry and aggregate failure.

Pins the scheduler-level contract: transient faults are retried with
bounded backoff and full accounting; permanent faults surface *all*
failed tasks as one :class:`TaskGroupError`, while every task that does
not depend on a failed one still runs.
"""

import numpy as np
import pytest

from repro.resilience import FaultPlan, FaultSite, InjectedFault, TaskGroupError
from repro.resilience.faults import SITE_TASK_BODY, clear_plan, fault_plan
from repro.runtime.runtime import Runtime
from repro.runtime.task import AccessMode
from tests.runtime.call import call

EXECUTIONS = ("serial", "threaded")


@pytest.fixture(autouse=True)
def _clean_plan_state(monkeypatch):
    """Isolate from any suite-wide chaos env (the tier1-chaos CI job)."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_TASK_RETRIES", raising=False)
    clear_plan()
    yield
    clear_plan()


def transient_plan(**site_kwargs):
    return FaultPlan([FaultSite(site=SITE_TASK_BODY, **site_kwargs)], seed=1)


class TestRetry:
    @pytest.mark.parametrize("execution", EXECUTIONS)
    def test_transient_fault_retried_to_success(self, execution):
        rt = Runtime(execution=execution, workers=2, task_retries=2)
        a = rt.register_data("a", payload=np.array([1.0]))
        for _ in range(8):
            rt.insert_task("double", (a, AccessMode.READWRITE),
                           spec=call(lambda x: x * 2), flops=1)
        # occurrences advance per *attempt*: faults land on the 3rd and
        # 5th task (their retries consume occurrences 4 and 7)
        with fault_plan(transient_plan(every=3, times=2)) as plan:
            result = rt.run()
        np.testing.assert_array_equal(a.payload, [256.0])
        assert plan.fired == 2
        assert sum(e.retries for e in result.trace.events) == 2

    def test_retry_accounting_lands_on_the_retried_task(self):
        rt = Runtime(execution="serial", task_retries=1)
        a = rt.register_data("a", payload=np.array([0.0]))
        rt.insert_task("ok", (a, AccessMode.READWRITE),
                       spec=call(lambda x: x + 1), flops=1)
        rt.insert_task("flaky", (a, AccessMode.READWRITE),
                       spec=call(lambda x: x + 1), flops=1)
        plan = FaultPlan([FaultSite(site=SITE_TASK_BODY, match="flaky",
                                    times=1)])
        with fault_plan(plan):
            result = rt.run()
        retries = {e.task_name: e.retries for e in result.trace.events}
        assert retries == {"ok": 0, "flaky": 1}

    @pytest.mark.parametrize("execution", EXECUTIONS)
    def test_retries_exhausted_surface_aggregate(self, execution):
        rt = Runtime(execution=execution, workers=2, task_retries=1)
        a = rt.register_data("a", payload=np.array([1.0]))
        rt.insert_task("doomed", (a, AccessMode.READWRITE),
                       spec=call(lambda x: x), flops=1)
        with fault_plan(transient_plan(every=1)):  # fires on every attempt
            with pytest.raises(TaskGroupError) as err:
                rt.run()
        (failure,) = err.value.failures
        assert failure.task.name == "doomed"
        assert failure.retries == 1  # the policy's budget was spent
        assert isinstance(failure.error, InjectedFault)
        assert err.value.transient

    def test_permanent_fault_not_retried(self):
        rt = Runtime(execution="serial", task_retries=5)
        a = rt.register_data("a", payload=np.array([1.0]))
        rt.insert_task("t", (a, AccessMode.READWRITE), spec=call(lambda x: x),
                       flops=1)
        plan = transient_plan(every=1, transient=False)
        with fault_plan(plan):
            with pytest.raises(TaskGroupError) as err:
                rt.run()
        assert plan.fired == 1  # one attempt, no retries burned
        assert err.value.failures[0].retries == 0
        assert not err.value.transient

    def test_every_retry_of_the_budget_is_granted(self):
        rt = Runtime(execution="serial", task_retries=3)
        a = rt.register_data("a", payload=np.array([1.0]))
        rt.insert_task("t", (a, AccessMode.READWRITE),
                       spec=call(lambda x: x + 1), flops=1)
        with fault_plan(transient_plan(times=3)):
            result = rt.run()
        assert sum(e.retries for e in result.trace.events) == 3

    def test_default_is_fail_fast(self, monkeypatch):
        monkeypatch.delenv("REPRO_TASK_RETRIES", raising=False)
        rt = Runtime(execution="serial")
        a = rt.register_data("a", payload=np.array([1.0]))
        rt.insert_task("t", (a, AccessMode.READWRITE), spec=call(lambda x: x),
                       flops=1)
        with fault_plan(transient_plan(times=1)):
            with pytest.raises(TaskGroupError):
                rt.run()


class TestAggregateFailures:
    @pytest.mark.parametrize("execution", EXECUTIONS)
    def test_every_independent_failure_reported(self, execution):
        """The drain keeps going past a failure and reports all of them."""
        rt = Runtime(execution=execution, workers=4)
        handles = [rt.register_data(f"h{i}", payload=np.array([float(i)]))
                   for i in range(6)]
        for i, h in enumerate(handles):
            rt.insert_task(f"task{i}", (h, AccessMode.READWRITE),
                           spec=call(lambda x: x + 1), flops=1)
        plan = FaultPlan([
            FaultSite(site=SITE_TASK_BODY, match="task1", transient=False),
            FaultSite(site=SITE_TASK_BODY, match="task4", transient=False),
        ])
        with fault_plan(plan):
            with pytest.raises(TaskGroupError) as err:
                rt.run()
        assert sorted(f.task.name for f in err.value.failures) == \
            ["task1", "task4"]
        assert len(err.value.completed) == 4
        # the four independent tasks still ran
        for i in (0, 2, 3, 5):
            np.testing.assert_array_equal(handles[i].payload, [i + 1.0])

    @pytest.mark.parametrize("execution", EXECUTIONS)
    def test_successors_of_a_failed_task_do_not_run(self, execution):
        rt = Runtime(execution=execution, workers=2)
        a = rt.register_data("a", payload=np.array([1.0]))
        rt.insert_task("parent", (a, AccessMode.READWRITE),
                       spec=call(lambda x: x), flops=1)
        rt.insert_task("child", (a, AccessMode.READWRITE),
                       spec=call(lambda x: x * 100), flops=1)
        plan = FaultPlan([FaultSite(site=SITE_TASK_BODY, match="parent",
                                    transient=False)])
        with fault_plan(plan):
            with pytest.raises(TaskGroupError) as err:
                rt.run()
        assert [f.task.name for f in err.value.failures] == ["parent"]
        assert [t.name for t in err.value.unfinished] == ["parent", "child"]
        np.testing.assert_array_equal(a.payload, [1.0])  # child never ran
