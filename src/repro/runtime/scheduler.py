"""One drain, three lanes: out-of-order execution of the task DAG.

The scheduler owns *how* a :class:`~repro.runtime.dag.TaskGraph` is
executed.  Every ``Scheduler.run`` builds one drain (:class:`_Drain`)
that owns, exactly once, everything that happens per task: the ready
heap and successor release, the lifecycle hooks, the fault-injection
site, the retry decision, the trace and the aggregate error.  The
execution mode only chooses the **lane** — where a task's kernel runs:

``serial``
    One inline lane on the caller's thread (priority order,
    insertion-order tie-break).  This is the reference execution the
    other modes must match bit for bit.

``threaded``
    N of the same inline lane: the caller's thread plus N−1 host
    threads, each pulling from the ready heap itself (BLAS releases the
    GIL, so tile kernels genuinely overlap).  Because every ordering
    constraint between tasks touching the same data is an explicit
    RAW/WAR/WAW edge, any interleaving is bitwise identical to the
    serial order.  A lane thread that cannot start is not used, and
    every started one is joined before the drain returns, whatever its
    outcome; an interrupt on the caller's lane stops every lane, and is
    re-raised once they have ended.  ``workers <= 1`` and one-task
    graphs run one lane, the caller's, and start no thread.

``process``
    The GIL-free lane (:mod:`repro.parallel.executor`): a coordinator
    loop ships picklable task descriptors to worker OS processes and
    exchanges tiles through mmap'd segment files; tasks without a
    descriptor take the inline step on the coordinator.  A dead worker
    is respawned, and its task's attempt is a transient fault.

Lifecycle **hooks** (``Scheduler.hooks``): ``drain_begin`` (optional)
with the graph before anything is ready, then ``task_dispatch`` before
an attempt and ``task_complete`` after it, whatever its outcome.  The
out-of-core tile store uses these to plan its evictions from the
drain's order and to pin and release a task's tiles
(:class:`repro.store.StoreSchedulerHooks`).  A hook that raises fails
*that task*, typed, like a body that raises; the drain goes on.

Failure model (see ``docs/architecture.md``, "One drain, three lanes"):
task bodies are pure, so a transiently failed attempt goes back on the
ready heap under the configured :class:`RetryPolicy` — capped
exponential backoff with deterministic seeded jitter, retries counted
in the task's :class:`TaskEvent`.  Permanent failures do **not** abort
the drain: every task that does not depend on a failed one still runs,
then a single :class:`TaskGroupError` aggregates all failures (with
per-task context), the completed set and the unfinished tasks.  The
named injection site ``task-body`` fires before each attempt when a
:class:`~repro.resilience.faults.FaultPlan` is active.
"""

from __future__ import annotations

import heapq
import os
import threading
import time
from dataclasses import dataclass

from repro.resilience.errors import TaskFailure, TaskGraphCycleError, TaskGroupError
from repro.resilience.faults import SITE_TASK_BODY, active_plan
from repro.resilience.retry import RetryPolicy
from repro.runtime.dag import TaskGraph
from repro.runtime.task import Task
from repro.runtime.trace import ExecutionTrace
from repro.settings import EXECUTION_MODES


@dataclass
class ScheduleResult:
    """Outcome of a drain: its wall-clock trace, one event per task with
    the lane it ran on (per-lane busy time is
    ``trace.busy_time_by_device()``).  A
    :func:`~repro.runtime.replay.replay` returns the subclass that adds
    modelled devices and a transfer ledger."""

    trace: ExecutionTrace

    @property
    def makespan(self) -> float:
        return self.trace.makespan

    @property
    def throughput(self) -> float:
        return self.trace.throughput()

    def summary(self) -> dict[str, float]:
        return self.trace.summary()


class SchedulerError(RuntimeError):
    """A schedule could not make progress (dependency deadlock)."""


def fault_key(task: Task) -> str:
    """Key of ``task`` at the injection sites and in the retry jitter."""
    return f"{task.name}#{task.uid}"


class _Drain:
    """State of one ``Scheduler.run`` and every per-task step, once.

    Lanes call :meth:`pop`, :meth:`dispatch`, :meth:`inject` and
    :meth:`retire` (or :meth:`run_inline`, which is those four around
    ``Task.execute``).  Shared state is guarded by ``cond``; hooks,
    kernels and backoff sleeps run outside it.  Nothing here is stored
    on the graph, so a drained graph is still freed by reference count.
    """

    def __init__(self, scheduler: "Scheduler", graph: TaskGraph,
                 lanes: int) -> None:
        self.graph = graph
        self.hooks = scheduler.hooks
        self.policy = scheduler.retry_policy
        self.cond = threading.Condition()
        self.order = {t: i for i, t in enumerate(graph.tasks)}
        self.indegree = {t: len(graph.predecessors(t)) for t in self.order}
        self.ready: list[tuple[int, int, Task]] = []
        #: popped and not yet retired
        self.in_flight: set[Task] = set()
        #: retries charged per task (absent = 0)
        self.attempts: dict[Task, int] = {}
        self.completed: list[Task] = []
        self.failures: list[TaskFailure] = []
        self.trace = ExecutionTrace()
        self.lanes = lanes
        #: set when the caller's lane is interrupted: every lane stops
        self.stopped = False
        self.t0 = time.perf_counter()
        begin = getattr(self.hooks, "drain_begin", None)
        if begin is not None:
            begin(graph)  # the store plans its evictions from the order
        for task, degree in self.indegree.items():
            if degree == 0:
                self._push(task)

    # ------------------------------------------------------------------
    # ready heap (``cond`` held, or a single-threaded lane)
    # ------------------------------------------------------------------
    def _push(self, task: Task) -> None:
        heapq.heappush(self.ready, (-task.priority, self.order[task], task))

    def pop(self) -> Task:
        """Take the best ready task; it is in flight until retired."""
        task = heapq.heappop(self.ready)[2]
        self.in_flight.add(task)
        return task

    def _fail(self, task: Task, error: BaseException) -> None:
        # successors stay blocked; the drain goes on with the rest
        self.failures.append(TaskFailure(
            task=task, error=error, retries=self.attempts.get(task, 0)))

    # ------------------------------------------------------------------
    # one attempt
    # ------------------------------------------------------------------
    def dispatch(self, task: Task) -> BaseException | None:
        """``task_dispatch``; a raising hook is that attempt's error."""
        if self.hooks is not None:
            try:
                self.hooks.task_dispatch(task)
            except BaseException as exc:  # noqa: BLE001 - reported upstream
                return exc
        return None

    def inject(self, task: Task) -> None:
        """The drain's fault site, fired before every attempt so a
        retried attempt sees a fresh schedule decision."""
        plan = active_plan()
        if plan is not None:
            plan.inject(SITE_TASK_BODY, fault_key(task))

    def _retry(self, task: Task, error: BaseException) -> bool:
        """Grant (and pace) one more attempt after a transient ``error``."""
        policy = self.policy
        taken = self.attempts.get(task, 0)
        if (policy is None or taken >= policy.max_retries
                or not policy.retryable(error)):
            return False
        self.attempts[task] = taken + 1
        time.sleep(policy.delay(taken, fault_key(task)))
        return True

    def retire(self, task: Task, lane: int, start: float,
               error: BaseException | None = None) -> None:
        """End one attempt of ``task`` that started at ``start`` on ``lane``.

        Runs ``task_complete`` (always, so a failed attempt releases
        what its dispatch took), then either records the event and
        releases the successors, or puts the task back on the heap for
        a retry, or records its failure.  Bodies are pure functions of
        their (quantized) inputs: however many attempts a task takes,
        its successful output is bitwise that of the fault-free run.
        """
        if self.hooks is not None:
            try:
                self.hooks.task_complete(task)
            except BaseException as exc:  # noqa: BLE001 - reported upstream
                if error is None:
                    error = exc
        end = time.perf_counter() - self.t0
        again = error is not None and self._retry(task, error)
        with self.cond:
            self.in_flight.remove(task)
            if again:
                self._push(task)
            elif error is not None:
                self._fail(task, error)
            else:
                self.completed.append(task)
                self.trace.record(task, lane, start, end,
                                  self.attempts.get(task, 0))
                for succ in self.graph.successors(task):
                    self.indegree[succ] -= 1
                    if self.indegree[succ] == 0:
                        self._push(succ)
            self.cond.notify_all()

    def run_inline(self, task: Task, lane: int) -> None:
        """One attempt of ``task`` in this process, on the calling thread."""
        error = self.dispatch(task)
        start = time.perf_counter() - self.t0
        if error is None:
            try:
                self.inject(task)
                task.execute()
            except BaseException as exc:  # noqa: BLE001 - reported upstream
                error = exc
        self.retire(task, lane, start, error)

    # ------------------------------------------------------------------
    # inline lanes: the caller's thread, plus N−1 threads
    # ------------------------------------------------------------------
    def lane_loop(self, lane: int) -> None:
        """Pull ready tasks and run them here until the graph is drained
        or the drain is stopped."""
        cond, ready, in_flight = self.cond, self.ready, self.in_flight
        while True:
            with cond:
                while not ready and in_flight and not self.stopped:
                    cond.wait()
                if not ready or self.stopped:
                    cond.notify_all()
                    return
                task = self.pop()
            # hooks (pinning) run outside the scheduler lock: the store
            # takes its own lock and never waits on this one
            self.run_inline(task, lane)

    def run_lanes(self) -> None:
        """Drain on this drain's inline lanes: lane 0 on the calling
        thread, lanes 1 … N−1 on threads it starts.  Every lane thread
        has ended when this returns."""
        threads = []
        try:
            for i in range(1, self.lanes):
                t = threading.Thread(target=self.lane_loop, args=(i,),
                                     name=f"repro-runtime-{i}", daemon=True)
                try:
                    t.start()
                except RuntimeError:
                    # no lane is owed: the caller's lane always runs, so
                    # the drain finishes on the lanes that started
                    break
                threads.append(t)
            self.lane_loop(0)
        except BaseException:
            # an interrupt lands on the caller's thread, and lane 0 may
            # leave its task in flight: no other lane waits for it
            with self.cond:
                self.stopped = True
                self.cond.notify_all()
            raise
        finally:
            # a lane returns once nothing is ready or in flight, which
            # no other lane can change any more: joining them is the drain
            for t in threads:
                t.join()
        # join() returns once a worker's Python state is gone; the OS
        # thread still has to run its exit handlers, which is where the
        # allocator takes its arena back.  Confined to one CPU, a caller
        # that starts the next drain right away creates those workers
        # first, and each then opens a fresh arena (~9 MB retained per
        # drain on a tile-64 fit).  A yield per joined worker lets the
        # exits finish.
        if hasattr(os, "sched_yield"):
            for _ in threads:
                os.sched_yield()

    # ------------------------------------------------------------------
    # tail
    # ------------------------------------------------------------------
    def result(self) -> ScheduleResult:
        """The drain's outcome, or its aggregate error.

        ``unfinished`` is the failed tasks plus everything left blocked
        or unstarted, in insertion order.
        """
        if self.failures:
            done = set(self.completed)
            raise TaskGroupError(
                failures=sorted(self.failures,
                                key=lambda f: self.order[f.task]),
                completed=tuple(self.completed),
                unfinished=tuple(t for t in self.order if t not in done),
                trace=self.trace)
        if len(self.completed) != len(self.order):
            raise SchedulerError(
                f"schedule executed {len(self.completed)} of "
                f"{len(self.order)} tasks (dependency deadlock)")
        return ScheduleResult(trace=self.trace)


@dataclass
class Scheduler:
    """Dependency-driven executor with selectable execution mode.

    Parameters
    ----------
    execution:
        ``"threaded"``, ``"serial"`` or ``"process"``.
    workers:
        Lanes of the threaded mode, the caller's thread plus
        ``workers - 1`` threads (capped at the task count per run; 1
        starts no thread), or worker *processes* of the
        process mode (always pooled, even at 1 — a single-worker
        process run exercises the full descriptor/exchange path and
        stays bitwise identical to serial).
    hooks:
        Optional task-lifecycle observer with ``task_dispatch`` /
        ``task_complete`` methods (and, optionally,
        ``drain_begin(graph)``), called in every mode.  Used by the
        out-of-core store to plan evictions and pin task tiles.
    retry_policy:
        Pacing of per-task re-execution after *transient* failures;
        ``None`` fails fast.  The environment's ``task_retries`` is
        resolved by the owning :class:`~repro.runtime.runtime.Runtime`,
        not here.
    """

    execution: str = "threaded"
    workers: int = 1
    hooks: object | None = None
    retry_policy: RetryPolicy | None = None

    def __post_init__(self) -> None:
        if self.execution not in EXECUTION_MODES:
            raise ValueError(
                f"execution must be one of {EXECUTION_MODES}, got "
                f"{self.execution!r}"
            )
        self.workers = max(1, int(self.workers))

    def lanes(self, tasks: int) -> int:
        """How many lanes a drain of ``tasks`` tasks runs on: one on the
        serial lane, every worker on the process lane, and one lane per
        task up to ``workers`` on the threaded lane."""
        if self.execution == "threaded":
            return max(1, min(self.workers, tasks))
        return self.workers if self.execution == "process" else 1

    def run(self, graph: TaskGraph) -> ScheduleResult:
        """Execute (and time) ``graph`` under the configured mode."""
        if not graph.is_acyclic():
            raise TaskGraphCycleError("task graph contains a cycle")
        drain = _Drain(self, graph, self.lanes(graph.num_tasks))
        if self.execution == "process":
            from repro.parallel.executor import process_lane

            process_lane(drain, self)
        else:
            drain.run_lanes()
        return drain.result()

    def close(self) -> None:
        """Release executor resources (the process mode's worker pool).

        Idempotent and safe in every mode; a scheduler is usable again
        after ``close()`` (the next process drain starts a fresh pool).
        """
        pool = getattr(self, "_pool", None)
        finalizer = getattr(self, "_pool_finalizer", None)
        self._pool = None
        self._pool_finalizer = None
        if finalizer is not None:
            finalizer.detach()
        if pool is not None:
            pool.shutdown()
