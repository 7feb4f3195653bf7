"""Out-of-order executors over the task DAG.

The scheduler owns *how* a :class:`~repro.runtime.dag.TaskGraph` is
executed.  Four execution modes share one dependency engine:

``threaded``
    A worker pool drains the ready set as dependencies resolve,
    executing task bodies out of order on host threads (BLAS releases
    the GIL, so tile kernels genuinely overlap).  The trace records
    wall-clock start/end times per worker.  Because every ordering
    constraint between tasks touching the same data is an explicit
    RAW/WAR/WAW edge, any interleaving the pool produces is bitwise
    identical to the serial elimination order.

``process``
    The GIL-free backend (:mod:`repro.parallel`): worker OS processes
    execute picklable task descriptors, exchanging tiles through
    mmap'd segment files (or shared memory); the coordinator keeps the
    DAG, hooks and trace.  Tasks without a descriptor run inline on
    the coordinator.  Same bitwise contract as ``threaded``; dead
    workers are transient faults (respawn + retry).

``serial``
    The same ready-set drain on the caller's thread (priority order,
    insertion-order tie-break) with wall-clock timing.  This is the
    reference execution the threaded mode must match bit for bit.

``simulated``
    The historical performance model: task bodies still execute (in
    dataflow order, on the host), but the trace times each task as it
    would run on the mapped *simulated device*, including transfer
    time for inputs that last lived on another device.  Mapping policy
    is owner-computes (the PaRSEC default for tile algorithms) with an
    earliest-available fallback.

The serial and threaded drains additionally expose per-task lifecycle
**hooks** (``Scheduler.hooks``): ``task_ready`` when a task enters the
ready set, ``task_dispatch`` just before its body runs, and
``task_complete`` after it finishes (or fails).  The out-of-core tile
store uses these to prefetch, pin and release a task's tiles
(:class:`repro.store.StoreSchedulerHooks`); execution semantics are
unchanged when no hooks are installed.

Failure model (see ``docs/architecture.md``, "Failure model &
recovery"): task bodies are pure, so a transiently failed task is
simply re-executed under the configured :class:`RetryPolicy` — capped
exponential backoff with deterministic seeded jitter, retries counted
in the task's :class:`TaskEvent`.  Permanent failures do **not** abort
the drain: the scheduler keeps executing every task that does not
depend on a failed one, then raises a single :class:`TaskGroupError`
aggregating all failures (with per-task context), the completed set
and the unfinished subgraph.  A per-task timeout (``task_timeout_s``)
turns stalled workers into :class:`TaskTimeoutError` failures via a
watchdog thread instead of hanging the drain.  The named injection
sites ``task-body`` and ``worker-stall`` fire here, before each body
attempt, when a :class:`~repro.resilience.faults.FaultPlan` is active.
"""

from __future__ import annotations

import heapq
import os
import threading
import time
from dataclasses import dataclass, field

from repro.resilience.errors import TaskFailure, TaskGroupError, TaskTimeoutError
from repro.resilience.faults import SITE_TASK_BODY, SITE_WORKER_STALL, active_plan
from repro.resilience.retry import RetryPolicy, resolve_retry_policy
from repro.runtime.comm import CommunicationEngine
from repro.runtime.dag import TaskGraph
from repro.runtime.device import (
    Device,
    HOST_WORKER,
    make_devices,
)
from repro.runtime.task import DataHandle, Task
from repro.runtime.trace import ExecutionTrace, TaskEvent

EXECUTION_MODES = ("threaded", "serial", "simulated", "process")


@dataclass
class ScheduleResult:
    """Outcome of scheduling (and executing) a task graph."""

    trace: ExecutionTrace
    comm: CommunicationEngine
    devices: list[Device]

    @property
    def makespan(self) -> float:
        return self.trace.makespan

    @property
    def throughput(self) -> float:
        return self.trace.throughput()

    def summary(self) -> dict[str, float]:
        out = self.trace.summary()
        out["bytes_moved"] = float(self.comm.total_bytes)
        out["num_transfers"] = float(self.comm.num_transfers)
        return out


class SchedulerError(RuntimeError):
    """A schedule could not make progress (dependency deadlock)."""


def _ready_heap(graph: TaskGraph):
    """Initial ready set plus the bookkeeping the drain loops share."""
    indegree = {t: len(graph.predecessors(t)) for t in graph.tasks}
    order_index = {t: i for i, t in enumerate(graph.tasks)}
    ready: list[tuple[int, int, Task]] = []
    for t in graph.tasks:
        if indegree[t] == 0:
            heapq.heappush(ready, (-t.priority, order_index[t], t))
    return indegree, order_index, ready


@dataclass
class Scheduler:
    """Dependency-driven executor with selectable execution mode.

    Parameters
    ----------
    devices:
        Simulated devices (``simulated`` mode only); default one
        generic GPU.
    comm:
        Communication engine used for transfer accounting in the
        simulated mode.
    execute_bodies:
        When False task bodies are skipped in *every* mode and only the
        schedule bookkeeping runs (useful for very large synthetic DAGs
        in the performance model — the simulated mode keeps its device
        timing, the threaded/serial modes time empty drains).  Fault
        injection and retries are also skipped: there is no body to
        fail or re-run.
    owner_computes:
        Simulated-mode mapping policy: tasks run on the home device of
        their first written handle; otherwise on the earliest-free
        device.
    execution:
        ``"threaded"``, ``"serial"``, ``"simulated"`` or ``"process"``
        (default keeps the historical behaviour for direct
        ``Scheduler`` users).
    workers:
        Worker threads of the threaded mode (capped at the task count
        per run; 1 falls back to the serial drain) or worker
        *processes* of the process mode (always pooled, even at 1 — a
        single-worker process run exercises the full descriptor/
        exchange path and stays bitwise identical to serial).
    hooks:
        Optional task-lifecycle observer with ``task_ready`` /
        ``task_dispatch`` / ``task_complete`` methods (the serial and
        threaded drains call them; the simulated mode does not).  Used
        by the out-of-core store to pin/prefetch task tiles.
    retry_policy:
        Pacing of per-task re-execution after *transient* failures
        (``None`` resolves from ``REPRO_TASK_RETRIES``, else fail-fast;
        pass ``RetryPolicy(max_retries=0)`` to force fail-fast even
        when the env knob is set).
    task_timeout_s:
        Per-task wall-clock budget.  The serial drain checks it post
        hoc; the threaded drain runs a watchdog that marks overdue
        tasks as :class:`TaskTimeoutError` failures and releases their
        worker slot so the drain terminates instead of hanging.
    """

    devices: list[Device] = field(default_factory=lambda: make_devices(1))
    comm: CommunicationEngine = field(default_factory=CommunicationEngine)
    execute_bodies: bool = True
    owner_computes: bool = True
    execution: str = "simulated"
    workers: int = 1
    hooks: object | None = None
    retry_policy: RetryPolicy | None = None
    task_timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.execution not in EXECUTION_MODES:
            raise ValueError(
                f"execution must be one of {EXECUTION_MODES}, got "
                f"{self.execution!r}"
            )
        self.workers = max(1, int(self.workers))
        if self.retry_policy is None:
            self.retry_policy = resolve_retry_policy()
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ValueError("task_timeout_s must be positive")

    def run(self, graph: TaskGraph) -> ScheduleResult:
        """Execute (and time) ``graph`` under the configured mode."""
        if not graph.is_acyclic():
            raise RuntimeError("task graph contains a cycle")
        if self.execution == "simulated":
            return self._run_simulated(graph)
        if self.execution == "process":
            if not self.execute_bodies:
                # nothing to ship to a worker: time the bookkeeping
                return self._run_serial(graph)
            return self._run_process(graph)
        if self.execution == "serial" or self.workers <= 1 \
                or graph.num_tasks <= 1:
            return self._run_serial(graph)
        return self._run_threaded(graph)

    def _run_process(self, graph: TaskGraph) -> ScheduleResult:
        from repro.parallel.executor import run_process

        return run_process(self, graph)

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

    # ------------------------------------------------------------------
    # body execution with fault injection + retry
    # ------------------------------------------------------------------
    def _execute_task(self, task: Task) -> tuple[int, BaseException | None]:
        """Run ``task``'s body with injection and retries.

        Returns ``(retries_taken, error)``; ``error`` is ``None`` on
        success.  Injection sites fire *before* the body on every
        attempt, so a retried attempt sees a fresh schedule decision.
        Bodies are pure functions of their (quantized) inputs: however
        many attempts a task takes, its successful output is bitwise
        the output of the fault-free run.
        """
        if not self.execute_bodies:
            return 0, None
        policy = self.retry_policy
        key = f"{task.name}#{task.uid}"
        attempt = 0
        while True:
            try:
                plan = active_plan()
                if plan is not None:
                    plan.inject(SITE_WORKER_STALL, key)
                    plan.inject(SITE_TASK_BODY, key)
                task.execute()
                return attempt, None
            except BaseException as exc:  # noqa: BLE001 - reported upstream
                if (policy is None or attempt >= policy.max_retries
                        or not policy.retryable(exc)):
                    return attempt, exc
                time.sleep(policy.delay(attempt, key))
                attempt += 1

    @staticmethod
    def _group_error(graph: TaskGraph, failures: list[TaskFailure],
                     completed: list[Task], order_index: dict[Task, int],
                     trace: ExecutionTrace) -> TaskGroupError:
        """Assemble the aggregate error for a drain that saw failures.

        ``unfinished`` is the failed tasks plus everything left blocked
        or unstarted, in insertion order — re-adding them to a fresh
        graph re-derives exactly the induced dependency subgraph, which
        is what makes post-failure runs resumable.
        """
        done = set(completed)
        unfinished = [t for t in graph.tasks if t not in done]
        failures = sorted(failures, key=lambda f: order_index[f.task])
        return TaskGroupError(failures=failures, completed=tuple(completed),
                              unfinished=tuple(unfinished), trace=trace)

    # ------------------------------------------------------------------
    # serial drain (the threaded mode's bitwise reference)
    # ------------------------------------------------------------------
    def _run_serial(self, graph: TaskGraph) -> ScheduleResult:
        indegree, order_index, ready = _ready_heap(graph)
        hooks = self.hooks
        if hooks is not None:
            for _, _, task in ready:
                hooks.task_ready(task)
        trace = ExecutionTrace()
        worker = make_devices(1, HOST_WORKER)
        t0 = time.perf_counter()
        completed: list[Task] = []
        failures: list[TaskFailure] = []
        timeout = self.task_timeout_s
        while ready:
            _, _, task = heapq.heappop(ready)
            if hooks is not None:
                hooks.task_dispatch(task)
            start = time.perf_counter() - t0
            try:
                retries, error = self._execute_task(task)
            finally:
                if hooks is not None:
                    hooks.task_complete(task)
            end = time.perf_counter() - t0
            if error is None and timeout is not None and end - start > timeout:
                # post-hoc check: a single-threaded drain cannot preempt
                error = TaskTimeoutError(task.name, task.uid, task.tag,
                                         timeout, end - start)
            if error is not None:
                failures.append(TaskFailure(task=task, error=error,
                                            retries=retries))
                continue  # successors stay blocked; drain the rest
            completed.append(task)
            trace.add(TaskEvent(
                task_name=task.name, task_uid=task.uid, device=0,
                start=start, end=end, flops=task.flops,
                precision=task.precision, tag=task.tag,
                flops_detail=task.flops_detail, retries=retries,
            ))
            worker[0].busy_time += end - start
            worker[0].tasks_executed += 1
            for succ in graph.successors(task):
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    heapq.heappush(
                        ready, (-succ.priority, order_index[succ], succ))
                    if hooks is not None:
                        hooks.task_ready(succ)
        if failures:
            raise self._group_error(graph, failures, completed, order_index,
                                    trace)
        if len(completed) != graph.num_tasks:
            raise SchedulerError(
                f"schedule executed {len(completed)} of {graph.num_tasks} "
                "tasks (dependency deadlock)"
            )
        worker[0].busy_until = time.perf_counter() - t0
        return ScheduleResult(trace=trace, comm=CommunicationEngine(),
                              devices=worker)

    # ------------------------------------------------------------------
    # threaded out-of-order execution
    # ------------------------------------------------------------------
    def _run_threaded(self, graph: TaskGraph) -> ScheduleResult:
        indegree, order_index, ready = _ready_heap(graph)
        hooks = self.hooks
        if hooks is not None:
            for _, _, task in ready:
                hooks.task_ready(task)
        num_workers = min(self.workers, max(1, graph.num_tasks))
        workers = make_devices(num_workers, HOST_WORKER)
        trace = ExecutionTrace()
        timeout = self.task_timeout_s

        lock = threading.Lock()
        cond = threading.Condition(lock)
        state = {"in_flight": 0, "done": False, "timeouts": 0}
        completed: list[Task] = []
        failures: list[TaskFailure] = []
        # tasks the watchdog gave up on: their worker (if it ever comes
        # back) must discard the result instead of double-accounting it
        timed_out: set[Task] = set()
        inflight_start: dict[Task, float] = {}
        t0 = time.perf_counter()

        def worker_loop(widx: int) -> None:
            device = workers[widx]
            while True:
                with cond:
                    while not ready and state["in_flight"] > 0:
                        cond.wait()
                    if not ready:
                        cond.notify_all()
                        return
                    _, _, task = heapq.heappop(ready)
                    state["in_flight"] += 1
                    inflight_start[task] = time.perf_counter()
                # pinning happens outside the scheduler lock: the store
                # takes its own lock and never waits on this one
                if hooks is not None:
                    hooks.task_dispatch(task)
                start = time.perf_counter() - t0
                try:
                    retries, error = self._execute_task(task)
                finally:
                    if hooks is not None:
                        hooks.task_complete(task)
                end = time.perf_counter() - t0
                with cond:
                    if task in timed_out:
                        # the watchdog already failed this task and
                        # released our slot; drop the late result
                        timed_out.discard(task)
                        cond.notify_all()
                        continue
                    inflight_start.pop(task, None)
                    state["in_flight"] -= 1
                    if error is not None:
                        failures.append(TaskFailure(task=task, error=error,
                                                    retries=retries))
                        cond.notify_all()
                        continue
                    completed.append(task)
                    trace.add(TaskEvent(
                        task_name=task.name, task_uid=task.uid, device=widx,
                        start=start, end=end, flops=task.flops,
                        precision=task.precision, tag=task.tag,
                        flops_detail=task.flops_detail, retries=retries,
                    ))
                    device.busy_time += end - start
                    device.tasks_executed += 1
                    for succ in graph.successors(task):
                        indegree[succ] -= 1
                        if indegree[succ] == 0:
                            heapq.heappush(
                                ready,
                                (-succ.priority, order_index[succ], succ))
                            if hooks is not None:
                                hooks.task_ready(succ)
                    cond.notify_all()

        def watchdog_loop() -> None:
            poll = max(0.005, min(timeout / 4.0, 0.1))
            while True:
                with cond:
                    if state["done"]:
                        return
                    now = time.perf_counter()
                    expired = [(t, ts) for t, ts in inflight_start.items()
                               if now - ts > timeout]
                    for task, started in expired:
                        del inflight_start[task]
                        timed_out.add(task)
                        state["in_flight"] -= 1
                        state["timeouts"] += 1
                        failures.append(TaskFailure(
                            task=task,
                            error=TaskTimeoutError(
                                task.name, task.uid, task.tag, timeout,
                                now - started),
                            retries=0))
                    if expired:
                        cond.notify_all()
                    cond.wait(timeout=poll)

        threads = [
            threading.Thread(target=worker_loop, args=(i,),
                             name=f"repro-runtime-{i}", daemon=True)
            for i in range(num_workers)
        ]
        for t in threads:
            t.start()
        watchdog = None
        if timeout is not None:
            watchdog = threading.Thread(target=watchdog_loop,
                                        name="repro-runtime-watchdog",
                                        daemon=True)
            watchdog.start()

        with cond:
            while ready or state["in_flight"] > 0:
                cond.wait()
            state["done"] = True
            cond.notify_all()
            had_timeouts = state["timeouts"] > 0
        # workers stuck inside a timed-out body stay behind as daemons;
        # everyone else exits promptly once the ready set is empty
        for t in threads:
            t.join(timeout=0.5 if had_timeouts else None)
        # join() returns once a worker's Python state is gone; the OS
        # thread still has to run its exit handlers, which is where the
        # allocator takes its arena back.  Confined to one CPU, a caller
        # that starts the next drain right away creates those workers
        # first, and each then opens a fresh arena (~9 MB retained per
        # drain on a tile-64 fit).  A yield per worker lets the exits finish.
        if hasattr(os, "sched_yield"):
            for _ in threads:
                os.sched_yield()
        if watchdog is not None:
            watchdog.join(timeout=1.0)

        if failures:
            raise self._group_error(graph, failures, completed, order_index,
                                    trace)
        if len(completed) != graph.num_tasks:
            raise SchedulerError(
                f"schedule executed {len(completed)} of {graph.num_tasks} "
                "tasks (dependency deadlock)"
            )
        return ScheduleResult(trace=trace, comm=CommunicationEngine(),
                              devices=workers)

    # ------------------------------------------------------------------
    # simulated-device timing (the historical mode)
    # ------------------------------------------------------------------
    def _run_simulated(self, graph: TaskGraph) -> ScheduleResult:
        for device in self.devices:
            device.reset()
        self.comm.reset()
        trace = ExecutionTrace()

        # location of each handle's current valid copy
        location: dict[DataHandle, int] = {}
        finish_time: dict[Task, float] = {}

        indegree, order_index, ready = _ready_heap(graph)

        completed: list[Task] = []
        failures: list[TaskFailure] = []
        while ready:
            _, _, task = heapq.heappop(ready)
            device = self._map_task(task, location)

            # inputs become available when predecessors finish
            data_ready = max(
                (finish_time[p] for p in graph.predecessors(task)), default=0.0
            )

            # transfer inputs that live elsewhere
            transfer_time = 0.0
            for handle in task.reads:
                src = location.get(handle, handle.home_device)
                if src != device.index:
                    self.comm.record_transfer(handle, src, device.index,
                                              task.precision)
                    nbytes = handle.nbytes(
                        self.comm.wire_precision(handle.precision, task.precision)
                    )
                    transfer_time += device.model.transfer_time(nbytes)
                    device.bytes_received += nbytes
                    location[handle] = device.index

            start = max(device.busy_until, data_ready) + transfer_time
            duration = device.model.task_time(task.flops, task.precision)
            end = start + duration

            retries, error = self._execute_task(task)
            if error is not None:
                failures.append(TaskFailure(task=task, error=error,
                                            retries=retries))
                continue  # successors stay blocked, as in the real drains

            device.busy_until = end
            device.busy_time += duration
            device.tasks_executed += 1
            finish_time[task] = end
            for handle in task.writes:
                location[handle] = device.index

            trace.add(TaskEvent(
                task_name=task.name,
                task_uid=task.uid,
                device=device.index,
                start=start,
                end=end,
                flops=task.flops,
                precision=task.precision,
                tag=task.tag,
                flops_detail=task.flops_detail,
                retries=retries,
            ))
            completed.append(task)

            for succ in graph.successors(task):
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    heapq.heappush(ready, (-succ.priority, order_index[succ], succ))

        if failures:
            raise self._group_error(graph, failures, completed, order_index,
                                    trace)
        if len(completed) != graph.num_tasks:
            raise SchedulerError(
                f"schedule executed {len(completed)} of {graph.num_tasks} "
                "tasks (dependency deadlock)"
            )
        return ScheduleResult(trace=trace, comm=self.comm, devices=self.devices)

    # ------------------------------------------------------------------
    def _map_task(self, task: Task, location: dict[DataHandle, int]) -> Device:
        if self.owner_computes and task.writes:
            target = task.writes[0]
            idx = location.get(target, target.home_device) % len(self.devices)
            return self.devices[idx]
        return min(self.devices, key=lambda d: d.busy_until)
