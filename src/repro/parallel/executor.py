"""Coordinator-side drain of the process backend.

``run_process`` is the fourth executor over the shared dependency
engine (see :mod:`repro.runtime.scheduler`): the coordinator keeps the
ready heap, indegrees, store pin/prefetch hooks, retry bookkeeping and
trace accounting of the serial drain, but instead of running a task's
descriptor inline it resolves the :class:`~repro.runtime.task.TaskSpec`
inputs to :class:`PayloadRef` locators, ships them with the kernel to
an idle worker process and reaps
``("ok"| "err", uid, ...)`` replies via ``multiprocessing.connection
.wait``.

Handle payloads are *lazy* on the coordinator: a worker-written handle
holds only a ref until some coordinator-side consumer needs the bytes
(an inline task, an ``on_complete`` writeback, or the end of the
drain, when every still-referenced handle is materialized so callers
see ordinary payloads).  Tasks that have a ``body`` instead of a
descriptor (e.g. the Build consume step, which mutates builder state,
or user tasks) run inline on the
coordinator through the scheduler's own ``_execute_task`` — same
injection sites, same retry policy.

Failure semantics match the other drains exactly, with one addition: a
worker that dies mid-task (closed pipe / dead process) surfaces as a
transient :class:`~repro.resilience.errors.WorkerCrashError` — the
worker is respawned and the task retried under the
:class:`RetryPolicy`, or folded into the drain's
:class:`TaskGroupError`.
"""

from __future__ import annotations

import heapq
import time
import weakref
from collections import deque
from multiprocessing import connection as mp_connection

from repro.resilience.errors import (
    TaskFailure,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.resilience.faults import SITE_TASK_BODY, SITE_WORKER_STALL, active_plan
from repro.parallel.pool import ProcessPool
from repro.parallel.worker import load_exception
from repro.runtime.task import ObjectInput, TileInput

__all__ = ["ensure_pool", "run_process"]

#: Poll period of the reply wait when no per-task timeout is set; only
#: bounds how fast Ctrl-C is noticed, not throughput (replies wake the
#: wait immediately).
_IDLE_POLL_S = 1.0


def ensure_pool(scheduler) -> ProcessPool:
    """The scheduler's lazily-started pool (spawned on first drain).

    The pool is tied to the scheduler object: a finalizer shuts it
    down when the scheduler is collected, and ``Scheduler.close()``
    does so deterministically.
    """
    pool = getattr(scheduler, "_pool", None)
    if pool is not None and not pool.closed:
        return pool
    pool = ProcessPool(workers=scheduler.workers)
    pool.start()
    scheduler._pool = pool
    scheduler._pool_finalizer = weakref.finalize(
        scheduler, ProcessPool.shutdown, pool)
    return pool


def run_process(scheduler, graph):
    """Drain ``graph`` on the scheduler's worker-process pool."""
    from repro.runtime.comm import CommunicationEngine
    from repro.runtime.device import HOST_WORKER, make_devices
    from repro.runtime.scheduler import (
        ScheduleResult,
        SchedulerError,
        _ready_heap,
    )
    from repro.runtime.trace import ExecutionTrace, TaskEvent

    pool = ensure_pool(scheduler)
    exchange = pool.exchange
    hooks = scheduler.hooks
    policy = scheduler.retry_policy
    timeout = scheduler.task_timeout_s

    indegree, order_index, ready = _ready_heap(graph)
    if hooks is not None:
        for _, _, task in ready:
            hooks.task_ready(task)

    devices = make_devices(pool.workers, HOST_WORKER)
    trace = ExecutionTrace()
    completed = []
    failures = []
    #: retries already charged to a task (coordinator-level re-dispatches
    #: after crashes/injected faults; inline tasks add their own).
    attempts = {}
    #: handle uid -> PayloadRef of its current value in the exchange
    current_ref = {}
    #: handle uid -> handle whose `payload` is older than current_ref
    stale = {}
    #: published aux inputs, keyed ("tile", id(matrix), coords) or
    #: ("obj", key); tile entries die on writeback, obj entries per drain
    aux_refs = {}
    inflight = {}  # worker index -> (task, dispatch wall-clock)
    idle = deque(range(pool.workers))
    t0 = time.perf_counter()

    # ------------------------------------------------------------------
    # payload plumbing
    # ------------------------------------------------------------------
    def publish_handle(handle):
        ref = current_ref.get(handle.uid)
        if ref is None and handle.payload is not None:
            ref = exchange.put(handle.payload)
            current_ref[handle.uid] = ref
        return ref

    def publish_aux(entry):
        if isinstance(entry, ObjectInput):
            key = ("obj", entry.key)
            ref = aux_refs.get(key)
            if ref is None:
                ref = exchange.put(entry.obj)
                aux_refs[key] = ref
            return ref
        key = ("tile", id(entry.matrix), entry.coords)
        ref = aux_refs.get(key)
        if ref is None:
            ref = exchange.put(entry.matrix.get_tile(*entry.coords))
            aux_refs[key] = ref
        return ref

    def input_refs(task):
        spec = task.spec
        refs = []
        if spec.mode in ("handles", "both"):
            for handle, _ in task.accesses:
                refs.append(publish_handle(handle))
        if spec.mode in ("aux", "both"):
            for entry in spec.aux:
                refs.append(publish_aux(entry))
        return tuple(refs)

    def materialize(handle):
        """Make ``handle.payload`` current when a worker wrote it."""
        if handle.uid in stale:
            handle.payload = exchange.get(current_ref[handle.uid])
            del stale[handle.uid]

    # ------------------------------------------------------------------
    # completion bookkeeping (shared by inline and worker completions)
    # ------------------------------------------------------------------
    def record_success(task, widx, start, end, retries):
        completed.append(task)
        trace.add(TaskEvent(
            task_name=task.name, task_uid=task.uid, device=widx,
            start=start, end=end, flops=task.flops,
            precision=task.precision, tag=task.tag,
            flops_detail=task.flops_detail, retries=retries,
        ))
        devices[widx].busy_time += end - start
        devices[widx].tasks_executed += 1
        for succ in graph.successors(task):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(ready,
                               (-succ.priority, order_index[succ], succ))
                if hooks is not None:
                    hooks.task_ready(succ)

    def fail(task, error):
        failures.append(TaskFailure(task=task, error=error,
                                    retries=attempts.get(task, 0)))

    def fail_or_retry(task, error):
        """Requeue a transiently-failed dispatch, or record the failure.

        Mirrors ``Scheduler._execute_task``'s loop, spread across the
        event loop: each re-dispatch counts as one retry and sleeps the
        policy's deterministic backoff.
        """
        taken = attempts.get(task, 0)
        if (policy is not None and taken < policy.max_retries
                and policy.retryable(error)):
            attempts[task] = taken + 1
            time.sleep(policy.delay(taken, f"{task.name}#{task.uid}"))
            # back on the heap; task_ready already fired for this task
            heapq.heappush(ready, (-task.priority, order_index[task], task))
            return
        fail(task, error)

    # ------------------------------------------------------------------
    # inline execution (tasks without a descriptor run on the coordinator)
    # ------------------------------------------------------------------
    def run_inline(task):
        if hooks is not None:
            hooks.task_dispatch(task)
        start = time.perf_counter() - t0
        try:
            for handle, _ in task.accesses:
                materialize(handle)
            retries, error = scheduler._execute_task(task)
        finally:
            if hooks is not None:
                hooks.task_complete(task)
        end = time.perf_counter() - t0
        retries += attempts.get(task, 0)
        attempts[task] = retries
        if error is None and timeout is not None and end - start > timeout:
            error = TaskTimeoutError(task.name, task.uid, task.tag,
                                     timeout, end - start)
        if error is not None:
            fail(task, error)
            return
        for handle, mode in task.accesses:
            if mode.writes:
                # the coordinator's payload is now the truth
                current_ref.pop(handle.uid, None)
                stale.pop(handle.uid, None)
        record_success(task, 0, start, end, retries)

    # ------------------------------------------------------------------
    # dispatch / reply handling
    # ------------------------------------------------------------------
    def dispatch(task, widx) -> bool:
        """Ship ``task`` to worker ``widx``; False if the slot is free
        again (injected failure or dead worker)."""
        if hooks is not None:
            hooks.task_dispatch(task)
        key = f"{task.name}#{task.uid}"
        plan = active_plan()
        if plan is not None:
            # the same coordinator-side sites the other drains fire per
            # attempt, so env chaos plans hit process runs too
            try:
                plan.inject(SITE_WORKER_STALL, key)
                plan.inject(SITE_TASK_BODY, key)
            except BaseException as exc:  # noqa: BLE001
                if hooks is not None:
                    hooks.task_complete(task)
                fail_or_retry(task, exc)
                return False
        try:
            refs = input_refs(task)
            pool.send(widx, ("task", task.uid, task.spec.kernel, refs, key))
        except (OSError, ValueError) as exc:
            if hooks is not None:
                hooks.task_complete(task)
            crash = WorkerCrashError(widx, task.name, task.uid,
                                     pool.exitcode(widx))
            crash.__cause__ = exc
            pool.respawn(widx)
            fail_or_retry(task, crash)
            return False
        inflight[widx] = (task, time.perf_counter())
        return True

    def finish_worker_task(task, widx, started, out_refs):
        if hooks is not None:
            hooks.task_complete(task)
        end = time.perf_counter() - t0
        spec = task.spec
        try:
            if spec.on_complete is not None:
                outs = tuple(exchange.get(ref) if ref is not None else None
                             for ref in out_refs)
                spec.on_complete(*outs)
                for entry in spec.aux:
                    if isinstance(entry, TileInput) and entry.writeback:
                        aux_refs.pop(("tile", id(entry.matrix), entry.coords),
                                     None)
            else:
                written = [h for h, mode in task.accesses if mode.writes]
                if len(out_refs) != len(written):
                    raise RuntimeError(
                        f"task {task.name!r}#{task.uid} returned "
                        f"{len(out_refs)} output(s) for {len(written)} "
                        "written handle(s)")
                for handle, ref in zip(written, out_refs):
                    if ref is None:
                        handle.payload = None
                        current_ref.pop(handle.uid, None)
                        stale.pop(handle.uid, None)
                    else:
                        current_ref[handle.uid] = ref
                        stale[handle.uid] = handle
        except Exception as exc:  # noqa: BLE001 - e.g. writeback I/O
            fail_or_retry(task, exc)
            return
        record_success(task, widx, started - t0, end,
                       attempts.get(task, 0))

    def handle_crash(widx, task):
        if hooks is not None and task is not None:
            hooks.task_complete(task)
        exitcode = pool.exitcode(widx)
        pool.respawn(widx)
        if task is not None:
            fail_or_retry(task, WorkerCrashError(
                widx, task.name, task.uid, exitcode))

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    try:
        while ready or inflight:
            while ready:
                _, _, task = ready[0]
                if task.spec is None:
                    heapq.heappop(ready)
                    run_inline(task)
                    continue
                if not idle:
                    break
                heapq.heappop(ready)
                widx = idle.popleft()
                if not dispatch(task, widx):
                    idle.appendleft(widx)
            if not inflight:
                continue  # a failed dispatch may have requeued work

            conns = {pool.conn(widx): widx for widx in inflight}
            poll = _IDLE_POLL_S
            if timeout is not None:
                poll = max(0.005, min(timeout / 4.0, poll))
            readable = mp_connection.wait(list(conns), timeout=poll)
            if not readable:
                if timeout is None:
                    continue
                now = time.perf_counter()
                for widx in list(inflight):
                    task, started = inflight[widx]
                    if now - started > timeout:
                        # preempt for real: kill the wedged worker
                        del inflight[widx]
                        if hooks is not None:
                            hooks.task_complete(task)
                        pool.respawn(widx)
                        idle.append(widx)
                        fail(task, TaskTimeoutError(
                            task.name, task.uid, task.tag, timeout,
                            now - started))
                continue

            for conn in readable:
                widx = conns[conn]
                task, started = inflight.pop(widx)
                idle.append(widx)
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    handle_crash(widx, task)
                    continue
                kind = message[0]
                if kind == "ok":
                    _, _uid, out_refs = message
                    finish_worker_task(task, widx, started, out_refs)
                elif kind == "err":
                    if hooks is not None:
                        hooks.task_complete(task)
                    fail_or_retry(task, load_exception(message[2]))
                else:  # pragma: no cover - protocol violation
                    if hooks is not None:
                        hooks.task_complete(task)
                    fail(task, RuntimeError(
                        f"unexpected worker message {kind!r}"))
    except BaseException:
        # abnormal exit (KeyboardInterrupt, bug) with tasks in flight:
        # never let stale replies poison the next drain
        pool.reset_all()
        raise

    # Hand every still-referenced handle its bytes back, then reset the
    # exchange on both sides — refs never outlive a drain.  This runs
    # on the failure path too: a resumed run's surviving inputs must be
    # ordinary payloads.
    for uid in list(stale):
        handle = stale.pop(uid)
        handle.payload = exchange.get(current_ref[uid])
    current_ref.clear()
    aux_refs.clear()
    pool.end_drain()

    if failures:
        raise scheduler._group_error(graph, failures, completed,
                                     order_index, trace)
    if len(completed) != graph.num_tasks:
        raise SchedulerError(
            f"schedule executed {len(completed)} of {graph.num_tasks} "
            "tasks (dependency deadlock)")
    return ScheduleResult(trace=trace, comm=CommunicationEngine(),
                          devices=devices)
