"""The process lane: a coordinator loop over the scheduler's one drain.

``process_lane`` is where a task's kernel runs when
``execution="process"``.  The drain
(:class:`repro.runtime.scheduler._Drain`) keeps what every lane shares
— ready heap, hooks, injection sites, retries, trace, aggregate error;
this module only adds the exchange plumbing: it resolves a task's
:class:`~repro.runtime.task.TaskSpec` inputs to :class:`PayloadRef`
locators, ships them with the kernel to an idle worker process, reaps
``("ok" | "err", uid, ...)`` replies via ``multiprocessing.connection
.wait`` and retires each through the drain.

Every task that runs something runs on a worker: its descriptor is all
there is to it.  Handle payloads are *lazy* on the coordinator: a
worker-written handle holds only a ref until the end of the drain,
when every still-referenced handle is materialized so callers see
ordinary payloads; outputs that go to an ``on_complete`` (a
store-backed tile, a Build row, a Predict group) are fetched when the
task completes and handed to it on the coordinator.

A worker that dies mid-task (closed pipe / dead process) surfaces as a
transient :class:`~repro.resilience.errors.WorkerCrashError` —
respawned, and the task retried under the :class:`RetryPolicy` like
any other transient failure, or folded into the drain's
:class:`TaskGroupError`.
"""

from __future__ import annotations

import time
import weakref
from collections import deque
from multiprocessing import connection as mp_connection

from repro.resilience.errors import WorkerCrashError
from repro.parallel.pool import ProcessPool
from repro.parallel.worker import load_exception
from repro.runtime.scheduler import fault_key
from repro.runtime.task import ObjectInput, TileInput

__all__ = ["ensure_pool", "process_lane"]

#: Poll period of the reply wait; only bounds how fast Ctrl-C is
#: noticed, not throughput (replies wake the wait immediately).
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


def process_lane(drain, scheduler) -> None:
    """Run ``drain`` to the end on the scheduler's worker-process pool."""
    pool = ensure_pool(scheduler)
    exchange = pool.exchange
    ready = drain.ready

    #: handle uid -> PayloadRef of its current value in the exchange
    current_ref = {}
    #: handle uid -> handle whose `payload` is older than current_ref
    stale = {}
    #: published aux inputs, keyed ("tile", id(matrix), coords) or
    #: ("obj", key); tile entries die on writeback, obj entries per drain
    aux_refs = {}
    running = {}  # worker index -> (task, dispatch wall-clock)
    idle = deque(range(pool.workers))

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

    def adopt(task, out_refs):
        """Take a worker's outputs: write back, or re-point the handles."""
        spec = task.spec
        if spec.on_complete is not None:
            outs = tuple(exchange.get(ref) if ref is not None else None
                         for ref in out_refs)
            spec.on_complete(*outs)
            for entry in spec.aux:
                if isinstance(entry, TileInput) and entry.writeback:
                    aux_refs.pop(("tile", id(entry.matrix), entry.coords),
                                 None)
            return
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

    # ------------------------------------------------------------------
    # one attempt
    # ------------------------------------------------------------------
    def ship(task, widx) -> bool:
        """Send ``task`` to worker ``widx``; False if the attempt ended
        here (hook or injected failure, dead worker) and the slot is
        free again."""
        error = drain.dispatch(task)
        if error is None:
            try:
                drain.inject(task)
            except BaseException as exc:  # noqa: BLE001 - reported upstream
                error = exc
        if error is None:
            try:
                pool.send(widx, ("task", task.uid, task.spec.kernel,
                                 input_refs(task), fault_key(task)))
            except (OSError, ValueError) as exc:
                error = WorkerCrashError(widx, task.name, task.uid,
                                         pool.exitcode(widx))
                error.__cause__ = exc
                pool.respawn(widx)
        now = time.perf_counter()
        if error is not None:
            drain.retire(task, widx, now - drain.t0, error)
            return False
        running[widx] = (task, now)
        return True

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    try:
        while (ready or running) and not drain.stopped:
            while ready and not drain.stopped:
                if ready[0][2].spec is None:
                    # nothing to ship: the task only orders its accesses
                    drain.run_inline(drain.pop(), 0)
                    continue
                if not idle:
                    break
                widx = idle.popleft()
                if not ship(drain.pop(), widx):
                    idle.appendleft(widx)
            if not running:
                continue  # a failed attempt may have requeued work

            conns = {pool.conn(widx): widx for widx in running}
            for conn in mp_connection.wait(list(conns), timeout=_IDLE_POLL_S):
                widx = conns[conn]
                task, sent = running.pop(widx)
                idle.append(widx)
                error = None
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    error = WorkerCrashError(widx, task.name, task.uid,
                                             pool.exitcode(widx))
                    pool.respawn(widx)
                else:
                    if message[0] == "ok":
                        try:
                            adopt(task, message[2])
                        except Exception as exc:  # noqa: BLE001 - e.g. writeback I/O
                            error = exc
                    elif message[0] == "err":
                        error = load_exception(message[2])
                    else:  # pragma: no cover - protocol violation
                        error = RuntimeError(
                            f"unexpected worker message {message[0]!r}")
                drain.retire(task, widx, sent - drain.t0, error)
        if drain.interrupt is not None:
            raise drain.interrupt
    except BaseException:
        # abnormal exit (KeyboardInterrupt, bug) with tasks in flight:
        # never let stale replies poison the next drain
        pool.reset_all()
        raise

    # Hand every still-referenced handle its bytes back, then reset the
    # exchange on both sides — refs never outlive a drain.  This runs
    # on the failure path too: what a failed drain completed is still
    # an ordinary payload.
    for handle in stale.values():
        handle.payload = exchange.get(current_ref[handle.uid])
    pool.end_drain()
