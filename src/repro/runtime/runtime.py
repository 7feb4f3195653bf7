"""High-level runtime facade.

``Runtime`` bundles a task graph, the scheduler (one drain; a serial,
threaded or process lane) and a handle registry behind the small
interface the tiled algorithms use:

.. code-block:: python

    rt = Runtime(workers=8)
    a = rt.register_data("A(0,0)", tile_array, precision=Precision.FP32)
    rt.insert_task("potrf", (a, AccessMode.READWRITE),
                   spec=TaskSpec(PotrfSpec(Precision.FP32)),
                   flops=n**3 / 3, precision=Precision.FP32)
    result = rt.run(phase="associate")

which mirrors PaRSEC's dynamic task insertion interface used by the
paper's GWAS code.

A ``Runtime`` is **session-long and reusable**: every :meth:`run` call
drains the tasks inserted since the previous run (the pending graph),
folds what the drain executed into :attr:`Runtime.ledger` under the
``phase`` it was given, and leaves the handle registry in place so
later phases can keep inserting tasks against the same data.  The
scheduler is constructed exactly once; no state is silently rebuilt
between runs.

:attr:`Runtime.ledger` is the library's one operation tally:
:meth:`Runtime.run` folds each drain into it and :meth:`Runtime.tally`
adds a product computed outside the graph (``blas3.gemm``).
Events are not kept: a drain's trace lives on the ``ScheduleResult``
that ``run`` returns (:attr:`Runtime.last_result` holds the latest), so
a runtime's memory does not grow with the number of drains.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

import numpy as np

from repro.precision.formats import Precision
from repro.resilience.retry import RetryPolicy
from repro.runtime.dag import TaskGraph
from repro.runtime.scheduler import ScheduleResult, Scheduler
from repro.runtime.task import AccessMode, DataHandle, Task, TaskSpec
from repro.runtime.trace import PhaseTotals
from repro.settings import Settings


class Runtime:
    """Dynamic task runtime: the repo's execution engine.

    Parameters
    ----------
    execution:
        ``"threaded"`` (default — out-of-order worker-pool execution on
        host threads), ``"process"`` (GIL-free worker OS processes
        exchanging tiles through mmap'd segment files, see
        :mod:`repro.parallel`) or ``"serial"`` (the same drain on the
        caller's thread).  How the drained graph would run on
        accelerators is a separate question, answered without running
        it by :func:`repro.runtime.replay.replay` on :attr:`last_graph`.
    workers:
        Worker threads/processes of the threaded/process modes.
    task_retries:
        Transient-failure retry budget per task (see
        :class:`~repro.resilience.retry.RetryPolicy`); unset anywhere,
        tasks fail fast.

    ``execution``, ``workers`` and ``task_retries`` left ``None`` take
    the field of :meth:`repro.settings.Settings.from_env`, read here
    and nowhere below: the scheduler is handed the resolved
    :class:`~repro.resilience.retry.RetryPolicy`.
    """

    def __init__(
        self,
        execution: str | None = None,
        workers: int | None = None,
        task_retries: int | None = None,
    ) -> None:
        settings = Settings.from_env()
        if workers is None:
            workers = settings.workers
        elif int(workers) < 1:
            raise ValueError(f"workers must be >= 1 (or None), got {workers}")
        if task_retries is None:
            task_retries = settings.task_retries
        self.graph = TaskGraph()  # pending (not yet run) tasks
        # the one and only scheduler of this runtime — reused by every
        # run() so repeated runs never silently rebuild executor state
        self.scheduler = Scheduler(
            execution=execution or settings.execution,
            workers=workers,
            retry_policy=(None if task_retries is None
                          else RetryPolicy(max_retries=int(task_retries))),
        )
        self.execution = self.scheduler.execution
        self.workers = self.scheduler.workers
        self._handles: dict[str, DataHandle] = {}
        self._handle_uids: set[int] = set()
        self._namespaces: dict[str, int] = {}
        #: outcome of the most recent successful :meth:`run`
        self.last_result: ScheduleResult | None = None
        #: graph drained by the most recent :meth:`run`; its
        #: descriptors keep only their kernels
        self.last_graph: TaskGraph | None = None
        #: per-phase totals of what every ``run(phase=...)`` completed;
        #: a plain dict: ``ledger.pop(phase)`` / ``ledger.clear()`` reset
        self.ledger: dict[str, PhaseTotals] = {}
        self.runs_completed = 0

    # ------------------------------------------------------------------
    # data registration
    # ------------------------------------------------------------------
    def register_data(
        self,
        name: str,
        payload: Any = None,
        precision: Precision | str = Precision.FP64,
        shape: tuple[int, ...] | None = None,
        home_device: int | None = None,
        exist_ok: bool = False,
    ) -> DataHandle:
        """Register a named datum (typically one tile) with the runtime.

        With ``exist_ok`` an already-registered name returns the
        existing handle after a consistency check on the shape —
        re-registering the "same" datum with different geometry is
        always a bug.
        """
        precision = Precision.from_string(precision)
        if shape is None:
            shape = tuple(np.shape(payload)) if payload is not None else ()
        if name in self._handles:
            if not exist_ok:
                raise ValueError(f"data {name!r} already registered")
            handle = self._handles[name]
            if tuple(handle.shape) != tuple(shape):
                raise ValueError(
                    f"data {name!r} re-registered with shape {shape}, "
                    f"registry holds {handle.shape}"
                )
            if handle.precision is not precision:
                raise ValueError(
                    f"data {name!r} re-registered as {precision}, "
                    f"registry holds {handle.precision}"
                )
            return handle
        handle = DataHandle(
            name=name,
            shape=shape,
            precision=precision,
            payload=payload,
            # round-robin by registration order; a replay resolves it
            # modulo its device count
            home_device=(home_device if home_device is not None
                         else len(self._handles)),
        )
        self._handles[name] = handle
        self._handle_uids.add(handle.uid)
        return handle

    def data(self, name: str) -> DataHandle:
        return self._handles[name]

    @property
    def handles(self) -> dict[str, DataHandle]:
        return dict(self._handles)

    def namespace(self, label: str) -> str:
        """A unique name prefix for one algorithm invocation.

        Session-long runtimes execute the same tiled algorithm many
        times (one Cholesky per regularization attempt, one solve per
        phenotype panel); prefixing each invocation's handle names
        keeps the registry collision-free without the caller tracking
        generations.
        """
        idx = self._namespaces.get(label, 0)
        self._namespaces[label] = idx + 1
        return f"{label}#{idx}:"

    @contextmanager
    def dag(self, label: str, store=None) -> Iterator[str]:
        """The scope of one library DAG: insert, :meth:`run`, discard.

        Every tiled routine (Build, Cholesky, the solves, the matvec,
        the dense GEMM/SYRK tasks) inserts and drains its tasks inside
        this ``with``.  Entering refuses a runtime that holds unrelated
        pending tasks (:meth:`require_drained`), wires ``store`` — the
        store behind a store-backed operand — into the scheduler, and
        yields a fresh handle-name prefix (:meth:`namespace`).  Leaving
        releases the prefix's handles, always, so a routine reads its
        results inside the scope; an error while inserting also drops
        the pending graph (:meth:`reset_graph`).  A library DAG is
        raise-and-discard: the caller's retry (the regularization
        boost, a retried solve) inserts a fresh one.
        """
        self.require_drained(f"the {label!r} DAG")
        if store is not None:
            try:
                self.attach_store(store)
            except RuntimeError:
                # the runtime is hooked to something else: the plan and
                # pins for this operand are skipped, which only costs
                # reload traffic — the round-trips stay bitwise
                pass
        prefix = self.namespace(label)
        try:
            yield prefix
        except BaseException:
            self.reset_graph()
            raise
        finally:
            self.release(prefix)

    def require_drained(self, operation: str) -> None:
        """Guard for library routines that insert-and-drain.

        The tiled algorithms (Build, Cholesky, solves, GEMM) insert
        their task DAG and immediately ``run()`` it.  If the caller
        left unrelated tasks pending on this runtime, that drain would
        execute them prematurely, tag their events into the wrong
        phase, and surface their failures from the wrong call — so the
        routines refuse instead.
        """
        if self.graph.num_tasks:
            raise RuntimeError(
                f"{operation} would drain {self.graph.num_tasks} unrelated "
                "pending task(s) on this runtime; run() or reset_graph() "
                "them first"
            )

    def release(self, prefix: str) -> int:
        """Drop registered handles whose name starts with ``prefix``.

        Returns the number of handles released.  Dropping a namespace
        after its algorithm finished keeps session-long registries from
        accumulating without bound.  A released handle holds no
        payload: the drained graph kept in :attr:`last_graph` still
        references it, and must not keep the algorithm's tiles alive
        after its caller dropped them.
        """
        names = [n for n in self._handles if n.startswith(prefix)]
        for n in names:
            handle = self._handles.pop(n)
            self._handle_uids.discard(handle.uid)
            handle.payload = None
        return len(names)

    # ------------------------------------------------------------------
    # task insertion and execution
    # ------------------------------------------------------------------
    def insert_task(
        self,
        name: str,
        *accesses: tuple[DataHandle, AccessMode],
        flops: float = 0.0,
        precision: Precision | str = Precision.FP64,
        priority: int = 0,
        tag: Any = None,
        flops_detail: dict[Precision, float] | None = None,
        tile_deps: tuple = (),
        spec=None,
    ) -> Task:
        """Insert a task; dependencies derive from the access declarations.

        Every accessed handle must be registered with *this* runtime —
        the registry consistency assert that catches tasks smuggling in
        foreign (or released) handles, which would silently break the
        dependency derivation.

        ``tile_deps`` declares the store-backed tiles the task touches
        (``(binding, (i, j))`` pairs) so the scheduler's store hooks can
        plan evictions from them and pin and unpin them (see
        :mod:`repro.store`).

        ``spec`` is the task's :class:`~repro.runtime.task.TaskSpec`
        descriptor, which every execution mode runs.
        """
        for handle, _ in accesses:
            if handle.uid not in self._handle_uids:
                raise RuntimeError(
                    f"task {name!r} accesses handle {handle.name!r} which is "
                    "not registered with this runtime"
                )
        return self.graph.insert_task(
            name,
            *accesses,
            flops=flops,
            precision=Precision.from_string(precision),
            priority=priority,
            tag=tag,
            flops_detail=flops_detail,
            tile_deps=tile_deps,
            spec=spec,
        )

    def run(self, phase: str | None = None) -> ScheduleResult:
        """Drain the pending graph: schedule and execute its tasks.

        On success the drain's events are folded into
        ``ledger[phase]`` (an unlabelled run is not tallied).  A failed
        drain raises :class:`~repro.resilience.errors.TaskGroupError`
        and counts nothing: the pending graph is empty either way, and
        what the failed drain completed is reported on the error.
        """
        graph, self.graph = self.graph, TaskGraph()
        self.last_graph = graph
        try:
            result = self.scheduler.run(graph)
        finally:
            # last_graph is kept for replay(); each descriptor's operands
            # and output closure would keep the drain's inputs and
            # results alive
            for task in graph.tasks:
                if task.spec is not None:
                    task.spec = TaskSpec(task.spec.kernel, task.spec.mode)
        if phase is not None:
            self.ledger.setdefault(phase, PhaseTotals()).fold(
                result.trace.events)
        self.last_result = result
        self.runs_completed += 1
        return result

    def tally(self, phase: str, flops_detail: dict[Precision, float]) -> None:
        """Add an inline product's operations (by compute precision) to
        ``ledger[phase]``; it ran no task, so ``tasks`` is unchanged."""
        self.ledger.setdefault(phase, PhaseTotals()).add_flops(
            float(sum(flops_detail.values())), flops_detail)

    # ------------------------------------------------------------------
    # out-of-core store integration
    # ------------------------------------------------------------------
    def attach_store(self, store) -> None:
        """Wire a :class:`~repro.store.TileStore` into the executors.

        Installs the store's scheduler hooks: the drain's order of the
        tasks that declare ``tile_deps`` is the eviction plan, and their
        tiles are pinned against eviction while they run and released
        on completion.  One store per runtime; attaching the same store
        again is a no-op.
        """
        from repro.store import StoreSchedulerHooks

        hooks = self.scheduler.hooks
        if isinstance(hooks, StoreSchedulerHooks) and hooks.store is store:
            return
        if hooks is not None:
            raise RuntimeError("this runtime already has scheduler hooks")
        self.scheduler.hooks = StoreSchedulerHooks(store)

    # ------------------------------------------------------------------
    # convenience statistics
    # ------------------------------------------------------------------
    def num_tasks(self) -> int:
        """Pending (not yet run) task count."""
        return self.graph.num_tasks

    def reset_graph(self) -> None:
        """Discard pending tasks while keeping registered data.

        The scheduler is *not* rebuilt — it is constructed once per
        runtime and shared by every run.
        """
        self.graph = TaskGraph()

    def close(self) -> None:
        """Release executor resources.

        Only the process mode holds any (its worker pool, which is
        otherwise reclaimed when the runtime is garbage collected);
        ``close()`` is idempotent and the runtime remains usable — the
        next process-mode run starts a fresh pool.
        """
        self.scheduler.close()
