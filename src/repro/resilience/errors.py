"""Typed failure taxonomy of the resilience layer.

Every layer of the stack surfaces *permanent* failures through one of
the exception types here, each carrying enough context (task name/tag,
tile coordinates, queue depths) to diagnose a multi-hour run post
mortem without re-running it:

``TaskGroupError``
    Aggregate failure of a task-graph drain: **every** failed task is
    reported (name, uid, tag, retries taken, underlying error), along
    with which tasks completed and which never ran — replacing the
    historical behaviour of re-raising an arbitrary first failure.
``TaskGraphCycleError``
    A task graph has a dependency cycle, so no execution order exists.
``WorkerCrashError``
    A process-backend worker died mid-task (killed, OOM'd, crashed).
    *Transient*: the coordinator respawns the worker and retries the
    task under the configured retry policy.
``RemoteTaskError``
    A worker-side exception that could not be pickled back verbatim;
    carries the original type name, message, traceback text and
    ``transient`` marker.
``StoreCorruptionError``
    A spill slot failed its integrity check on reload: truncated
    segment, checksum mismatch, or unreadable file — named by matrix,
    tile coordinates, precision and segment path.
``ServiceOverloadedError``
    Admission control shed a request because the serve queue is full.
``DeadlineExceededError``
    A serve request's deadline expired before (or while) it was queued.

Transient faults — injected or real — are modelled by
``InjectedFault`` / ``InjectedIOError`` plus the :func:`is_transient`
predicate the retry machinery consults.  This module is deliberately a
leaf: stdlib-only, importable from every layer without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "InjectedFault",
    "InjectedIOError",
    "TaskFailure",
    "TaskGraphCycleError",
    "TaskGroupError",
    "WorkerCrashError",
    "RemoteTaskError",
    "StoreCorruptionError",
    "ServiceOverloadedError",
    "DeadlineExceededError",
    "is_transient",
]


class InjectedFault(RuntimeError):
    """A fault raised by a :class:`~repro.resilience.faults.FaultPlan` site."""

    def __init__(self, site: str, key: object = None,
                 transient: bool = True) -> None:
        self.site = site
        self.key = key
        self.transient = transient
        flavor = "transient" if transient else "permanent"
        super().__init__(
            f"injected {flavor} fault at site {site!r}"
            + (f" (key={key!r})" if key is not None else ""))

    def __reduce__(self):
        # Default exception pickling re-calls __init__ with the message
        # string, which would reset `transient` to True; process-backend
        # workers ship these over a pipe, so preserve the real fields.
        return (InjectedFault, (self.site, self.key, self.transient))


class InjectedIOError(OSError):
    """An injected I/O fault (``kind="oserror"`` sites)."""

    def __init__(self, site: str, key: object = None) -> None:
        self.site = site
        self.key = key
        self.transient = True
        super().__init__(
            f"injected I/O fault at site {site!r}"
            + (f" (key={key!r})" if key is not None else ""))

    def __reduce__(self):
        return (InjectedIOError, (self.site, self.key))


def is_transient(exc: BaseException) -> bool:
    """Is ``exc`` worth retrying?

    Transient means: an explicitly transient injected fault, a plain
    I/O error (the classic supercomputer filesystem hiccup), or an
    aggregate whose every member is itself transient.  Typed permanent
    failures (``StoreCorruptionError``, numerical errors) are *not*
    transient — retrying them re-fails.
    """
    marker = getattr(exc, "transient", None)
    if marker is not None:
        return bool(marker)
    return isinstance(exc, OSError)


class TaskGraphCycleError(RuntimeError):
    """A task graph has a dependency cycle: it cannot be ordered or drained."""


class WorkerCrashError(RuntimeError):
    """A process-backend worker died while executing a task.

    A dead worker is a *transient* fault in this taxonomy — the
    machine-level analogue of a filesystem hiccup: the coordinator
    respawns the worker process and retries the task elsewhere, and
    only repeated crashes surface as a permanent
    :class:`TaskGroupError`.
    """

    transient = True

    def __init__(self, worker_id: int, task_name: str = "?",
                 task_uid: object = None, exitcode: object = None) -> None:
        self.worker_id = worker_id
        self.task_name = task_name
        self.task_uid = task_uid
        self.exitcode = exitcode
        super().__init__(
            f"worker {worker_id} died while executing task "
            f"{task_name!r}#{task_uid}"
            + (f" (exitcode={exitcode})" if exitcode is not None else ""))

    def __reduce__(self):
        return (WorkerCrashError, (self.worker_id, self.task_name,
                                   self.task_uid, self.exitcode))


class RemoteTaskError(RuntimeError):
    """A worker exception that could not be shipped back verbatim.

    Preserves the pieces diagnosis needs — original type name, message,
    remote traceback text — and the ``transient`` marker so the retry
    machinery classifies it exactly as the worker would have.
    """

    def __init__(self, original_type: str, message: str,
                 transient: bool = False, remote_traceback: str = "") -> None:
        self.original_type = original_type
        self.message = message
        self.transient = transient
        self.remote_traceback = remote_traceback
        super().__init__(f"{original_type}: {message}")

    def __reduce__(self):
        return (RemoteTaskError, (self.original_type, self.message,
                                  self.transient, self.remote_traceback))


@dataclass(frozen=True)
class TaskFailure:
    """One failed task inside a :class:`TaskGroupError`."""

    task: object
    error: BaseException
    retries: int = 0

    def describe(self) -> str:
        task = self.task
        name = getattr(task, "name", "?")
        uid = getattr(task, "uid", "?")
        tag = getattr(task, "tag", None)
        suffix = f" after {self.retries} retr" + (
            "y" if self.retries == 1 else "ies") if self.retries else ""
        return (f"task {name!r}#{uid} (tag={tag!r}){suffix}: "
                f"{type(self.error).__name__}: {self.error}")


class TaskGroupError(RuntimeError):
    """Aggregate failure of a task-graph drain.

    Attributes
    ----------
    failures:
        One :class:`TaskFailure` per failed task (name, uid, tag, the
        retries taken and the underlying exception) — *all* of them,
        not just whichever thread lost the race.
    completed:
        Tasks that finished successfully before the drain ended; their
        results are valid and their events are in :attr:`trace`.
    unfinished:
        Failed tasks plus every task left blocked or never started, in
        insertion order.
    trace:
        The partial :class:`~repro.runtime.trace.ExecutionTrace` of the
        completed tasks.
    """

    _LISTED = 8

    def __init__(self, failures, completed=(), unfinished=(),
                 trace=None) -> None:
        self.failures = tuple(failures)
        self.completed = tuple(completed)
        self.unfinished = tuple(unfinished)
        self.trace = trace
        lines = [f.describe() for f in self.failures[:self._LISTED]]
        more = len(self.failures) - self._LISTED
        if more > 0:
            lines.append(f"... and {more} more")
        total = len(self.completed) + len(self.unfinished)
        super().__init__(
            f"{len(self.failures)} of {total} task(s) failed "
            f"({len(self.completed)} completed, "
            f"{len(self.unfinished)} unfinished):\n  " + "\n  ".join(lines))
        if self.failures:
            self.__cause__ = self.failures[0].error

    def matches(self, exc_type) -> bool:
        """True when every failure is an instance of ``exc_type``."""
        return bool(self.failures) and all(
            isinstance(f.error, exc_type) for f in self.failures)

    @property
    def transient(self) -> bool:
        """True when every underlying failure is transient."""
        return bool(self.failures) and all(
            is_transient(f.error) for f in self.failures)


class StoreCorruptionError(RuntimeError):
    """A spill slot failed its integrity check on reload.

    Carries the tile's identity (matrix descriptor, grid coordinates,
    storage precision) and the segment location so corruption reports
    name *what* was lost, not just that a reshape crashed.
    """

    def __init__(self, matrix: str, coords: tuple[int, int],
                 precision: object, path: object, reason: str) -> None:
        self.matrix = matrix
        self.coords = coords
        self.precision = precision
        self.path = path
        self.reason = reason
        super().__init__(
            f"corrupted spill slot for tile {coords} of {matrix} "
            f"(precision={getattr(precision, 'value', precision)}, "
            f"segment={path}): {reason}")


class ServiceOverloadedError(RuntimeError):
    """Admission control shed a request: the serve queue is full."""

    def __init__(self, queue_depth: int, max_queue_depth: int) -> None:
        self.queue_depth = queue_depth
        self.max_queue_depth = max_queue_depth
        super().__init__(
            f"serve queue is full ({queue_depth} pending requests, "
            f"max_queue_depth={max_queue_depth}); request shed")


class DeadlineExceededError(TimeoutError):
    """A serve request's deadline expired before it was executed."""

    #: ``TimeoutError`` is an ``OSError`` (hence transient by default);
    #: an expired deadline is permanent — the caller already gave up.
    transient = False

    def __init__(self, deadline_s: float, waited_s: float) -> None:
        self.deadline_s = deadline_s
        self.waited_s = waited_s
        super().__init__(
            f"request deadline of {deadline_s:.3f}s expired after "
            f"{waited_s:.3f}s in queue; request was never dispatched")
