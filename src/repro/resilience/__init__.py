"""repro.resilience: deterministic fault injection and fault tolerance.

The failure model for the whole stack lives here: a seeded
:class:`FaultPlan` drives named injection sites threaded through the
runtime, the tile store and the serving dispatcher; a
:class:`RetryPolicy` paces re-execution of transiently failed (pure)
task bodies; and the typed error taxonomy (:class:`TaskGroupError`,
:class:`StoreCorruptionError`, :class:`ServiceOverloadedError`, ...)
carries task/tile/request context on every permanent failure.

See the "Failure model & recovery" section of ``docs/architecture.md``.
"""

from repro.resilience.errors import (
    DeadlineExceededError,
    InjectedFault,
    InjectedIOError,
    RemoteTaskError,
    ServiceOverloadedError,
    StoreCorruptionError,
    TaskFailure,
    TaskGraphCycleError,
    TaskGroupError,
    WorkerCrashError,
    is_transient,
)
from repro.resilience.faults import (
    SITE_CORRUPT_READ,
    SITE_SEGMENT_READ,
    SITE_SEGMENT_WRITE,
    SITE_SERVE_DISPATCH,
    SITE_SLOW_READ,
    SITE_TASK_BODY,
    SITE_WORKER_KILL,
    FaultPlan,
    FaultSite,
    active_plan,
    clear_plan,
    fault_plan,
    inject,
    install_plan,
    no_faults,
    parse_faults,
    reset_child_state,
)
from repro.resilience.retry import RetryPolicy

__all__ = [
    "DeadlineExceededError",
    "InjectedFault",
    "InjectedIOError",
    "RemoteTaskError",
    "ServiceOverloadedError",
    "StoreCorruptionError",
    "TaskFailure",
    "TaskGraphCycleError",
    "TaskGroupError",
    "WorkerCrashError",
    "is_transient",
    "SITE_CORRUPT_READ",
    "SITE_SEGMENT_READ",
    "SITE_SEGMENT_WRITE",
    "SITE_SERVE_DISPATCH",
    "SITE_SLOW_READ",
    "SITE_TASK_BODY",
    "SITE_WORKER_KILL",
    "FaultPlan",
    "FaultSite",
    "RetryPolicy",
    "active_plan",
    "clear_plan",
    "fault_plan",
    "inject",
    "install_plan",
    "no_faults",
    "parse_faults",
    "reset_child_state",
]
