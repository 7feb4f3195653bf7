"""A PaRSEC-like dynamic task runtime (pure Python).

The paper's GWAS software is written on top of PaRSEC: every tile
operation (distance SYRK, kernel exponentiation, POTRF, TRSM, GEMM,
precision conversion) is a *task*, tasks are connected by dataflow
dependencies into a DAG, and the runtime schedules them over GPUs
while deciding where precision conversions happen (sender vs receiver)
to minimize the bytes moved.

This package reproduces those semantics:

``DataHandle`` / ``Task`` / ``TaskGraph``
    Dataflow description — tasks declare read/write accesses on named
    data handles; the graph derives dependencies from access order.
``Scheduler`` / ``Runtime``
    The execution engine.  One drain per run owns the ready heap,
    hooks, retries, trace and aggregate error; the execution mode only
    picks the lane a task's kernel runs on — the caller's thread
    (``"serial"``), a pool of host threads (``"threaded"``, the
    default) or worker OS processes (``"process"``).  The runtime is
    session-long: each ``run(phase=...)`` drains the tasks inserted
    since the last one and folds what it executed into
    ``Runtime.ledger[phase]`` (:class:`PhaseTotals`), the one operation
    tally the solver sessions' flop accounting reads.
``replay`` with ``Device`` / ``DeviceModel`` / ``CommunicationEngine``
    The accelerator side, as a model: :func:`replay` times any graph —
    drained or never run — on devices with per-precision throughput
    and link bandwidth, and keeps the byte ledger of tile transfers
    under the conversion-at-sender / conversion-at-receiver policy of
    Sec. VI-B1.  The numerics themselves always execute exactly, in
    Python, on the host.
"""

from repro.runtime.task import AccessMode, DataHandle, Task
from repro.runtime.dag import TaskGraph
from repro.runtime.device import Device, DeviceModel
from repro.runtime.comm import CommunicationEngine, ConversionPolicy, TransferRecord
from repro.runtime.trace import ExecutionTrace, PhaseTotals, TaskEvent
from repro.runtime.scheduler import (
    EXECUTION_MODES,
    Scheduler,
    ScheduleResult,
    SchedulerError,
)
from repro.runtime.runtime import Runtime
from repro.runtime.replay import replay
from repro.resilience.errors import TaskFailure, TaskGroupError
from repro.resilience.retry import RetryPolicy

__all__ = [
    "AccessMode",
    "DataHandle",
    "Task",
    "TaskGraph",
    "Device",
    "DeviceModel",
    "CommunicationEngine",
    "ConversionPolicy",
    "TransferRecord",
    "ExecutionTrace",
    "PhaseTotals",
    "TaskEvent",
    "EXECUTION_MODES",
    "Scheduler",
    "ScheduleResult",
    "SchedulerError",
    "Runtime",
    "replay",
    "TaskFailure",
    "TaskGroupError",
    "RetryPolicy",
]
