"""Execution traces, timers and the per-phase operation ledger.

The paper's measurements come from runtime timers and flop counters
("Measurement mechanism: Timers, Flops").  The trace collected by the
scheduler records, for every task, the lane it ran on, its wall-clock
start/end times (modelled ones in a :func:`~repro.runtime.replay.replay`)
and its operation count, from which we derive the
throughput, per-device utilization, and Gantt-style summaries used by
tests and benchmarks.

A trace lives on the ``ScheduleResult`` of the drain that produced it.
What outlives the drain is its fold into a :class:`PhaseTotals` of
``Runtime.ledger`` — the library's only operation tally; every other
count (``phase_flops``, ``RRSession.flops_``, ...) is a read of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.precision.formats import Precision


@dataclass(frozen=True)
class TaskEvent:
    """One task execution in a (wall-clock or replayed) schedule."""

    task_name: str
    task_uid: int
    device: int
    start: float
    end: float
    flops: float
    precision: Precision
    tag: object = None
    #: optional per-precision split of ``flops`` (see ``Task.flops_detail``)
    flops_detail: object = None
    #: transient-fault re-executions this task needed before succeeding
    retries: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class PhaseTotals:
    """What the drains of one phase executed: one ``Runtime.ledger`` entry.

    Constant-size however many drains are folded in — the counters a
    long-lived runtime keeps instead of its events.
    """

    #: executed task count by task name
    tasks: dict[str, int] = field(default_factory=dict)
    flops: float = 0.0
    #: ``flops`` split by compute precision (``flops_detail`` honoured)
    flops_by_precision: dict[Precision, float] = field(default_factory=dict)
    #: transient-fault re-executions spent
    retries: int = 0

    def fold(self, events) -> None:
        """Add ``events`` (an iterable of :class:`TaskEvent`), in order."""
        tasks = self.tasks
        for e in events:
            tasks[e.task_name] = tasks.get(e.task_name, 0) + 1
            self.retries += e.retries
            self.add_flops(e.flops, e.flops_detail or {e.precision: e.flops})

    def add_flops(self, flops: float, flops_detail: dict) -> None:
        """Add ``flops`` operations, split by precision as ``flops_detail``."""
        self.flops += flops
        for prec, fl in flops_detail.items():
            self.flops_by_precision[prec] = (
                self.flops_by_precision.get(prec, 0.0) + fl)


def ledger_by_precision(ledger: dict[str, PhaseTotals]) -> dict[Precision, float]:
    """Per-precision operation count of a ledger, summed over its phases."""
    out: dict[Precision, float] = {}
    for totals in ledger.values():
        for prec, fl in totals.flops_by_precision.items():
            out[prec] = out.get(prec, 0.0) + fl
    return out


@dataclass
class ExecutionTrace:
    """Ordered collection of :class:`TaskEvent` plus derived statistics."""

    events: list[TaskEvent] = field(default_factory=list)

    def record(self, task, device: int, start: float, end: float,
               retries: int = 0) -> None:
        """Append the event of ``task`` having run on ``device``."""
        self.events.append(TaskEvent(
            task_name=task.name, task_uid=task.uid, device=device,
            start=start, end=end, flops=task.flops,
            precision=task.precision, tag=task.tag,
            flops_detail=task.flops_detail, retries=retries,
        ))

    # ------------------------------------------------------------------
    @property
    def makespan(self) -> float:
        """End time of the last task (seconds)."""
        return max((e.end for e in self.events), default=0.0)

    @property
    def total_flops(self) -> float:
        return sum(e.flops for e in self.events)

    @property
    def num_tasks(self) -> int:
        return len(self.events)

    def throughput(self) -> float:
        """Aggregate op/s over the schedule (the paper's "mixed-precision op/s")."""
        span = self.makespan
        return self.total_flops / span if span > 0 else 0.0

    def flops_by_precision(self) -> dict[Precision, float]:
        totals = PhaseTotals()
        totals.fold(self.events)
        return totals.flops_by_precision

    def busy_time_by_device(self) -> dict[int, float]:
        out: dict[int, float] = {}
        for e in self.events:
            out[e.device] = out.get(e.device, 0.0) + e.duration
        return out

    def utilization_by_device(self) -> dict[int, float]:
        span = self.makespan
        if span <= 0:
            return {}
        return {d: min(t / span, 1.0) for d, t in self.busy_time_by_device().items()}

    def mean_utilization(self) -> float:
        utils = self.utilization_by_device()
        return sum(utils.values()) / len(utils) if utils else 0.0

    def summary(self) -> dict[str, float]:
        """Headline metrics used by tests and reports."""
        return {
            "makespan": self.makespan,
            "total_flops": self.total_flops,
            "throughput": self.throughput(),
            "num_tasks": float(self.num_tasks),
            "mean_utilization": self.mean_utilization(),
        }
