"""Task DAG construction from dataflow access declarations.

The :class:`TaskGraph` accumulates tasks in insertion order and derives
edges from per-handle access history, exactly like a superscalar /
dataflow runtime:

* read-after-write  → true dependency,
* write-after-read  → anti dependency,
* write-after-write → output dependency.

The adjacency is two plain dicts, ``pred`` and ``succ``, each mapping a
task to ``{neighbour: edge kind}`` in insertion order.  Nothing in the
graph refers back to the graph, so a drained one is freed the moment the
runtime lets go of it, and with it every operand its tasks' descriptors
hold - a serving session would otherwise keep one cross-kernel block per
request until the cyclic collector runs.
"""

from __future__ import annotations

import heapq
from collections import defaultdict

from repro.resilience.errors import TaskGraphCycleError
from repro.runtime.task import AccessMode, DataHandle, Task


class TaskGraph:
    """Directed acyclic graph of :class:`~repro.runtime.task.Task`."""

    def __init__(self) -> None:
        #: task -> {predecessor / successor: "RAW" | "WAR" | "WAW"}
        self.pred: dict[Task, dict[Task, str]] = {}
        self.succ: dict[Task, dict[Task, str]] = {}
        self._tasks: list[Task] = []
        # per-handle access history used to derive dependencies
        self._last_writer: dict[DataHandle, Task] = {}
        self._readers_since_write: dict[DataHandle, list[Task]] = defaultdict(list)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _add_edge(self, before: Task, after: Task, kind: str) -> None:
        self.succ[before][after] = self.pred[after][before] = kind

    def add_task(self, task: Task) -> Task:
        """Insert a task, deriving dependency edges from its accesses."""
        self.pred.setdefault(task, {})
        self.succ.setdefault(task, {})
        self._tasks.append(task)
        for handle, mode in task.accesses:
            if mode.reads:
                writer = self._last_writer.get(handle)
                if writer is not None and writer is not task:
                    self._add_edge(writer, task, "RAW")
            if mode.writes:
                # order after previous readers (WAR) and the previous writer (WAW)
                for reader in self._readers_since_write.get(handle, []):
                    if reader is not task:
                        self._add_edge(reader, task, "WAR")
                writer = self._last_writer.get(handle)
                if writer is not None and writer is not task:
                    self._add_edge(writer, task, "WAW")
        # update history after edges are derived
        for handle, mode in task.accesses:
            if mode.writes:
                self._last_writer[handle] = task
                self._readers_since_write[handle] = []
            if mode.reads:
                self._readers_since_write[handle].append(task)
        return task

    def insert_task(self, name: str, *accesses, flops: float = 0.0,
                    precision=None, priority: int = 0, tag=None,
                    flops_detail=None, tile_deps=(), spec=None) -> Task:
        """PaRSEC-style convenience wrapper around :meth:`add_task`.

        ``accesses`` is a flat sequence of ``(handle, mode)`` pairs.
        """
        from repro.precision.formats import Precision

        task = Task(
            name=name,
            accesses=tuple(accesses),
            flops=flops,
            precision=precision or Precision.FP64,
            priority=priority,
            tag=tag,
            flops_detail=flops_detail,
            tile_deps=tuple(tile_deps),
            spec=spec,
        )
        return self.add_task(task)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def tasks(self) -> list[Task]:
        return list(self._tasks)

    @property
    def num_tasks(self) -> int:
        return len(self._tasks)

    @property
    def num_edges(self) -> int:
        return sum(len(after) for after in self.succ.values())

    def predecessors(self, task: Task) -> list[Task]:
        return list(self.pred[task])

    def successors(self, task: Task) -> list[Task]:
        return list(self.succ[task])

    def _kahn(self, by_priority: bool = False) -> list[Task]:
        """Tasks in dependency order, the earliest-inserted ready task first
        (the highest-priority one with ``by_priority``, ties by insertion).

        Shorter than :attr:`num_tasks` exactly when the graph has a cycle.
        """
        tasks = self._tasks
        if by_priority:  # a stable sort keeps insertion order within a priority
            tasks = sorted(tasks, key=lambda t: -t.priority)
        rank = {t: i for i, t in enumerate(tasks)}
        pred, succ = self.pred, self.succ
        indegree = {t: len(pred[t]) for t in tasks}
        ready = [i for t, i in rank.items() if indegree[t] == 0]  # sorted
        order: list[Task] = []
        while ready:
            task = tasks[heapq.heappop(ready)]
            order.append(task)
            for nxt in succ[task]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    heapq.heappush(ready, rank[nxt])
        return order

    def is_acyclic(self) -> bool:
        return len(self._kahn()) == len(self._tasks)

    def topological_order(self, by_priority: bool = False) -> list[Task]:
        """A valid execution order (insertion-order stable where possible).

        With ``by_priority`` it is the order a one-lane drain pops tasks
        in: larger ``Task.priority`` first among the ready ones.
        """
        order = self._kahn(by_priority)
        if len(order) != len(self._tasks):
            raise TaskGraphCycleError("task graph contains a cycle")
        return order

    def total_flops(self) -> float:
        return float(sum(t.flops for t in self._tasks))

    def __len__(self) -> int:
        return self.num_tasks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TaskGraph({self.num_tasks} tasks, {self.num_edges} edges)"
