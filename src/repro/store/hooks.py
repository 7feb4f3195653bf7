"""Scheduler ↔ store integration: the eviction plan and pinning.

The out-of-order executors (:class:`~repro.runtime.scheduler.Scheduler`)
expose one hook per drain and two lifecycle hooks per task;
``StoreSchedulerHooks`` maps them onto the store's residency protocol:

``drain_begin``
    A drain starts.  ``TaskGraph.topological_order(by_priority=True)``
    is the order a one-lane drain pops its tasks in, so the tiles each
    task declares give every tile its **use positions** in that order:
    the store's eviction plan.  Until the drain's last dispatch the
    victim is the unpinned tile whose next use is farthest (Belady's
    choice, exact on one lane, an approximation on several) instead of
    the least recently used one.

``task_dispatch``
    A worker picked the task: the plan's "now" moves to the first
    position not dispatched yet.  Its declared input/output tiles
    (``Task.tile_deps``) are **pinned**: eviction will not select them
    while the task runs, so an in-flight task can never have a tile
    evicted under it.  Pinning at dispatch (rather than at
    ready) keeps the pinned set bounded by the worker count — with a
    wide trailing update, hundreds of GEMMs may be ready at once, and
    pinning all of their tiles would wedge the budget.

``task_complete``
    The pins are released (also on task failure); the tiles become
    ordinary eviction candidates again.

Correctness never depends on these hooks: a task that reads an evicted
tile faults it back in bitwise, on demand, on its own lane.  The hooks
exist to choose what leaves (the plan) and to keep the working set
resident (pins); no tile is read ahead, so a one-lane drain makes the
same spills and reloads on every run.
"""

from __future__ import annotations

from repro.store.store import TileStore

__all__ = ["StoreSchedulerHooks"]


class StoreSchedulerHooks:
    """Bridge from scheduler task lifecycle events to a ``TileStore``."""

    def __init__(self, store: TileStore) -> None:
        self.store = store
        #: task uid -> position in the running drain's order
        self._position: dict[int, int] = {}

    def drain_begin(self, graph) -> None:
        order = graph.topological_order(by_priority=True)
        uses: dict = {}
        for at, task in enumerate(order):
            for binding, key in getattr(task, "tile_deps", ()):
                if binding.store is self.store:
                    uses.setdefault((binding.bid, key), []).append(at)
        # a drain that declares no tile of this store keeps plain LRU
        self._position = ({task.uid: at for at, task in enumerate(order)}
                          if uses else {})
        self.store.set_plan(uses, len(order))

    def task_dispatch(self, task) -> None:
        deps = getattr(task, "tile_deps", ())
        position = self._position.get(task.uid)
        if deps or position is not None:
            self.store.pin(deps, position)

    def task_complete(self, task) -> None:
        deps = getattr(task, "tile_deps", ())
        if deps:
            self.store.unpin(deps)
