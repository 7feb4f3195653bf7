"""Tasks and data handles for the dataflow runtime.

A :class:`Task` is a unit of work operating on named :class:`DataHandle`
objects with declared access modes (READ / WRITE / READWRITE), exactly
like PaRSEC's / StarPU's task insertion interface.  Dependencies are
*derived* from the access declarations:

* a READ after a WRITE on the same handle depends on that WRITE,
* a WRITE after any previous access depends on all of them
  (write-after-read and write-after-write ordering).

What a task *does* is its :class:`TaskSpec`: a picklable kernel
descriptor plus a description of where its inputs come from and where
its outputs go, which every execution mode runs (inline here, shipped
to a worker by the process backend).  A task without one only orders
its accesses and runs nothing.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.precision.formats import Precision


class AccessMode(enum.Enum):
    """Data access declaration of a task parameter."""

    READ = "R"
    WRITE = "W"
    READWRITE = "RW"

    # identity tests: called several times per task, in add_task and execute
    @property
    def reads(self) -> bool:
        return self is not AccessMode.WRITE

    @property
    def writes(self) -> bool:
        return self is not AccessMode.READ


_handle_counter = itertools.count()


@dataclass(eq=False)
class DataHandle:
    """A named piece of data tracked by the runtime.

    In the GWAS application each handle is one matrix tile.  The handle
    records the data's current storage precision and nominal size so the
    communication engine can account for bytes moved and for the
    sender/receiver conversion decision.
    """

    name: str
    shape: tuple[int, ...] = ()
    precision: Precision = Precision.FP64
    payload: Any = None
    home_device: int = 0
    uid: int = field(default_factory=lambda: next(_handle_counter))

    def nbytes(self, precision: Precision | None = None) -> int:
        """Size of this datum in ``precision`` (default: current precision)."""
        p = precision or self.precision
        n = 1
        for d in self.shape:
            n *= int(d)
        return n * p.bytes_per_element

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DataHandle({self.name!r}, {self.shape}, {self.precision})"


# ----------------------------------------------------------------------
# descriptors: what a task runs, in every execution mode
# ----------------------------------------------------------------------
class BodySpec:
    """Base class of picklable kernels (``run(*inputs)``).

    A subclass is a frozen dataclass of scalar parameters; its ``run``
    is the one place that kernel's arithmetic lives.
    """

    def run(self, *args):  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True)
class TileInput:
    """One tile argument, faulted in via ``matrix.get_tile(*coords)``.

    ``writeback=True`` marks the tile the task's ``on_complete``
    rewrites; the process coordinator drops its published copy when the
    task completes so later readers republish the fresh value.
    """

    matrix: object
    coords: tuple
    writeback: bool = False


@dataclass(frozen=True)
class ObjectInput:
    """An arbitrary argument; the process backend publishes it once per
    drain under ``key``."""

    obj: object
    key: str


@dataclass(frozen=True)
class TaskSpec:
    """A task's kernel plus where its inputs come from and outputs go.

    ``mode`` selects the kernel's arguments: ``"handles"`` — the access
    list's payloads in declaration order; ``"aux"`` — the ``aux``
    entries only (store-backed Cholesky: the handles are empty sync
    tokens, the tiles live in the out-of-core store); ``"both"`` —
    payloads first, then the aux entries (triangular solve: row-block
    payloads plus the factor tile).  Outputs go to ``on_complete`` when
    given (store-backed paths write tiles back through the store),
    otherwise to the written handles in declaration order.

    Only ``kernel`` ever crosses a process boundary; the rest is
    resolved where the task graph lives — by :meth:`Task.execute`
    inline, by :mod:`repro.parallel.executor` across the pipe.
    """

    kernel: BodySpec
    mode: str = "handles"  #: "handles" | "aux" | "both"
    aux: tuple = ()
    on_complete: Callable[..., None] | None = None


_task_counter = itertools.count()


@dataclass(eq=False)
class Task:
    """One node of the task DAG.

    Parameters
    ----------
    name:
        Kernel name, e.g. ``"potrf"``, ``"gemm"``, ``"build_tile"``.
    accesses:
        Sequence of ``(handle, mode)`` pairs.
    flops:
        Operation count attributed to the task (for the performance
        model / trace).
    precision:
        Compute precision class of the task (used to pick the device
        throughput and by the conversion engine to know what precision
        the task requires its inputs in).
    priority:
        Larger runs earlier among ready tasks (the tiled Cholesky gives
        panel tasks higher priority, mirroring PaRSEC's priority hints).
    tag:
        Free-form metadata (tile coordinates etc.).
    flops_detail:
        Optional per-precision split of ``flops`` for tasks whose work
        spans more than one compute precision (e.g. a Build row task
        mixing the INT8 SNP Gram with the FP32 confounder Gram).  When
        given, trace-level precision accounting uses this split instead
        of attributing everything to ``precision``.
    tile_deps:
        Tiles of store-backed matrices this task touches, declared as
        ``(binding, (i, j))`` pairs.  The scheduler's store hooks plan
        evictions from them, pin them at dispatch (no eviction under an
        in-flight task) and release them on completion.  Empty for
        tasks that only operate on handle payloads.
    spec:
        The task's :class:`TaskSpec` descriptor.  The serial and
        threaded lanes run it inline (:meth:`execute`); the process
        lane ships its kernel to a worker.  ``None``: the task runs
        nothing.
    """

    name: str
    accesses: tuple[tuple[DataHandle, AccessMode], ...]
    flops: float = 0.0
    precision: Precision = Precision.FP64
    priority: int = 0
    tag: Any = None
    flops_detail: dict[Precision, float] | None = None
    tile_deps: tuple = ()
    spec: TaskSpec | None = None
    uid: int = field(default_factory=lambda: next(_task_counter))

    def __post_init__(self) -> None:
        self.accesses = tuple(
            (h, m if isinstance(m, AccessMode) else AccessMode(m))
            for h, m in self.accesses
        )

    # ------------------------------------------------------------------
    @property
    def reads(self) -> tuple[DataHandle, ...]:
        return tuple(h for h, m in self.accesses if m.reads)

    @property
    def writes(self) -> tuple[DataHandle, ...]:
        return tuple(h for h, m in self.accesses if m.writes)

    def execute(self) -> None:
        """Run the task's descriptor in this process."""
        spec = self.spec
        if spec is None:
            return
        args = []
        if spec.mode != "aux":
            args += [h.payload for h, _ in self.accesses]
        if spec.mode != "handles":
            args += [entry.obj if isinstance(entry, ObjectInput)
                     else entry.matrix.get_tile(*entry.coords)
                     for entry in spec.aux]
        result = spec.kernel.run(*args)
        if not isinstance(result, tuple):
            result = (result,)
        if spec.on_complete is not None:
            spec.on_complete(*result)
            return
        written = [h for h, m in self.accesses if m.writes]
        if len(result) != len(written):
            raise RuntimeError(
                f"task {self.name!r} returned {len(result)} outputs for "
                f"{len(written)} written handles"
            )
        for handle, value in zip(written, result):
            handle.payload = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Task({self.name!r}#{self.uid}, tag={self.tag})"
