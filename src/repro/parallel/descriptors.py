"""The task descriptors the library's insertion sites emit, in one place.

A descriptor is a small frozen dataclass naming a kernel and its scalar
parameters; its ``run`` is the only definition of that kernel's
arithmetic, and every execution mode runs it — the serial and threaded
lanes inline (:meth:`repro.runtime.task.Task.execute`), the process
lane on a worker.  Each descriptor lives next to the kernel it
wraps (it imports that kernel at module level); this module only
gathers them for the process backend, whose wire format they are:
:data:`ALL_SPEC_KINDS` is what the pickle round-trip test covers.

How a task's inputs reach its kernel is described by
:class:`~repro.runtime.task.TaskSpec` (``mode`` / ``aux`` /
``on_complete``).  The process coordinator resolves it at dispatch:
handle payloads and :class:`TileInput` tiles (faulted in through the
store after the dispatch hook pinned them) are published to the
exchange, a tile cached per ``(matrix, coords)`` until a writeback
invalidates it, an :class:`ObjectInput` once per drain.  A worker
keeps no state between tasks beyond its exchange: a descriptor's
result depends only on its inputs and its scalar parameters.
"""

from repro.distance.build import BuildRowSpec, PredictGroupSpec
from repro.linalg.cg import CgMatvecSpec
from repro.linalg.kernels import (
    GemmTrailSpec,
    PotrfSpec,
    SyrkSpec,
    TrsmSpec,
)
from repro.linalg.solve import SolveGemmSpec, SolveTrsmSpec
from repro.runtime.task import BodySpec, ObjectInput, TaskSpec, TileInput

__all__ = [
    "ALL_SPEC_KINDS",
    "BodySpec",
    "BuildRowSpec",
    "CgMatvecSpec",
    "GemmTrailSpec",
    "ObjectInput",
    "PotrfSpec",
    "PredictGroupSpec",
    "SolveGemmSpec",
    "SolveTrsmSpec",
    "SyrkSpec",
    "TaskSpec",
    "TileInput",
    "TrsmSpec",
]

#: Every descriptor kind the insertion sites emit — the pickle
#: round-trip test asserts coverage against this tuple.
ALL_SPEC_KINDS = (
    PotrfSpec,
    TrsmSpec,
    SyrkSpec,
    GemmTrailSpec,
    SolveGemmSpec,
    SolveTrsmSpec,
    BuildRowSpec,
    PredictGroupSpec,
    CgMatvecSpec,
)
