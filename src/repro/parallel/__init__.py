"""Process-parallel (GIL-free) execution backend.

``repro.parallel`` turns the task runtime's DAG drain into a
coordinator/worker architecture over OS processes, selected via
``Scheduler(execution="process")`` / ``KRRConfig(execution="process")``
/ ``REPRO_EXECUTION=process``:

* the **coordinator** (the caller's process) keeps the task graph,
  dependency tracking, store plan/pin hooks and trace accounting,
  and ships only picklable *task descriptors* plus payload references
  over a pipe;
* **workers** execute task bodies GIL-free and exchange tile payloads
  through mmap'd segment files — the same native-precision byte format
  the out-of-core store spills (bitwise-exact from FP64 down to the
  1-byte FP8 codes).

Execution is bitwise identical to ``execution="serial"`` for any
worker count: every ordering constraint is an explicit dependency
edge, task bodies are pure, and the exchange codec round-trips each
payload exactly.  Worker crashes are transient faults in the
PR-6 resilience taxonomy: the coordinator respawns the worker and
retries the task under the configured
:class:`~repro.resilience.retry.RetryPolicy`, folding permanent
failures into :class:`~repro.resilience.errors.TaskGroupError`.
"""

from repro.parallel.descriptors import (
    ALL_SPEC_KINDS,
    BodySpec,
    BuildRowSpec,
    GemmTrailSpec,
    ObjectInput,
    PotrfSpec,
    SolveGemmSpec,
    SolveTrsmSpec,
    SyrkSpec,
    TaskSpec,
    TileInput,
    TrsmSpec,
)
from repro.parallel.exchange import ExchangeSpec, PayloadRef, TileExchange
from repro.parallel.pool import ProcessPool
from repro.settings import effective_cpu_count

__all__ = [
    "ALL_SPEC_KINDS",
    "BodySpec",
    "BuildRowSpec",
    "ExchangeSpec",
    "GemmTrailSpec",
    "ObjectInput",
    "PayloadRef",
    "PotrfSpec",
    "ProcessPool",
    "SolveGemmSpec",
    "SolveTrsmSpec",
    "SyrkSpec",
    "TaskSpec",
    "TileExchange",
    "TileInput",
    "TrsmSpec",
    "effective_cpu_count",
]
