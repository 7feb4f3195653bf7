"""repro.store — out-of-core tile storage with budgeted residency.

The paper's 305k-patient runs work because the kernel matrix is a
precision-adapted tile mosaic — and past a point the *mosaic itself*
no longer fits in memory.  This package breaks that ceiling:

* :class:`TileStore` backs any :class:`~repro.tiles.matrix.TileMatrix`
  with native-precision spill segments on disk (bitwise round-trips);
* :class:`~repro.store.stats.ResidencyManager` enforces a byte budget
  with pin/unpin refcounts, evicting by farthest next use inside a
  drain (the drain's own order is the plan) and by LRU outside one;
* :class:`StoreSchedulerHooks` wires the task runtime in: the drain's
  order becomes the eviction plan, a task's tiles are pinned while it
  runs and released on completion, and a spilled tile is reloaded on
  demand by the task that reads it (the store starts no thread);
* :class:`~repro.store.stats.StoreStats` reports spills/reloads and the
  peak resident bytes the out-of-core contract is asserted against.

Attach via ``TileMatrix.attach_store`` or, end to end, through
``KRRConfig(store_budget_bytes=..., store_dir=...)`` / the
``REPRO_STORE_BUDGET`` environment variable.
"""

from repro.resilience.errors import StoreCorruptionError
from repro.store.hooks import StoreSchedulerHooks
from repro.store.stats import ResidencyManager, StoreStats
from repro.store.store import (
    StoreBinding,
    StoreVerifyReport,
    TileStore,
)

__all__ = [
    "TileStore",
    "StoreBinding",
    "StoreCorruptionError",
    "StoreVerifyReport",
    "ResidencyManager",
    "StoreStats",
    "StoreSchedulerHooks",
]
