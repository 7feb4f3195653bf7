"""Named, versioned registry of fitted-model artifacts.

``ModelRegistry`` is the serving tier's model store: models register
under a name and receive monotonically increasing versions; lookups
default to the latest version; and an optional **resident-byte budget**
evicts the least-recently-used models when the precision-aware
in-memory footprint (``FittedModel.resident_bytes`` — tile-mosaic
bytes, not nominal FP64) exceeds it.  The adaptive-FP8 plans exist
precisely so more fitted cohorts fit in one serving host's budget.

All operations are thread-safe; the prediction service and management
callers may hit the registry concurrently.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.gwas.model import FittedModel

__all__ = ["ModelKey", "ModelRegistry", "RegisteredModel"]


@dataclass(frozen=True)
class ModelKey:
    """Identity of one registered model: ``(name, version)``."""

    name: str
    version: int


@dataclass
class RegisteredModel:
    """Registry entry: the artifact plus its bookkeeping."""

    key: ModelKey
    model: FittedModel
    resident_bytes: int
    last_used: int  # monotonic use counter (LRU ordering)


class ModelRegistry:
    """Thread-safe named/versioned model store with LRU byte eviction.

    Parameters
    ----------
    max_resident_bytes:
        Eviction budget over the summed ``resident_bytes`` of all
        registered models.  ``None`` disables eviction.  The budget is
        enforced after each :meth:`register`; the newly registered
        model itself is never evicted (a single over-budget model stays
        resident — an empty registry serves nothing).
    """

    def __init__(self, max_resident_bytes: int | None = None) -> None:
        if max_resident_bytes is not None and max_resident_bytes <= 0:
            raise ValueError("max_resident_bytes must be positive (or None)")
        self.max_resident_bytes = max_resident_bytes
        self._lock = threading.Lock()
        self._entries: dict[ModelKey, RegisteredModel] = {}
        self._next_version: dict[str, int] = {}
        self._use_counter = 0
        self.evictions = 0
        # running sum of entry resident_bytes: eviction and the
        # resident_bytes() accessor are O(1) per step instead of
        # re-summing every entry on every loop iteration
        self._resident_total = 0

    # ------------------------------------------------------------------
    def register(self, name: str, model: FittedModel) -> ModelKey:
        """Add a model under ``name``; returns its assigned key.

        Versions start at 1 and increase per name — re-registering a
        name never replaces an older version in place (in-flight
        requests may still be pinned to it), it adds a newer one and
        lets LRU eviction retire the old.
        """
        if not isinstance(model, FittedModel):
            raise TypeError("register() expects a FittedModel artifact")
        with self._lock:
            version = self._next_version.get(name, 0) + 1
            self._next_version[name] = version
            key = ModelKey(name=name, version=version)
            self._use_counter += 1
            # store-backed models fault factor tiles in (and out) after
            # registration, so the budget is enforced against *current*
            # residency: one O(n) refresh per register, never the
            # historical O(n) re-sum per eviction iteration
            self._refresh_resident_bytes()
            entry = RegisteredModel(
                key=key, model=model,
                resident_bytes=model.resident_bytes(),
                last_used=self._use_counter)
            self._entries[key] = entry
            self._resident_total += entry.resident_bytes
            self._evict_over_budget(protect=key)
            return key

    def _refresh_resident_bytes(self) -> None:
        """Re-poll every entry's resident bytes (caller holds the lock).

        Plain models report a constant; store-backed models report what
        their factor has actually faulted in since the last look.
        """
        total = 0
        for entry in self._entries.values():
            entry.resident_bytes = entry.model.resident_bytes()
            total += entry.resident_bytes
        self._resident_total = total

    def get(self, name: str, version: int | None = None) -> FittedModel:
        """Look up a model (latest version by default); bumps recency."""
        return self.entry(name, version).model

    def entry(self, name: str, version: int | None = None) -> RegisteredModel:
        """Like :meth:`get` but returns the full registry entry."""
        with self._lock:
            key = self._resolve(name, version)
            entry = self._entries[key]
            self._use_counter += 1
            entry.last_used = self._use_counter
            return entry

    def _resolve(self, name: str, version: int | None) -> ModelKey:
        if version is not None:
            key = ModelKey(name=name, version=int(version))
            if key not in self._entries:
                raise KeyError(
                    f"model {name!r} version {version} is not registered "
                    "(it may have been evicted)")
            return key
        versions = [k.version for k in self._entries if k.name == name]
        if not versions:
            raise KeyError(f"no model registered under {name!r}")
        return ModelKey(name=name, version=max(versions))

    def _evict_over_budget(self, protect: ModelKey) -> None:
        """Evict LRU entries until within budget (caller holds the lock).

        The running ``_resident_total`` makes each iteration O(n) in
        the victim scan only — the historical per-iteration re-sum made
        heavy churn O(n²).
        """
        if self.max_resident_bytes is None:
            return
        while (self._resident_total > self.max_resident_bytes
               and len(self._entries) > 1):
            victim = min(
                (e for e in self._entries.values() if e.key != protect),
                key=lambda e: e.last_used, default=None)
            if victim is None:
                return
            self._resident_total -= victim.resident_bytes
            del self._entries[victim.key]
            self.evictions += 1

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def resident_bytes(self) -> int:
        with self._lock:
            return self._resident_total

    def keys(self) -> list[ModelKey]:
        """Registered ``(name, version)`` keys, registration order."""
        with self._lock:
            return list(self._entries)

    def names(self) -> list[str]:
        with self._lock:
            return sorted({k.name for k in self._entries})

    def versions(self, name: str) -> list[int]:
        """Resident versions of ``name``, ascending (evicted ones gone)."""
        with self._lock:
            return sorted(k.version for k in self._entries if k.name == name)

    def __contains__(self, key: ModelKey) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            budget = (f", budget={self.max_resident_bytes}"
                      if self.max_resident_bytes is not None else "")
            return (f"ModelRegistry({len(self._entries)} models, "
                    f"{self._resident_total} resident bytes{budget})")
