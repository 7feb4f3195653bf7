def spill_all(store):
    """Spill every evictable (unpinned) resident tile of ``store``: the
    maximal out-of-core state, so reload paths run deterministically."""
    with store._lock:
        for entry in list(store.residency.entries()):
            if not store.residency.pinned(entry):
                store._evict_one(entry)
