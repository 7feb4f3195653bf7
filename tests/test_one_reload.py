"""One way a spilled tile comes back: on demand, on the reading thread.

``repro.store`` reloads a tile when a task (or any caller) reads it,
under the store lock, and the eviction plan decides what leaves.  A
thread of the store's own — a read-ahead reader — would make the
traffic of a serial drain depend on timing, so no module under
``src/repro/store`` may construct one.
"""

import ast

from tests.runtime.test_one_drain import _sites

THREADS = {"Thread", "Timer", "ThreadPoolExecutor"}


def _starts_a_thread(node):
    if isinstance(node, ast.Call):
        func = node.func
        return getattr(func, "id", getattr(func, "attr", None)) in THREADS
    if isinstance(node, ast.ClassDef):  # a Thread subclass
        return any(getattr(base, "id", getattr(base, "attr", None))
                   in THREADS for base in node.bases)
    return False


def test_the_store_constructs_no_thread():
    sites = _sites(_starts_a_thread)
    assert [s for s in sites if s.startswith("store/")] == []
    # the walk does see threads: a threaded drain's lanes
    assert "runtime/scheduler.py:run_lanes" in sites
