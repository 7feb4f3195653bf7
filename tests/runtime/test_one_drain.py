"""Every per-task step of a drain is written once.

The serial, threaded and process modes are lanes over one drain
(``repro.runtime.scheduler._Drain``), so the sources of ``src/repro``
hold exactly one place that builds a ``TaskEvent``, one that raises the
aggregate ``TaskGroupError``, one function that fires the ``task-body``
injection site and one that calls the ``task_complete`` hook.  A second drain loop cannot be written
without adding a site to one of these lists.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent


def _sites(matches, skip=()):
    """``path:function`` of every AST node of ``src/repro`` that
    ``matches``, one entry per occurrence."""
    found = []

    def visit(node, where, rel):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if matches(child):
                found.append(f"{rel}:{inner}")
            visit(child, inner, rel)

    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel not in skip:
            visit(ast.parse(path.read_text()), "<module>", rel)
    return found


def _constructs(name):
    def matches(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return getattr(func, "id", getattr(func, "attr", None)) == name
    return matches


def test_task_event_is_built_at_one_site():
    # ExecutionTrace.record, which the drain and the replayer both call
    assert _sites(_constructs("TaskEvent")) == ["runtime/trace.py:record"]


def test_task_group_error_is_raised_from_one_site():
    assert _sites(_constructs("TaskGroupError"),
                  skip=("resilience/errors.py",)) == [
        "runtime/scheduler.py:result"]


def test_task_body_site_is_injected_from_one_function():
    def uses_site(node):
        return isinstance(node, ast.Name) and node.id == "SITE_TASK_BODY" \
            and isinstance(node.ctx, ast.Load)
    assert _sites(uses_site, skip=("resilience/faults.py",)) == [
        "runtime/scheduler.py:inject"]


def test_task_complete_hook_is_called_from_one_function():
    def calls_hook(node):
        return isinstance(node, ast.Call) \
            and getattr(node.func, "attr", None) == "task_complete"
    assert _sites(calls_hook) == ["runtime/scheduler.py:retire"]
