"""One place decides where a drain runs.

A ``Runtime`` is the only thing that says where and how wide a task
graph executes: ``workers`` / ``execution`` are declared by the objects
that own that decision and by nothing that merely passes it along, a
tiled routine takes a runtime or runs inline, every library DAG lives in
one ``Runtime.dag`` scope, and "how many CPUs" is asked in one module.
A re-declared ``workers=``, a routine that builds a runtime of its own
or a hand-written insert–drain–discard–release sequence cannot come back
without editing one of the lists below.
"""

import ast

from tests.runtime.test_one_drain import SRC, _constructs, _sites
from tests.test_one_front_door import _identifiers


def _declarations(names):
    """``path:qualified name`` of everything in ``src/repro`` that declares
    a parameter or a class-level annotated field called one of ``names``,
    once per declaring function or class."""
    found = []

    def visit(node, qual, rel):
        for child in ast.iter_child_nodes(node):
            inner = qual
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = child.name if qual is None else f"{qual}.{child.name}"
            declares = (
                isinstance(child, ast.arg) and child.arg in names
            ) or (
                isinstance(child, ast.AnnAssign)
                and isinstance(node, ast.ClassDef)
                and getattr(child.target, "id", None) in names)
            if declares and f"{rel}:{qual}" not in found:
                found.append(f"{rel}:{qual}")
            visit(child, inner, rel)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text()), None,
              path.relative_to(SRC).as_posix())
    return found


def _calls_method(*names):
    def matches(node):
        return isinstance(node, ast.Call) \
            and getattr(node.func, "attr", None) in names
    return matches


def test_workers_and_execution_are_declared_by_their_owners_only():
    assert _declarations({"workers", "execution"}) == [
        "gwas/config.py:RRConfig",
        "gwas/config.py:KRRConfig",
        # an artifact carries neither: the serving host sets the pair
        "gwas/session.py:KRRSession.from_model",
        "parallel/pool.py:ProcessPool.__init__",  # the pool's own size
        "runtime/runtime.py:Runtime.__init__",
        "runtime/scheduler.py:Scheduler",
        "serve/service.py:PredictionService.__init__",
        "settings.py:Settings",
    ]


def test_the_predict_batch_size_is_one_knob():
    """``KRRConfig.predict_batch_rows`` is the only batch size; the
    builder's streaming geometry is what consumes it, and no session,
    artifact or service takes a batch of its own."""
    assert _declarations({"predict_batch_rows"}) == [
        "gwas/config.py:KRRConfig"]
    assert _declarations({"batch_rows"}) == [
        "distance/build.py:_row_groups",
        "distance/build.py:KernelBuilder.iter_cross_rows",
    ]


def test_a_runtime_is_constructed_at_three_sites():
    assert _sites(_constructs("Runtime")) == [
        "distance/build.py:__post_init__",  # a builder handed none
        "gwas/session.py:__init__",         # KRRSession
        "gwas/session.py:__init__",         # RRSession
    ]


def test_the_environment_snapshot_is_taken_at_three_sites():
    assert _sites(_calls_method("from_env")) == [
        "gwas/cv.py:grid_search_cv",
        "gwas/session.py:__init__",
        "runtime/runtime.py:__init__",
    ]


def test_a_real_drain_keeps_no_modelled_devices():
    """Devices and the transfer ledger belong to ``replay``; the
    scheduler's lanes are plain ints and its busy time is the trace's."""
    tree = ast.parse((SRC / "runtime/scheduler.py").read_text())
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    assert not imported & {"repro.runtime.device", "repro.runtime.comm"}


def test_the_library_dag_protocol_is_written_once():
    def runtime_protocol(node):
        # Lock.release() and friends take no argument; the runtime's
        # takes the prefix
        return _calls_method("reset_graph", "require_drained")(node) or (
            _calls_method("release")(node) and bool(node.args))
    assert _sites(runtime_protocol) == ["runtime/runtime.py:dag"] * 3

    # ... and a failed drain is caught where it is resumed, and where an
    # indefinite pivot keeps its LinAlgError type
    def catches_group_error(node):
        return isinstance(node, ast.ExceptHandler) \
            and getattr(node.type, "id", None) == "TaskGroupError"
    assert _sites(catches_group_error) == [
        "linalg/cholesky.py:_cholesky_runtime", "runtime/runtime.py:run"]


def test_every_tiled_routine_enters_the_one_scope():
    assert _sites(_calls_method("dag")) == [
        "distance/build.py:_stream_tiles",
        "linalg/blas3.py:_run_as_task",
        "linalg/cg.py:kernel_matvec",
        "linalg/cholesky.py:_cholesky_runtime",
        "linalg/solve.py:_sweep",
    ]


def test_cpus_are_counted_in_one_module():
    def counts_cpus(node):
        return isinstance(node, ast.Attribute) \
            and node.attr in ("cpu_count", "sched_getaffinity")
    assert _sites(counts_cpus) == ["settings.py:effective_cpu_count"] * 2


def test_the_pass_through_spellings_are_gone():
    retired = {"build_kernel_matrix", "_panel_rows"}
    assert _sites(lambda node: retired & set(_identifiers(node))) == []
