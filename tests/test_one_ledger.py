"""One ledger: ``Runtime.run`` and ``Runtime.tally`` write operation counts.

``Runtime.ledger`` holds per-phase counters folded from each drain's
trace (``run``) or added by a dense ``blas3`` product that runs inline
(``tally``); both go through ``PhaseTotals.add_flops``.
``KRRSession.phase_flops`` / ``flops_by_precision``, ``RRSession.flops_``
and ``BuildResult.flops`` are reads of what those recorded.  A
hand-kept copy, an event log that outlives its drain, or a kernel type
that bypasses the runtime cannot come back without editing one of the
lists below.
"""

import ast
import dataclasses

from repro.gwas.config import ServeConfig
from repro.gwas.session import KRRSession, RRSession
from tests.runtime.test_one_drain import _sites
from tests.test_one_front_door import _identifiers
from tests.test_one_way_in import _calls_method


def test_the_hand_kept_tallies_and_event_logs_are_gone():
    retired = {"session_trace", "_phase_traces", "phase_trace", "clear_phase",
               "reset_traces", "trace_reset_batches", "_session_batches",
               "accumulate_callback", "flops_box", "_account_predict",
               "_build_by_precision", "_ibs_dense"}
    assert _sites(lambda node: retired & set(_identifiers(node))) == []


def test_a_drain_is_folded_into_the_ledger_from_run_only():
    def folds(node):
        return isinstance(node, ast.Call) \
            and getattr(node.func, "attr", None) == "fold"
    assert _sites(folds) == [
        "runtime/runtime.py:run",  # this drain's events
        "runtime/trace.py:flops_by_precision",  # one trace's own split
    ]


def test_operations_reach_the_ledger_through_one_adder():
    # a dense product is not a task: it is tallied, and adds no task count
    # (RR's INT8 Gram, and every blas3 product)
    assert _sites(_calls_method("tally")) == [
        "gwas/session.py:_gram", "linalg/blas3.py:gemm"]
    assert _sites(_calls_method("add_flops")) == [
        "runtime/runtime.py:tally", "runtime/trace.py:fold"]


def test_per_precision_counts_are_added_up_in_two_functions():
    def adds(node):
        if isinstance(node, ast.AugAssign):
            target = node.target
        elif isinstance(node, ast.Assign) \
                and isinstance(node.targets[0], ast.Subscript):
            target = node.targets[0]
        else:
            return False
        return any("flops_by_precision" in name
                   for part in ast.walk(target) for name in _identifiers(part))
    assert _sites(adds) == [
        # CholeskyResult's own tally: _cholesky_direct has no runtime
        "linalg/cholesky.py:_accumulate",
        "runtime/trace.py:add_flops",
    ]


def test_the_sessions_hold_no_flop_state():
    for cls, views in ((KRRSession, ("phase_flops", "flops_by_precision")),
                       (RRSession, ("flops_", "flops_by_precision"))):
        for view in views:
            assert isinstance(vars(cls)[view], property)
            assert vars(cls)[view].fset is None
        assert not [k for k in vars(cls()) if "flops" in k]


def test_serve_config_has_five_knobs():
    # no batch size: a micro-batch streams at the model's
    # KRRConfig.predict_batch_rows
    assert [f.name for f in dataclasses.fields(ServeConfig)] == [
        "max_batch_requests", "batch_window_s",
        "max_queue_depth", "request_deadline_s", "dispatch_retries"]
