"""The graph replayer reproduces the schedule of the former
``execution="simulated"`` drain.

The golden numbers were recorded from that drain at the last commit
that had it (``Runtime(num_devices=4, adaptive_conversion=...,
execution="simulated")`` under ``cholesky``): the replayer must walk
the same graph in the same priority order with the same owner-computes
mapping, device timing and Sec. VI-B1 conversion ledger.
"""

import numpy as np
import pytest

from repro.linalg.cholesky import cholesky
from repro.precision.formats import Precision
from repro.runtime import Runtime, replay
from repro.runtime.task import AccessMode
from repro.tiles.layout import TileLayout
from tests.runtime.call import call


@pytest.fixture(scope="module")
def ablation_graph():
    """DAG Cholesky of the conversion-placement ablation's matrix
    (``benchmarks/test_micro_kernels.py``): 160x160, tile 32, FP32
    diagonal and FP16 off-diagonal tiles."""
    rng = np.random.default_rng(2)
    a = rng.standard_normal((160, 160))
    a = a @ a.T / 160 + 4.0 * np.eye(160)
    pmap = {t: (Precision.FP32 if t[0] == t[1] else Precision.FP16)
            for t in TileLayout.square(160, 32).iter_tiles()}
    rt = Runtime(execution="serial")
    cholesky(a, tile_size=32, precision_map=pmap, runtime=rt)
    return rt.last_graph


@pytest.mark.parametrize("adaptive, nbytes, makespan", [
    (True, 92_160, 6.156136587752149e-05),
    (False, 122_880, 6.197096587752151e-05),
])
def test_golden_cholesky_schedule_on_four_devices(ablation_graph, adaptive,
                                                  nbytes, makespan):
    result = replay(ablation_graph, num_devices=4,
                    adaptive_conversion=adaptive)
    assert result.trace.num_tasks == 35
    assert [d.tasks_executed for d in result.devices] == [9, 12, 9, 5]
    assert result.comm.num_transfers == 30
    assert result.comm.total_bytes == nbytes
    assert result.makespan == pytest.approx(makespan, rel=1e-9)
    assert [(e.task_name, e.device) for e in result.trace.events[:6]] == [
        ("potrf", 0), ("trsm", 1), ("trsm", 3), ("trsm", 2), ("trsm", 2),
        ("syrk", 2)]


def test_replay_runs_no_body():
    rt = Runtime()
    h = rt.register_data("h", payload=0)

    def boom(_payload):
        raise AssertionError("a replay must not execute task bodies")

    rt.insert_task("boom", (h, AccessMode.READWRITE),
                   spec=call(boom), flops=1.0)
    assert replay(rt.graph).trace.num_tasks == 1
    assert h.payload == 0
