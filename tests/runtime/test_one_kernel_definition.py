"""Every library task is a descriptor: no closure twin next to it.

Each insertion site of the library is driven once on a serial runtime
and the graph it inserted is inspected: every task carries a
``TaskSpec``, and a task has nothing else to run, so the serial,
threaded and process drains cannot help running the same kernel.
"""

import dataclasses
import inspect

import numpy as np
import pytest

from repro.distance.build import KernelBuilder
from repro.linalg.blas3 import gemm
from repro.linalg.cg import kernel_matvec
from repro.linalg.cholesky import cholesky
from repro.linalg.solve import solve_cholesky
from repro.precision.formats import Precision
from repro.runtime.dag import TaskGraph
from repro.runtime.runtime import Runtime
from repro.runtime.task import Task
from repro.store import TileStore
from repro.tiles.matrix import TileMatrix

N, TILE = 48, 16


def _spd_kernel() -> TileMatrix:
    a = np.random.default_rng(0).standard_normal((N, N))
    return TileMatrix.from_dense(a @ a.T / N + 2.0 * np.eye(N), TILE,
                                 Precision.FP32, symmetric=True)


def _cholesky_resident(rt):
    cholesky(_spd_kernel(), runtime=rt)
    return {"potrf", "trsm", "syrk", "gemm"}


def _cholesky_store_backed(rt):
    kernel = _spd_kernel()
    with TileStore(budget_bytes=2 * TILE * TILE * 4) as store:
        kernel.attach_store(store)
        cholesky(kernel, runtime=rt)
    return {"potrf", "trsm", "syrk", "gemm"}


def _solve(rt):
    factor = cholesky(_spd_kernel()).factor
    solve_cholesky(factor, np.ones((N, 2)), runtime=rt)
    return {"solve_gemm", "solve_trsm"}


def _cg_matvec(rt):
    kernel_matvec(_spd_kernel(), np.ones((N, 2)), alpha=0.5, runtime=rt)
    return {"cg_matvec"}


def _build(rt):
    g = np.random.default_rng(1).integers(0, 3, size=(N, 32)).astype(np.int8)
    KernelBuilder(tile_size=TILE, runtime=rt).build_training(g)
    return {"build_row"}


def _predict(rt):
    g = np.random.default_rng(2).integers(0, 3, size=(N, 32)).astype(np.int8)
    builder = KernelBuilder(tile_size=TILE, runtime=rt)
    builder._predict_groups(g[:20], None, builder.train_operands(g),
                            np.ones((N, 2)), Precision.FP32,
                            [[slice(0, 16)], [slice(16, 20)]])
    return {"predict_group"}


def _blas3_gemm(rt):
    # a dense product is a call on the caller's thread: it inserts no task
    gemm(np.ones((N, 8)), np.ones((8, 4)), runtime=rt)
    return set()


@pytest.mark.parametrize("site", [
    _cholesky_resident, _cholesky_store_backed, _solve, _cg_matvec, _build,
    _predict, _blas3_gemm,
], ids=lambda site: site.__name__.lstrip("_"))
def test_every_inserted_task_is_a_descriptor(site):
    rt = Runtime(execution="serial")
    names = site(rt)
    # the drained graph; a site that ran no drain leaves none, and no
    # pending task either
    tasks = rt.last_graph.tasks if rt.last_graph else rt.graph.tasks
    assert {task.name for task in tasks} == names
    for task in tasks:
        assert task.spec is not None, task


def test_a_task_has_no_second_definition():
    """No ``body`` beside the descriptor: not on the task, not at either
    insertion entry point."""
    assert "body" not in {f.name for f in dataclasses.fields(Task)}
    for insert in (Runtime.insert_task, TaskGraph.insert_task):
        assert "body" not in inspect.signature(insert).parameters, insert
