"""Every library task is a descriptor: no closure twin next to it.

Each insertion site of the library is driven once on a serial runtime
and the graph it inserted is inspected: apart from Build's
``consume_row`` — which mutates builder state and has no descriptor —
every task carries a ``TaskSpec`` and no ``body``, so the serial,
threaded and process drains cannot help running the same kernel.
"""

import numpy as np
import pytest

from repro.distance.build import KernelBuilder
from repro.linalg.blas3 import gemm
from repro.linalg.cg import kernel_matvec
from repro.linalg.cholesky import cholesky
from repro.linalg.solve import solve_cholesky
from repro.precision.formats import Precision
from repro.runtime.runtime import Runtime
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
    return {"build_row", "consume_row"}


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
        if task.name == "consume_row":
            assert task.spec is None and task.body is not None
        else:
            assert task.spec is not None, task
            assert task.body is None, task
