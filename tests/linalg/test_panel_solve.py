"""The factor's panel solve: a triangular multiply by the inverted
diagonal tile.

``POTRF(k)`` also inverts its factor tile (``?trtri``) and each
``TRSM(i, k)`` is one ``?trmm`` by that inverse.  Pinned here: its
accuracy against float64 substitution, and the inverse's lifetime: it
lives in the drain alone, and no column's inverse outlives the
column's panel solves.  On the process lane a handle's payload stays
on the worker side until the drain ends, so there the check is that
no inverse handle has one when it does; the workers' own copies are
not observable from here.
"""

import importlib
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.linalg.kernels import PotrfSpec, tile_potrf, tile_trmm, tile_trtri
from repro.precision.formats import Precision
from repro.runtime.runtime import Runtime
from repro.store import StoreSchedulerHooks, TileStore
from repro.tiles.matrix import TileMatrix

# the package re-exports the function under the module's name
chol = importlib.import_module("repro.linalg.cholesky")

NATIVE = [Precision.FP32, Precision.FP64]

#: normwise relative error of ``X = B L^{-T}`` against float64
#: substitution on the same stored factor, in units of ``nb · κ₂(L) · u``
#: (``u`` the unit roundoff): below 0.8 over 400 seeded draws of the
#: strategy below, for the inverse route and ``?trsm`` alike.
ERROR_UNITS = 4.0


def _factor(rng, nb, spread, p):
    """A stored factor tile at ``p``; ``spread`` decades of diagonal
    scaling on the SPD tile raise ``κ(L)`` up to about 10³."""
    a = rng.standard_normal((nb, nb))
    a = a @ a.T / nb + 2.0 * np.eye(nb)
    d = 10.0 ** rng.uniform(-spread, spread, nb)
    return tile_potrf(d[:, None] * a * d[None, :], p)


@settings(max_examples=80, deadline=None)
@given(p=st.sampled_from(NATIVE), nb=st.integers(1, 64),
       mb=st.integers(1, 64), spread=st.floats(0.0, 1.5),
       seed=st.integers(0, 2 ** 32 - 1))
@example(p=Precision.FP32, nb=64, mb=64, spread=0.0, seed=0)  # full tile
@example(p=Precision.FP32, nb=64, mb=37, spread=0.0, seed=1)  # off-grid n
@example(p=Precision.FP64, nb=64, mb=1, spread=1.0, seed=2)   # 1-row panel
@example(p=Precision.FP64, nb=1, mb=1, spread=0.0, seed=3)
def test_inverse_trsm_matches_float64_substitution(p, nb, mb, spread, seed):
    rng = np.random.default_rng(seed)
    mb = min(mb, nb)  # a panel tile is at most as tall as the tile column
    lkk = _factor(rng, nb, spread, p)
    b = rng.standard_normal((mb, nb)).astype(p.numpy_dtype)
    x = tile_trmm(tile_trtri(lkk, p), b, p)
    assert x.dtype == p.numpy_dtype and x.shape == b.shape
    l64 = lkk.astype(np.float64)
    want = scipy.linalg.solve_triangular(l64, b.astype(np.float64).T,
                                         lower=True).T
    err = np.linalg.norm(x - want) / np.linalg.norm(want)
    u = np.finfo(p.numpy_dtype).eps / 2
    assert err <= ERROR_UNITS * nb * np.linalg.cond(l64) * u


@pytest.mark.parametrize("p", NATIVE + [Precision.FP16],
                         ids=lambda p: p.value)
def test_the_product_reads_the_lower_triangle_only(rng, p):
    inverse = tile_trtri(_factor(rng, 16, 0.5, p), p)
    b = rng.standard_normal((10, 16))
    dirty = inverse + np.triu(np.full((16, 16), 7.0), 1).astype(inverse.dtype)
    np.testing.assert_array_equal(tile_trmm(dirty, b, p),
                                  tile_trmm(inverse, b, p))


@pytest.mark.parametrize("p", NATIVE + [Precision.FP16],
                         ids=lambda p: p.value)
def test_a_singular_tile_is_a_linalg_error(p):
    """What the regularization boost catches, as for an indefinite
    POTRF."""
    lkk = np.tril(np.ones((8, 8)))
    lkk[5, 5] = 0.0
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        tile_trtri(lkk, p)


# ----------------------------------------------------------------------
# lifetime: no column's inverse outlives its panel solves
# ----------------------------------------------------------------------
N, TILE = 256, 32
NT = N // TILE
BUDGET = NT * (NT + 1) // 2 * TILE * TILE * 4 // 4  # a quarter of the mosaic


class _Watch:
    """Weak references to every inverse this process makes or receives,
    by column: from ``PotrfSpec.run`` (serial and threaded lanes, the
    direct path) and from the store-backed drain's map (which the
    process coordinator fills with the workers' results)."""

    def __init__(self, monkeypatch):
        self.refs: dict[int, list] = {}
        run, keep = PotrfSpec.run, chol._InverseTiles.__setitem__

        def potrf(spec, a, *rest):
            out = run(spec, a, *rest)
            if spec.invert:
                self.see(a.coords[0], out[1])
            return out

        def setitem(inverses, k, inverse):
            self.see(k, inverse)
            keep(inverses, k, inverse)

        monkeypatch.setattr(PotrfSpec, "run", potrf)
        monkeypatch.setattr(chol._InverseTiles, "__setitem__", setitem)

    def see(self, k, inverse):
        self.refs.setdefault(k, []).append(weakref.ref(inverse))

    def alive(self, k=None) -> int:
        columns = self.refs.values() if k is None else [self.refs.get(k, [])]
        return sum(ref() is not None for refs in columns for ref in refs)


class _AtTheLastSolve:
    """Scheduler hooks: when a column's last panel solve retires, record
    whether its inverse handle still holds a payload and how many of
    that column's inverses are still reachable."""

    def __init__(self, inverses):
        self.inverses, self.seen = inverses, {}

    def task_dispatch(self, task):
        pass

    def task_complete(self, task):
        if task.name == "trsm" and task.tag[0] == NT - 1:
            k = task.tag[1]
            handle, = (h for h, _ in task.accesses if "inv(" in h.name)
            self.seen[k] = (handle.payload is not None,
                            self.inverses.alive(k))


class _StoreAtTheLastSolve(StoreSchedulerHooks):
    def __init__(self, store, check):
        super().__init__(store)
        self.check = check

    def task_complete(self, task):
        super().task_complete(task)
        self.check.task_complete(task)


def _kernel(store=None) -> TileMatrix:
    """The test matrix; with ``store``, streamed into it tile by tile."""
    rng = np.random.default_rng(5)
    a = rng.standard_normal((N, N)).astype(np.float32)
    dense = (a @ a.T + N * np.eye(N)).astype(np.float64)
    if store is None:
        return TileMatrix.from_dense(dense, TILE, Precision.FP32,
                                     symmetric=True)
    kernel = TileMatrix.empty(N, N, TILE, Precision.FP32, symmetric=True)
    kernel.attach_store(store)
    for i, j in kernel.layout.iter_lower_tiles():
        kernel.set_tile(i, j, dense[kernel.layout.tile_slice(i, j)])
    return kernel


def test_the_direct_path_holds_no_inverse_past_its_return(monkeypatch):
    inverses = _Watch(monkeypatch)
    chol.cholesky(_kernel())
    assert sorted(inverses.refs) == list(range(NT - 1))
    assert inverses.alive() == 0


@pytest.mark.parametrize("budget", [None, BUDGET], ids=["resident", "store"])
@pytest.mark.parametrize("execution", ["serial", "threaded", "process"])
def test_no_inverse_outlives_its_columns_panel_solves(monkeypatch, execution,
                                                      budget):
    want = chol.cholesky(_kernel()).to_dense()
    inverses = _Watch(monkeypatch)
    check = _AtTheLastSolve(inverses)
    rt = Runtime(execution=execution, workers=2)
    held = []
    run = rt.run

    def run_and_look(**kwargs):
        # the drain has handed its payloads back (the process lane
        # materializes every handle a worker wrote and nothing emptied)
        result = run(**kwargs)
        held.extend(name for name, h in rt.handles.items()
                    if "inv(" in name and h.payload is not None)
        return result

    monkeypatch.setattr(rt, "run", run_and_look)
    try:
        if budget is None:
            rt.scheduler.hooks = check
            got = chol.cholesky(_kernel(), runtime=rt).to_dense()
        else:
            with TileStore(budget_bytes=budget) as store:
                kernel = _kernel(store)
                rt.scheduler.hooks = _StoreAtTheLastSolve(store, check)
                got = chol.cholesky(kernel, runtime=rt).to_dense()
                stats = store.stats
                assert stats.budget_overflows == 0
                assert 0 < stats.peak_resident_bytes <= budget
    finally:
        rt.close()
    np.testing.assert_array_equal(got, want)
    # every column's last panel solve left its handle empty and no
    # reference to that column's inverse in this process
    assert check.seen == {k: (False, 0) for k in range(NT - 1)}
    assert held == []
    if execution != "process" or budget is not None:
        assert sorted(inverses.refs) == list(range(NT - 1))
    assert inverses.alive() == 0
