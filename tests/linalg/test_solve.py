"""Tests for triangular and Cholesky-based solves."""

import numpy as np
import pytest
from scipy.linalg import blas

from repro.gwas.config import PrecisionPlan
from repro.linalg.cholesky import cholesky
from repro.linalg.solve import solve_cholesky, solve_triangular
from repro.precision.formats import Precision
from repro.runtime.runtime import Runtime
from repro.store import TileStore
from repro.tiles.matrix import TileMatrix


def _spd(n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a @ a.T / n + 2.0 * np.eye(n)


class TestTriangularSolve:
    def test_dense_forward(self, rng):
        l = np.tril(rng.standard_normal((20, 20))) + 5 * np.eye(20)
        b = rng.standard_normal((20, 3))
        x = solve_triangular(l, b, precision=Precision.FP64)
        np.testing.assert_allclose(l @ x, b, rtol=1e-10)

    def test_dense_backward(self, rng):
        l = np.tril(rng.standard_normal((20, 20))) + 5 * np.eye(20)
        b = rng.standard_normal((20, 3))
        x = solve_triangular(l, b, trans=True, precision=Precision.FP64)
        np.testing.assert_allclose(l.T @ x, b, rtol=1e-10)

    def test_tiled_forward_matches_dense(self, rng):
        l = np.tril(rng.standard_normal((40, 40))) + 6 * np.eye(40)
        b = rng.standard_normal((40, 2))
        tiled = TileMatrix.from_dense(l, 16, Precision.FP64)
        x_tiled = solve_triangular(tiled, b, precision=Precision.FP64)
        x_dense = solve_triangular(l, b, precision=Precision.FP64)
        np.testing.assert_allclose(x_tiled, x_dense, rtol=1e-9, atol=1e-10)

    def test_tiled_backward_matches_dense(self, rng):
        l = np.tril(rng.standard_normal((40, 40))) + 6 * np.eye(40)
        b = rng.standard_normal((40, 2))
        tiled = TileMatrix.from_dense(l, 16, Precision.FP64)
        x_tiled = solve_triangular(tiled, b, trans=True,
                                   precision=Precision.FP64)
        np.testing.assert_allclose(l.T @ x_tiled, b, rtol=1e-8, atol=1e-9)

    def test_vector_rhs_shape_preserved(self, rng):
        l = np.tril(rng.standard_normal((12, 12))) + 4 * np.eye(12)
        b = rng.standard_normal(12)
        x = solve_triangular(l, b, precision=Precision.FP64)
        assert x.shape == (12,)

    @pytest.mark.parametrize("p", [Precision.FP32, Precision.FP64],
                             ids=lambda p: p.value)
    @pytest.mark.parametrize("trans", [False, True])
    def test_tiled_sweep_is_the_blas_of_its_precision(self, rng, p, trans):
        """One tile row block per sweep step in ``p``'s own dtype: a
        one-tile factor is exactly one ``?trsm`` of the rounded panel."""
        l = np.tril(rng.standard_normal((16, 16))) + 4 * np.eye(16)
        b = rng.standard_normal((16, 3))
        x = solve_triangular(TileMatrix.from_dense(l, 16, p), b, trans=trans,
                             precision=p)
        trsm = getattr(blas, {"fp32": "strsm", "fp64": "dtrsm"}[p.value])
        dtype = p.numpy_dtype
        expect = trsm(1.0, np.asfortranarray(l, dtype),
                      np.asfortranarray(b, dtype), lower=1,
                      trans_a=int(trans))
        assert x.dtype == np.float64 and x.flags.c_contiguous
        np.testing.assert_array_equal(x, expect)

    @pytest.mark.parametrize("rows", [90, 120])
    def test_mismatched_rhs_rows_are_an_error(self, rows):
        """A right-hand side longer than the factor used to be cut to its
        rows; a shorter one failed in numpy broadcasting."""
        factor = cholesky(_spd(100), tile_size=32,
                          working_precision=Precision.FP32)
        with pytest.raises(ValueError, match=f"{rows} rows.*factor 100"):
            solve_cholesky(factor, np.ones((rows, 2)))
        with pytest.raises(ValueError, match=f"{rows} rows.*factor 100"):
            solve_triangular(factor.factor, np.ones(rows))


class TestCholeskySolve:
    def test_solve_matches_numpy(self, runtime):
        a = _spd(48)
        rng = np.random.default_rng(1)
        b = rng.standard_normal((48, 4))
        fact = cholesky(a, tile_size=16, working_precision=Precision.FP64,
                        runtime=runtime)
        x = solve_cholesky(fact, b, precision=Precision.FP64)
        np.testing.assert_allclose(x, np.linalg.solve(a, b), rtol=1e-8, atol=1e-9)

    def test_fp32_solve_accuracy(self, runtime):
        a = _spd(48)
        rng = np.random.default_rng(2)
        b = rng.standard_normal((48, 2))
        fact = cholesky(a, tile_size=16, working_precision=Precision.FP32,
                        runtime=runtime)
        x = solve_cholesky(fact, b, precision=Precision.FP32)
        residual = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
        assert residual < 1e-4

    def test_solves_a_tiled_factorization(self):
        a = _spd(32)
        b = np.ones((32, 1))
        fact = cholesky(a, tile_size=16, working_precision=Precision.FP64)
        x = solve_cholesky(fact, b, precision=Precision.FP64)
        np.testing.assert_allclose(a @ x, b, rtol=1e-8)

    def test_accepts_dense_factor(self):
        a = _spd(24)
        b = np.ones(24)
        l = np.linalg.cholesky(a)
        x = solve_cholesky(l, b, precision=Precision.FP64)
        np.testing.assert_allclose(a @ x, b, rtol=1e-9)


PLANS = {
    "fp32": PrecisionPlan.fp32(),
    "fp64": PrecisionPlan.fp64(),
    "adaptive-fp16": PrecisionPlan.adaptive_fp16(),
    "adaptive-fp8": PrecisionPlan.adaptive_fp8(),
}
N, TILE = 80, 16  # five tile rows, the last one full


def _factor(plan: PrecisionPlan) -> TileMatrix:
    rng = np.random.default_rng(5)
    g = rng.integers(0, 3, size=(N, 40)).astype(np.float64)
    sq = (g * g).sum(axis=1)
    dense = np.exp(-0.02 * (sq[:, None] + sq[None, :] - 2.0 * g @ g.T))
    kernel = TileMatrix.from_dense(dense + 0.5 * np.eye(N), TILE,
                                   Precision.FP64, symmetric=True)
    pmap = plan.precision_map(kernel.layout, matrix=kernel)
    return cholesky(kernel, working_precision=plan.working_precision,
                    precision_map=pmap).factor


@pytest.fixture(scope="module")
def process_rt():
    rt = Runtime(execution="process", workers=2)
    yield rt
    rt.close()


@pytest.mark.parametrize("name", PLANS)
def test_tasked_solve_equals_the_inline_one(name, process_rt):
    """Every lane runs the inline loop's two bodies: same bits for each
    plan's factor on the serial, threaded, process and store lanes."""
    plan = PLANS[name]
    factor = _factor(plan)
    assert (len(factor.footprint_by_precision()) > 1) == name.startswith(
        "adaptive")
    wp = plan.working_precision
    rhs = np.random.default_rng(6).standard_normal((N, 3))
    inline = solve_cholesky(factor, rhs, precision=wp)
    threaded = Runtime(execution="threaded", workers=3)
    lanes = {"serial": Runtime(execution="serial"), "threaded": threaded,
             "process": process_rt}
    try:
        for lane, rt in lanes.items():
            tasked = solve_cholesky(factor, rhs, precision=wp, runtime=rt)
            np.testing.assert_array_equal(tasked, inline, err_msg=lane)
    finally:
        threaded.close()
    with TileStore(budget_bytes=2 * TILE * TILE * 4) as store:
        factor.attach_store(store)
        tasked = solve_cholesky(factor, rhs, precision=wp,
                                runtime=Runtime(execution="serial"))
        assert store.stats.spills > 0
    np.testing.assert_array_equal(tasked, inline, err_msg="store")
