"""Tests for triangular and Cholesky-based solves."""

import numpy as np

from repro.linalg.cholesky import cholesky
from repro.linalg.solve import solve_cholesky, solve_spd, solve_triangular
from repro.precision.formats import Precision
from repro.tiles.matrix import TileMatrix


def _spd(n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a @ a.T / n + 2.0 * np.eye(n)


class TestTriangularSolve:
    def test_dense_forward(self, rng):
        l = np.tril(rng.standard_normal((20, 20))) + 5 * np.eye(20)
        b = rng.standard_normal((20, 3))
        x = solve_triangular(l, b, lower=True, precision=Precision.FP64)
        np.testing.assert_allclose(l @ x, b, rtol=1e-10)

    def test_dense_backward(self, rng):
        l = np.tril(rng.standard_normal((20, 20))) + 5 * np.eye(20)
        b = rng.standard_normal((20, 3))
        x = solve_triangular(l, b, lower=True, trans=True, precision=Precision.FP64)
        np.testing.assert_allclose(l.T @ x, b, rtol=1e-10)

    def test_tiled_forward_matches_dense(self, rng):
        l = np.tril(rng.standard_normal((40, 40))) + 6 * np.eye(40)
        b = rng.standard_normal((40, 2))
        tiled = TileMatrix.from_dense(l, 16, Precision.FP64)
        x_tiled = solve_triangular(tiled, b, lower=True, precision=Precision.FP64)
        x_dense = solve_triangular(l, b, lower=True, precision=Precision.FP64)
        np.testing.assert_allclose(x_tiled, x_dense, rtol=1e-9, atol=1e-10)

    def test_tiled_backward_matches_dense(self, rng):
        l = np.tril(rng.standard_normal((40, 40))) + 6 * np.eye(40)
        b = rng.standard_normal((40, 2))
        tiled = TileMatrix.from_dense(l, 16, Precision.FP64)
        x_tiled = solve_triangular(tiled, b, lower=True, trans=True,
                                   precision=Precision.FP64)
        np.testing.assert_allclose(l.T @ x_tiled, b, rtol=1e-8, atol=1e-9)

    def test_vector_rhs_shape_preserved(self, rng):
        l = np.tril(rng.standard_normal((12, 12))) + 4 * np.eye(12)
        b = rng.standard_normal(12)
        x = solve_triangular(l, b, precision=Precision.FP64)
        assert x.shape == (12,)


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

    def test_solve_spd_convenience(self):
        a = _spd(32)
        b = np.ones((32, 1))
        x = solve_spd(a, b, tile_size=16, working_precision=Precision.FP64)
        np.testing.assert_allclose(a @ x, b, rtol=1e-8)

    def test_accepts_dense_factor(self):
        a = _spd(24)
        b = np.ones(24)
        l = np.linalg.cholesky(a)
        x = solve_cholesky(l, b, precision=Precision.FP64)
        np.testing.assert_allclose(a @ x, b, rtol=1e-9)
