"""Tiled mixed-precision dense linear algebra.

Implements the Level-3 BLAS / LAPACK operations the paper's Associate
phase is built from, operating on :class:`~repro.tiles.matrix.TileMatrix`
objects with a per-tile precision mosaic:

* :func:`tile_potrf`, :func:`tile_trsm`, :func:`tile_syrk`,
  :func:`tile_gemm` — single-tile kernels at a chosen precision.
* :func:`cholesky` — the tiled (right-looking) mixed-precision Cholesky
  factorization, optionally driven through the task runtime.
* :func:`solve_triangular`, :func:`solve_cholesky` — forward/backward
  substitution and the full POTRS-style solve.
* :func:`gemm` — the one-call FP32 product of the RR and Predict
  phases, tallied on a runtime's ledger.
* :func:`cg_solve`, :func:`kernel_matvec` — the tile-native
  preconditioned conjugate-gradient solver behind factor-once
  hyperparameter sweeps (``KRRConfig.solver="cg"``).
"""

from repro.linalg.kernels import tile_gemm, tile_potrf, tile_syrk, tile_trsm
from repro.linalg.cholesky import CholeskyResult, cholesky
from repro.linalg.solve import solve_cholesky, solve_triangular
from repro.linalg.blas3 import gemm
from repro.linalg.cg import CGResult, cg_solve, kernel_matvec

__all__ = [
    "tile_potrf",
    "tile_trsm",
    "tile_syrk",
    "tile_gemm",
    "cholesky",
    "CholeskyResult",
    "solve_triangular",
    "solve_cholesky",
    "gemm",
    "cg_solve",
    "CGResult",
    "kernel_matvec",
]
