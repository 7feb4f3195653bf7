"""Triangular and Cholesky-based solves (POTRS).

The Associate phase ends with ``W = (K + alpha*I)^{-1} Ph`` computed as
two triangular sweeps against the tiled Cholesky factor, both in the
working precision (FP32 in the paper): the right-hand-side panel ``Ph``
is a few phenotype columns wide and does not benefit from tensor cores.

A sweep is two tile kernels of :mod:`repro.linalg.kernels`, which
compute a working precision the way the factor's kernels do (FP32/FP64
in that dtype's BLAS): the block update :class:`SolveGemmSpec` and the
diagonal solve :class:`SolveTrsmSpec`.  The panel travels between them
as F-ordered row blocks in the working precision's dtype and is cast to
float64 once, when the result is assembled.  The inline loop and every
tasked drain run the same two ``run`` bodies, so they agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.precision.formats import Precision
from repro.precision.quantize import quantize
from repro.linalg.cholesky import CholeskyResult
from repro.linalg.kernels import (gemm_flops, tile_solve_gemm, tile_trsm,
                                  trsm_flops)
from repro.runtime.runtime import Runtime
from repro.runtime.task import AccessMode, BodySpec, TaskSpec, TileInput
from repro.tiles.matrix import TileMatrix
from repro.tiles.tile import Tile


@dataclass(frozen=True)
class SolveGemmSpec(BodySpec):
    """Solve block update ``acc -= op(L) @ x_j``: ``op(L)`` is the stored
    tile ``L[i,j]`` on the forward sweep and ``L[j,i]^T`` (``transpose``)
    on the backward one."""

    precision: Precision
    transpose: bool

    def run(self, xj: np.ndarray, acc: np.ndarray, lij: Tile) -> np.ndarray:
        return tile_solve_gemm(lij, xj, acc, self.precision, self.transpose)


@dataclass(frozen=True)
class SolveTrsmSpec(BodySpec):
    """Diagonal solve ``op(L[i,i]) X = acc`` of one row block: ``L`` on
    the forward sweep, ``L^T`` (``transpose``) on the backward one."""

    precision: Precision
    transpose: bool

    def run(self, acc: np.ndarray, diag: Tile) -> np.ndarray:
        # tile_trsm solves X op(L)^T = B: on B = acc^T its X is our X^T
        return tile_trsm(diag, acc.T, self.precision, self.transpose).T


def _sweep(factor: TileMatrix, x: list[np.ndarray], trans: bool,
           precision: Precision, runtime: Runtime | None,
           phase: str) -> list[np.ndarray]:
    """One sweep ``op(L) X = B`` over the row blocks ``x``: forward
    substitution with ``L``, or backward with ``L^T`` (``trans``), whose
    block ``(i, j)`` is the stored tile ``(j, i)`` transposed.

    With ``runtime`` each row block becomes one handle; the block update
    is a task reading row ``j`` and read-writing row ``i``, and the
    diagonal solve a task on row ``i``.  The derived RAW/WAW chains
    reproduce the inline update order per row exactly (bitwise), while
    updates of *different* rows run out of order on the worker pool.
    The factor tiles are ``TileInput``s, read per execution — a
    store-backed factor's spilled tiles fault in exactly when their task
    runs, pinned by ``tile_deps``.
    """
    nt = factor.layout.tile_rows
    rows = reversed(range(nt)) if trans else range(nt)
    update = SolveGemmSpec(precision, trans)
    diag_solve = SolveTrsmSpec(precision, trans)

    def blocks(i: int):
        """``(j, stored tile coords)`` of the updates of row ``i``."""
        if trans:
            return [(j, (j, i)) for j in range(i + 1, nt)]
        return [(j, (i, j)) for j in range(i)]

    if runtime is None:
        x = list(x)
        for i in rows:
            acc = x[i]
            for j, coords in blocks(i):
                acc = update.run(x[j], acc, factor.get_tile(*coords))
            x[i] = diag_solve.run(acc, factor.get_tile(i, i))
        return x

    binding = factor._binding

    def deps(coords):
        return () if binding is None else ((binding, coords),)

    with runtime.dag("trsm", store=factor.store) as ns:
        handles = [runtime.register_data(f"{ns}x({i})", payload=x[i])
                   for i in range(nt)]
        for i in rows:
            width = x[i].shape[1]
            for j, coords in blocks(i):
                runtime.insert_task(
                    "solve_gemm",
                    (handles[j], AccessMode.READ),
                    (handles[i], AccessMode.READWRITE),
                    flops=gemm_flops(*factor.layout.tile_shape(*coords), width),
                    precision=precision, tag=(i, j),
                    tile_deps=deps(coords),
                    spec=TaskSpec(update, mode="both",
                                  aux=(TileInput(factor, coords),)),
                )
            runtime.insert_task(
                "solve_trsm", (handles[i], AccessMode.READWRITE),
                flops=trsm_flops(factor.layout.tile_shape(i, i)[0], width),
                precision=precision, priority=i + 1 if trans else nt - i,
                tag=(i, i),
                tile_deps=deps((i, i)),
                spec=TaskSpec(diag_solve, mode="both",
                              aux=(TileInput(factor, (i, i)),)),
            )
        runtime.run(phase=phase)
        return [handle.payload for handle in handles]


def _solve(factor: TileMatrix | np.ndarray, rhs: np.ndarray,
           sweeps: tuple[bool, ...], precision: Precision | str,
           runtime: Runtime | None, phase: str) -> np.ndarray:
    """Run ``sweeps`` (one ``trans`` flag each) on ``rhs`` in order."""
    precision = Precision.from_string(precision)
    if isinstance(factor, np.ndarray):
        # a dense factor is a one-tile matrix
        factor = TileMatrix.from_dense(factor, max(1, factor.shape[0]))
    b = np.asarray(rhs)
    squeeze = b.ndim == 1
    if squeeze:
        b = b[:, None]
    if b.shape[0] != factor.shape[0]:
        raise ValueError(f"the right-hand side has {b.shape[0]} rows, the "
                         f"factor {factor.shape[0]}")
    tile_rows = [factor.layout.tile_slice(i, 0)[0]
                 for i in range(factor.layout.tile_rows)]
    work = quantize(b, precision)
    x = [np.asfortranarray(work[rows]) for rows in tile_rows]
    for trans in sweeps:
        x = _sweep(factor, x, trans, precision, runtime, phase)
    # C-ordered float64: downstream GEMMs are layout-sensitive at the
    # last bit
    out = np.empty(b.shape, dtype=np.float64)
    for rows, block in zip(tile_rows, x):
        out[rows] = block
    return out[:, 0] if squeeze else out


def solve_triangular(factor: TileMatrix | np.ndarray,
                     rhs: np.ndarray,
                     trans: bool = False,
                     precision: Precision | str = Precision.FP32,
                     runtime: Runtime | None = None,
                     phase: str = "solve",
                     ) -> np.ndarray:
    """Solve ``L X = B`` (``L^T X = B`` with ``trans``) against a
    lower-triangular factor, tiled or dense (a dense one is solved as a
    single tile; only the lower triangle is read).

    ``rhs`` is a vector or a panel (phenotype panels are a few columns
    wide) with one row per factor row, else ``ValueError``.  The solve
    runs blockwise over the factor's tile rows, forward or reversed, in
    the working ``precision``: ``B`` is rounded to it once, and each
    block update and diagonal solve computes in it, as the factor's
    kernels do.  The result is float64, C-ordered.

    With ``runtime`` the sweep is inserted as per-tile-row TRSM/GEMM
    tasks and executed under the runtime's scheduler (bitwise identical
    to the inline loop); without it the loop runs directly on the
    caller's thread.
    """
    return _solve(factor, rhs, (trans,), precision, runtime, phase)


def solve_cholesky(factorization: CholeskyResult | TileMatrix | np.ndarray,
                   rhs: np.ndarray,
                   precision: Precision | str = Precision.FP32,
                   runtime: Runtime | None = None,
                   phase: str = "solve",
                   ) -> np.ndarray:
    """POTRS: solve ``A X = B`` given the lower Cholesky factor of ``A``.

    Performs the forward solve ``L Y = B`` followed by the backward
    solve ``L^T X = Y``, both in the given working precision (``Y``
    stays in it between the two).  With ``runtime`` each sweep runs as
    per-tile-row tasks under that runtime's scheduler (see
    :func:`solve_triangular`).
    """
    if isinstance(factorization, CholeskyResult):
        factorization = factorization.factor
    return _solve(factorization, rhs, (False, True), precision, runtime,
                  phase)
