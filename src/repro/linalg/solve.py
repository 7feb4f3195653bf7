"""Triangular and Cholesky-based solves (POTRS).

The Associate phase ends with ``W = (K + alpha*I)^{-1} Ph`` computed as
two triangular solves against the Cholesky factor, both performed in
the full working precision (FP32 in the paper) because the right-hand
side panel ``Ph`` is small (number of phenotypes) and does not benefit
from tensor cores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from repro.precision.formats import Precision
from repro.precision.quantize import quantize
from repro.linalg.cholesky import CholeskyResult
from repro.linalg.kernels import gemm_flops, trsm_flops
from repro.runtime.runtime import Runtime
from repro.runtime.task import AccessMode, BodySpec, TaskSpec, TileInput
from repro.tiles.matrix import TileMatrix
from repro.tiles.tile import Tile


@dataclass(frozen=True)
class SolveGemmSpec(BodySpec):
    """Solve block update ``acc -= op(L[coords]) @ xj`` + quantize.

    The factor tile is only read: the no-copy float64 view is bitwise
    identical to ``to_float64()`` and skips a tile-size defensive copy
    per block on the CG critical path.
    """

    precision: Precision
    transpose_tile: bool
    transpose_op: bool

    def run(self, xj: np.ndarray, acc: np.ndarray, lij: Tile) -> np.ndarray:
        l64 = lij.float64_values()
        if self.transpose_tile != self.transpose_op:  # two cancel out
            l64 = l64.T
        acc = acc - l64 @ xj
        return np.asarray(quantize(acc, self.precision), dtype=np.float64)


@dataclass(frozen=True)
class SolveTrsmSpec(BodySpec):
    """Diagonal triangular solve of one right-hand-side row block.

    Calls LAPACK ``dtrtrs`` directly — the exact routine
    :func:`scipy.linalg.solve_triangular` dispatches to for float64
    operands, so the result is bitwise identical, minus the wrapper's
    per-call validation (a CG iteration gets here once per tile row,
    per sweep).  ``dtrtrs`` wants an F-ordered diagonal and converts a
    C-ordered one on every call; the transposed view is F-ordered as it
    is, and ``keep_fortran`` caches the plain tile's F-ordered copy *on
    the tile* — for a factor that is applied again and again (the CG
    preconditioner).  A one-shot solve leaves it off: the copy would
    outlive its only use by the factor's lifetime.
    """

    precision: Precision
    transpose: bool
    lower_solve: bool
    keep_fortran: bool = False

    def run(self, acc: np.ndarray, diag: Tile) -> np.ndarray:
        if self.transpose:
            d64 = diag.float64_values().T
        elif self.keep_fortran:
            d64 = diag.fortran64_values()
        else:
            d64 = diag.float64_values()
        out, info = scipy.linalg.lapack.dtrtrs(d64, acc,
                                               lower=self.lower_solve, trans=0)
        if info != 0:
            raise scipy.linalg.LinAlgError(
                f"triangular solve failed on diagonal tile {diag.coords} "
                f"(info={info})")
        return np.asarray(quantize(out, self.precision), dtype=np.float64)


def _solve_runtime(factor: TileMatrix, x: dict[int, np.ndarray],
                   update: SolveGemmSpec, diag_solve: SolveTrsmSpec, tile_of,
                   runtime: Runtime, phase: str) -> dict[int, np.ndarray]:
    """Per-tile-row TRSM/GEMM task insertion for the blockwise solve.

    Each tile row of the right-hand side becomes one handle; the block
    update ``acc -= L[i,j] @ x[j]`` is a task reading row ``j`` and
    read-writing row ``i``, and the diagonal solve is a TRSM task on
    row ``i``.  The derived RAW/WAW chains reproduce the sequential
    update order per row exactly (bitwise), while update tasks of
    *different* rows run out of order on the worker pool.

    The factor tiles are ``TileInput``s, read per execution — without
    staging the whole factor in FP64 and without keeping a store-backed
    factor's tiles alive (spilled tiles fault in exactly when their
    task runs, pinned by ``tile_deps``).
    """
    nt = factor.layout.tile_rows
    forward = diag_solve.lower_solve
    precision = update.precision
    binding = factor._binding

    def deps(coords):
        return () if binding is None else ((binding, coords),)

    with runtime.dag("trsm", store=factor.store) as ns:
        handles = {
            i: runtime.register_data(f"{ns}x({i})", payload=x[i])
            for i in range(nt)
        }
        for i in (range(nt) if forward else reversed(range(nt))):
            width = x[i].shape[1]
            for j in (range(i) if forward else range(i + 1, nt)):
                coords = tile_of(i, j)
                rows, cols = factor.layout.tile_shape(*coords)
                runtime.insert_task(
                    "solve_gemm",
                    (handles[j], AccessMode.READ),
                    (handles[i], AccessMode.READWRITE),
                    flops=gemm_flops(rows, width, cols),
                    precision=precision, tag=(i, j),
                    tile_deps=deps(coords),
                    spec=TaskSpec(update, mode="both",
                                  aux=(TileInput(factor, coords),)),
                )
            runtime.insert_task(
                "solve_trsm", (handles[i], AccessMode.READWRITE),
                flops=trsm_flops(factor.layout.tile_shape(i, i)[0], width),
                precision=precision, priority=nt - i if forward else i + 1,
                tag=(i, i),
                tile_deps=deps((i, i)),
                spec=TaskSpec(diag_solve, mode="both",
                              aux=(TileInput(factor, (i, i)),)),
            )
        runtime.run(phase=phase)
        return {i: handles[i].payload for i in range(nt)}


def solve_triangular(factor: TileMatrix | np.ndarray,
                     rhs: np.ndarray,
                     lower: bool = True, trans: bool = False,
                     precision: Precision | str = Precision.FP32,
                     runtime: Runtime | None = None,
                     phase: str = "solve",
                     ) -> np.ndarray:
    """Solve ``op(L) X = B`` with a (tiled or dense) triangular factor.

    The solve is performed blockwise by tile columns (forward) or
    reversed (backward), quantizing intermediate panels to the working
    precision after each block update — the same rounding pattern as a
    tile-by-tile runtime execution.

    ``rhs`` is a dense vector or panel (phenotype panels are a few
    columns wide); a tiled factor consumes it per tile row.

    With ``runtime`` the blockwise solve is inserted as per-tile-row
    TRSM/GEMM tasks and executed under the runtime's scheduler
    (bitwise identical to the in-line loop); without it the loop runs
    directly on the caller's thread.
    """
    precision = Precision.from_string(precision)
    rhs64 = np.asarray(rhs, dtype=np.float64)
    squeeze = rhs64.ndim == 1
    if squeeze:
        rhs64 = rhs64[:, None]

    if isinstance(factor, np.ndarray):
        l64 = np.asarray(factor, dtype=np.float64)
        op = l64.T if trans else l64
        x = scipy.linalg.solve_triangular(op, rhs64, lower=(lower != trans))
        x = np.asarray(quantize(x, precision), dtype=np.float64)
        return x[:, 0] if squeeze else x

    layout = factor.layout
    nt = layout.tile_rows
    # the right-hand side, sliced by the factor's tile rows
    x = {i: np.asarray(quantize(rhs64[layout.tile_slice(i, 0)[0]], precision),
                       dtype=np.float64) for i in range(nt)}

    # op(L) is lower triangular (forward substitution over tile rows)
    # or upper (backward); its block (i, j) is the stored tile
    # ``tile_of(i, j)``, transposed when the storage is the other
    # triangle.  Both sweeps, tasked or not, run the same two kernels.
    forward = lower != trans
    update = SolveGemmSpec(precision, transpose_tile=not lower,
                           transpose_op=not forward)
    # the runtime-less sweeps are the ones applied repeatedly (one pair
    # per CG iteration), so only they keep F-ordered diagonals around
    diag_solve = SolveTrsmSpec(precision, transpose=lower != forward,
                               lower_solve=forward,
                               keep_fortran=runtime is None)

    def tile_of(i: int, j: int) -> tuple[int, int]:
        return (i, j) if lower == forward else (j, i)

    if runtime is not None:
        x = _solve_runtime(factor, x, update, diag_solve, tile_of,
                           runtime, phase)
    else:
        for i in (range(nt) if forward else reversed(range(nt))):
            acc = x[i]
            for j in (range(i) if forward else range(i + 1, nt)):
                acc = update.run(x[j], acc, factor.get_tile(*tile_of(i, j)))
            x[i] = diag_solve.run(acc, factor.get_tile(i, i))

    # C-ordered result, as the historical in-place dense solve returned
    # (downstream GEMMs are layout-sensitive at the last bit)
    dense = np.ascontiguousarray(np.vstack([x[i] for i in range(nt)]))
    return dense[:, 0] if squeeze else dense


def solve_cholesky(factorization: CholeskyResult | TileMatrix | np.ndarray,
                   rhs: np.ndarray,
                   precision: Precision | str = Precision.FP32,
                   runtime: Runtime | None = None,
                   phase: str = "solve",
                   ) -> np.ndarray:
    """POTRS: solve ``A X = B`` given the lower Cholesky factor of ``A``.

    Performs the forward solve ``L Y = B`` followed by the backward
    solve ``L^T X = Y``, both in the given working precision.  With
    ``runtime`` each sweep runs as per-tile-row tasks under that runtime's
    scheduler (see :func:`solve_triangular`).
    """
    if isinstance(factorization, CholeskyResult):
        factor: TileMatrix | np.ndarray = factorization.factor
    else:
        factor = factorization
    y = solve_triangular(factor, rhs, lower=True, trans=False,
                         precision=precision, runtime=runtime, phase=phase)
    x = solve_triangular(factor, y, lower=True, trans=True,
                         precision=precision, runtime=runtime, phase=phase)
    return x


def solve_spd(matrix: np.ndarray, rhs: np.ndarray, tile_size: int,
              working_precision: Precision | str = Precision.FP32,
              precision_map: dict[tuple[int, int], Precision] | None = None) -> np.ndarray:
    """Convenience: factorize + solve a dense SPD system with the tiled solver."""
    from repro.linalg.cholesky import cholesky

    result = cholesky(np.asarray(matrix, dtype=np.float64), tile_size=tile_size,
                      working_precision=working_precision,
                      precision_map=precision_map)
    return solve_cholesky(result, rhs, precision=working_precision)
