"""Single-tile computational kernels at a chosen precision.

These are the task bodies of the tiled algorithms — the Python
equivalents of the cuSOLVER/cuBLAS kernels PaRSEC dispatches per tile:

========  =============================================================
POTRF     Cholesky factorization of a diagonal tile.
TRSM      Triangular solve updating a panel tile.
SYRK      Symmetric rank-k update of a diagonal tile.
GEMM      General update of an off-diagonal tile.
========  =============================================================

Each kernel quantizes its inputs to the requested *compute* precision,
performs the operation with a wider accumulator where the hardware
would (FP32 accumulation for FP16/FP8 tensor-core GEMM/SYRK), and
returns the result — rounded to the compute precision — in float64, so
the caller decides the storage precision of the output tile: it may
adopt the values as a tile of the compute precision without rounding
again (``Tile._on_grid``), or construct a ``Tile`` at any other one.
SYRK and GEMM take their destination as a :class:`Tile` too; one that
is already at the compute precision is read as is, its payload being
on that grid by the tile invariant.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.precision.formats import Precision
from repro.precision.gemm import (
    QuantizedOperand,
    gemm_mixed,
    syrk_mixed,
    variant_for_input,
)
from repro.precision.quantize import quantize
from repro.tiles.tile import Tile


def _as64(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _destination64(c_tile: "np.ndarray | Tile", precision: Precision) -> np.ndarray:
    """Float64 values of an update's destination at the compute precision."""
    if isinstance(c_tile, Tile):
        if c_tile.precision is precision:
            return c_tile.float64_values()  # on the grid already
        c_tile = c_tile.data
    return _as64(quantize(_as64(c_tile), precision))


def panel_operand(tile: "np.ndarray | Tile",
                  precision: Precision | str) -> QuantizedOperand:
    """Pre-quantize a panel tile for reuse across trailing updates.

    The Cholesky trailing update reads each panel tile ``L[i,k]`` once
    per destination tile in its block row/column; wrapping it in a
    :class:`QuantizedOperand` at the update variant's input precision
    makes the repeated quantization a cache hit.  A :class:`Tile`
    stored at that input precision needs no quantization at all: its
    payload is the operand.
    """
    precision = Precision.from_string(precision)
    variant = variant_for_input(precision if precision.is_float else Precision.FP32)
    if isinstance(tile, Tile):
        if tile.precision is variant.input_precision:
            return QuantizedOperand._on_grid(tile.data, tile.precision)
        tile = tile.data
    return QuantizedOperand(np.asarray(tile), variant.input_precision)


def tile_potrf(a: np.ndarray, precision: Precision | str = Precision.FP64,
               lower: bool = True) -> np.ndarray:
    """Cholesky factorization of one (symmetric positive definite) tile.

    The factorization itself runs in the requested precision's value
    grid: the input is quantized, the factorization is done in float64
    host arithmetic and the factor is re-quantized, which models a
    hardware POTRF whose dominant error is the storage rounding.
    Raises ``numpy.linalg.LinAlgError`` if the tile is not positive
    definite at the chosen precision — the same failure low-precision
    hardware hits when regularization is too small, which is why the
    paper keeps diagonal tiles in the working precision.
    """
    precision = Precision.from_string(precision)
    aq = _as64(quantize(_as64(a), precision))
    factor = np.linalg.cholesky(aq)  # raises LinAlgError if not SPD
    if not lower:
        factor = factor.T
    return _as64(quantize(factor, precision))


def tile_trsm(l_tile: np.ndarray, b_tile: np.ndarray,
              precision: Precision | str = Precision.FP64,
              side: str = "right", lower: bool = True,
              trans: bool = True) -> np.ndarray:
    """Triangular solve kernel.

    Default mode (``side="right"``, ``trans=True``) computes
    ``X = B @ L^{-T}``, the update applied to panel tiles below the
    diagonal in the right-looking tiled Cholesky.
    """
    precision = Precision.from_string(precision)
    t64 = _as64(quantize(_as64(l_tile), precision))
    b64 = _as64(quantize(_as64(b_tile), precision))

    if side == "left" and not trans:
        # T X = B
        x = scipy.linalg.solve_triangular(t64, b64, lower=lower)
    elif side == "left" and trans:
        # T^T X = B
        x = scipy.linalg.solve_triangular(t64.T, b64, lower=not lower)
    elif side == "right" and not trans:
        # X T = B  ->  T^T X^T = B^T
        x = scipy.linalg.solve_triangular(t64.T, b64.T, lower=not lower).T
    elif side == "right" and trans:
        # X T^T = B  ->  T X^T = B^T
        x = scipy.linalg.solve_triangular(t64, b64.T, lower=lower).T
    else:
        raise ValueError("side must be 'left' or 'right'")
    return _as64(quantize(x, precision))


def tile_syrk(a_tile: np.ndarray, c_tile: "np.ndarray | Tile",
              precision: Precision | str = Precision.FP64,
              alpha: float = -1.0, beta: float = 1.0) -> np.ndarray:
    """Symmetric rank-k update ``C = alpha * A @ A.T + beta * C`` on one tile.

    For FP16/FP8 compute precisions the product accumulates in FP32
    (tensor-core behaviour).  The Gram product runs through the BLAS
    ``?syrk`` triangular update of :func:`repro.precision.gemm.syrk_mixed`
    (half the flops of the full GEMM the historical path used).
    """
    precision = Precision.from_string(precision)
    variant = variant_for_input(precision) if precision.is_float else variant_for_input(Precision.FP32)
    prod = _as64(syrk_mixed(a_tile, variant=variant))
    c64 = _destination64(c_tile, precision)
    out = alpha * prod + beta * c64
    return _as64(quantize(out, precision))


def tile_gemm(a_tile: np.ndarray, b_tile: np.ndarray,
              c_tile: "np.ndarray | Tile",
              precision: Precision | str = Precision.FP64,
              alpha: float = -1.0, beta: float = 1.0,
              transa: bool = False, transb: bool = True) -> np.ndarray:
    """General tile update ``C = alpha * op(A) @ op(B) + beta * C``.

    This is the kernel that dominates the Associate phase; its compute
    precision is what the adaptive mosaic lowers to FP16/FP8.
    """
    precision = Precision.from_string(precision)
    variant = variant_for_input(precision) if precision.is_float else variant_for_input(Precision.FP32)
    prod = _as64(gemm_mixed(a_tile, b_tile, variant=variant,
                            transa=transa, transb=transb))
    c64 = _destination64(c_tile, precision)
    out = alpha * prod + beta * c64
    return _as64(quantize(out, precision))


def potrf_flops(nb: int) -> float:
    """Operation count of a POTRF on an ``nb × nb`` tile."""
    return nb ** 3 / 3.0 + nb ** 2 / 2.0 + nb / 6.0


def trsm_flops(nb: int, mb: int) -> float:
    """Operation count of a TRSM updating an ``mb × nb`` tile."""
    return float(mb) * nb * nb


def syrk_flops(nb: int, kb: int) -> float:
    """Operation count of a rank-``kb`` SYRK on an ``nb × nb`` tile."""
    return float(nb) * (nb + 1) * kb


def gemm_flops(mb: int, nb: int, kb: int) -> float:
    """Operation count of an ``mb×kb @ kb×nb`` GEMM."""
    return 2.0 * mb * nb * kb
