"""Single-tile computational kernels at a chosen precision.

These are the task bodies of the tiled algorithms — the Python
equivalents of the cuSOLVER/cuBLAS kernels PaRSEC dispatches per tile:

========  =============================================================
POTRF     Cholesky factorization of a diagonal tile.
TRSM      Triangular solve updating a panel tile (or, transposed, a
          block of a triangular solve's right-hand side).
SYRK      Symmetric rank-k update of a diagonal tile.
GEMM      General update of an off-diagonal tile, and the block update
          of a triangular solve's right-hand side.
========  =============================================================

Which arithmetic runs is decided by the *compute* precision alone.  A
hardware float format (FP32, FP64) is handed to LAPACK/BLAS in its own
dtype, the way the paper's solver hands a tile to cuSOLVER/cuBLAS:
``?potrf``/``?trsm``/``?syrk``/``?gemm`` on the zero-copy transposed
(Fortran-ordered) views of the C-ordered payloads, in place in a *copy*
of the destination — an input payload is never written, it may be a
read-only map of a store segment or of another process's arena.  An
operand is read as ``np.asarray(data, dtype)``: for these two formats
the cast *is* the rounding, and it is the payload itself when the dtype
already matches (an FP8-grid tile in its float32 container feeds
``sgemm`` as is).  An emulated format (FP16, FP8) quantizes its
inputs onto its grid, in float32.  Its SYRK/GEMM update is the tensor
core's ``C = C − A·Bᵀ``: ``ssyrk``/``sgemm`` with ``beta=1`` in place
in a float32 copy of the on-grid destination — the FP32 accumulator —
rounded once on store.  Its POTRF/TRSM factor and solve in float64 and
round once.

Either way the result is on the compute precision's grid *in that
format's storage dtype*: the caller adopts it as a tile of the compute
precision without rounding or casting (``Tile._on_grid``), or
constructs a ``Tile`` at any other one.  A destination :class:`Tile`
already at the compute precision is read as is, its payload being on
that grid by the tile invariant.

The second half of the module wraps the four kernels as the tiled
Cholesky's task descriptors (:class:`PotrfSpec`, :class:`TrsmSpec`,
:class:`SyrkSpec`, :class:`GemmTrailSpec`): tile in, tile out, the one
body every execution of the factorization runs — in host order for the
graph-free reference, inline under the serial/threaded drains, on a
worker under the process drain.  A descriptor is a pure function of its
tiles and scalar parameters: no state outlives a task.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import blas, lapack

from repro.precision.formats import Precision
from repro.precision.gemm import QuantizedOperand
from repro.precision.quantize import quantize
from repro.runtime.task import BodySpec
from repro.tiles.tile import Tile, retile

#: LAPACK/BLAS routine prefix of the compute precisions that *are* a
#: hardware dtype; every other format is emulated.  Membership is the
#: one selector between the two arithmetics.
NATIVE = {Precision.FP32: "s", Precision.FP64: "d"}


def _as64(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _payload(x: "np.ndarray | Tile") -> np.ndarray:
    return x.data if isinstance(x, Tile) else np.asarray(x)


def _blas_arrays(precision: Precision, *inputs,
                 order: str = "C") -> list[np.ndarray]:
    """``inputs`` in the dtype of the BLAS that computes at ``precision``:
    the operands as they are when the dtype matches, the last one — the
    destination BLAS overwrites — always as a fresh copy in ``order``.  An
    emulated update runs in float32, the FP32 accumulator: its operands
    are the payloads of their :func:`panel_operand`, its destination is
    first put on the compute grid (read as is from a tile there)."""
    dest = inputs[-1]
    dtype = precision.numpy_dtype
    if precision in NATIVE:
        arrays = [np.asarray(_payload(x), dtype=dtype) for x in inputs[:-1]]
    else:
        arrays = [panel_operand(x, precision).array for x in inputs[:-1]]
        if not (isinstance(dest, Tile) and dest.precision is precision):
            dest = quantize(_payload(dest), precision)
    return arrays + [np.array(_payload(dest), dtype=dtype, order=order)]


def panel_operand(tile: "np.ndarray | Tile",
                  precision: Precision | str) -> QuantizedOperand:
    """A panel tile as the operand of an emulated update at ``precision``:
    quantized onto that grid, its float32 payload is what ``sgemm``
    reads.  A :class:`Tile` stored at that precision needs no
    quantization at all: its payload is the operand, wrapped without a
    copy: the common case, an update at its panel tile's storage
    precision.
    """
    precision = Precision.from_string(precision)
    if isinstance(tile, Tile) and tile.precision is precision:
        return QuantizedOperand._on_grid(tile.data, precision)
    return QuantizedOperand(_payload(tile), precision)


def tile_potrf(a: "np.ndarray | Tile",
               precision: Precision | str = Precision.FP64) -> np.ndarray:
    """Lower Cholesky factor of one (symmetric positive definite) tile.

    Only the lower triangle of ``a`` is read; the factor's strict upper
    triangle is zero.  FP32/FP64 are ``?potrf`` in that dtype; an
    emulated precision quantizes the input, factors in float64 host
    arithmetic and rounds the factor, which models a hardware POTRF
    whose dominant error is the storage rounding.  Raises
    ``numpy.linalg.LinAlgError`` if the tile is not positive definite at
    the chosen precision — the same failure low-precision hardware hits
    when regularization is too small, which is why the paper keeps
    diagonal tiles in the working precision.
    """
    precision = Precision.from_string(precision)
    if precision not in NATIVE:
        factor = np.linalg.cholesky(_as64(quantize(_payload(a), precision)))
        return quantize(factor, precision)
    work, = _blas_arrays(precision, a)
    # the C-ordered lower triangle is the transposed view's upper one
    potrf = getattr(lapack, NATIVE[precision] + "potrf")
    factor, info = potrf(work.T, lower=0, clean=1, overwrite_a=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"tile is not positive definite at {precision.value}: "
            f"leading minor of order {info}")
    if info < 0:
        raise ValueError(f"illegal argument {-info} in {potrf.__name__}")
    return factor.T


def tile_trsm(l_tile: "np.ndarray | Tile", b_tile: "np.ndarray | Tile",
              precision: Precision | str = Precision.FP64,
              trans: bool = False) -> np.ndarray:
    """Panel solve ``X = B @ L^{-T}`` against a lower-triangular tile (only
    its lower triangle is read): the update applied to the tiles below the
    diagonal in the right-looking tiled Cholesky.  ``trans`` solves
    ``X = B @ L^{-1}`` instead; on a transposed right-hand-side block,
    ``trans=False``/``True`` are the diagonal steps of the forward
    (``L``) and backward (``L^T``) triangular sweeps."""
    precision = Precision.from_string(precision)
    if precision not in NATIVE:
        t64 = _as64(quantize(_payload(l_tile), precision))
        b64 = _as64(quantize(_payload(b_tile), precision))
        # X op(L)^T = B  ->  op(L) X^T = B^T
        x = scipy.linalg.solve_triangular(t64, b64.T, lower=True,
                                          trans=int(trans)).T
        return quantize(x, precision)
    lower, work = _blas_arrays(precision, l_tile, b_tile)
    if not work.size:
        return work
    # op(L) X^T = B^T on the transposed views, in place in the copy of B:
    # L.T is upper, and trans_a=1 applies its transpose L
    trsm = getattr(blas, NATIVE[precision] + "trsm")
    return trsm(1.0, lower.T, work.T, side=0, lower=0, trans_a=int(not trans),
                overwrite_b=1).T


def tile_syrk(a_tile: "np.ndarray | Tile",
              c_tile: "np.ndarray | Tile",
              precision: Precision | str = Precision.FP64) -> np.ndarray:
    """Symmetric rank-k update ``C - A @ A.T`` of one diagonal tile.

    One fused ``?syrk`` on the lower triangle (the strict upper one
    keeps the destination's values; nothing reads it): in the native
    dtype for FP32/FP64, in the FP32 accumulator (tensor-core
    behaviour) for FP16/FP8, then rounded once on store.
    """
    precision = Precision.from_string(precision)
    a, work = _blas_arrays(precision, a_tile, c_tile)
    if a.size:
        syrk = getattr(blas, NATIVE.get(precision, "s") + "syrk")
        work = syrk(-1.0, a.T, beta=1.0, c=work.T, trans=1, lower=0,
                    overwrite_c=1).T
    return work if precision in NATIVE else quantize(work, precision)


def tile_gemm(a_tile: "np.ndarray | Tile", b_tile: "np.ndarray | Tile",
              c_tile: "np.ndarray | Tile",
              precision: Precision | str = Precision.FP64) -> np.ndarray:
    """General tile update ``C - A @ B.T``, one ``?gemm`` with ``beta=1``
    in the same dtype and accumulator as :func:`tile_syrk`.

    This is the kernel that dominates the Associate phase; its compute
    precision is what the adaptive mosaic lowers to FP16/FP8.
    """
    precision = Precision.from_string(precision)
    a, b, work = _blas_arrays(precision, a_tile, b_tile, c_tile)
    if work.size and a.size:
        # C^T - B A^T on the transposed views, in place in the copy of C
        gemm = getattr(blas, NATIVE.get(precision, "s") + "gemm")
        work = gemm(-1.0, b.T, a.T, beta=1.0, c=work.T, trans_a=1,
                    overwrite_c=1).T
    return work if precision in NATIVE else quantize(work, precision)


def tile_solve_gemm(l_tile: "np.ndarray | Tile", x: np.ndarray,
                    acc: np.ndarray,
                    precision: Precision | str = Precision.FP64,
                    trans: bool = False) -> np.ndarray:
    """Right-hand-side block update ``acc - L @ x`` (``acc - L^T @ x``
    with ``trans``) of a triangular sweep: one ``?gemm`` with ``beta=1``
    in an F-ordered copy of ``acc``, in the same dtype and accumulator as
    :func:`tile_gemm`.  Not :func:`tile_gemm` itself: its ``C^T - B A^T``
    would make the panel's few columns BLAS's M dimension, here they are
    its N one."""
    precision = Precision.from_string(precision)
    lower, b, work = _blas_arrays(precision, l_tile, x, acc, order="F")
    if work.size:
        # L's C-ordered payload is L^T to Fortran: trans_a=1 applies L
        gemm = getattr(blas, NATIVE.get(precision, "s") + "gemm")
        work = gemm(-1.0, lower.T, b, beta=1.0, c=work,
                    trans_a=int(not trans), overwrite_c=1)
    return work if precision in NATIVE else quantize(work, precision)


def potrf_flops(nb: int) -> float:
    """Operation count of a POTRF on an ``nb × nb`` tile."""
    return nb ** 3 / 3.0 + nb ** 2 / 2.0 + nb / 6.0


def trsm_flops(nb: int, mb: int) -> float:
    """Operation count of a TRSM updating an ``mb × nb`` tile."""
    return float(mb) * nb * nb


def syrk_flops(nb: int, kb: int) -> float:
    """Operation count of a rank-``kb`` SYRK on an ``nb × nb`` tile."""
    return float(nb) * (nb + 1) * kb


# ----------------------------------------------------------------------
# the tiled Cholesky's task descriptors
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PotrfSpec(BodySpec):
    """Diagonal Cholesky: ``A(k,k) -> chol(A(k,k))`` at ``wp``."""

    wp: Precision

    def run(self, a: Tile) -> Tile:
        return Tile._on_grid(tile_potrf(a, self.wp), self.wp, a.coords)


@dataclass(frozen=True)
class TrsmSpec(BodySpec):
    """Panel solve ``L(i,k) = A(i,k) L(k,k)^-T`` stored at ``storage``."""

    wp: Precision
    storage: Precision

    def run(self, lkk: Tile, aik: Tile) -> Tile:
        lik = Tile._on_grid(tile_trsm(lkk, aik, self.wp), self.wp)
        # computed at wp, stored at the mosaic's precision: where the
        # two differ, the one real rounding of the factorization
        return retile(lik, self.storage, aik.coords)


@dataclass(frozen=True)
class SyrkSpec(BodySpec):
    """Trailing diagonal update ``A(i,i) -= L(i,k) L(i,k)^T`` at ``p``."""

    p: Precision

    def run(self, lik: Tile, aii: Tile) -> Tile:
        return Tile._on_grid(tile_syrk(lik, aii, self.p), self.p, aii.coords)


@dataclass(frozen=True)
class GemmTrailSpec(BodySpec):
    """Trailing update ``A(i,j) -= L(i,k) L(j,k)^T`` at ``p``."""

    p: Precision

    def run(self, lik: Tile, ljk: Tile, aij: Tile) -> Tile:
        out = tile_gemm(lik, ljk, aij, self.p)
        return Tile._on_grid(out, self.p, aij.coords)
