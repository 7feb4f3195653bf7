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
``sgemm`` as is).  An emulated format (FP16, BF16, FP8) quantizes its
inputs onto the format's grid.  Its SYRK/GEMM update is the tensor
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
worker under the process drain.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
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
    are the cached casts of their :func:`panel_operand`, its destination
    is first put on the compute grid (read as is from a tile there)."""
    dest = inputs[-1]
    if precision in NATIVE:
        dtype = precision.numpy_dtype
        arrays = [np.asarray(_payload(x), dtype=dtype) for x in inputs[:-1]]
    else:
        dtype = np.float32
        arrays = [panel_operand(x, precision).as_float(dtype)
                  for x in inputs[:-1]]
        if not (isinstance(dest, Tile) and dest.precision is precision):
            dest = quantize(_payload(dest), precision)
    return arrays + [np.array(_payload(dest), dtype=dtype, order=order)]


def panel_operand(tile: "np.ndarray | Tile | QuantizedOperand",
                  precision: Precision | str) -> QuantizedOperand:
    """Pre-quantize a panel tile for reuse across emulated trailing updates.

    The Cholesky trailing update reads each panel tile ``L[i,k]`` once
    per destination tile in its block row/column; wrapping it in a
    :class:`QuantizedOperand` on the update's grid makes the repeated
    quantization — and the float32 cast ``sgemm`` reads — a cache hit.
    A :class:`Tile` stored at that precision needs no quantization at
    all: its payload is the operand.
    """
    if isinstance(tile, QuantizedOperand):
        return tile
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


def tile_syrk(a_tile: "np.ndarray | Tile | QuantizedOperand",
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


def tile_gemm(a_tile: "np.ndarray | Tile | QuantizedOperand",
              b_tile: "np.ndarray | Tile | QuantizedOperand",
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


def gemm_flops(mb: int, nb: int, kb: int) -> float:
    """Operation count of an ``mb×kb @ kb×nb`` GEMM."""
    return 2.0 * mb * nb * kb


# ----------------------------------------------------------------------
# the tiled Cholesky's task descriptors
# ----------------------------------------------------------------------
class OperandCache:
    """Per-process memo of ``panel_operand(tile, precision)``.

    A panel tile ``L[i,k]`` is consumed by one SYRK and up to ``nt-k-2``
    GEMMs per *emulated* compute precision, all of which would otherwise
    quantize it from scratch (a native kernel reads the tile's payload
    itself: there is nothing to share).  ``key`` is the panel tile's
    handle uid — unique in the coordinating process and never rebound to
    other data — and a panel payload never changes once its TRSM wrote
    it, so an entry cannot go stale; the operand is a deterministic
    function of the tile, so a miss (or two threads missing at once)
    recomputes exactly what any other worker holds.  Caching never
    changes results.

    Every consumer names the total number of consumers (``uses``): the
    entry counts down and is dropped with its last one, so the cache
    holds the panels in flight rather than every panel of the
    factorization.  A worker process sees only its share of a key's
    consumers and never counts to zero; there the LRU ``cap`` and the
    per-drain :meth:`clear` bound the cache instead.
    """

    def __init__(self, cap: int = 96) -> None:
        self.cap = cap
        self.released = 0  #: entries dropped with their last consumer
        self.evicted = 0   #: entries dropped by the cap
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()  # key -> [operand, uses left]

    def take(self, key: int, precision: Precision, tile: Tile,
             uses: int = 1) -> "QuantizedOperand | Tile":
        """The operand of ``tile`` for one of its ``uses`` consumers at
        ``precision``; a native format multiplies the tile itself."""
        if precision in NATIVE:
            return tile
        cache_key = (key, precision)
        fresh = None
        while True:
            with self._lock:
                entry = self._entries.get(cache_key)
                if entry is not None:
                    entry[1] -= 1
                    if entry[1] <= 0:
                        del self._entries[cache_key]
                        self.released += 1
                    else:
                        self._entries.move_to_end(cache_key)
                    return entry[0]
                if fresh is not None:
                    if uses > 1:
                        self._entries[cache_key] = [fresh, uses - 1]
                        if len(self._entries) > self.cap:
                            self._entries.popitem(last=False)
                            self.evicted += 1
                    return fresh
            # quantize outside the lock: other keys must not wait on it
            fresh = panel_operand(tile, precision)

    def drop(self, keys) -> None:
        """Forget the entries of ``keys`` (a finished or failed drain's
        handle uids): an evicted-and-recomputed entry restarts its
        count, and a failed drain never finishes counting."""
        with self._lock:
            for cache_key in [ck for ck in self._entries if ck[0] in keys]:
                del self._entries[cache_key]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


OPERANDS = OperandCache()
clear_operand_cache = OPERANDS.clear


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
    """Trailing diagonal update ``A(i,i) -= L(i,k) L(i,k)^T`` at ``p``.

    ``key_ik`` / ``uses_ik``: the panel tile's :class:`OperandCache` key
    and how many tasks consume it at ``p`` (emulated ``p`` only).
    """

    p: Precision
    key_ik: int
    uses_ik: int = 1

    def run(self, lik: Tile, aii: Tile) -> Tile:
        out = tile_syrk(OPERANDS.take(self.key_ik, self.p, lik, self.uses_ik),
                        aii, self.p)
        return Tile._on_grid(out, self.p, aii.coords)


@dataclass(frozen=True)
class GemmTrailSpec(BodySpec):
    """Trailing update ``A(i,j) -= L(i,k) L(j,k)^T`` at ``p``."""

    p: Precision
    key_ik: int
    key_jk: int
    uses_ik: int = 1
    uses_jk: int = 1

    def run(self, lik: Tile, ljk: Tile, aij: Tile) -> Tile:
        out = tile_gemm(OPERANDS.take(self.key_ik, self.p, lik, self.uses_ik),
                        OPERANDS.take(self.key_jk, self.p, ljk, self.uses_jk),
                        aij, self.p)
        return Tile._on_grid(out, self.p, aij.coords)
