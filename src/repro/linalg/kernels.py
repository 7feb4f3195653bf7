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

The second half of the module wraps the four kernels as the tiled
Cholesky's task descriptors (:class:`PotrfSpec`, :class:`TrsmSpec`,
:class:`SyrkSpec`, :class:`GemmTrailSpec`): tile in, tile out, the one
body every DAG execution of the factorization runs — inline under the
serial/threaded drains, on a worker under the process drain.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

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
from repro.runtime.task import BodySpec
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


# ----------------------------------------------------------------------
# the tiled Cholesky's task descriptors
# ----------------------------------------------------------------------
class OperandCache:
    """Per-process memo of ``panel_operand(tile, precision)``.

    A panel tile ``L[i,k]`` is consumed by one SYRK and up to ``nt-k-2``
    GEMMs per compute precision, all of which would otherwise quantize
    it from scratch.  ``key`` is the panel tile's handle uid — unique in
    the coordinating process and never rebound to other data — and a
    panel payload never changes once its TRSM wrote it, so an entry
    cannot go stale; the operand is a deterministic function of the
    tile, so a miss (or two threads missing at once) recomputes exactly
    what any other worker holds.  Caching never changes results.

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
             uses: int = 1) -> QuantizedOperand:
        """The operand of ``tile``, for one of its ``uses`` consumers."""
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
        return Tile._on_grid(tile_potrf(a.float64_values(), precision=self.wp),
                             self.wp, a.coords)


@dataclass(frozen=True)
class TrsmSpec(BodySpec):
    """Panel solve ``L(i,k) = A(i,k) L(k,k)^-T`` stored at ``storage``."""

    wp: Precision
    storage: Precision

    def run(self, lkk: Tile, aik: Tile) -> Tile:
        lik = tile_trsm(lkk.float64_values(), aik.float64_values(),
                        precision=self.wp, side="right", trans=True)
        # computed at wp, stored at ``storage``: a real rounding, the
        # one the host-ordered reference applies through set_tile
        return Tile(lik, precision=self.storage, coords=aik.coords)


@dataclass(frozen=True)
class SyrkSpec(BodySpec):
    """Trailing diagonal update ``A(i,i) -= L(i,k) L(i,k)^T`` at ``p``.

    ``key_ik`` / ``uses_ik``: the panel tile's :class:`OperandCache` key
    and how many tasks consume it at ``p``.
    """

    p: Precision
    key_ik: int
    uses_ik: int = 1

    def run(self, lik: Tile, aii: Tile) -> Tile:
        out = tile_syrk(OPERANDS.take(self.key_ik, self.p, lik, self.uses_ik),
                        aii, precision=self.p, alpha=-1.0, beta=1.0)
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
                        aij, precision=self.p,
                        alpha=-1.0, beta=1.0, transb=True)
        return Tile._on_grid(out, self.p, aij.coords)
