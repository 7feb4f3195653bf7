"""Picklable task-body descriptors for the process backend.

Closures cannot cross a process boundary, so every task kind that may
run on a worker carries a :class:`ProcessTaskSpec` next to its closure
body: a small frozen dataclass (the *descriptor*) naming the kernel and
its scalar parameters, plus a description of where the task's inputs
come from.  The closure body stays authoritative for the serial /
threaded / simulated drains; the descriptor re-expresses the same
arithmetic for workers, operation for operation, so both produce
bitwise identical results.

Input modes (``ProcessTaskSpec.mode``):

``"handles"``
    Worker arguments are the task's access-list payloads in declaration
    order (the same tuple :meth:`Task.execute` passes a closure).
``"aux"``
    Arguments come solely from :attr:`ProcessTaskSpec.aux` — e.g. the
    store-backed Cholesky, whose handles are empty sync tokens and
    whose tiles live in the out-of-core store.
``"both"``
    Handle payloads first, then the aux entries (triangular solve:
    row-block payloads plus the factor tile).

Aux entries are resolved by the *coordinator* at dispatch time:
:class:`TileInput` faults a tile in through the store (after the
dispatch hook pinned it) and publishes it to the exchange, cached per
``(matrix, coords)`` until a writeback invalidates it;
:class:`ObjectInput` publishes an arbitrary object once per drain
(the Build operand context).  Workers keep a small LRU of quantized
panel operands keyed by coordinator-unique handle uids — recomputing
``panel_operand`` per worker is deterministic, so caching is purely a
perf matter and never changes results.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from repro.precision.formats import Precision
from repro.precision.quantize import quantize
from repro.tiles.tile import Tile

# NOTE: kernel functions (tile_potrf & co.) are imported inside the
# descriptors' run() methods: this module is imported by
# repro.linalg.cholesky itself, so a module-level import of
# repro.linalg.kernels would be circular.  Workers pay the lookup once
# per task, which is noise next to the BLAS call.

__all__ = [
    "ALL_SPEC_KINDS",
    "BodySpec",
    "BuildRowSpec",
    "CgMatvecSpec",
    "DenseGemmSpec",
    "GemmTrailSpec",
    "ObjectInput",
    "PotrfSpec",
    "ProcessTaskSpec",
    "SolveGemmSpec",
    "SolveTrsmSpec",
    "SyrkSpec",
    "TileInput",
    "TrsmSpec",
    "cached_operand",
]


# ----------------------------------------------------------------------
# coordinator-side input descriptions (never pickled)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TileInput:
    """One tile argument, faulted in via ``matrix.get_tile(*coords)``.

    ``writeback=True`` marks the tile this task's ``on_complete``
    rewrites; the coordinator invalidates its published copy when the
    task completes so later readers republish the fresh value.
    """

    matrix: object
    coords: tuple
    writeback: bool = False


@dataclass(frozen=True)
class ObjectInput:
    """An arbitrary payload published once per drain under ``key``."""

    obj: object
    key: str


@dataclass(frozen=True)
class ProcessTaskSpec:
    """Everything the process executor needs to run one task remotely."""

    body: "BodySpec"
    mode: str = "handles"  #: "handles" | "aux" | "both"
    aux: tuple = ()
    #: Coordinator-side completion callback receiving the worker's
    #: outputs (store-backed paths write tiles back through the store).
    on_complete: object | None = None


# ----------------------------------------------------------------------
# worker-local quantized-operand cache
# ----------------------------------------------------------------------
_OPERAND_CACHE: OrderedDict = OrderedDict()
_OPERAND_CACHE_MAX = 96


def cached_operand(key: int, precision: Precision, tile: Tile):
    """Worker-local memo of ``panel_operand(tile, precision)``.

    ``key`` is a coordinator-assigned handle uid (globally unique and
    never rebound to different data within the handle's lifetime), so
    entries can never go stale.  The computation is deterministic, so a
    miss recomputes the exact same operand any other worker holds.
    """
    from repro.linalg.kernels import panel_operand

    cache_key = (key, precision)
    got = _OPERAND_CACHE.get(cache_key)
    if got is None:
        got = panel_operand(tile, precision)
        _OPERAND_CACHE[cache_key] = got
        if len(_OPERAND_CACHE) > _OPERAND_CACHE_MAX:
            _OPERAND_CACHE.popitem(last=False)
    else:
        _OPERAND_CACHE.move_to_end(cache_key)
    return got


def clear_operand_cache() -> None:
    _OPERAND_CACHE.clear()


# ----------------------------------------------------------------------
# body descriptors
# ----------------------------------------------------------------------
class BodySpec:
    """Base class for picklable task bodies (``run(*inputs)``)."""

    def run(self, *args):  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True)
class PotrfSpec(BodySpec):
    """Diagonal Cholesky: ``A(k,k) -> chol(A(k,k))`` at ``wp``."""

    wp: Precision

    def run(self, a: Tile) -> Tile:
        from repro.linalg.kernels import tile_potrf

        return Tile._on_grid(tile_potrf(a.float64_values(), precision=self.wp),
                             self.wp, a.coords)


@dataclass(frozen=True)
class TrsmSpec(BodySpec):
    """Panel solve ``L(i,k) = A(i,k) L(k,k)^-T`` stored at ``storage``."""

    wp: Precision
    storage: Precision

    def run(self, lkk: Tile, aik: Tile) -> Tile:
        from repro.linalg.kernels import tile_trsm

        lik = tile_trsm(lkk.float64_values(), aik.float64_values(),
                        precision=self.wp, side="right", trans=True)
        # computed at wp, stored at ``storage``: a real rounding
        return Tile(lik, precision=self.storage, coords=aik.coords)


@dataclass(frozen=True)
class SyrkSpec(BodySpec):
    """Trailing diagonal update ``A(i,i) -= L(i,k) L(i,k)^T`` at ``p``."""

    p: Precision
    key_ik: int

    def run(self, lik: Tile, aii: Tile) -> Tile:
        from repro.linalg.kernels import tile_syrk

        out = tile_syrk(cached_operand(self.key_ik, self.p, lik),
                        aii, precision=self.p, alpha=-1.0, beta=1.0)
        return Tile._on_grid(out, self.p, aii.coords)


@dataclass(frozen=True)
class GemmTrailSpec(BodySpec):
    """Trailing update ``A(i,j) -= L(i,k) L(j,k)^T`` at ``p``."""

    p: Precision
    key_ik: int
    key_jk: int

    def run(self, lik: Tile, ljk: Tile, aij: Tile) -> Tile:
        from repro.linalg.kernels import tile_gemm

        out = tile_gemm(cached_operand(self.key_ik, self.p, lik),
                        cached_operand(self.key_jk, self.p, ljk),
                        aij, precision=self.p,
                        alpha=-1.0, beta=1.0, transb=True)
        return Tile._on_grid(out, self.p, aij.coords)


@dataclass(frozen=True)
class SolveGemmSpec(BodySpec):
    """Solve block update ``acc -= op(L[coords]) @ xj`` + quantize."""

    precision: Precision
    transpose_tile: bool
    transpose_op: bool

    def run(self, xj: np.ndarray, acc: np.ndarray, lij: Tile) -> np.ndarray:
        l64 = lij.to_float64()
        if self.transpose_tile:
            l64 = l64.T
        if self.transpose_op:
            l64 = l64.T
        acc = acc - l64 @ xj
        return np.asarray(quantize(acc, self.precision), dtype=np.float64)


@dataclass(frozen=True)
class SolveTrsmSpec(BodySpec):
    """Diagonal triangular solve of one right-hand-side row block."""

    precision: Precision
    transpose: bool
    lower_solve: bool

    def run(self, acc: np.ndarray, diag: Tile) -> np.ndarray:
        d64 = diag.to_float64()
        if self.transpose:
            d64 = d64.T
        out = scipy.linalg.solve_triangular(d64, acc, lower=self.lower_solve)
        return np.asarray(quantize(out, self.precision), dtype=np.float64)


@dataclass(frozen=True)
class BuildRowSpec(BodySpec):
    """One kernel-matrix row band of the Build phase.

    Receives the prepared operand context (quantized SNP/confounder
    blocks) as its single aux input and recomputes the fused
    gram/distance/Gaussian row band — the exact arithmetic of
    ``KernelBuilder._kernel_rows``.
    """

    gamma: float
    snp_block: int
    row_start: int
    row_stop: int
    col_end: int

    def run(self, ctx) -> np.ndarray:
        from repro.distance.build import compute_kernel_rows

        return compute_kernel_rows(
            ctx, self.gamma, self.snp_block,
            slice(self.row_start, self.row_stop), slice(0, self.col_end))


@dataclass(frozen=True)
class CgMatvecSpec(BodySpec):
    """One tile row of the CG kernel matvec ``(K + alpha*I) @ v``.

    Receives the full FP64 vector/panel handle (plus its unwritten
    output handle) and the row's *stored* kernel tiles as aux inputs,
    in ascending column order; ``transposes[j]`` marks symmetric
    upper-triangle columns whose stored lower tile is multiplied
    through a transposed view.  The accumulation order is the bitwise
    contract shared with the closure body in :mod:`repro.linalg.cg`.
    """

    alpha: float
    row_start: int
    row_stop: int
    transposes: tuple = ()

    def run(self, v: np.ndarray, _out, *tiles: Tile) -> np.ndarray:
        acc = self.alpha * v[self.row_start:self.row_stop]
        c0 = 0
        for j, tile in enumerate(tiles):
            t64 = tile.float64_values()
            if j < len(self.transposes) and self.transposes[j]:
                t64 = t64.T
            width = t64.shape[1]
            acc = acc + t64 @ v[c0:c0 + width]
            c0 += width
        return acc


@dataclass(frozen=True)
class DenseGemmSpec(BodySpec):
    """Tiled mixed-precision GEMM of two dense operands (blas3 path)."""

    tile_size: int
    precision: Precision
    transa: bool
    transb: bool

    def run(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        from repro.linalg.blas3 import gemm

        return gemm(a, b, tile_size=self.tile_size, precision=self.precision,
                    transa=self.transa, transb=self.transb)


#: Every descriptor kind the insertion sites emit — the pickle
#: round-trip test asserts coverage against this tuple.
ALL_SPEC_KINDS = (
    PotrfSpec,
    TrsmSpec,
    SyrkSpec,
    GemmTrailSpec,
    SolveGemmSpec,
    SolveTrsmSpec,
    BuildRowSpec,
    CgMatvecSpec,
    DenseGemmSpec,
)
