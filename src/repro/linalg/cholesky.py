"""Tiled mixed-precision Cholesky factorization.

The Associate phase of the paper factorizes the regularized kernel
matrix ``K + alpha*I`` with a right-looking tiled Cholesky whose update
(GEMM/SYRK) tasks run in the precision assigned to the destination tile
by the adaptive rule — the "four-precision Cholesky-based solver"
(FP64/FP32/FP16/FP8) of Sec. V-B2.

Structure of the algorithm per panel ``k`` (lower-triangular variant):

1. ``POTRF``  — factorize the diagonal tile ``A[k,k]`` (working
   precision) and invert the factor tile, ``L[k,k]^{-1}``.
2. ``TRSM``   — update panel tiles ``A[i,k] <- A[i,k] @ L[k,k]^{-T}``, one
   triangular multiply by that inverse each; the column's last one
   drops it.
3. ``SYRK``   — update diagonal trailing tiles
   ``A[i,i] <- A[i,i] - A[i,k] @ A[i,k]^T``.
4. ``GEMM``   — update off-diagonal trailing tiles
   ``A[i,j] <- A[i,j] - A[i,k] @ A[j,k]^T``; runs in the *destination
   tile's* precision, which is where FP16/FP8 enters.

One elimination, two ways to run it, selected the way every tiled
routine selects: by whether the caller hands over a runtime.
:func:`_elimination` lists the right-looking factorization's tasks in
host order with their kernel descriptors (:mod:`repro.linalg.kernels`).
:func:`_cholesky_runtime` (``runtime=rt``) inserts them as one task
DAG, run by whatever execution mode the runtime has (serial, threaded,
process) over a resident *or* store-backed workspace; the two differ in
how a tile is declared to the task and in the updates' order (a store
is drained column by column, so no tile spills half-updated).
:func:`_cholesky_direct` (no runtime) calls the same descriptors' ``run``
one after the other: the reference every DAG execution must match bit
for bit, which holds because the arithmetic is the same code and every
ordering constraint of the DAG is an explicit dependency edge
(including the serialized accumulation chain on each trailing tile).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.precision.formats import Precision
from repro.precision.gemm import gemm_flop_count
from repro.linalg.kernels import (
    GemmTrailSpec,
    PotrfSpec,
    SyrkSpec,
    TrsmSpec,
    potrf_flops,
    syrk_flops,
    trsm_flops,
    trtri_flops,
)
from repro.resilience.errors import TaskGroupError
from repro.runtime.runtime import Runtime
from repro.runtime.task import AccessMode, TaskSpec, TileInput
from repro.tiles.matrix import TileMatrix
from repro.tiles.tile import Tile


@dataclass
class CholeskyResult:
    """Outcome of the tiled mixed-precision Cholesky factorization.

    Attributes
    ----------
    factor:
        Lower-triangular factor as a :class:`TileMatrix` (tiles keep the
        precision they were computed/stored in).
    flops:
        Total operation count of the factorization.
    flops_by_precision:
        Operation count split by compute precision (the paper's
        "mixed-precision flops" accounting).
    task_counts:
        Number of POTRF/TRSM/SYRK/GEMM tasks executed.
    schedule:
        The drain's :class:`~repro.runtime.scheduler.ScheduleResult`
        when a runtime was given; ``None`` for the reference.
    """

    factor: TileMatrix
    flops: float
    flops_by_precision: dict[Precision, float] = field(default_factory=dict)
    task_counts: dict[str, int] = field(default_factory=dict)
    schedule: object | None = None

    def to_dense(self) -> np.ndarray:
        """Dense lower-triangular factor (upper part zeroed)."""
        return np.tril(self.factor.to_dense())


def _accumulate(result: CholeskyResult, name: str, precision: Precision,
                flops: float) -> None:
    result.flops += flops
    result.flops_by_precision[precision] = (
        result.flops_by_precision.get(precision, 0.0) + flops
    )
    result.task_counts[name] = result.task_counts.get(name, 0) + 1


def cholesky(
    matrix: TileMatrix | np.ndarray,
    tile_size: int | None = None,
    working_precision: Precision | str = Precision.FP32,
    precision_map: dict[tuple[int, int], Precision] | None = None,
    runtime: Runtime | None = None,
    phase: str = "cholesky",
) -> CholeskyResult:
    """Tiled mixed-precision Cholesky factorization (lower triangular).

    Parameters
    ----------
    matrix:
        Symmetric positive-definite matrix, dense or tiled.  A
        ``TileMatrix``'s stored precisions (an adaptive kernel's mosaic,
        as its Build decided it) set each trailing update's precision;
        for a dense array, ``precision_map`` can supply the mosaic.
    tile_size:
        Required when a dense array is passed.
    working_precision:
        Precision of the panel operations (POTRF/TRSM) and of diagonal
        tiles; FP32 reproduces the paper's configuration, FP64 gives the
        reference factorization.
    precision_map:
        Optional per-tile compute precision overriding the tiles' stored
        precisions.
    runtime:
        Where the factorization runs.  Given a
        :class:`~repro.runtime.runtime.Runtime`, it inserts its task DAG
        there (one :meth:`~repro.runtime.runtime.Runtime.dag` scope) and
        drains it under that runtime's execution mode and worker count;
        without one it is the host-ordered reference elimination on the
        caller's thread — no task graph, ``schedule is None`` — which
        every DAG execution equals bit for bit.
    phase:
        Ledger phase of the runtime run (sessions pass
        ``"associate"`` so the factorization lands in the Associate
        accounting).

    Returns
    -------
    CholeskyResult
    """
    working_precision = Precision.from_string(working_precision)

    if isinstance(matrix, np.ndarray):
        if tile_size is None:
            raise ValueError("tile_size is required for dense input")
        tiled = TileMatrix.from_dense(matrix, tile_size, working_precision,
                                      symmetric=False)
    else:
        # Tile-level workspace: the factorization only ever reads
        # lower-triangle tiles and replaces them, never writes them, so
        # symmetric storage hands them over copy-on-write (per-tile
        # precisions preserved) and dense n x n arrays never exist on
        # this path.
        tiled = matrix.unpacked_lower() if matrix.symmetric else matrix.copy()

    layout = tiled.layout
    if layout.rows != layout.cols:
        raise ValueError("Cholesky requires a square matrix")
    nt = layout.tile_rows

    def tile_precision(i: int, j: int) -> Precision:
        if i == j:
            return working_precision
        if precision_map is not None and (i, j) in precision_map:
            return precision_map[(i, j)]
        p = tiled.tile_precision(i, j)
        # integer storage never participates in the factorization
        if p.is_integer:
            return working_precision
        return p

    result = CholeskyResult(factor=tiled, flops=0.0)

    if runtime is None:
        _cholesky_direct(tiled, working_precision, tile_precision, result)
    else:
        _cholesky_runtime(tiled, working_precision, tile_precision, result,
                          runtime, phase)

    # zero out the (now meaningless) upper-triangle tiles of the factor;
    # tiles that were never materialized already read as zeros, so only
    # tiles holding stale data (the dense-input path) need overwriting
    for i in range(nt):
        for j in range(i + 1, nt):
            if not tiled.has_tile_data(i, j):
                continue
            shape = layout.tile_shape(i, j)
            tiled.set_tile(i, j, np.zeros(shape), precision=tile_precision(i, j))
    return result


# ----------------------------------------------------------------------
# the elimination, and its direct (host-ordered) execution
# ----------------------------------------------------------------------
class _Inverse(NamedTuple):
    """Operand key of column ``k``'s ``L(k,k)^-1``: written by its POTRF,
    read by its TRSMs, dropped by the last of them.  Never a tile of the
    factor."""

    k: int


_R, _W, _RW = AccessMode.READ, AccessMode.WRITE, AccessMode.READWRITE


def _elimination(layout, wp: Precision, tile_precision, by_column=False):
    """The right-looking elimination's tasks in host order.

    Yields ``(name, kernel, accesses, attrs)``: ``accesses`` are
    ``(key, mode)`` pairs, a key being a tile's ``(i, j)`` or an
    :class:`_Inverse`; the kernel takes the operands it reads, in order,
    and returns one output per operand it writes, and depends on nothing
    else (a descriptor holds only precisions and flags); ``attrs`` are
    the task's ``tag``/``precision``/``flops``/``priority``.  Panel tasks
    outrank every update (the lookahead); updates tie at 0, or
    ``by_column`` go leftmost destination column first.
    """
    nt, shape = layout.tile_rows, layout.tile_shape

    def task(name, kernel, accesses, k, precision, flops, priority=0):
        dest = next(key for key, mode in accesses
                    if mode.writes and not isinstance(key, _Inverse))
        if by_column and name in ("syrk", "gemm"):
            priority = -dest[1]
        return name, kernel, accesses, dict(tag=(*dest, k),
                                            precision=precision,
                                            flops=flops, priority=priority)

    for k in range(nt):
        nb = shape(k, k)[0]
        if k == nt - 1:  # no panel below: nothing reads an inverse
            yield task("potrf", PotrfSpec(wp), [((k, k), _RW)], k, wp,
                       potrf_flops(nb), nt - k + 10)
        else:
            yield task("potrf", PotrfSpec(wp, invert=True),
                       [((k, k), _RW), (_Inverse(k), _W)], k, wp,
                       potrf_flops(nb) + trtri_flops(nb), nt - k + 10)
        for i in range(k + 1, nt):
            last = i == nt - 1
            yield task("trsm", TrsmSpec(wp, tile_precision(i, k), last),
                       [(_Inverse(k), _RW if last else _R), ((i, k), _RW)],
                       k, wp, trsm_flops(nb, shape(i, k)[0]), nt - k + 5)
        for i in range(k + 1, nt):
            kbk = shape(i, k)[1]
            yield task("syrk", SyrkSpec(wp), [((i, k), _R), ((i, i), _RW)],
                       k, wp, syrk_flops(shape(i, i)[0], kbk))
            for j in range(k + 1, i):
                p_ij = tile_precision(i, j)
                yield task("gemm", GemmTrailSpec(p_ij),
                           [((i, k), _R), ((j, k), _R), ((i, j), _RW)],
                           k, p_ij, gemm_flop_count(*shape(i, j), kbk))


class _InverseTiles(dict):
    """A store-backed drain's live inverses, by column: read through a
    ``TileInput`` like a factor tile, ``get_tile(*_Inverse(k))``."""

    def get_tile(self, k: int) -> Tile:
        return self[k]


def _cholesky_direct(tiled: TileMatrix, wp: Precision,
                     tile_precision, result: CholeskyResult) -> None:
    """Run the elimination's kernels one after the other: no task graph.

    Every kernel returns a ``Tile`` at its destination's storage
    precision, which ``set_tile`` takes over as it is.  In host order
    one inverse is alive at a time: this frame holds it from its POTRF
    to its column's last TRSM, never the factor.
    """
    inverse = None
    for name, kernel, accesses, attrs in _elimination(
            tiled.layout, wp, tile_precision):
        out = kernel.run(*(inverse if isinstance(key, _Inverse)
                           else tiled.get_tile(*key)
                           for key, mode in accesses if mode.reads))
        written = [key for key, mode in accesses if mode.writes]
        if not isinstance(out, tuple):
            out = (out,)
        for key, value in zip(written, out):
            if isinstance(key, _Inverse):
                inverse = value
            else:
                tiled.set_tile(*key, value)
        _accumulate(result, name, attrs["precision"], attrs["flops"])


# ----------------------------------------------------------------------
# runtime-driven (DAG) execution — bitwise identical to the serial path
# ----------------------------------------------------------------------
def _cholesky_runtime(tiled: TileMatrix, wp: Precision,
                      tile_precision, result: CholeskyResult,
                      runtime: Runtime, phase: str) -> None:
    """Insert the factorization's task DAG and drain it.

    A *resident* workspace registers every lower tile as a handle
    payload (a ``Tile``, so the working set stays in the tiles' storage
    precision) and the kernels' outputs become the new payloads.  A
    *store-backed* workspace must not keep the whole mosaic alive in
    handles: its handles are pure synchronization tokens, each task
    names its tiles as ``TileInput``s — read from the matrix when the
    task runs, faulting spilled tiles in — pins them through
    ``tile_deps`` while it runs, and writes its result straight back
    through ``set_tile`` (making it spillable at once).  The resident
    working set is then the active panel plus the in-flight updates.

    Each column's ``L(k,k)^-1`` lives in this drain alone: its POTRF
    writes it, its TRSMs read it, and the last TRSM takes it READWRITE
    and leaves ``None`` in its place.  Resident, it is the payload of
    its handle; store-backed, its handle is a token like the tiles', and
    the inverse sits in an :class:`_InverseTiles` map its tasks read and
    write the way they do the store's tiles.
    """
    layout, binding = tiled.layout, tiled._binding
    stored = binding is not None
    with runtime.dag("chol", store=tiled.store) as ns:
        handles: dict[object, object] = {}
        for i, j in layout.iter_lower_tiles():
            tile = None if stored else tiled.get_tile(i, j)
            handles[(i, j)] = runtime.register_data(
                f"{ns}A({i},{j})", payload=tile,
                precision=tile_precision(i, j) if stored else tile.precision,
                shape=layout.tile_shape(i, j),
            )
        for k in range(layout.tile_rows - 1):
            handles[_Inverse(k)] = runtime.register_data(
                f"{ns}inv({k})", precision=wp, shape=layout.tile_shape(k, k))
        inverses = _InverseTiles()

        def declare(kernel, accesses):
            """Accesses and descriptor of a task on the operands
            ``accesses`` names."""
            declared = [(handles[key], mode) for key, mode in accesses]
            if not stored:
                return declared, {"spec": TaskSpec(kernel)}
            written = [key for key, mode in accesses if mode.writes]

            def complete(*outs):
                # the kernel returns a Tile at the destination's storage
                # precision: set_tile takes it over as it is
                for key, value in zip(written, outs):
                    if not isinstance(key, _Inverse):
                        tiled.set_tile(*key, value)
                    elif value is None:
                        del inverses[key.k]
                    else:
                        inverses[key.k] = value

            tiles = [key for key, _ in accesses
                     if not isinstance(key, _Inverse)]
            return declared, {
                "spec": TaskSpec(
                    kernel, mode="aux",
                    aux=tuple(
                        TileInput(inverses if isinstance(key, _Inverse)
                                  else tiled, key,
                                  writeback=key in written)
                        for key, mode in accesses if mode.reads),
                    on_complete=complete),
                "tile_deps": tuple((binding, c) for c in tiles),
            }

        for name, kernel, accesses, attrs in _elimination(
                layout, wp, tile_precision, by_column=stored):
            declared, how = declare(kernel, accesses)
            runtime.insert_task(name, *declared, **how, **attrs)
            _accumulate(result, name, attrs["precision"], attrs["flops"])
        try:
            result.schedule = runtime.run(phase=phase)
        except TaskGroupError as exc:
            if exc.matches(np.linalg.LinAlgError):
                # purely numerical failure (indefinite pivot) keeps its
                # historical type so regularization retries can catch it
                raise np.linalg.LinAlgError(str(exc.failures[0].error)) from exc
            raise

        if not stored:
            # hand the results back to the tile matrix before the scope
            # releases the handles: every payload is a Tile at its target
            # precision (the last task on it stored it there), so
            # set_tile takes it over without rounding
            for i, j in layout.iter_lower_tiles():
                tiled.set_tile(i, j, handles[(i, j)].payload,
                               precision=tile_precision(i, j))
