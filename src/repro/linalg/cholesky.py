"""Tiled mixed-precision Cholesky factorization.

The Associate phase of the paper factorizes the regularized kernel
matrix ``K + alpha*I`` with a right-looking tiled Cholesky whose update
(GEMM/SYRK) tasks run in the precision assigned to the destination tile
by the adaptive rule — the "four-precision Cholesky-based solver"
(FP64/FP32/FP16/FP8) of Sec. V-B2.

Structure of the algorithm per panel ``k`` (lower-triangular variant):

1. ``POTRF``  — factorize the diagonal tile ``A[k,k]`` (working precision).
2. ``TRSM``   — update panel tiles ``A[i,k] <- A[i,k] @ L[k,k]^{-T}``.
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
)
from repro.resilience.errors import TaskGroupError
from repro.runtime.runtime import Runtime
from repro.runtime.task import AccessMode, TaskSpec, TileInput
from repro.tiles.matrix import TileMatrix


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
def _elimination(layout, wp: Precision, tile_precision, by_column=False):
    """The right-looking elimination's tasks in host order.

    Yields ``(name, kernel, coords, attrs)``: the kernel reads the tiles
    at ``coords`` and replaces the last of them, and depends on nothing
    else (a descriptor holds only precisions); ``attrs`` are the task's
    ``tag``/``precision``/``flops``/``priority``.  Panel tasks outrank
    every update (the lookahead); updates tie at 0, or ``by_column`` go
    leftmost destination column first.
    """
    nt, shape = layout.tile_rows, layout.tile_shape

    def task(name, kernel, coords, precision, flops, priority=0):
        tag = (*coords[-1], coords[0][1])  # destination, panel index
        if by_column and name in ("syrk", "gemm"):
            priority = -coords[-1][1]
        return name, kernel, coords, dict(tag=tag, precision=precision,
                                          flops=flops, priority=priority)

    for k in range(nt):
        yield task("potrf", PotrfSpec(wp), [(k, k)], wp,
                   potrf_flops(shape(k, k)[0]), nt - k + 10)
        for i in range(k + 1, nt):
            mb, nb = shape(i, k)
            yield task("trsm", TrsmSpec(wp, tile_precision(i, k)),
                       [(k, k), (i, k)], wp, trsm_flops(nb, mb), nt - k + 5)
        for i in range(k + 1, nt):
            kbk = shape(i, k)[1]
            yield task("syrk", SyrkSpec(wp), [(i, k), (i, i)], wp,
                       syrk_flops(shape(i, i)[0], kbk))
            for j in range(k + 1, i):
                p_ij = tile_precision(i, j)
                yield task("gemm", GemmTrailSpec(p_ij),
                           [(i, k), (j, k), (i, j)], p_ij,
                           gemm_flop_count(*shape(i, j), kbk))


def _cholesky_direct(tiled: TileMatrix, wp: Precision,
                     tile_precision, result: CholeskyResult) -> None:
    """Run the elimination's kernels one after the other: no task graph.

    Every kernel returns a ``Tile`` at its destination's storage
    precision, which ``set_tile`` takes over as it is.
    """
    for name, kernel, coords, attrs in _elimination(
            tiled.layout, wp, tile_precision):
        tiled.set_tile(*coords[-1],
                       kernel.run(*(tiled.get_tile(*c) for c in coords)))
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
    """
    layout, binding = tiled.layout, tiled._binding
    stored = binding is not None
    with runtime.dag("chol", store=tiled.store) as ns:
        handles: dict[tuple[int, int], object] = {}
        for i, j in layout.iter_lower_tiles():
            tile = None if stored else tiled.get_tile(i, j)
            handles[(i, j)] = runtime.register_data(
                f"{ns}A({i},{j})", payload=tile,
                precision=tile_precision(i, j) if stored else tile.precision,
                shape=layout.tile_shape(i, j),
            )

        def declare(kernel, *coords):
            """Accesses and descriptor of a task that reads the tiles at
            ``coords`` and replaces the last of them."""
            *reads, out = coords
            accesses = [(handles[c], AccessMode.READ) for c in reads]
            accesses.append((handles[out], AccessMode.READWRITE))
            if not stored:
                return accesses, {"spec": TaskSpec(kernel)}
            return accesses, {
                "spec": TaskSpec(
                    kernel, mode="aux",
                    aux=tuple(TileInput(tiled, c, writeback=c == out)
                              for c in coords),
                    # the kernel returns a Tile at the destination's
                    # storage precision: set_tile takes it over as it is
                    on_complete=lambda tile: tiled.set_tile(*out, tile)),
                "tile_deps": tuple((binding, c) for c in coords),
            }

        for name, kernel, coords, attrs in _elimination(
                layout, wp, tile_precision, by_column=stored):
            accesses, how = declare(kernel, *coords)
            runtime.insert_task(name, *accesses, **how, **attrs)
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
            for (i, j), handle in handles.items():
                tiled.set_tile(i, j, handle.payload,
                               precision=tile_precision(i, j))
