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

By default the factorization is expressed as a task DAG and executed
by the runtime's threaded out-of-order scheduler — POTRF/TRSM/SYRK/GEMM
tiles of independent panels run concurrently, and because every
ordering constraint is an explicit dependency edge (including the
serialized accumulation chain on each trailing tile) the result is
bitwise identical to the serial elimination order
(``execution="serial"``).  Passing a session-long ``runtime=`` reuses
one scheduler across phases and feeds its trace accounting; passing
``execution="simulated"`` retains the historical device-timing mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.precision.formats import Precision
from repro.precision.gemm import QuantizedOperand
from repro.linalg.kernels import (
    gemm_flops,
    panel_operand,
    potrf_flops,
    syrk_flops,
    tile_gemm,
    tile_potrf,
    tile_syrk,
    tile_trsm,
    trsm_flops,
)
from repro.parallel.descriptors import (
    GemmTrailSpec,
    PotrfSpec,
    ProcessTaskSpec,
    SyrkSpec,
    TileInput,
    TrsmSpec,
)
from repro.resilience.errors import TaskGroupError
from repro.runtime.runtime import Runtime
from repro.runtime.task import AccessMode
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
        Optional :class:`~repro.runtime.scheduler.ScheduleResult` when a
        runtime was used.
    """

    factor: TileMatrix
    flops: float
    flops_by_precision: dict[Precision, float] = field(default_factory=dict)
    task_counts: dict[str, int] = field(default_factory=dict)
    schedule: object | None = None

    def to_dense(self) -> np.ndarray:
        """Dense lower-triangular factor (upper part zeroed)."""
        return np.tril(self.factor.to_dense())


def cholesky_flops(n: int) -> float:
    """Total operation count of a Cholesky factorization of order ``n``."""
    return n ** 3 / 3.0 + n ** 2 / 2.0 + n / 6.0


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
    execution: str | None = None,
    workers: int | None = None,
    phase: str = "cholesky",
) -> CholeskyResult:
    """Tiled mixed-precision Cholesky factorization (lower triangular).

    Parameters
    ----------
    matrix:
        Symmetric positive-definite matrix, dense or tiled.  When a
        ``TileMatrix`` is given its per-tile precisions (set e.g. by
        :func:`repro.tiles.adaptive.decide_tile_precisions`) control the
        precision of each trailing update; when a dense array is given,
        ``precision_map`` can supply the mosaic.
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
        Optional session-long task runtime.  When given, the
        factorization inserts its task DAG there (under a fresh handle
        namespace) and runs under that runtime's execution mode; when
        omitted, an ephemeral runtime is created from ``execution`` /
        ``workers``.
    execution:
        ``"threaded"`` (default — out-of-order DAG execution),
        ``"serial"`` (the host-ordered reference elimination, no task
        graph) or ``"simulated"`` (DAG execution under the simulated
        device-timing model).  Ignored when ``runtime`` is given.
    workers:
        Worker threads of an ephemeral threaded runtime (``None``
        resolves through ``REPRO_WORKERS`` / cpu count).
    phase:
        Trace-phase label of the runtime run (sessions pass
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
        # Tile-level workspace copy: the factorization only ever reads
        # lower-triangle tiles, so symmetric storage unpacks tile by
        # tile (per-tile precisions preserved) and dense n x n arrays
        # never exist on this path.
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
        from repro.runtime.runtime import resolve_execution

        mode = resolve_execution(execution)
        if mode == "serial":
            _cholesky_direct(tiled, working_precision, tile_precision, result)
        else:
            ephemeral = Runtime(execution=mode, workers=workers)
            _cholesky_runtime(tiled, nt, working_precision, tile_precision,
                              result, ephemeral, phase)
    else:
        _cholesky_runtime(tiled, nt, working_precision, tile_precision, result,
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
# direct (host-ordered) execution
# ----------------------------------------------------------------------
def _cholesky_direct(tiled: TileMatrix, wp: Precision,
                     tile_precision, result: CholeskyResult) -> None:
    # Kernel results come back rounded to their compute precision, so
    # tiles stored at that same precision adopt them (Tile._on_grid);
    # TRSM computes at wp but stores at the mosaic's precision, so its
    # result is rounded by set_tile.
    nt = tiled.layout.tile_rows
    for k in range(nt):
        akk = tiled.get_tile(k, k).float64_values()
        lkk = tile_potrf(akk, precision=wp)
        tiled.set_tile(k, k, Tile._on_grid(lkk, wp))
        _accumulate(result, "potrf", wp, potrf_flops(akk.shape[0]))

        # stored panel tiles, read back once per panel instead of once
        # per trailing update they participate in
        panel: dict[int, Tile] = {}
        for i in range(k + 1, nt):
            aik = tiled.get_tile(i, k).float64_values()
            lik = tile_trsm(lkk, aik, precision=wp, side="right", trans=True)
            tiled.set_tile(i, k, lik, precision=tile_precision(i, k))
            panel[i] = tiled.get_tile(i, k)
            _accumulate(result, "trsm", wp, trsm_flops(aik.shape[1], aik.shape[0]))

        # per-(tile, precision) quantization cache for the trailing update:
        # L[i,k] is consumed by one SYRK and up to nt-k-2 GEMMs, all of
        # which would otherwise re-quantize it from scratch
        qpanel: dict[tuple[int, Precision], object] = {}

        def qtile(idx: int, precision: Precision):
            key = (idx, precision)
            if key not in qpanel:
                qpanel[key] = panel_operand(panel[idx], precision)
            return qpanel[key]

        for i in range(k + 1, nt):
            lik = panel[i]
            # SYRK on the diagonal of the trailing matrix
            aii = tiled.get_tile(i, i)
            p_ii = wp
            new_aii = tile_syrk(qtile(i, p_ii), aii, precision=p_ii,
                                alpha=-1.0, beta=1.0)
            tiled.set_tile(i, i, Tile._on_grid(new_aii, p_ii))
            _accumulate(result, "syrk", p_ii, syrk_flops(aii.shape[0], lik.shape[1]))

            # GEMM on the off-diagonal trailing tiles of this block column
            for j in range(k + 1, i):
                aij = tiled.get_tile(i, j)
                p_ij = tile_precision(i, j)
                new_aij = tile_gemm(qtile(i, p_ij), qtile(j, p_ij), aij,
                                    precision=p_ij,
                                    alpha=-1.0, beta=1.0, transb=True)
                tiled.set_tile(i, j, Tile._on_grid(new_aij, p_ij))
                _accumulate(result, "gemm", p_ij,
                            gemm_flops(aij.shape[0], aij.shape[1], lik.shape[1]))


# ----------------------------------------------------------------------
# runtime-driven (DAG) execution — bitwise identical to the serial path
# ----------------------------------------------------------------------
def _cholesky_runtime(tiled: TileMatrix, nt: int, wp: Precision,
                      tile_precision, result: CholeskyResult,
                      runtime: Runtime, phase: str = "cholesky") -> None:
    if tiled.store is not None:
        _cholesky_runtime_store(tiled, nt, wp, tile_precision, result,
                                runtime, phase)
        return

    layout = tiled.layout
    runtime.require_drained("cholesky()")
    ns = runtime.namespace("chol")

    # Handle payloads are Tile objects, so the working set stays in the
    # tiles' *storage* precision (fp16/fp8 mosaics keep their footprint
    # advantage); task bodies read float64 values and adopt kernel
    # results exactly like the serial path (see _cholesky_direct).
    handles: dict[tuple[int, int], object] = {}
    for i in range(nt):
        for j in range(i + 1):
            tile = tiled.get_tile(i, j)
            handles[(i, j)] = runtime.register_data(
                f"{ns}A({i},{j})", payload=tile,
                precision=tile.precision, shape=tile.shape,
            )

    # Panel tiles are consumed by one SYRK and up to nt-k-2 GEMMs per
    # compute precision; caching the quantized operand per (handle,
    # precision) mirrors the serial path's per-panel cache.  A panel
    # payload never changes after its TRSM wrote it, so the cache is
    # sound under concurrency.  Each entry is refcounted by its
    # consumer tasks and evicted when the last one has used it, so the
    # cache holds (roughly) the panels currently in flight rather than
    # every panel of the factorization.
    import threading

    qcache: dict[tuple[int, Precision], QuantizedOperand] = {}
    qcount: dict[tuple[int, Precision], int] = {}
    qlock = threading.Lock()

    def qexpect(uid: int, precision: Precision) -> None:
        key = (uid, precision)
        qcount[key] = qcount.get(key, 0) + 1

    def qop(uid: int, tile: Tile, precision: Precision) -> QuantizedOperand:
        key = (uid, precision)
        got = qcache.get(key)
        if got is None:
            # benign race: a duplicate compute yields the same
            # deterministic operand and one copy wins
            got = qcache.setdefault(key, panel_operand(tile, precision))
        return got

    def qdone(*keys: tuple[int, Precision]) -> None:
        with qlock:
            for key in keys:
                left = qcount.get(key, 0) - 1
                if left <= 0:
                    qcount.pop(key, None)
                    qcache.pop(key, None)
                else:
                    qcount[key] = left

    def potrf_body(a):
        return Tile._on_grid(tile_potrf(a.float64_values(), precision=wp),
                             wp, a.coords)

    def make_trsm_body(storage: Precision):
        def body(lkk, aik):
            lik = tile_trsm(lkk.float64_values(), aik.float64_values(),
                            precision=wp, side="right", trans=True)
            # storing at the tile's storage precision is the same
            # rounding the serial path applies before the trailing
            # updates read the panel back
            return Tile(lik, precision=storage, coords=aik.coords)
        return body

    def make_syrk_body(p, uid_ik):
        def body(lik, aii):
            out = tile_syrk(qop(uid_ik, lik, p), aii,
                            precision=p, alpha=-1.0, beta=1.0)
            qdone((uid_ik, p))
            return Tile._on_grid(out, p, aii.coords)
        return body

    def make_gemm_body(p, uid_ik, uid_jk):
        def body(lik, ljk, aij):
            out = tile_gemm(qop(uid_ik, lik, p), qop(uid_jk, ljk, p),
                            aij, precision=p,
                            alpha=-1.0, beta=1.0, transb=True)
            qdone((uid_ik, p), (uid_jk, p))
            return Tile._on_grid(out, p, aij.coords)
        return body

    for k in range(nt):
        hkk = handles[(k, k)]
        nbk = layout.tile_shape(k, k)[0]
        runtime.insert_task(
            "potrf", (hkk, AccessMode.READWRITE), body=potrf_body,
            flops=potrf_flops(nbk), precision=wp, priority=nt - k + 10,
            tag=(k, k, k),
            pspec=ProcessTaskSpec(PotrfSpec(wp)),
        )
        _accumulate(result, "potrf", wp, potrf_flops(nbk))

        for i in range(k + 1, nt):
            hik = handles[(i, k)]
            mb, nb = layout.tile_shape(i, k)
            runtime.insert_task(
                "trsm", (hkk, AccessMode.READ), (hik, AccessMode.READWRITE),
                body=make_trsm_body(tile_precision(i, k)),
                flops=trsm_flops(nb, mb),
                precision=wp, priority=nt - k + 5, tag=(i, k, k),
                pspec=ProcessTaskSpec(TrsmSpec(wp, tile_precision(i, k))),
            )
            _accumulate(result, "trsm", wp, trsm_flops(nb, mb))

        for i in range(k + 1, nt):
            hik = handles[(i, k)]
            hii = handles[(i, i)]
            nbi = layout.tile_shape(i, i)[0]
            kbk = layout.tile_shape(i, k)[1]
            qexpect(hik.uid, wp)
            runtime.insert_task(
                "syrk", (hik, AccessMode.READ), (hii, AccessMode.READWRITE),
                body=make_syrk_body(wp, hik.uid), flops=syrk_flops(nbi, kbk),
                precision=wp, tag=(i, i, k),
                pspec=ProcessTaskSpec(SyrkSpec(wp, hik.uid)),
            )
            _accumulate(result, "syrk", wp, syrk_flops(nbi, kbk))
            for j in range(k + 1, i):
                hjk = handles[(j, k)]
                hij = handles[(i, j)]
                p_ij = tile_precision(i, j)
                mb, nb = layout.tile_shape(i, j)
                qexpect(hik.uid, p_ij)
                qexpect(hjk.uid, p_ij)
                runtime.insert_task(
                    "gemm", (hik, AccessMode.READ), (hjk, AccessMode.READ),
                    (hij, AccessMode.READWRITE),
                    body=make_gemm_body(p_ij, hik.uid, hjk.uid),
                    flops=gemm_flops(mb, nb, kbk),
                    precision=p_ij, tag=(i, j, k),
                    pspec=ProcessTaskSpec(
                        GemmTrailSpec(p_ij, hik.uid, hjk.uid)),
                )
                _accumulate(result, "gemm", p_ij, gemm_flops(mb, nb, kbk))

    try:
        schedule = runtime.run(phase=phase)
    except TaskGroupError as exc:
        # a failed factorization DAG is disposable: the session's
        # alpha-boost retry inserts a fresh one, so don't park the
        # unfinished subgraph on the session runtime
        runtime.reset_graph()
        if exc.matches(np.linalg.LinAlgError):
            # purely numerical failure (indefinite pivot) keeps its
            # historical type so regularization retries can catch it
            raise np.linalg.LinAlgError(str(exc.failures[0].error)) from exc
        raise
    finally:
        # failed attempts (indefinite matrix at too-small alpha) must
        # not leak this invocation's handles into the session registry
        runtime.release(ns)
    result.schedule = schedule

    # hand the results back to the tile matrix: every payload is a Tile
    # at its target precision (the last task on it stored it there), so
    # set_tile takes it over without rounding
    for (i, j), handle in handles.items():
        tiled.set_tile(i, j, handle.payload,
                       precision=tile_precision(i, j) if i != j else wp)


# ----------------------------------------------------------------------
# store-backed (out-of-core) DAG execution — bitwise identical again
# ----------------------------------------------------------------------
def _cholesky_runtime_store(tiled: TileMatrix, nt: int, wp: Precision,
                            tile_precision, result: CholeskyResult,
                            runtime: Runtime, phase: str) -> None:
    """Panel-by-panel DAG Cholesky over a store-backed workspace.

    Unlike the resident path — which registers every tile as a handle
    payload up front, keeping the whole mosaic alive for the duration —
    this variant's handles are pure synchronization tokens: task bodies
    read their tiles from the matrix on demand (faulting spilled tiles
    in) and write results straight back through ``set_tile`` (making
    them immediately spillable).  The resident working set is therefore
    the active panel plus the in-flight trailing updates, each pinned
    via ``tile_deps`` while its task runs.

    Bitwise equivalence with the serial elimination holds for the same
    reason as the resident DAG path: every read is ordered by an
    explicit dependency edge, each result is adopted (POTRF/SYRK/GEMM)
    or rounded to its storage precision (TRSM) exactly as on the serial
    path, and spill/reload round-trips are exact.
    """
    import threading

    layout = tiled.layout
    binding = tiled._binding
    runtime.require_drained("cholesky()")
    try:
        runtime.attach_store(tiled.store)
    except RuntimeError:
        # the runtime is already hooked to a different store: pins and
        # prefetch for this matrix are skipped, which only costs reload
        # traffic — eviction/reload round-trips stay bitwise
        pass
    ns = runtime.namespace("chol")

    # Synchronization-only handles: one per lower tile, no payload.
    handles: dict[tuple[int, int], object] = {}
    for i in range(nt):
        for j in range(i + 1):
            handles[(i, j)] = runtime.register_data(
                f"{ns}A({i},{j})", payload=None,
                precision=tile_precision(i, j) if i != j else wp,
                shape=layout.tile_shape(i, j),
            )

    def dep(i: int, j: int):
        return (binding, (i, j))

    # Quantized-operand cache, refcounted per (handle uid, precision)
    # exactly like the resident path: a panel tile's payload is fixed
    # once its TRSM ran, and reloads are bitwise, so a cached operand is
    # valid no matter how often the tile spills in between.
    qcache: dict[tuple[int, Precision], QuantizedOperand] = {}
    qcount: dict[tuple[int, Precision], int] = {}
    qlock = threading.Lock()

    def qexpect(uid: int, precision: Precision) -> None:
        key = (uid, precision)
        qcount[key] = qcount.get(key, 0) + 1

    def qop(uid: int, tile, precision: Precision) -> QuantizedOperand:
        key = (uid, precision)
        got = qcache.get(key)
        if got is None:
            got = qcache.setdefault(key, panel_operand(tile, precision))
        return got

    def qdone(*keys: tuple[int, Precision]) -> None:
        with qlock:
            for key in keys:
                left = qcount.get(key, 0) - 1
                if left <= 0:
                    qcount.pop(key, None)
                    qcache.pop(key, None)
                else:
                    qcount[key] = left

    def make_potrf_body(k: int):
        def body(_a):
            lkk = tile_potrf(tiled.get_tile(k, k).float64_values(),
                             precision=wp)
            tiled.set_tile(k, k, Tile._on_grid(lkk, wp))
        return body

    def make_trsm_body(i: int, k: int, storage: Precision):
        def body(_lkk, _aik):
            lik = tile_trsm(tiled.get_tile(k, k).float64_values(),
                            tiled.get_tile(i, k).float64_values(),
                            precision=wp, side="right", trans=True)
            tiled.set_tile(i, k, lik, precision=storage)
        return body

    def make_syrk_body(i: int, k: int, p: Precision, uid_ik: int):
        def body(_lik, _aii):
            out = tile_syrk(qop(uid_ik, tiled.get_tile(i, k), p),
                            tiled.get_tile(i, i),
                            precision=p, alpha=-1.0, beta=1.0)
            qdone((uid_ik, p))
            tiled.set_tile(i, i, Tile._on_grid(out, p))
        return body

    def make_gemm_body(i: int, j: int, k: int, p: Precision,
                       uid_ik: int, uid_jk: int):
        def body(_lik, _ljk, _aij):
            out = tile_gemm(qop(uid_ik, tiled.get_tile(i, k), p),
                            qop(uid_jk, tiled.get_tile(j, k), p),
                            tiled.get_tile(i, j), precision=p,
                            alpha=-1.0, beta=1.0, transb=True)
            qdone((uid_ik, p), (uid_jk, p))
            tiled.set_tile(i, j, Tile._on_grid(out, p))
        return body

    def make_writeback(i: int, j: int, storage: Precision):
        # Coordinator-side completion of a worker-executed store task:
        # write the result tile straight back through the store.  The
        # worker's descriptor returned a Tile at ``storage`` — adopted
        # or rounded exactly as the serial body does — so set_tile
        # takes it over as it is.
        def on_complete(out):
            tiled.set_tile(i, j, out, precision=storage)
        return on_complete

    for k in range(nt):
        hkk = handles[(k, k)]
        nbk = layout.tile_shape(k, k)[0]
        runtime.insert_task(
            "potrf", (hkk, AccessMode.READWRITE), body=make_potrf_body(k),
            flops=potrf_flops(nbk), precision=wp, priority=nt - k + 10,
            tag=(k, k, k), tile_deps=(dep(k, k),),
            pspec=ProcessTaskSpec(
                PotrfSpec(wp), mode="aux",
                aux=(TileInput(tiled, (k, k), writeback=True),),
                on_complete=make_writeback(k, k, wp)),
        )
        _accumulate(result, "potrf", wp, potrf_flops(nbk))

        for i in range(k + 1, nt):
            hik = handles[(i, k)]
            mb, nb = layout.tile_shape(i, k)
            runtime.insert_task(
                "trsm", (hkk, AccessMode.READ), (hik, AccessMode.READWRITE),
                body=make_trsm_body(i, k, tile_precision(i, k)),
                flops=trsm_flops(nb, mb),
                precision=wp, priority=nt - k + 5, tag=(i, k, k),
                tile_deps=(dep(k, k), dep(i, k)),
                pspec=ProcessTaskSpec(
                    TrsmSpec(wp, tile_precision(i, k)), mode="aux",
                    aux=(TileInput(tiled, (k, k)),
                         TileInput(tiled, (i, k), writeback=True)),
                    on_complete=make_writeback(i, k, tile_precision(i, k))),
            )
            _accumulate(result, "trsm", wp, trsm_flops(nb, mb))

        for i in range(k + 1, nt):
            hik = handles[(i, k)]
            hii = handles[(i, i)]
            nbi = layout.tile_shape(i, i)[0]
            kbk = layout.tile_shape(i, k)[1]
            qexpect(hik.uid, wp)
            runtime.insert_task(
                "syrk", (hik, AccessMode.READ), (hii, AccessMode.READWRITE),
                body=make_syrk_body(i, k, wp, hik.uid),
                flops=syrk_flops(nbi, kbk),
                precision=wp, tag=(i, i, k),
                tile_deps=(dep(i, k), dep(i, i)),
                pspec=ProcessTaskSpec(
                    SyrkSpec(wp, hik.uid), mode="aux",
                    aux=(TileInput(tiled, (i, k)),
                         TileInput(tiled, (i, i), writeback=True)),
                    on_complete=make_writeback(i, i, wp)),
            )
            _accumulate(result, "syrk", wp, syrk_flops(nbi, kbk))
            for j in range(k + 1, i):
                hjk = handles[(j, k)]
                hij = handles[(i, j)]
                p_ij = tile_precision(i, j)
                mb, nb = layout.tile_shape(i, j)
                qexpect(hik.uid, p_ij)
                qexpect(hjk.uid, p_ij)
                runtime.insert_task(
                    "gemm", (hik, AccessMode.READ), (hjk, AccessMode.READ),
                    (hij, AccessMode.READWRITE),
                    body=make_gemm_body(i, j, k, p_ij, hik.uid, hjk.uid),
                    flops=gemm_flops(mb, nb, kbk),
                    precision=p_ij, tag=(i, j, k),
                    tile_deps=(dep(i, k), dep(j, k), dep(i, j)),
                    pspec=ProcessTaskSpec(
                        GemmTrailSpec(p_ij, hik.uid, hjk.uid), mode="aux",
                        aux=(TileInput(tiled, (i, k)),
                             TileInput(tiled, (j, k)),
                             TileInput(tiled, (i, j), writeback=True)),
                        on_complete=make_writeback(i, j, p_ij)),
                )
                _accumulate(result, "gemm", p_ij, gemm_flops(mb, nb, kbk))

    try:
        schedule = runtime.run(phase=phase)
    except TaskGroupError as exc:
        runtime.reset_graph()
        if exc.matches(np.linalg.LinAlgError):
            raise np.linalg.LinAlgError(str(exc.failures[0].error)) from exc
        raise
    finally:
        runtime.release(ns)
    result.schedule = schedule
