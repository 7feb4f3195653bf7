"""The fused, tile-wise Build phase (Algorithm 2 + Sec. VI-B2).

``KernelBuilder`` produces the KRR matrix ``K`` tile by tile:

1. the per-patient squared norms of the SNP part are folded into a
   single vector (never a full matrix),
2. each tile of the Gram product ``G G^T`` is computed with the INT8
   tensor-core GEMM variant dispatched through BLAS (the genotype
   matrix is quantized **once** into a
   :class:`~repro.precision.gemm.QuantizedOperand`, not once per tile,
   and cast for BLAS one SNP block of the tile's rows at a time),
3. confounder (real-valued) columns contribute a separate FP32 Gram
   accumulation,
4. the squared distance tile is the Gram's accumulator — a float ``C``
   preloaded with ``d₁ + d₂`` that each SNP block adds ``−2·A·Bᵀ`` into,
   exact — the confounder term is added in the output block, and the
   Gaussian exponentiation is fused in before the tile is released, and
5. the finished tile is **streamed** straight into the output
   :class:`~repro.tiles.matrix.TileMatrix` (or the dense cross-kernel
   array) at the requested storage precision.

The symmetric training Build never materializes the full dense FP64
kernel: tiles flow from the tile-row task loop into symmetric tile
storage, and the adaptive precision rule decides the mosaic from the
norms taken as each tile is stored.  Peak dense temporaries are a
handful of single tiles, tracked in :class:`BuildStats` so tests can
assert the memory behaviour.

Concurrency is owned by the task runtime, not by this module: each
block row of tiles becomes one *row task* — the Gram/distance/kernel
pipeline (BLAS releases the GIL) whose ``on_complete`` streams the
finished row into tile storage.  Row tasks of different rows execute
out of order; the container takes concurrent stores of distinct tiles
under its own lock (or the store's).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate
from typing import Callable, Iterator

import numpy as np

from repro.distance.euclidean import squared_norms
from repro.distance.kernels import gaussian_kernel
from repro.linalg.blas3 import gemm
from repro.precision.formats import Precision
from repro.precision.gemm import (
    QuantizedOperand,
    gemm_flop_count,
    gemm_mixed,
    integer_gemm_dtype,
    mirror_lower,
    syrk_mixed,
    variant_for_input,
)
from repro.runtime.runtime import Runtime
from repro.runtime.scheduler import ScheduleResult
from repro.runtime.task import BodySpec, ObjectInput, TaskSpec
from repro.tiles.adaptive import AdaptivePrecisionRule, _decide_from_norms
from repro.tiles.layout import TileLayout
from repro.tiles.matrix import TileMatrix
from repro.tiles.tile import Tile

#: The SNP Gram: INT8 operands, an exact accumulator (the tensor-core path).
SNP_VARIANT = variant_for_input(Precision.INT8)
#: The confounder Gram: real-valued columns in FP32.
CONF_VARIANT = variant_for_input(Precision.FP32)
#: Columns :func:`snp_gram` casts per step (``KernelBuilder.snp_block``).
SNP_BLOCK = 1024


def genotype_operand(g: np.ndarray) -> QuantizedOperand:
    """The INT8 operand of a genotype panel.

    An ``int8`` panel is taken as it is.  Any other panel must hold
    integers in [−128, 127]: the INT8 Gram would round or clip anything
    else, so such a panel is rejected rather than silently changed.
    """
    g = np.asarray(g)
    with np.errstate(invalid="ignore"):   # NaN is rejected just below
        q = QuantizedOperand(g, Precision.INT8)
    if g.dtype != np.int8 and not np.array_equal(q.array, g):
        raise ValueError(
            "genotypes must be integers in [-128, 127] (the INT8 SNP "
            "Gram's range)")
    return q


@dataclass
class BuildStats:
    """Allocation/execution accounting of one Build run.

    Attributes
    ----------
    max_dense_temp_elements:
        Largest dense float64 temporary allocated by any single tile
        task (gram/distance/kernel tile).  For the streamed symmetric
        Build this stays at one tile row, never the full ``n**2``.
    dense_staging_elements:
        Elements of full dense staging arrays allocated (0 for the
        streamed training Build; ``n1*n2`` for the rectangular cross
        kernel, whose dense array is the *output*, not a temporary).
    tile_tasks:
        Number of tile tasks executed.  (How wide they ran is the
        runtime's to say: ``runtime.workers``.)
    """

    max_dense_temp_elements: int = 0
    dense_staging_elements: int = 0
    tile_tasks: int = 0


@dataclass
class BuildResult:
    """Output of the Build phase.

    Attributes
    ----------
    kernel:
        The kernel matrix as a :class:`TileMatrix` (training case,
        symmetric) or dense array (rectangular test-vs-train case).
    flops:
        Total operation count of the phase.
    flops_by_precision:
        Operation count split by compute precision.
    precision_map:
        Per-tile storage precisions when adaptive storage was requested.
    stats:
        Allocation/execution accounting (:class:`BuildStats`).
    """

    kernel: TileMatrix | np.ndarray
    flops: float = 0.0
    flops_by_precision: dict[Precision, float] = field(default_factory=dict)
    precision_map: dict[tuple[int, int], Precision] | None = None
    stats: BuildStats = field(default_factory=BuildStats)

    def to_dense(self) -> np.ndarray:
        if isinstance(self.kernel, TileMatrix):
            return self.kernel.to_dense()
        return np.asarray(self.kernel)


@dataclass
class _OperandContext:
    """Shared read-only operand state of one kernel computation.

    Prepared once per Build/Predict call (quantization, ``max|.|``
    bounds, squared norms, confounder Gram inputs) and then read by
    every row block — whether the rows are consumed tile-by-tile by the
    streamed training Build or batch-by-batch by the streamed Predict
    phase.  The genotypes stay in their INT8 storage: each Gram casts
    only the rows and SNP block it multiplies (:func:`snp_gram`).
    ``d1``/``d2`` are the sides' squared norms, exact integers in
    float64: :func:`snp_gram` preloads their sum into its accumulator.
    """

    n1: int
    n2: int
    ns: int
    q1: QuantizedOperand
    q2: QuantizedOperand
    d1: np.ndarray
    d2: np.ndarray
    qc1: QuantizedOperand | None
    qc2: QuantizedOperand | None
    e1: np.ndarray | None
    e2: np.ndarray | None
    n_conf: int


def _norm_sum(d1: np.ndarray, d2: np.ndarray, rs: slice, cs: slice,
              dtype: type = np.float64) -> np.ndarray:
    """``d1[rs] + d2[cs]`` over a block, summed in ``dtype``: the norm part
    of a squared distance (the SNP preload, the confounder term)."""
    out = np.empty((rs.stop - rs.start, cs.stop - cs.start), dtype)
    return np.add(np.asarray(d1[rs], dtype)[:, None],
                  np.asarray(d2[cs], dtype)[None, :], out=out)


def snp_gram(q1: QuantizedOperand, q2: QuantizedOperand, snp_block: int,
             rs: slice, cs: slice,
             norms: tuple[np.ndarray, np.ndarray] | None = None
             ) -> np.ndarray:
    """The exact INT8 SNP Gram of rows ``rs`` of ``q1`` and ``cs`` of
    ``q2`` as its accumulator: the distances ``d₁[rs] + d₂[cs] − 2·G``
    with ``norms = (d₁, d₂)``, the Gram ``G`` without.

    It starts at ``d₁ + d₂`` (zero without norms); each step of
    ``snp_block`` SNPs casts only its block of each side and adds its
    product into it in place, as the tensor core accumulates every block
    GEMM into one C.  It is float32 while ``(max|a| + max|b|)²·ns``
    bounds every partial sum under 2²⁴, float64 past it: the same
    integers in any order.  Up to ``snp_block`` SNPs a band is one
    full-width product; past it, and for a whole symmetric Gram, the
    columns before the band's own rows are a ``?gemm`` and its own block
    a ``?syrk``, mirrored once.
    """
    a = q1[rs, :]
    b = a if q1 is q2 and rs == cs else q2[cs, :]
    (m, ns), n = a.shape, b.shape[0]
    own = q1 is q2 and cs.stop == rs.stop and cs.start <= rs.start
    split = own and (ns > snp_block or m == n)
    k = n - m if split else n  # columns before the own block
    top = q1.max_abs() + q2.max_abs()
    dtype = integer_gemm_dtype(top, top, ns)
    alpha, acc = (1.0 if norms is None else -2.0), None
    for s0 in range(0, max(ns, 1), snp_block):
        step, cols = a[:, s0:s0 + snp_block], b[:k, s0:s0 + snp_block]
        if acc is None:
            # cast before the accumulator exists: docs/performance.md
            step.as_float(dtype), cols.as_float(dtype)
            acc = (np.zeros((m, n), dtype) if norms is None
                   else _norm_sum(*norms, rs, cs, dtype))
        if k:
            gemm_mixed(step, cols, c=acc[:, :k], variant=SNP_VARIANT,
                       alpha=alpha, beta=1.0, transb=True)
        if split:
            syrk_mixed(step, c=acc[:, k:], variant=SNP_VARIANT,
                       alpha=alpha, beta=1.0)
    if split:
        mirror_lower(acc[:, k:])
    return acc


def compute_kernel_rows(ctx: _OperandContext, gamma: float, snp_block: int,
                        rs: slice, cs: slice, out: np.ndarray | None = None,
                        dist: np.ndarray | None = None) -> np.ndarray:
    """Dense kernel block for rows ``rs`` × columns ``cs``, assembled in
    place in ``out`` (a fresh float64 array when not given).

    ``dist`` is the block's :func:`snp_gram` distances when the caller
    took them over a larger row group (:meth:`KernelBuilder.iter_cross_rows`);
    otherwise the block takes its own.  They are exact integers, so
    ``exp(−γ·D)`` reads the same float64 values in any dtype or layout.

    Module-level (rather than a :class:`KernelBuilder` method) so the
    :class:`BuildRowSpec` descriptor can name it with only scalar
    parameters: a worker process receives the pickled operand context
    and runs the same fused Gram/distance/exponentiation pipeline —
    the INT8 Gram is exact integer arithmetic and the elementwise
    assembly is per-element, so results are bitwise identical for any
    row batching and any executor.
    """
    if out is None:
        out = np.empty((rs.stop - rs.start, cs.stop - cs.start))
    if dist is None:
        dist = snp_gram(ctx.q1, ctx.q2, snp_block, rs, cs, (ctx.d1, ctx.d2))

    # --- confounder FP32 contribution accumulated separately
    if ctx.n_conf:
        gram_c = gemm_mixed(ctx.qc1[rs, :], ctx.qc2[cs, :],
                            variant=CONF_VARIANT, transb=True)
        term = _norm_sum(ctx.e1, ctx.e2, rs, cs)
        term -= np.multiply(gram_c, 2.0, out=gram_c)
        dist = np.add(dist, term, out=out)
        np.maximum(out, 0.0, out=out)  # a float sum may round below zero
    # fused exponentiation before the row block is released
    return gaussian_kernel(dist, gamma, out=out)


def _row_groups(sizes: list[int], batch_rows: int | None, tile_size: int,
                lanes: int = 1) -> list[list[slice]]:
    """The predict batches of row-stacked cohorts, in row groups: one
    per lane of a drain ``lanes`` wide or more, batches permitting.

    Each cohort of ``sizes`` is cut into batches of ``batch_rows`` rows
    rounded down to whole tiles, at least one (whole when ``None``), so
    the FP32 confounder Gram keeps the unbatched kernel's band shapes (a
    sub-tile batch would make it a GEMV); an empty cohort has no batch.
    Consecutive batches then join one group while it holds at most
    ``min(batch, ceil(rows / lanes))`` rows (the batch is the largest
    cohort when ``None``) and the batches left outnumber the lanes left
    without a group.  A batch above the limit is a group of its own.
    With ``lanes=1`` a group holds up to one batch of rows.
    """
    cut = max(1, max(sizes, default=0) if batch_rows is None
              else max(1, int(batch_rows) // tile_size) * tile_size)
    limit = max(1, min(cut, -(-sum(sizes) // lanes)))
    batches = [slice(r0, min(r0 + cut, start + m)) for start, m in
               zip(accumulate(sizes, initial=0), sizes)
               for r0 in range(start, start + m, cut)]
    groups: list[list[slice]] = []
    filled = limit
    for i, rows in enumerate(batches):
        if filled + rows.stop - rows.start > limit \
                or len(batches) - i <= lanes - len(groups):
            groups.append([])
            filled = 0
        groups[-1].append(rows)
        filled += rows.stop - rows.start
    return groups


def _group_blocks(ctx: _OperandContext, gamma: float, snp_block: int,
                  tile_size: int, group: list[slice]
                  ) -> Iterator[tuple[slice, np.ndarray]]:
    """The kernel blocks of one row group's batches, in order: the exact
    SNP distances of the group, then each batch's block assembled band
    by band in place (:meth:`KernelBuilder.iter_cross_rows` says why)."""
    cols = slice(0, ctx.n2)
    g0 = group[0].start
    dist = snp_gram(ctx.q1, ctx.q2, snp_block, slice(g0, group[-1].stop),
                    cols, (ctx.d1, ctx.d2))
    for rows in group:
        block = np.empty((rows.stop - rows.start, ctx.n2))
        for b0 in range(rows.start, rows.stop, tile_size):
            band = slice(b0, min(b0 + tile_size, rows.stop))
            compute_kernel_rows(
                ctx, gamma, snp_block, band, cols,
                out=block[b0 - rows.start:band.stop - rows.start],
                dist=dist[b0 - g0:band.stop - g0])
        yield rows, block


@dataclass(frozen=True)
class BuildRowSpec(BodySpec):
    """One kernel-matrix row band of the Build phase: columns
    ``[0, col_end)`` of rows ``[row_start, row_stop)``, from the
    prepared operand context (its single input)."""

    gamma: float
    snp_block: int
    row_start: int
    row_stop: int
    col_end: int

    def run(self, ctx: _OperandContext) -> np.ndarray:
        return compute_kernel_rows(
            ctx, self.gamma, self.snp_block,
            slice(self.row_start, self.row_stop), slice(0, self.col_end))


@dataclass(frozen=True)
class PredictGroupSpec(BodySpec):
    """One row group of a Predict: each of its ``batches`` (row ranges)
    as a kernel block (:func:`_group_blocks`) times ``W``, one
    ``precision`` product per batch, stacked in row order.  Its inputs
    are the call's operand context and ``W``."""

    gamma: float
    snp_block: int
    tile_size: int
    precision: Precision
    batches: tuple[tuple[int, int], ...]

    def run(self, ctx: _OperandContext, weights: np.ndarray) -> np.ndarray:
        blocks = _group_blocks(ctx, self.gamma, self.snp_block,
                               self.tile_size,
                               [slice(*rows) for rows in self.batches])
        return np.vstack([gemm(block, weights, precision=self.precision)
                          for _, block in blocks])


@dataclass
class TrainOperands:
    """Cached train-side GEMM operand state for cross-kernel builds.

    Quantizing a training panel, scanning its ``max|.|`` and folding its
    squared norms is the dominant *fixed* cost of a cross-kernel build.
    :meth:`KernelBuilder.train_operands` prepares this state once and
    :meth:`KernelBuilder.iter_cross_rows` accepts it back, so several
    calls against one panel pay it once (a ``KRRSession`` holds one
    from its first Predict).  The panel stays INT8: no float copy of it
    is cached, each Gram casts the SNP block it multiplies.

    Reuse is bitwise-safe: the cached values are produced by exactly
    the code the uncached path runs, on the same arrays.
    """

    genotypes: np.ndarray
    confounders: np.ndarray | None
    q: QuantizedOperand
    d: np.ndarray
    qc: QuantizedOperand | None
    e: np.ndarray | None

    def check_compatible(self, train_genotypes: np.ndarray,
                         train_confounders: np.ndarray | None) -> None:
        """Reject reuse against a different panel."""
        if self.genotypes is not train_genotypes:
            raise ValueError(
                "TrainOperands were prepared for a different training "
                "genotype matrix")
        if (self.confounders is None) != (train_confounders is None) or (
                self.confounders is not None
                and self.confounders is not train_confounders):
            raise ValueError(
                "TrainOperands were prepared for different confounders")


@dataclass
class CrossRowBlock:
    """One streamed row batch of the rectangular cross kernel.

    Attributes
    ----------
    rows:
        Row slice of the test cohort this block covers.
    kernel:
        ``(batch, n_train)`` dense kernel block (float64 container).
    flops:
        Operation count of the block.
    """

    rows: slice
    kernel: np.ndarray
    flops: float


@dataclass
class KernelBuilder:
    """Configurable Build-phase driver.

    The kernel is the paper's Gaussian of squared Euclidean distances:
    the exact INT8 SNP distances (genotypes must be integers in
    [−128, 127]) plus the FP32 confounder Gram.

    Parameters
    ----------
    gamma:
        Gaussian bandwidth (paper uses 0.01).
    tile_size:
        Tile edge of the produced kernel matrix (default 256, the
        sessions' default).
    adaptive_rule:
        When given, finished tiles are stored at the precision the rule
        selects (producing the Fig. 4 mosaic); otherwise tiles are stored
        at ``storage_precision``.
    storage_precision:
        Uniform storage precision when no adaptive rule is given.
    snp_block:
        Column blocking of the SNP dimension inside each Gram tile.
    runtime:
        The :class:`~repro.runtime.runtime.Runtime` the tile-row tasks
        are inserted into — it alone says where and how wide they run
        (BLAS releases the GIL, so tile GEMMs genuinely overlap on its
        lanes) — and whose ``ledger[trace_phase]`` tallies them, which
        a session's flop accounting reads.  Left unset, the builder
        makes its own ``Runtime()``, resolved like any other.
    trace_phase:
        Ledger phase of the runtime runs (``"build"``; the solver
        sessions relabel their Predict-phase cross-kernel builds).
    store:
        Optional :class:`~repro.store.TileStore`.  The streamed
        training kernel is built **store-backed**: each finished block
        row lands in budget-managed tile storage, so rows spill to disk
        as they are consumed and the resident mosaic never exceeds the
        store budget — the Build phase's out-of-core mode.  Values are
        bitwise identical to the unbudgeted Build.
    """

    gamma: float = 0.01
    tile_size: int = 256
    adaptive_rule: AdaptivePrecisionRule | None = None
    storage_precision: Precision | str = Precision.FP32
    snp_block: int = SNP_BLOCK
    runtime: Runtime | None = None
    trace_phase: str = "build"
    store: object | None = None

    def __post_init__(self) -> None:
        self.storage_precision = Precision.from_string(self.storage_precision)
        if self.tile_size <= 0:
            raise ValueError("tile_size must be positive")
        if self.runtime is None:
            self.runtime = Runtime()

    # ------------------------------------------------------------------
    def build_training(self, genotypes: np.ndarray,
                       confounders: np.ndarray | None = None) -> BuildResult:
        """Build the symmetric training kernel matrix ``K`` (NP1 × NP1).

        The kernel streams tile-by-tile into symmetric tile storage;
        no full dense FP64 staging matrix is ever allocated.  An
        adaptive rule decides the mosaic here, once, from the norms of
        the FP64 staging tiles taken as they are stored; every tile is
        then rounded to its format, and the factorization reads it.
        """
        genotypes = np.asarray(genotypes)
        n = genotypes.shape[0]
        stats = BuildStats()
        # Streaming target: tiles staged at FP64 when the adaptive rule
        # needs to see exact tile norms, otherwise quantized on arrival.
        staging = Precision.FP64 if self.adaptive_rule is not None else (
            self.storage_precision)
        tiled = TileMatrix.empty(n, n, self.tile_size, staging, symmetric=True)
        if self.store is not None:
            # out-of-core Build: consumed rows stream into budget-managed
            # storage, spilling as the budget fills (bitwise-exact
            # round-trips; only the rounding to the mosaic faults a
            # spilled staging tile back in)
            tiled.attach_store(self.store)
        norms: dict[tuple[int, int], float] = {}

        def consume(coords: tuple[int, int], tile_k: np.ndarray) -> None:
            bi, bj = coords
            if bi == bj:
                np.fill_diagonal(tile_k, 1.0)
            tile = Tile(tile_k, precision=staging, coords=coords)
            if self.adaptive_rule is not None:
                norms[coords] = tile.norm()
            tiled.set_tile(bi, bj, tile)

        trace = self._stream_tiles(genotypes, genotypes, confounders,
                                   confounders, symmetric=True,
                                   consume=consume, stats=stats).trace

        precision_map: dict[tuple[int, int], Precision] | None = None
        if self.adaptive_rule is not None:
            precision_map = _decide_from_norms(tiled, norms,
                                               self.adaptive_rule)
            tiled.apply_precision_map(precision_map)
        return BuildResult(kernel=tiled, flops=trace.total_flops,
                           flops_by_precision=trace.flops_by_precision(),
                           precision_map=precision_map, stats=stats)

    def build_cross(self, test_genotypes: np.ndarray, train_genotypes: np.ndarray,
                    test_confounders: np.ndarray | None = None,
                    train_confounders: np.ndarray | None = None) -> BuildResult:
        """Build the rectangular test-vs-train kernel (NP2 × NP1, Predict phase)."""
        test_genotypes = np.asarray(test_genotypes)
        train_genotypes = np.asarray(train_genotypes)
        n1, n2 = test_genotypes.shape[0], train_genotypes.shape[0]
        stats = BuildStats(dense_staging_elements=n1 * n2)
        out = np.zeros((n1, n2), dtype=np.float64)
        layout = TileLayout(rows=n1, cols=n2, tile_size=self.tile_size)

        def consume(coords: tuple[int, int], tile_k: np.ndarray) -> None:
            rs, cs = layout.tile_slice(*coords)
            out[rs, cs] = tile_k

        trace = self._stream_tiles(test_genotypes, train_genotypes,
                                   test_confounders, train_confounders,
                                   symmetric=False, consume=consume,
                                   stats=stats).trace
        return BuildResult(kernel=out, flops=trace.total_flops,
                           flops_by_precision=trace.flops_by_precision(),
                           stats=stats)

    # ------------------------------------------------------------------
    def train_operands(self, train_genotypes: np.ndarray,
                       train_confounders: np.ndarray | None = None
                       ) -> TrainOperands:
        """Prepare the train-side operand state of cross-kernel builds.

        The returned :class:`TrainOperands` can be passed to any number
        of :meth:`iter_cross_rows` calls against the same training
        panel, skipping the per-call quantization, ``max|.|`` scan and
        squared norms of the training matrix.  Values are bitwise
        identical to the uncached path.
        """
        g2 = np.asarray(train_genotypes)
        q2, d2, qc2, e2 = self._side_operands(g2, train_confounders)
        return TrainOperands(genotypes=g2, confounders=train_confounders,
                             q=q2, d=d2, qc=qc2, e=e2)

    def _side_operands(self, g: np.ndarray, c: np.ndarray | None):
        """One operand side, prepared once: the quantized genotypes,
        their squared norms and the confounder Gram inputs."""
        q = genotype_operand(g)
        if integer_gemm_dtype(q.max_abs(), q.max_abs(),
                              g.shape[1]) is np.float32:
            # the Gram's own bound max|g|²·ns < 2²⁴ makes every partial
            # sum exact in float32; einsum casts in its own small buffers
            d = np.einsum("ij,ij->i", q.array, q.array,
                          dtype=np.float32).astype(np.float64)
        else:
            d = squared_norms(q.array).astype(np.float64)
        qc = e = None
        if c is not None:
            c64 = np.asarray(c, dtype=np.float64)
            qc = QuantizedOperand(c64, CONF_VARIANT.input_precision)
            e = np.einsum("ij,ij->i", c64, c64)
        return q, d, qc, e

    def _prepare_operands(self, g1: np.ndarray, g2: np.ndarray,
                          c1: np.ndarray | None, c2: np.ndarray | None,
                          symmetric: bool,
                          train_cache: TrainOperands | None = None
                          ) -> _OperandContext:
        """Quantize/cache the GEMM operands once per kernel computation."""
        if g1.shape[1] != g2.shape[1]:
            raise ValueError("genotype matrices must share the SNP dimension")
        if (c1 is None) != (c2 is None):
            raise ValueError("confounders must be provided for both sides or neither")

        n1, n2 = g1.shape[0], g2.shape[0]
        ns = g1.shape[1]

        if train_cache is not None:
            if symmetric:
                raise ValueError(
                    "train-side operand caching applies to cross kernels "
                    "only")
            train_cache.check_compatible(g2, c2)

        # Prepare each operand side once; row blocks slice shared views.
        q1, d1, qc1, e1 = self._side_operands(g1, c1)
        if symmetric:
            q2, d2, qc2, e2 = q1, d1, qc1, e1
        elif train_cache is not None:
            q2, d2, qc2, e2 = (train_cache.q, train_cache.d,
                               train_cache.qc, train_cache.e)
        else:
            q2, d2, qc2, e2 = self._side_operands(g2, c2)
        n_conf = 0 if c1 is None else np.asarray(c1).shape[1]
        # the max|.| scans happened above, before threading, so the
        # worker tasks only ever read shared state
        return _OperandContext(
            n1=n1, n2=n2, ns=ns, q1=q1, q2=q2, d1=d1, d2=d2,
            qc1=qc1, qc2=qc2, e1=e1, e2=e2, n_conf=n_conf,
        )

    def _block_flops(self, ctx: _OperandContext, mb: int, nb: int
                     ) -> tuple[float, dict[Precision, float]]:
        """Operation count of an ``mb × nb`` kernel block, split by precision."""
        flops = gemm_flop_count(mb, nb, ctx.ns)
        by_prec = {Precision.INT8: flops}
        if ctx.n_conf > 0:
            cf = gemm_flop_count(mb, nb, ctx.n_conf)
            flops += cf
            by_prec[Precision.FP32] = cf
        return flops, by_prec

    def iter_cross_rows(self, test_genotypes: np.ndarray,
                        train_genotypes: np.ndarray,
                        test_confounders: np.ndarray | None = None,
                        train_confounders: np.ndarray | None = None,
                        batch_rows: int | None = None,
                        train_cache: TrainOperands | None = None,
                        cohort_rows: list[int] | None = None
                        ) -> Iterator[CrossRowBlock]:
        """Stream the rectangular test-vs-train kernel in row batches.

        Operands are quantized once, then ``batch_rows`` test
        individuals at a time, rounded down to whole tiles and at least
        one (the whole cohort when ``None``; :func:`_row_groups`), flow
        through the Gram/distance/kernel pipeline.  Values equal
        :meth:`build_cross` for any batching; the blocks are the ones a
        session's Predict multiplies by ``W``, from the same per-group
        loop (:func:`_group_blocks`).

        ``cohort_rows`` says the test rows are several cohorts stacked
        in that order (the serving micro-batch); a batch never straddles
        two of them.  The exact part is row-stacked, the float part
        keeps solo shapes:

        * the INT8 SNP Gram runs once per *row group* — consecutive
          batches, possibly from several cohorts, of at most one batch
          of rows (the largest cohort when ``None``).  It is
          exact integer arithmetic, so its bits do not depend on the
          rows it ran over;
        * everything that rounds — the FP32 confounder Gram and the
          caller's ``K·W`` — runs per tile-row band or per batch, with
          the block shapes a cohort streamed on its own would use.

        Each band is assembled in place in the yielded block, so the
        peak is the block plus the group's 4-byte distance accumulator.

        ``train_cache`` (from :meth:`train_operands`) skips the
        train-side operand preparation without changing a single
        produced bit.
        """
        test_genotypes = np.asarray(test_genotypes)
        train_genotypes = np.asarray(train_genotypes)
        n1, n2 = test_genotypes.shape[0], train_genotypes.shape[0]
        sizes = [n1] if cohort_rows is None else [int(m) for m in cohort_rows]
        if sum(sizes) != n1 or min(sizes, default=0) < 0:
            raise ValueError("cohort_rows must partition the test rows")
        ctx = self._prepare_operands(test_genotypes, train_genotypes,
                                     test_confounders, train_confounders,
                                     symmetric=False, train_cache=train_cache)
        for group in _row_groups(sizes, batch_rows, self.tile_size):
            for rows, block in _group_blocks(ctx, self.gamma, self.snp_block,
                                             self.tile_size, group):
                flops, _ = self._block_flops(ctx, rows.stop - rows.start, n2)
                yield CrossRowBlock(rows=rows, kernel=block, flops=flops)

    def _predict_groups(self, genotypes: np.ndarray,
                        confounders: np.ndarray | None, train: TrainOperands,
                        weights: np.ndarray, precision: Precision,
                        groups: list[list[slice]]) -> np.ndarray:
        """``K_test · weights`` of the row-stacked test cohorts against
        the ``train`` panel as one drain of ``trace_phase``: one
        :class:`PredictGroupSpec` task per row group of ``groups``
        (:func:`_row_groups`), tallying its kernel blocks and ``K·W``
        products by precision (linear in rows: its batches' sum)."""
        ctx = self._prepare_operands(genotypes, train.genotypes, confounders,
                                     train.confounders, symmetric=False,
                                     train_cache=train)
        n2, nph = ctx.n2, weights.shape[1]
        predictions = np.empty((ctx.n1, nph))
        with self.runtime.dag("predict") as ns:
            inputs = (ObjectInput(ctx, key=f"{ns}operands"),
                      ObjectInput(weights, key=f"{ns}W"))
            for gi, group in enumerate(groups):
                rows = slice(group[0].start, group[-1].stop)
                mb = rows.stop - rows.start
                _, detail = self._block_flops(ctx, mb, n2)
                detail[precision] = (detail.get(precision, 0.0)
                                     + gemm_flop_count(mb, n2, nph))
                self.runtime.insert_task(
                    "predict_group",
                    flops=float(sum(detail.values())), precision=precision,
                    flops_detail=detail, tag=gi,
                    spec=TaskSpec(
                        PredictGroupSpec(
                            gamma=self.gamma, snp_block=self.snp_block,
                            tile_size=self.tile_size, precision=precision,
                            batches=tuple((b.start, b.stop) for b in group)),
                        mode="aux", aux=inputs,
                        # each group writes its own rows of the panel
                        on_complete=partial(predictions.__setitem__, rows)),
                )
            self.runtime.run(phase=self.trace_phase)
        return predictions

    def _stream_tiles(self, g1: np.ndarray, g2: np.ndarray,
                      c1: np.ndarray | None, c2: np.ndarray | None,
                      symmetric: bool,
                      consume: Callable[[tuple[int, int], np.ndarray], None],
                      stats: BuildStats) -> ScheduleResult:
        """Insert the tile-row task DAG, run it through the runtime and
        return the drain's result (its trace carries the operation count).

        One *row task* per block row of tiles: the Gram product runs as
        a (tile_size x ns) @ (ns x row_width) dgemm — large enough for
        BLAS to reach peak — while the peak dense temporary stays at
        one tile row.  For the symmetric case a row task covers only
        the lower-triangle width.  Row tasks only read the shared
        operand context, so the scheduler runs them out of order; each
        hands its row to ``consume`` tile by tile as it completes
        (``TaskSpec.on_complete``, on its lane or the process
        coordinator), so a row is dead before its lane takes the next.
        """
        ctx = self._prepare_operands(g1, g2, c1, c2, symmetric)
        layout = TileLayout(rows=ctx.n1, cols=ctx.n2, tile_size=self.tile_size)
        stats.tile_tasks = layout.tile_rows

        def store_row(bi: int, row_k: np.ndarray) -> None:
            for bj in range(bi + 1 if symmetric else layout.tile_cols):
                consume((bi, bj), row_k[:, layout.tile_slice(bi, bj)[1]])

        rt = self.runtime
        with rt.dag("build") as ns:
            operands = (ObjectInput(ctx, key=f"{ns}operands"),)
            for bi in range(layout.tile_rows):
                rs = layout.tile_slice(bi, 0)[0]
                col_end = (min((bi + 1) * layout.tile_size, ctx.n2)
                           if symmetric else ctx.n2)
                mb = rs.stop - rs.start
                stats.max_dense_temp_elements = max(
                    stats.max_dense_temp_elements, mb * col_end)
                row_flops, row_detail = self._block_flops(ctx, mb, col_end)
                rt.insert_task(
                    "build_row",
                    flops=row_flops, precision=Precision.INT8,
                    flops_detail=row_detail, tag=bi,
                    spec=TaskSpec(
                        BuildRowSpec(gamma=self.gamma,
                                     snp_block=self.snp_block,
                                     row_start=rs.start, row_stop=rs.stop,
                                     col_end=col_end),
                        mode="aux", aux=operands,
                        on_complete=partial(store_row, bi)),
                )
            return rt.run(phase=self.trace_phase)
