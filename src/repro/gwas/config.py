"""Configuration objects for the RR / KRR GWAS solvers.

``PrecisionPlan`` captures *how* mixed precision is applied — the axis
the paper's accuracy experiments sweep:

* ``uniform``   — every tile in the working precision (the FP32
  reference, "100(FP32)" in Fig. 5);
* ``band``      — the hand-tuned band/rainbow assignment with a given
  FP32 fraction ("80(FP32):20(FP16)", ..., "10(FP32):90(FP16)");
* ``adaptive``  — the tile-centric adaptive rule (the paper's method),
  with a hardware floor of FP16 (A100) or FP8 (GH200).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import ClassVar

from repro.precision.formats import Precision
from repro.settings import EXECUTION_MODES, SOLVER_MODES
from repro.tiles.adaptive import AdaptivePrecisionRule, candidates_for_gpu
from repro.tiles.band import band_precision_map
from repro.tiles.layout import TileLayout


class _WithOptionsMixin:
    """``with_options(**overrides)`` for the frozen config dataclasses.

    Returns a copy with the given fields replaced (validation re-runs
    through ``__post_init__``), replacing the historical
    ``Config(**{**config.__dict__, **overrides})`` reconstruction trick.
    """

    def with_options(self, **overrides):
        names = {f.name for f in dataclasses.fields(self)}
        unknown = set(overrides) - names
        if unknown:
            raise ValueError(
                f"unknown {type(self).__name__} option(s) {sorted(unknown)}; "
                f"valid fields are {sorted(names)}"
            )
        return dataclasses.replace(self, **overrides)


def _require_finite(cfg, *names) -> None:
    """NaN and ±inf pass every ``< 0`` check: reject them first."""
    for name in names:
        value = getattr(cfg, name)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class PrecisionPlan(_WithOptionsMixin):
    """How tile precisions are assigned in the Associate phase.

    Parameters
    ----------
    mode:
        ``"uniform"``, ``"band"`` or ``"adaptive"``.
    working_precision:
        Precision of panel operations, diagonal tiles, and the uniform
        mode.
    low_precision:
        Off-diagonal precision of the band mode, and the floor of the
        adaptive mode (FP16 or FP8_E4M3).
    band_high_fraction:
        Fraction of off-diagonal bands kept at the working precision in
        band mode (1.0 = all FP32, 0.1 = the paper's failing config).
    accuracy:
        Target storage accuracy of the adaptive rule.  ``1e-3`` selects
        FP16 for off-diagonal tiles of the (well-scaled) kernel
        matrices used here; the FP8 plan defaults to a looser threshold
        (see :meth:`adaptive_fp8`) matching the GH200 runs of the paper
        where the application tolerates FP8-level tile storage.
    """

    mode: str = "adaptive"
    working_precision: Precision = Precision.FP32
    low_precision: Precision = Precision.FP16
    band_high_fraction: float = 1.0
    accuracy: float = 1e-3

    def __post_init__(self) -> None:
        if self.mode not in ("uniform", "band", "adaptive"):
            raise ValueError("mode must be 'uniform', 'band' or 'adaptive'")
        if not 0.0 <= self.band_high_fraction <= 1.0:
            raise ValueError("band_high_fraction must be in [0, 1]")
        _require_finite(self, "accuracy")
        if self.accuracy <= 0:
            raise ValueError("accuracy must be positive")
        object.__setattr__(self, "working_precision",
                           Precision.from_string(self.working_precision))
        object.__setattr__(self, "low_precision",
                           Precision.from_string(self.low_precision))

    # ------------------------------------------------------------------
    # named constructors matching the paper's configurations
    # ------------------------------------------------------------------
    @classmethod
    def fp32(cls) -> "PrecisionPlan":
        """Full FP32 reference ("100(FP32)")."""
        return cls(mode="uniform", working_precision=Precision.FP32)

    @classmethod
    def fp64(cls) -> "PrecisionPlan":
        """Full FP64 reference."""
        return cls(mode="uniform", working_precision=Precision.FP64)

    @classmethod
    def band(cls, high_fraction: float,
             low_precision: Precision | str = Precision.FP16) -> "PrecisionPlan":
        """Hand-tuned band configuration, e.g. ``band(0.8)`` = 80% FP32 / 20% FP16."""
        return cls(mode="band", band_high_fraction=high_fraction,
                   low_precision=Precision.from_string(low_precision))

    @classmethod
    def adaptive(cls, gpu: str = "A100", accuracy: float | None = None) -> "PrecisionPlan":
        """Tile-centric adaptive plan with the hardware floor of ``gpu``."""
        floor = candidates_for_gpu(gpu)[0]
        if accuracy is None:
            accuracy = 1e-1 if floor is Precision.FP8_E4M3 else 1e-3
        return cls(mode="adaptive", low_precision=floor, accuracy=accuracy)

    @classmethod
    def adaptive_fp16(cls, accuracy: float = 1e-3) -> "PrecisionPlan":
        """The paper's A100/V100 configuration: FP32 panels, FP16 off-diagonal."""
        return cls(mode="adaptive", low_precision=Precision.FP16, accuracy=accuracy)

    @classmethod
    def adaptive_fp8(cls, accuracy: float = 1e-1) -> "PrecisionPlan":
        """The paper's GH200 configuration with the FP8 floor.

        The looser default threshold reflects the GH200 runs of the
        paper: the off-diagonal tiles drop to FP8 storage, which is
        what produces the small-but-visible MSPE/Pearson degradation of
        Fig. 6 and Table I's last column.
        """
        return cls(mode="adaptive", low_precision=Precision.FP8_E4M3, accuracy=accuracy)

    # ------------------------------------------------------------------
    def label(self) -> str:
        """Human-readable label matching the paper's figure x-axis."""
        if self.mode == "uniform":
            return f"100({self.working_precision.value.upper()})"
        if self.mode == "band":
            hi = int(round(self.band_high_fraction * 100))
            lo = 100 - hi
            return (f"{hi}({self.working_precision.value.upper()}):"
                    f"{lo}({self.low_precision.value.upper()})")
        return (f"Adaptive {self.working_precision.value.upper()}/"
                f"{self.low_precision.value.upper()}")

    def adaptive_rule(self) -> AdaptivePrecisionRule:
        """The adaptive rule corresponding to this plan."""
        candidates = tuple(sorted(
            {self.low_precision, Precision.FP16, Precision.FP32, Precision.FP64}
            if self.low_precision is not Precision.FP16
            else {Precision.FP16, Precision.FP32, Precision.FP64},
            key=lambda p: p.rank,
        ))
        return AdaptivePrecisionRule(
            accuracy=self.accuracy,
            candidates=candidates,
            working_precision=self.working_precision,
        )

    # ------------------------------------------------------------------
    # artifact (de)serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready representation (fitted-model artifacts embed this)."""
        return {
            "mode": self.mode,
            "working_precision": self.working_precision.value,
            "low_precision": self.low_precision.value,
            "band_high_fraction": self.band_high_fraction,
            "accuracy": self.accuracy,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PrecisionPlan":
        """Inverse of :meth:`to_dict`."""
        return cls(**data)

    def precision_map(self, layout: TileLayout,
                      matrix=None) -> dict[tuple[int, int], Precision]:
        """Materialize the per-tile precision map for a given tile layout.

        ``matrix`` (dense array or TileMatrix) is required for the
        adaptive mode because the decision depends on tile norms.
        """
        if self.mode == "uniform":
            return {t: self.working_precision for t in layout.iter_tiles()}
        if self.mode == "band":
            return band_precision_map(
                layout, self.band_high_fraction,
                high=self.working_precision, low=self.low_precision,
            )
        # adaptive
        if matrix is None:
            raise ValueError("adaptive precision plans need the matrix to decide")
        from repro.tiles.adaptive import decide_tile_precisions

        return decide_tile_precisions(matrix, self.adaptive_rule(),
                                      tile_size=layout.tile_size)


def _validate_runtime_knobs(cfg) -> None:
    if cfg.execution is not None and cfg.execution not in EXECUTION_MODES:
        raise ValueError(
            f"execution must be one of {EXECUTION_MODES} (or None), got "
            f"{cfg.execution!r}"
        )
    if cfg.workers is not None and cfg.workers <= 0:
        raise ValueError("workers must be positive (or None)")
    if cfg.task_retries is not None and cfg.task_retries < 0:
        raise ValueError("task_retries must be non-negative (or None)")


@dataclass(frozen=True)
class RRConfig(_WithOptionsMixin):
    """Ridge-regression GWAS configuration (Eq. 1–2).

    ``workers``, ``execution`` and ``task_retries`` left ``None`` take
    the session's :class:`repro.settings.Settings` snapshot: the
    environment's value, else the library default.

    Parameters
    ----------
    regularization:
        The λ penalty added to ``X^T X``.
    tile_size:
        Tile edge of the Cholesky and its solves (default 256: large
        tiles keep the BLAS busy and the task count small).
    precision_plan:
        Mixed-precision plan of the Cholesky factorization.
    workers:
        Worker threads of the session's task runtime.
    execution:
        Execution mode of the session's task runtime: ``"threaded"``
        (default), ``"process"`` (GIL-free worker processes) or
        ``"serial"``.
    task_retries:
        Transient-failure retries per task (capped exponential backoff
        with deterministic jitter); unset everywhere, tasks fail fast.
        Retries are bitwise neutral: task bodies are pure, so a
        re-execution produces the identical tiles.
    """

    regularization: float = 1.0
    tile_size: int = 256
    precision_plan: PrecisionPlan = field(default_factory=PrecisionPlan.fp32)
    workers: int | None = None
    execution: str | None = None
    task_retries: int | None = None

    def __post_init__(self) -> None:
        _require_finite(self, "regularization")
        if self.regularization < 0:
            raise ValueError("regularization must be non-negative")
        if self.tile_size <= 0:
            raise ValueError("tile_size must be positive")
        _validate_runtime_knobs(self)


@dataclass(frozen=True)
class KRRConfig(_WithOptionsMixin):
    """Kernel-ridge-regression GWAS configuration (Algorithms 1–5).

    ``workers``, ``execution``, ``solver``, ``store_budget_bytes`` and
    ``task_retries`` left ``None`` take the session's
    :class:`repro.settings.Settings` snapshot: the environment's value,
    else the library default.

    The kernel is the paper's Gaussian of squared Euclidean distances,
    its SNP Gram the exact INT8 one (genotypes are integers in
    [−128, 127]).

    Parameters
    ----------
    gamma:
        Gaussian kernel bandwidth (paper uses 0.01), anchored at
        ``GAMMA_REFERENCE_SNPS``: the bandwidth applied is
        :meth:`effective_gamma`.
    alpha:
        Regularization added to the kernel diagonal.
    tile_size:
        Tile edge of the kernel matrix (default 256: large tiles keep
        the BLAS busy and the task count small, at the price of a
        coarser precision mosaic).
    precision_plan:
        Mixed-precision plan of the Associate phase.
    workers:
        Worker threads of the session's task runtime — one knob for
        *every* phase (Build row tasks, Cholesky tiles, triangular
        solves).
    execution:
        Execution mode of the session's task runtime: ``"threaded"``
        (default — real out-of-order DAG execution), ``"process"``
        (GIL-free worker OS processes exchanging tiles through mmap'd
        segment files) or ``"serial"`` (the bitwise-identical
        reference drain on the caller's thread).
    solver:
        Associate-phase solve route, for an alpha the held factor was
        not made for (an alpha it was made for is always a panel solve
        against it).  ``"direct"`` (the historical path) factorizes
        ``K + alpha*I`` afresh; ``"cg"`` solves it with tile-native
        preconditioned conjugate gradients against the held factor
        (FP64 iterations, low-precision preconditioner — see
        :mod:`repro.linalg.cg`), falling back to a fresh factorization
        automatically when CG does not converge.  This is what makes
        ``grid_search_cv`` sweeps factor-once per (fold, gamma).
    cg_tol:
        Convergence threshold of the CG route: per-column relative
        residual ``||b - A x|| / ||b||``.  The default 1e-8 sits well
        below the FP32 working-precision noise of the direct solve, so
        CG solutions agree with direct ones to the accuracy the
        precision plan supports.
    cg_max_iters:
        CG iteration cap; hitting it triggers the automatic fallback
        to the direct factorization for that alpha.
    predict_batch_rows:
        Row-batch size of the streamed Predict phase: the test cohort
        is processed ``predict_batch_rows`` individuals at a time, so
        the peak cross-kernel temporary is one batch (float64) plus
        one 4-byte INT8 SNP Gram for its row group, instead of the
        full ``n_test × n_train`` panel.  A row group is up to this
        many rows of consecutive batches; a serving micro-batch fills
        it from several cohorts.  This is the only Predict batch size:
        it travels with an exported model, so a serving host streams
        at the size the model was fitted with.  Rounded down to a
        multiple of ``tile_size`` at run time, minimum one tile: batch
        boundaries on tile boundaries keep the FP32 confounder Gram on
        its monolithic block shapes, so the cross-kernel blocks are
        bitwise those of the unbatched kernel.  A prediction's last bits
        still depend on the batch size through the ``K·W`` product,
        which runs once per batch: a one-row trailing batch, for
        instance, is a GEMV with another accumulation order.
        ``None`` processes each cohort in one batch.
    store_budget_bytes:
        Residency budget of the session's out-of-core tile store.  When
        set, the session creates a :class:`~repro.store.TileStore`, the
        streamed Build, the Cholesky workspace and the factor become
        store-backed — least-recently-used tiles spill to disk in their
        native storage precision and fault back in bitwise — and the
        scheduler pins each task's tiles while it runs.  Results are
        **bitwise identical** to the fully-resident run for any budget.
        ``None`` keeps everything resident.
    store_dir:
        Spill directory of the session store.  ``None`` uses a private
        temporary directory removed when the store is closed or garbage
        collected.  Setting ``store_dir`` alone (without a budget)
        creates an unbounded store, useful only for artifact-backed
        loading.
    task_retries:
        Transient-failure retries per runtime task (capped exponential
        backoff with deterministic seeded jitter); unset everywhere,
        tasks fail fast.  Retries are bitwise neutral: task bodies are pure,
        so a re-execution reproduces the identical tiles and the run's
        result matches the fault-free run exactly.
    """

    gamma: float = 0.01
    alpha: float = 0.5
    tile_size: int = 256
    precision_plan: PrecisionPlan = field(default_factory=PrecisionPlan.adaptive_fp16)
    workers: int | None = None
    execution: str | None = None
    solver: str | None = None
    cg_tol: float = 1e-8
    cg_max_iters: int = 200
    predict_batch_rows: int | None = 1024
    store_budget_bytes: int | None = None
    store_dir: str | None = None
    task_retries: int | None = None

    def __post_init__(self) -> None:
        _require_finite(self, "gamma", "alpha", "cg_tol")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if self.predict_batch_rows is not None and self.predict_batch_rows <= 0:
            raise ValueError("predict_batch_rows must be positive (or None)")
        if self.tile_size <= 0:
            raise ValueError("tile_size must be positive")
        if self.store_budget_bytes is not None and self.store_budget_bytes <= 0:
            raise ValueError("store_budget_bytes must be positive (or None)")
        if self.solver is not None and self.solver not in SOLVER_MODES:
            raise ValueError(
                f"solver must be one of {SOLVER_MODES} (or None), got "
                f"{self.solver!r}"
            )
        if not self.cg_tol > 0:
            raise ValueError("cg_tol must be positive")
        if self.cg_max_iters < 1:
            raise ValueError("cg_max_iters must be at least 1")
        _validate_runtime_knobs(self)

    # ------------------------------------------------------------------
    # artifact (de)serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready representation embedded in fitted-model artifacts.

        The machine-specific runtime knobs (``workers``, ``execution``,
        ``store_budget_bytes``, ``store_dir``, ``task_retries``) are
        deliberately *not* serialized: an artifact loaded on another
        host must resolve its concurrency and memory budget from that
        host's environment, not from wherever the model happened to be
        trained.
        """
        return {
            "gamma": self.gamma,
            "alpha": self.alpha,
            "tile_size": self.tile_size,
            "precision_plan": self.precision_plan.to_dict(),
            "predict_batch_rows": self.predict_batch_rows,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "KRRConfig":
        """Inverse of :meth:`to_dict`.

        An artifact written before the one Build route also carries
        ``kernel_type``, ``snp_precision``, ``normalize_gamma`` and
        ``artifact_compress``: the first three load at the one value the
        Build computes and raise a ``ValueError`` naming the key
        otherwise; ``artifact_compress`` is dropped.
        """
        data = dict(data)
        data.pop("artifact_compress", None)
        for key, only in (("kernel_type", "gaussian"),
                          ("snp_precision", "int8"),
                          ("normalize_gamma", True)):
            value = data.pop(key, only)
            if value != only:
                raise ValueError(
                    f"artifact config {key}={value!r} is not supported: "
                    f"the Build computes {key}={only!r} only")
        plan = data.pop("precision_plan", None)
        if plan is not None:
            data["precision_plan"] = PrecisionPlan.from_dict(plan)
        return cls(**data)

    #: SNP count at which ``gamma`` is anchored.
    GAMMA_REFERENCE_SNPS: ClassVar[float] = 200.0

    def effective_gamma(self, n_snps: int) -> float:
        """γ actually applied, rescaled by the SNP count.

        The bandwidth keeps ``γ·E[D]`` constant across SNP counts
        (squared distances grow linearly with NS for 0/1/2 genotype
        data): ``γ_eff = γ · GAMMA_REFERENCE_SNPS / NS``.  The paper
        quotes γ = 0.01 for its fixed NS = 43,333; with the anchor at
        200 SNPs the same γ value lands in the informative range of the
        Gaussian kernel for the scaled-down synthetic cohorts used here
        (exponent of order one instead of hundreds).
        """
        if n_snps > 0:
            return self.gamma * (self.GAMMA_REFERENCE_SNPS / float(n_snps))
        return self.gamma


@dataclass(frozen=True)
class ServeConfig(_WithOptionsMixin):
    """Knobs of the :mod:`repro.serve` prediction service.

    The service has no row-batch size of its own: a micro-batch streams
    at the served model's ``KRRConfig.predict_batch_rows``.

    Parameters
    ----------
    max_batch_requests:
        Coalescing cap: at most this many queued requests (for the same
        model) are merged into one micro-batch.  1 disables coalescing
        (the per-request baseline the serve benchmark compares against).
    batch_window_s:
        How long the dispatcher keeps a partially-filled micro-batch
        open waiting for more requests before executing it.  The window
        bounds the queueing latency a request can pay to batching.
    max_queue_depth:
        Backpressure bound: ``submit`` sheds the request with a
        :class:`~repro.resilience.ServiceOverloadedError` when this
        many requests are already queued.  ``None`` means unbounded.
    request_deadline_s:
        Default per-request deadline, measured from submission.  A
        request still queued past its deadline fails fast with
        :class:`~repro.resilience.DeadlineExceededError` and is
        dropped before its micro-batch executes (no wasted kernel work).
        ``None`` means no default deadline; ``submit``/``predict`` can
        override per request.
    dispatch_retries:
        Transient-failure retries of one micro-batch dispatch (the
        streamed ``predict_many`` call).  Non-transient errors fail the
        batch immediately.
    """

    max_batch_requests: int = 8
    batch_window_s: float = 0.002
    max_queue_depth: int | None = None
    request_deadline_s: float | None = None
    dispatch_retries: int = 1

    def __post_init__(self) -> None:
        _require_finite(self, "batch_window_s", "request_deadline_s")
        if self.max_batch_requests <= 0:
            raise ValueError("max_batch_requests must be positive")
        if self.batch_window_s < 0:
            raise ValueError("batch_window_s must be non-negative")
        if self.max_queue_depth is not None and self.max_queue_depth <= 0:
            raise ValueError("max_queue_depth must be positive (or None)")
        if self.request_deadline_s is not None and self.request_deadline_s <= 0:
            raise ValueError("request_deadline_s must be positive (or None)")
        if self.dispatch_retries < 0:
            raise ValueError("dispatch_retries must be non-negative")
