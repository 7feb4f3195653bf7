"""Tile-native solver sessions: Build → Associate → Predict.

:class:`KRRSession` is the paper's three-phase KRR pipeline
(Algorithms 1–5) redesigned around the kernel matrix as a *tile-native*
object: ``K`` is produced by the streamed Build as a symmetric
:class:`~repro.tiles.matrix.TileMatrix` and stays tiled through the
Associate factorization and the Predict phase — there is **zero dense
n×n round-trip** anywhere in the fit/predict hot path.

The memory contract per phase:

* **Build** — tiles stream into symmetric tile storage; peak dense
  temporary is one block row of tiles
  (:class:`~repro.distance.build.BuildStats`).
* **Associate** — the regularization ``K + alpha*I`` touches only the
  *diagonal tiles* (:meth:`TileMatrix.add_diagonal`), the boost-retry
  loop moves the shift with :meth:`TileMatrix.shift_diagonal` instead
  of re-copying the matrix, and the Cholesky factorizes a copy-on-write
  tile workspace (:meth:`TileMatrix.unpacked_lower`).  The weight-panel
  solve runs blockwise against the tiled factors.
* **Predict** — one drain per call, one task per row group of the
  row batches (``KRRConfig.predict_batch_rows``, the one batch size),
  computing ``K_test_block · W`` per batch; the peak cross-kernel
  temporary is one batch plus one 4-byte INT8 Gram per row group in
  flight, instead of the full ``n_test × n_train`` panel.

Each session owns a single session-long
:class:`~repro.runtime.runtime.Runtime`: every phase — the Build row
tasks, the Cholesky tile tasks, the per-tile-row triangular-solve
tasks and the Predict row-group tasks — inserts its task DAG there and
executes under one out-of-order threaded scheduler
(``KRRConfig.workers`` / ``KRRConfig.execution``);
:meth:`KRRSession.close` releases its worker pool and the session
store's spill files.  The runtime's per-phase ledger
(``runtime.ledger``) is the only operation tally:
``phase_flops`` / ``flops_by_precision`` are reads of it, and the
sessions keep no flop state of their own.

:class:`RRSession` gives the linear ridge-regression baseline the same
inputs and staged shape (gram → associate → predict) so the two methods
are driven identically by :class:`~repro.gwas.workflow.GWASWorkflow`.

The sessions are the only estimator front door: every fit in the
library, the workflow, the cross-validation sweep and the serving tier
drives one of these two classes.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.distance.build import (SNP_BLOCK, BuildResult, KernelBuilder,
                                  TrainOperands, _row_groups,
                                  genotype_operand, snp_gram)
from repro.gwas.config import KRRConfig, PrecisionPlan, RRConfig
from repro.linalg.blas3 import gemm
from repro.linalg.cg import CGResult, cg_solve, kernel_matvec
from repro.linalg.cholesky import CholeskyResult, cholesky
from repro.linalg.solve import solve_cholesky
from repro.precision.formats import Precision
from repro.precision.gemm import gemm_flop_count
from repro.runtime.runtime import Runtime
from repro.runtime.trace import ledger_by_precision
from repro.settings import Settings
from repro.tiles.layout import TileLayout
from repro.tiles.matrix import TileMatrix

__all__ = ["KRRSession", "RRSession"]


class KRRSession:
    """A tile-native KRR solving session over one training cohort.

    The session owns the phase pipeline and its state: the tiled kernel
    (``kernel_``), the tiled Cholesky factorization (``factorization_``),
    the weight panel (``weights_``).  The per-phase / per-precision
    operation accounting (``phase_flops`` / ``flops_by_precision``) is
    read off ``runtime.ledger`` — a fresh dict per read, covering every
    phase the runtime drained since :meth:`build`: ``"build"``,
    ``"associate"``, ``"predict"`` (or a custom predict label such as
    ``"serve"``) and ``"solve"`` (:meth:`solve_additional_phenotypes`).

    Typical use::

        session = KRRSession(KRRConfig())
        session.fit(train_genotypes, train_phenotypes, train_confounders)
        predictions = session.predict(test_genotypes, test_confounders)

    or phase by phase (e.g. to sweep the regularization over one
    Build)::

        session.build(train_genotypes)
        path = session.associate_path(train_phenotypes, alphas)

    Parameters
    ----------
    config:
        :class:`~repro.gwas.config.KRRConfig`; keyword overrides are
        accepted, e.g. ``KRRSession(alpha=0.5, gamma=0.02)``.
    """

    def __init__(self, config: KRRConfig | None = None, **overrides) -> None:
        if config is None:
            config = KRRConfig()
        if overrides:
            config = config.with_options(**overrides)
        self.config = config
        # The session-long task runtime: one scheduler executes every
        # phase (Build row tasks, Cholesky tiles, triangular solves,
        # Predict GEMMs) and its per-phase ledger is the accounting.
        self.runtime = Runtime(execution=config.execution,
                               workers=config.workers,
                               task_retries=config.task_retries)
        # The environment is read here, once: what the config leaves
        # open is fixed for the session's life, not per associate().
        settings = Settings.from_env()
        self.solver_ = config.solver or settings.solver
        # Out-of-core tile store (None = fully resident).  Created when
        # the config or the environment sets a budget, or the config a
        # directory; the streamed Build, the factorization workspace
        # and the factor then all live under one residency budget, with
        # the scheduler pinning each task's tiles.
        self.store = None
        budget = config.store_budget_bytes or settings.store_budget_bytes
        if budget is not None or config.store_dir is not None:
            from repro.store import TileStore

            self.store = TileStore(directory=config.store_dir,
                                   budget_bytes=budget)
            self.runtime.attach_store(self.store)
        # Build state
        self.build_result_: BuildResult | None = None
        self.kernel_: TileMatrix | None = None
        self.training_genotypes_: np.ndarray | None = None
        self.training_confounders_: np.ndarray | None = None
        self.gamma_: float | None = None
        # the training panel's Predict-side operands (quantized, max|.|,
        # squared norms; no float copy): made by the first Predict after
        # a build()/from_model(), dropped by build() and close()
        self._train_operands: TrainOperands | None = None
        # Associate state
        self.factorization_: CholeskyResult | None = None
        self.weights_: np.ndarray | None = None
        self.y_means_: np.ndarray | None = None
        self.alpha_: float | None = None
        self.regularization_boosts_: int = 0
        # the alpha the held ``factorization_`` was made for and the
        # shift it was factorized at (they differ after a boost); empty
        # when no factor of the current kernel is held (fresh session,
        # rebuilt kernel, adopted kernel)
        self._factor_alphas: tuple[float, ...] = ()
        self.cg_result_: CGResult | None = None
        self.cg_fallbacks_: int = 0
        self.factorization_count_: int = 0
        #: Cumulative wall-clock seconds per phase —
        #: ``build`` / ``factor`` / ``solve`` / ``predict`` (plus any
        #: custom predict phase labels, e.g. ``"serve"``).  Reset by
        #: :meth:`build`, accumulated by every later phase call.
        self.phase_seconds: dict[str, float] = {}

    # ------------------------------------------------------------------
    # out-of-core store
    # ------------------------------------------------------------------
    def store_stats(self):
        """Snapshot of the session store's :class:`~repro.store.StoreStats`.

        ``None`` when the session runs fully resident.  The headline
        contract — asserted by the out-of-core tests and benchmark —
        is ``peak_resident_bytes <= budget_bytes`` alongside bitwise
        identical fit/predict results.
        """
        return self.store.stats.snapshot() if self.store is not None else None

    def close(self) -> None:
        """Release the runtime's worker pool, then the store's spill files.

        Idempotent.  Without it both wait for the garbage collector;
        whoever holds a session for a while (a sweep fold, a serving
        host) closes it when done.  Spilled tiles are unreadable after.
        """
        self._train_operands = None
        self.runtime.close()
        if self.store is not None:
            self.store.close()

    @property
    def phase_flops(self) -> dict[str, float]:
        """Operation count per phase, from ``runtime.ledger``."""
        return {phase: totals.flops
                for phase, totals in self.runtime.ledger.items()}

    @property
    def flops_by_precision(self) -> dict[Precision, float]:
        """Operation count per compute precision, summed over the phases."""
        return ledger_by_precision(self.runtime.ledger)

    def _add_seconds(self, key: str, seconds: float) -> None:
        self.phase_seconds[key] = self.phase_seconds.get(key, 0.0) + seconds

    # ------------------------------------------------------------------
    # Phase 1: BUILD
    # ------------------------------------------------------------------
    def _builder(self, gamma: float, adaptive: bool = False,
                 trace_phase: str = "build") -> KernelBuilder:
        cfg = self.config
        plan: PrecisionPlan = cfg.precision_plan
        adaptive_rule = (plan.adaptive_rule()
                         if adaptive and plan.mode == "adaptive" else None)
        return KernelBuilder(
            gamma=gamma,
            tile_size=cfg.tile_size,
            adaptive_rule=adaptive_rule,
            storage_precision=plan.working_precision,
            runtime=self.runtime,
            trace_phase=trace_phase,
            store=self.store,
        )

    def build(self, genotypes: np.ndarray,
              confounders: np.ndarray | None = None) -> BuildResult:
        """Build the symmetric training kernel matrix (Algorithm 2).

        The kernel streams tile by tile into symmetric tile storage and
        is retained on the session as ``kernel_`` (a ``TileMatrix``) for
        the Associate and Predict phases.
        """
        genotypes = np.asarray(genotypes)
        gamma = self.config.effective_gamma(genotypes.shape[1])
        builder = self._builder(gamma, adaptive=True)
        # a (re)build starts the session's accounting over
        self.runtime.ledger.clear()
        started = time.perf_counter()
        result = builder.build_training(genotypes, confounders)
        self.phase_seconds.clear()
        self.phase_seconds["build"] = time.perf_counter() - started
        # the retained factorization (if any) is of the old kernel
        self._factor_alphas = ()
        self.cg_result_ = None

        self.build_result_ = result
        self.kernel_ = result.kernel
        self.training_genotypes_ = genotypes
        self.training_confounders_ = (
            None if confounders is None
            else np.asarray(confounders, dtype=np.float64))
        self._train_operands = None
        self.gamma_ = gamma
        return result

    def adopt_kernel(self, kernel: TileMatrix | np.ndarray) -> TileMatrix:
        """Attach an externally built training kernel to the session.

        A dense array is tiled at the configured tile size and stored
        at the plan's working precision, or in the mosaic an adaptive
        plan decides on its float64 tiles, as a Build does; a
        ``TileMatrix`` is adopted as-is, mosaic included.  The
        session can then run :meth:`associate` without
        :meth:`build` — note :meth:`predict` still requires the training
        genotypes, i.e. a full :meth:`build`/:meth:`fit`.
        """
        if isinstance(kernel, TileMatrix):
            tiled = kernel
        else:
            dense = np.asarray(kernel, dtype=np.float64)
            if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
                raise ValueError("the training kernel matrix must be square")
            plan = self.config.precision_plan
            tiled = TileMatrix.from_dense(dense, self.config.tile_size,
                                          Precision.FP64, symmetric=True)
            tiled.apply_precision_map(
                plan.precision_map(tiled.layout, matrix=tiled)
                if plan.mode == "adaptive" else plan.working_precision)
        if tiled.shape[0] != tiled.shape[1]:
            raise ValueError("the training kernel matrix must be square")
        self.kernel_ = tiled
        # an adopted kernel carries no Build cost in this session
        self.runtime.ledger.pop("build", None)
        self.build_result_ = None
        self.phase_seconds.pop("build", None)
        # any retained factor belongs to the replaced kernel
        self._factor_alphas = ()
        self.cg_result_ = None
        return tiled

    # ------------------------------------------------------------------
    # Phase 2: ASSOCIATE
    # ------------------------------------------------------------------
    def _direct_factorize(self, current: float,
                          phase: str = "associate") -> tuple[CholeskyResult, float]:
        """The boost-retry tiled factorization of ``K + current*I``.

        The regularization is applied by shifting only the *diagonal
        tiles* of the tiled kernel; the factorization runs on a
        tile-level workspace copy, so no dense n×n array is ever
        materialized.  If the low-precision perturbation of the kernel
        tiles makes the regularized matrix numerically indefinite, the
        shift is boosted 10x in place — up to twice — before giving up;
        the boost count is recorded in ``regularization_boosts_``.

        An adaptive kernel factors in the mosaic its tiles carry, decided
        once; band and uniform plans pass their layout-only map.

        Returns the factorization and the effective (possibly boosted)
        alpha; the factor is retained as ``factorization_``, the held
        factor of :meth:`_solve`.
        """
        plan = self.config.precision_plan
        requested = current
        started = time.perf_counter()
        # tile-grid copy sharing the off-diagonal tile objects with the
        # kernel: regularization only allocates new diagonal tiles, and
        # the factorization below works on its own workspace copy
        regularized = self.kernel_.shallow_copy()
        regularized.add_diagonal(current)
        pmap = (None if plan.mode == "adaptive"
                else plan.precision_map(regularized.layout))
        self.regularization_boosts_ = 0
        last_error: Exception | None = None
        for attempt in range(3):
            try:
                fact = cholesky(regularized,
                                working_precision=plan.working_precision,
                                precision_map=pmap,
                                runtime=self.runtime, phase=phase)
                break
            except np.linalg.LinAlgError as exc:
                last_error = exc
                boosted = current * 10.0
                # move the diagonal shift in place — off-diagonal tiles
                # (the bulk of the matrix) are not touched, let alone
                # copied, between attempts
                regularized.shift_diagonal(current, boosted)
                current = boosted
                self.regularization_boosts_ = attempt + 1
        else:
            raise np.linalg.LinAlgError(
                "the regularized kernel matrix remained indefinite under the "
                "chosen precision plan even after boosting alpha"
            ) from last_error
        self.factorization_ = fact
        self.factorization_count_ += 1
        self._factor_alphas = (requested, current)
        self._add_seconds("factor", time.perf_counter() - started)
        return fact, current

    def _panel_solve(self, y_centered: np.ndarray,
                     phase: str = "associate") -> np.ndarray:
        """Tiled POTRS of a phenotype panel against ``factorization_``,
        as per-tile-row TRSM/GEMM tasks on the session runtime."""
        started = time.perf_counter()
        weights = solve_cholesky(
            self.factorization_, y_centered,
            precision=self.config.precision_plan.working_precision,
            runtime=self.runtime, phase=phase)
        self._add_seconds("solve", time.perf_counter() - started)
        return weights

    def _cg_solve(self, y_centered: np.ndarray, alphas: list[float],
                  x0: np.ndarray, phase: str) -> list[np.ndarray | None]:
        """One lockstep PCG for ``y_centered`` at every shift in ``alphas``.

        The panel is the phenotypes repeated once per shift, all
        preconditioned by the held factor ``factorization_``; the warm
        start ``x0`` (one panel, shared by every shift) costs a single
        ``K @ x0`` matvec whatever the number of shifts.  Returns one
        weight panel per shift — ``None`` where a column of that shift
        missed ``config.cg_tol`` (the caller's cue to fall back).
        """
        cfg = self.config
        nph = y_centered.shape[1]
        started = time.perf_counter()
        unshifted = y_centered - kernel_matvec(
            self.kernel_, x0, runtime=self.runtime, phase=phase)
        result = cg_solve(
            self.kernel_, np.tile(y_centered, (1, len(alphas))),
            alpha=np.repeat(alphas, nph),
            preconditioner=self.factorization_,
            tol=cfg.cg_tol, max_iterations=cfg.cg_max_iters,
            precision=cfg.precision_plan.working_precision,
            runtime=self.runtime, phase=phase,
            x0=np.tile(x0, (1, len(alphas))),
            r0=np.hstack([unshifted - a * x0 for a in alphas]))
        self._add_seconds("solve", time.perf_counter() - started)
        self.cg_result_ = result
        blocks = (slice(k * nph, (k + 1) * nph) for k in range(len(alphas)))
        return [result.x[:, cols] if result.column_converged[cols].all()
                else None for cols in blocks]

    def _solve(self, y_centered: np.ndarray, alphas,
               phase: str = "associate") -> dict[float, tuple[np.ndarray, float]]:
        """Solve ``(K + a*I) W = Y_c`` for every ``a`` in ``alphas`` by
        the one rule :meth:`associate_path` documents — the only solve
        path of :meth:`associate`, :meth:`associate_path` and
        :meth:`solve_additional_phenotypes`.

        Returns ``{a: (weights, shift)}``, ``shift`` being the
        regularization actually solved (a boost raises it).  The factor
        left held is the sorted-middle alpha's unless CG reached that
        alpha: it is factorized last, or kept aside while the other
        alphas' fresh factorizations run.
        """
        wanted = sorted(set(alphas))
        ref = wanted[(len(wanted) - 1) // 2]
        if not self._factor_alphas and self.solver_ == "cg":
            self._direct_factorize(ref, phase)
        held = [a for a in wanted if a in self._factor_alphas]
        others = [a for a in wanted if a not in self._factor_alphas]
        by_cg = bool(others) and self.solver_ == "cg"
        solved = {}
        if held or by_cg:
            w_held = self._panel_solve(y_centered, phase)
            solved.update((a, (w_held, self._factor_alphas[-1])) for a in held)
        if by_cg:
            blocks = self._cg_solve(y_centered, others, w_held, phase)
            for a, w in zip(others, blocks):
                if w is None:
                    self.cg_fallbacks_ += 1
                else:
                    solved[a] = (w, a)
        kept = ((self.factorization_, self._factor_alphas,
                 self.regularization_boosts_) if ref in held else None)
        for a in sorted((a for a in others if a not in solved),
                        key=lambda a: a == ref):
            _, shift = self._direct_factorize(a, phase)
            solved[a] = (self._panel_solve(y_centered, phase), shift)
        if kept is not None:
            (self.factorization_, self._factor_alphas,
             self.regularization_boosts_) = kept
        return solved

    def associate(self, phenotypes: np.ndarray,
                  alpha: float | None = None) -> np.ndarray:
        """Factorize/solve ``(K + alpha*I) W = Y_c`` (Algorithm 3).

        ``alpha`` overrides ``config.alpha`` for this call.  This is
        :meth:`associate_path` for one alpha and follows its solve rule:
        the first associate on a kernel factorizes (bitwise the same on
        both routes), a re-associate at the held factor's alpha is a
        panel solve, and any other alpha is a fresh factorization
        (``"direct"``) or a PCG against the held factor (``"cg"``).  A
        whole regularization grid is one call to :meth:`associate_path`,
        not a loop over this one.
        """
        base = self.config.alpha if alpha is None else alpha
        return self.associate_path(phenotypes, [base])[0]

    def associate_path(self, phenotypes: np.ndarray,
                       alphas) -> list[np.ndarray]:
        """Solve ``(K + alpha*I) W = Y_c`` for a whole regularization grid.

        The solver route is ``config.solver``, else what the environment
        said when the session was constructed, else ``"direct"``.  Every
        alpha is solved by one rule (a non-positive alpha is taken as
        ``1e-6``):

        * an alpha the held factor was made for — including a boosted
          factor — is a panel solve against that factor;
        * on the direct route, any other alpha is a fresh factorization;
        * on the CG route, every other alpha is a column block of **one**
          preconditioned CG (:func:`~repro.linalg.cg.cg_solve` with one
          shift per column) against the held factor, warm-started from
          that factor's own panel solve, so each iteration streams the
          kernel and the factor once for the whole grid.  An alpha whose
          columns miss ``config.cg_tol`` falls back to its own
          factorization (counted in ``cg_fallbacks_``).

        With no factor of this kernel held yet, the CG route factorizes
        the sorted-middle alpha first; it is the reference closest, in
        eigenvalue-shift distance, to the rest of the grid.  The direct
        route factorizes it last.

        Returns one weight panel per entry of ``alphas``, in the
        caller's order (``np.hstack`` of them is the weight stack
        :meth:`predict_with_kernel` scores in one GEMM).  The session is
        left in the sorted-middle alpha's state: ``weights_``,
        ``alpha_`` and the exported model are that solve's, and so is
        the held factor unless that alpha was reached by CG.
        """
        if self.kernel_ is None:
            raise RuntimeError("build() must be called before associate()")
        requested = [float(a) for a in alphas]
        for a in requested:
            if not math.isfinite(a):
                raise ValueError(f"alpha must be finite, got {a!r}")
        requested = [a if a > 0 else 1e-6 for a in requested]
        if not requested:
            raise ValueError("alphas must be non-empty")
        phenotypes = np.asarray(phenotypes, dtype=np.float64)
        if phenotypes.ndim == 1:
            phenotypes = phenotypes[:, None]
        if phenotypes.shape[0] != self.kernel_.shape[0]:
            raise ValueError("phenotypes must have one row per training individual")
        y_means = phenotypes.mean(axis=0)

        # a (re-)associate resets the associate/predict accounting while
        # keeping the Build contribution; a failed boost attempt's DAG
        # is discarded by cholesky(), so it never reaches the ledger
        self.runtime.ledger.pop("associate", None)
        self.runtime.ledger.pop("predict", None)
        self.cg_result_ = None
        solved = self._solve(phenotypes - y_means[None, :], requested)
        ref = sorted(solved)[(len(solved) - 1) // 2]
        self.weights_, self.alpha_ = solved[ref]
        self.y_means_ = y_means
        return [solved[a][0] for a in requested]

    # ------------------------------------------------------------------
    # fit = BUILD + ASSOCIATE
    # ------------------------------------------------------------------
    def fit(self, genotypes: np.ndarray, phenotypes: np.ndarray,
            confounders: np.ndarray | None = None) -> "KRRSession":
        """Run the Build and Associate phases on the training cohort."""
        genotypes = np.asarray(genotypes)
        phenotypes = np.asarray(phenotypes, dtype=np.float64)
        if phenotypes.ndim == 1:
            phenotypes = phenotypes[:, None]
        if phenotypes.shape[0] != genotypes.shape[0]:
            raise ValueError("genotypes and phenotypes must have the same number of rows")
        self.build(genotypes, confounders)
        self.associate(phenotypes)
        return self

    # ------------------------------------------------------------------
    # Phase 3: PREDICT
    # ------------------------------------------------------------------
    def _check_test_cohort(self, genotypes: np.ndarray,
                           confounders: np.ndarray | None) -> None:
        if self.weights_ is None or self.training_genotypes_ is None:
            raise RuntimeError("fit() must be called before predict()")
        if genotypes.ndim != 2:
            raise ValueError("a test cohort must be a 2-D individuals × SNPs "
                             "matrix")
        if genotypes.shape[1] != self.training_genotypes_.shape[1]:
            raise ValueError("test cohort must have the same SNP panel as training")
        if (confounders is None) != (self.training_confounders_ is None):
            raise ValueError("confounders must match the training configuration")

    def predict(self, genotypes: np.ndarray,
                confounders: np.ndarray | None = None,
                phase: str = "predict") -> np.ndarray:
        """Predict phenotypes for a new cohort (Algorithm 4), streamed:
        ``K_test_block · W`` per row batch of
        ``config.predict_batch_rows``, one drain with one task per row
        group.  Peak memory is one ``batch × n_train`` block plus one
        4-byte Gram per lane in flight (one under the serial lane).

        ``phase`` labels the runtime tasks and the ledger entry — the
        prediction service tags its micro-batches ``"serve"`` so the
        serving load is tallied separately from ad-hoc predicts.
        """
        genotypes = np.asarray(genotypes)
        self._check_test_cohort(genotypes, confounders)
        return self._predict_rows(genotypes, confounders,
                                  [genotypes.shape[0]], phase)

    def predict_many(self, genotype_list, confounder_list=None,
                     phase: str = "predict") -> list[np.ndarray]:
        """Predict several cohorts as one micro-batch (Serve phase).

        The cohorts are row-stacked into one Predict against the
        session's train-side operand state — quantization of the
        training panel, its ``max|.|`` bound, the squared norms —
        prepared once, at the session's first Predict; the exact
        integer SNP Gram runs once per row group of up to one batch of
        rows, whichever cohorts those rows belong to, cut so every lane
        of the drain gets a group.
        Everything that rounds (the confounder Gram and
        ``K_test_block · W``) keeps the block shapes of each cohort's
        solo :meth:`predict`
        (:meth:`~repro.distance.build.KernelBuilder.iter_cross_rows`).
        Per-cohort results are therefore **bitwise identical** to
        calling :meth:`predict` per cohort, and memory is that of one
        :meth:`predict` of the stacked rows, a block per lane.  This is
        the execution primitive of :class:`repro.serve.PredictionService`.
        """
        cohorts = [np.asarray(g) for g in genotype_list]
        if confounder_list is None:
            confounder_list = [None] * len(cohorts)
        confounder_list = list(confounder_list)
        if len(confounder_list) != len(cohorts):
            raise ValueError(
                "confounder_list must carry one entry per cohort")
        for g, c in zip(cohorts, confounder_list):
            self._check_test_cohort(g, c)
        if not cohorts:
            return []
        sizes = [g.shape[0] for g in cohorts]
        confounders = (None if confounder_list[0] is None
                       else np.vstack(confounder_list))
        predictions = self._predict_rows(np.vstack(cohorts), confounders,
                                         sizes, phase)
        return np.split(predictions, np.cumsum(sizes)[:-1])

    def _predict_rows(self, genotypes: np.ndarray,
                      confounders: np.ndarray | None, cohort_rows: list[int],
                      phase: str) -> np.ndarray:
        """The one Predict drain over the row-stacked cohorts
        ``cohort_rows``: one task per row group
        (:meth:`KernelBuilder._predict_groups`), cut to the drain's
        width (:meth:`~repro.runtime.scheduler.Scheduler.lanes`).

        The batches are ``config.predict_batch_rows`` rows rounded down
        to whole tiles (:func:`~repro.distance.build._row_groups`;
        ``None``: one batch per cohort).
        """
        cfg = self.config
        started = time.perf_counter()
        builder = self._builder(self.gamma_, trace_phase=phase)
        if self._train_operands is None:
            self._train_operands = builder.train_operands(
                self.training_genotypes_, self.training_confounders_)
        # a group holds at least one row, so the drain is at most as
        # wide as the rows
        lanes = self.runtime.scheduler.lanes(sum(cohort_rows))
        predictions = builder._predict_groups(
            genotypes, confounders, self._train_operands, self.weights_,
            cfg.precision_plan.working_precision,
            _row_groups(cohort_rows, cfg.predict_batch_rows,
                        builder.tile_size, lanes))
        predictions += self.y_means_[None, :]
        self._add_seconds(phase, time.perf_counter() - started)
        return predictions

    # ------------------------------------------------------------------
    # cross-kernel reuse (hyperparameter sweeps)
    # ------------------------------------------------------------------
    def cross_kernel(self, genotypes: np.ndarray,
                     confounders: np.ndarray | None = None) -> BuildResult:
        """Materialize the test-vs-train cross kernel for reuse.

        ``K_test`` depends on the kernel bandwidth but *not* on the
        regularization, so a hyperparameter sweep over alpha can build
        it once and re-apply :meth:`predict_with_kernel` per alpha.
        The cross-kernel build cost is tallied here (once), under
        ``"predict"``.
        """
        genotypes = np.asarray(genotypes)
        self._check_test_cohort(genotypes, confounders)
        started = time.perf_counter()
        builder = self._builder(self.gamma_, trace_phase="predict")
        result = builder.build_cross(
            genotypes, self.training_genotypes_,
            confounders, self.training_confounders_,
        )
        self._add_seconds("predict", time.perf_counter() - started)
        return result

    def predict_with_kernel(self, cross: BuildResult | np.ndarray,
                            weights: np.ndarray | None = None) -> np.ndarray:
        """Predict from a pre-built cross kernel (see :meth:`cross_kernel`).

        ``weights`` replaces ``weights_`` for this call: a stack of
        weight panels side by side (``np.hstack`` of
        :meth:`associate_path`'s) is scored in one GEMM, one block of
        prediction columns per panel.
        """
        if self.weights_ is None:
            raise RuntimeError("fit() must be called before predict()")
        if weights is None:
            weights = self.weights_
        nph = self.y_means_.shape[0]
        if weights.shape[1] % nph:
            raise ValueError(
                "weights must stack whole phenotype panels side by side")
        started = time.perf_counter()
        k_test = cross.kernel if isinstance(cross, BuildResult) else cross
        predictions = gemm(
            np.asarray(k_test), weights,
            precision=self.config.precision_plan.working_precision,
            runtime=self.runtime, phase="predict")
        self._add_seconds("predict", time.perf_counter() - started)
        return predictions + np.tile(self.y_means_, weights.shape[1] // nph)[None, :]

    def fit_predict(self, train_genotypes: np.ndarray,
                    train_phenotypes: np.ndarray,
                    test_genotypes: np.ndarray,
                    train_confounders: np.ndarray | None = None,
                    test_confounders: np.ndarray | None = None) -> np.ndarray:
        """Fit on the training cohort and predict the test cohort."""
        self.fit(train_genotypes, train_phenotypes, train_confounders)
        return self.predict(test_genotypes, test_confounders)

    # ------------------------------------------------------------------
    # factor reuse
    # ------------------------------------------------------------------
    def solve_additional_phenotypes(self, phenotypes: np.ndarray) -> np.ndarray:
        """Solve extra phenotype panels reusing the kernel factorization.

        Once ``K + alpha*I`` is factorized, each additional phenotype
        panel costs only two triangular solves against the tiled
        factors (Sec. V-B3), tallied under ``"solve"``.

        The panels are solved at ``alpha_`` by the rule of
        :meth:`associate_path`: when ``alpha_`` was reached by CG (the
        held factor was made for another alpha), that is a PCG against
        the held factor, with the same fallback.
        """
        if self.factorization_ is None:
            raise RuntimeError("fit() must be called before reusing the factors")
        phenotypes = np.asarray(phenotypes, dtype=np.float64)
        if phenotypes.ndim == 1:
            phenotypes = phenotypes[:, None]
        if phenotypes.shape[0] != self.factorization_.factor.shape[0]:
            raise ValueError("phenotypes must have one row per training individual")
        y_centered = phenotypes - phenotypes.mean(axis=0, keepdims=True)
        [(weights, _)] = self._solve(y_centered, [self.alpha_], "solve").values()
        return weights

    # ------------------------------------------------------------------
    # fitted-model artifacts
    # ------------------------------------------------------------------
    def export_model(self) -> "FittedModel":
        """Extract the predict-side state as an immutable artifact.

        The artifact holds the weight panel, phenotype means, effective
        γ/α, training cohort reference and the storage-precision tiled
        factorization — everything :meth:`predict` and
        :meth:`solve_additional_phenotypes` need, detached from this
        session (the factor is copied; later ``associate`` calls do not
        disturb exported models).  See
        :class:`~repro.gwas.model.FittedModel` for the save/load
        contract.

        Note: the exported factor is the *held* factor.  When ``alpha_``
        was reached by CG, that factor is ``K + a*I`` for another
        ``a``, not ``K + alpha_*I``.  The weight panel is ``alpha_``'s
        either way, so restored sessions predict identically; only
        ``from_model(...).solve_additional_phenotypes`` solves against
        the stored factor's regularization.
        """
        from repro.gwas.model import FittedModel

        if (self.weights_ is None or self.factorization_ is None
                or self.training_genotypes_ is None):
            raise RuntimeError(
                "export_model() requires a fitted session: run fit() (or "
                "build() + associate()) first")
        # unpacked_lower: the lower triangle's tiles only (shared, not
        # copied) — the factorization workspace may hold materialized
        # zero upper tiles, which would inflate the artifact's footprint
        return FittedModel(
            config=self.config,
            gamma=self.gamma_,
            alpha=self.alpha_,
            weights=self.weights_,
            y_means=self.y_means_,
            factor=self.factorization_.factor.unpacked_lower(),
            training_genotypes=self.training_genotypes_,
            training_confounders=self.training_confounders_,
        )

    @classmethod
    def from_model(cls, model: "FittedModel", workers: int | None = None,
                   execution: str | None = None) -> "KRRSession":
        """Reconstitute a serving session from a fitted-model artifact.

        The restored session predicts (and factor-reuses) bitwise
        identically to the exporting session; it owns a fresh
        :class:`~repro.runtime.runtime.Runtime` whose concurrency
        resolves on *this* host (``workers``/``execution`` override), and
        its caller closes it (:meth:`close`).  ``build``/``associate``
        remain available but start from scratch — the artifact does not
        carry the training kernel.
        """
        overrides = {}
        if workers is not None:
            overrides["workers"] = workers
        if execution is not None:
            overrides["execution"] = execution
        config = model.config.with_options(**overrides) if overrides \
            else model.config
        session = cls(config)
        session.training_genotypes_ = model.training_genotypes
        session.training_confounders_ = model.training_confounders
        session.gamma_ = model.gamma
        session.alpha_ = model.alpha
        session.weights_ = model.weights
        session.y_means_ = model.y_means
        session.factorization_ = CholeskyResult(factor=model.factor,
                                                flops=0.0)
        # there is no kernel to iterate against: extra phenotype panels
        # are panel solves against the stored factor
        session._factor_alphas = (model.alpha,)
        return session


class RRSession:
    """Staged linear ridge-regression session (the paper's RR baseline)
    over :class:`KRRSession`'s inputs: an INT8 genotype panel ``G``
    (:func:`~repro.distance.build.genotype_operand` rejects anything
    else), optional confounders ``C`` and a phenotype panel.

    ``X = [G | C]`` is never assembled: ``XᵀX``'s SNP block is the one
    INT8 Gram (:func:`snp_gram` on ``Gᵀ``, exact), the blocks that touch
    confounders are FP32 products (Fig. 2), and the standardization
    ``D`` is analytic.  ``flops_`` / ``flops_by_precision`` read
    ``runtime.ledger`` (reset by :meth:`fit`): the Gram under
    ``"build"``; the factorization, ``XᵀY`` and the sweeps under
    ``"associate"``; then ``"predict"`` / ``"solve"``.
    """

    def __init__(self, config: RRConfig | None = None, **overrides) -> None:
        if config is None:
            config = RRConfig()
        if overrides:
            config = config.with_options(**overrides)
        self.config = config
        # session-long runtime shared by the factorization, solves and
        # predict GEMMs (same execution engine as KRRSession)
        self.runtime = Runtime(execution=config.execution,
                               workers=config.workers,
                               task_retries=config.task_retries)
        self.beta_: np.ndarray | None = None
        self.factorization_: CholeskyResult | None = None
        self.column_means_: np.ndarray | None = None
        self.column_scales_: np.ndarray | None = None
        self.y_means_: np.ndarray | None = None
        self.n_snps_: int | None = None

    @property
    def flops_by_precision(self) -> dict[Precision, float]:
        """Operation count per compute precision since :meth:`fit` began."""
        return ledger_by_precision(self.runtime.ledger)

    @property
    def flops_(self) -> float:
        """Total operation count since :meth:`fit` began."""
        return float(sum(t.flops for t in self.runtime.ledger.values()))

    # ------------------------------------------------------------------
    def _cohort(self, genotypes: np.ndarray, confounders: np.ndarray | None,
                fitted: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """The INT8 panel and the float64 confounders (``n × 0`` when
        there are none), checked against the fitted columns."""
        g = genotype_operand(genotypes).array
        c = (np.empty((len(g), 0)) if confounders is None
             else np.asarray(confounders, dtype=np.float64))
        if c.shape[0] != len(g):
            raise ValueError("confounders must have one row per individual")
        if fitted and (g.shape[1] != self.n_snps_ or g.shape[1]
                       + c.shape[1] != len(self.column_means_)):
            raise ValueError("the SNP panel and confounders must match the "
                             "training configuration")
        return g, c

    def _gram(self, g: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Raw ``XᵀX``, tallied under ``"build"``: :func:`snp_gram` of
        ``Gᵀ`` (it walks the individual axis in ``SNP_BLOCK`` steps,
        adding each into one exact float accumulator) and FP32
        ``GᵀC``/``CᵀC``."""
        (n, s), k = g.shape, c.shape[1]
        qt = genotype_operand(g).T
        gram = np.empty((s + k, s + k))
        gram[:s, :s] = snp_gram(qt, qt, SNP_BLOCK, slice(0, s), slice(0, s))
        self.runtime.tally("build", {Precision.INT8: gemm_flop_count(s, s, n)})
        if k:
            gc = _fp32_product(g, c, self.runtime, "build", transa=True)
            cc = gemm(c, c, transa=True, runtime=self.runtime, phase="build")
            gram[:s, s:], gram[s:, :s] = gc, gc.T
            gram[s:, s:] = (cc + cc.T) / 2.0
        return gram

    def _solve(self, g: np.ndarray, c: np.ndarray, y: np.ndarray,
               phase: str) -> np.ndarray:
        """``β`` from ``XᵀY = D⁻¹[Gᵀy_c; Cᵀy_c]`` (FP32) and the factor."""
        y_centered = y - y.mean(axis=0, keepdims=True)
        xty = np.vstack([
            _fp32_product(g, y_centered, self.runtime, phase, transa=True),
            gemm(c, y_centered, transa=True, runtime=self.runtime,
                 phase=phase)]) / self.column_scales_[:, None]
        return solve_cholesky(
            self.factorization_, xty,
            precision=self.config.precision_plan.working_precision,
            runtime=self.runtime, phase=phase)

    def fit(self, genotypes: np.ndarray, phenotypes: np.ndarray,
            confounders: np.ndarray | None = None) -> "RRSession":
        """Fit ``beta = (X^T X + lambda*I)^{-1} X^T Y`` (Eq. 2) on the
        standardized ``X = [G | C]``, factorizing with the precision
        plan and solving in its working precision."""
        cfg = self.config
        g, c = self._cohort(genotypes, confounders, fitted=False)
        n, s = g.shape
        y = _phenotype_panel(phenotypes, n)
        self.runtime.ledger.clear()
        gram = self._gram(g, c)
        # the SNP columns' means and variances are exact integer sums
        # of the INT8 panel (Σg² is the Gram's diagonal)
        sums = g.sum(axis=0, dtype=np.int64)
        squares = np.diagonal(gram)[:s].astype(np.int64)
        mu = np.concatenate([sums / n, c.mean(axis=0)])
        scales = np.concatenate([np.sqrt((n * squares - sums * sums) / n ** 2),
                                 c.std(axis=0)])
        scales[scales == 0] = 1.0
        self.column_means_, self.column_scales_, self.n_snps_ = mu, scales, s
        # X_std = (X - 1 μᵀ) D⁻¹  ⇒  X_stdᵀ X_std = D⁻¹ (XᵀX − n μ μᵀ) D⁻¹
        gram -= n * np.outer(mu, mu)
        gram /= np.outer(scales, scales)
        gram[np.diag_indices_from(gram)] += cfg.regularization

        plan: PrecisionPlan = cfg.precision_plan
        layout = TileLayout.square(len(gram), cfg.tile_size)
        self.factorization_ = cholesky(
            gram, tile_size=cfg.tile_size,
            working_precision=plan.working_precision,
            precision_map=plan.precision_map(layout, matrix=gram),
            runtime=self.runtime, phase="associate")
        self.y_means_ = y.mean(axis=0)
        self.beta_ = self._solve(g, c, y, "associate")
        return self

    # ------------------------------------------------------------------
    def predict(self, genotypes: np.ndarray,
                confounders: np.ndarray | None = None) -> np.ndarray:
        """Predict phenotypes for new individuals in FP32:
        ``G·(D⁻¹β)_G + C·(D⁻¹β)_C − μᵀD⁻¹β + ȳ``."""
        if self.beta_ is None:
            raise RuntimeError("fit() must be called before predict()")
        g, c = self._cohort(genotypes, confounders)
        w = self.beta_ / self.column_scales_[:, None]
        pred = _fp32_product(g, w[:self.n_snps_], self.runtime, "predict")
        pred += gemm(c, w[self.n_snps_:], runtime=self.runtime,
                     phase="predict")
        return pred + (self.y_means_ - self.column_means_ @ w)

    def fit_predict(self, train_genotypes: np.ndarray,
                    train_phenotypes: np.ndarray,
                    test_genotypes: np.ndarray,
                    train_confounders: np.ndarray | None = None,
                    test_confounders: np.ndarray | None = None) -> np.ndarray:
        """Fit on the training set and predict the test set in one call."""
        self.fit(train_genotypes, train_phenotypes, train_confounders)
        return self.predict(test_genotypes, test_confounders)

    def solve_additional_phenotypes(self, genotypes: np.ndarray,
                                    phenotypes: np.ndarray,
                                    confounders: np.ndarray | None = None
                                    ) -> np.ndarray:
        """Solve extra phenotype panels reusing the existing factorization."""
        if self.factorization_ is None:
            raise RuntimeError("fit() must be called before reusing the factors")
        g, c = self._cohort(genotypes, confounders)
        return self._solve(g, c, _phenotype_panel(phenotypes, len(g)), "solve")


def _phenotype_panel(phenotypes: np.ndarray, n: int) -> np.ndarray:
    """The ``n × nph`` float64 phenotype panel (a vector is one column)."""
    y = np.asarray(phenotypes, dtype=np.float64)
    if y.ndim == 1:
        y = y[:, None]
    if y.shape[0] != n:
        raise ValueError("genotypes and phenotypes must have the same "
                         "number of rows")
    return y


def _fp32_product(g: np.ndarray, r: np.ndarray, runtime: Runtime,
                  phase: str, transa: bool = False) -> np.ndarray:
    """``Gᵀ·r`` (``transa``) or ``G·r`` in FP32 over the INT8 panel ``g``,
    casting ``SNP_BLOCK`` individuals at a time, never the whole panel."""
    parts = [gemm(g[b], r[b] if transa else r, transa=transa,
                  runtime=runtime, phase=phase)
             for b in (slice(i, i + SNP_BLOCK)
                       for i in range(0, max(len(g), 1), SNP_BLOCK))]
    return sum(parts[1:], parts[0]) if transa else np.vstack(parts)
