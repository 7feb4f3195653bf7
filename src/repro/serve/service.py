"""Concurrent prediction service over fitted-model artifacts.

``PredictionService`` is the serving front end of the reproduction:
clients submit per-cohort predict requests concurrently; a single
dispatcher thread coalesces queued requests for the same model into
**micro-batches**, executes each as one
:meth:`~repro.gwas.session.KRRSession.predict_many` on the model's
serving session — one shared task
:class:`~repro.runtime.runtime.Runtime`, the same threaded out-of-order
scheduler that runs the fit phases — and resolves each request's future
with its predictions plus per-request latency/flops stats.  A request
is validated at :meth:`PredictionService.submit` and again at the
session boundary; the row batch is the model's
``KRRConfig.predict_batch_rows``.  :meth:`PredictionService.close`
closes the serving sessions, as does retiring the session of a model
the registry evicted.

Correctness contract: a request's predictions are **bitwise identical**
to calling ``session.predict`` on that request's cohort alone,
regardless of which other requests it was coalesced with (the
micro-batch row-stacks its cohorts for the exact INT8 SNP Gram while
every float product keeps each cohort's solo tile-aligned block shapes
— see :meth:`~repro.gwas.session.KRRSession.predict_many` and
``docs/api.md``).

Throughput contract: coalescing amortizes the per-predict fixed costs —
quantization and the ``max|.|`` scan of the training panel, its squared
norms, builder setup — across every request in the micro-batch, and
its cohorts share one SNP Gram product per row group, cut so every lane
of the session's runtime gets a group (two 256-row Grams for eight
64-row requests on two lanes); the ``serve_burst`` workload of
``BENCHMARK.json`` measures the resulting throughput and latency with 8
requests outstanding.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass, field

import numpy as np

from repro.distance.build import genotype_operand
from repro.gwas.config import ServeConfig
from repro.gwas.model import FittedModel
from repro.gwas.session import KRRSession
from repro.resilience.errors import (
    DeadlineExceededError,
    ServiceOverloadedError,
    is_transient,
)
from repro.resilience.faults import SITE_SERVE_DISPATCH, inject
from repro.serve.registry import ModelKey, ModelRegistry

__all__ = [
    "PredictionService",
    "PredictResult",
    "ServiceStats",
    "ServiceOverloadedError",
    "DeadlineExceededError",
]

#: Phase label of every serving run on the shared session runtimes —
#: ``session.runtime.ledger["serve"]`` is the service-side tally.
SERVE_PHASE = "serve"

#: Name a bare ``FittedModel`` is registered under.
DEFAULT_MODEL_NAME = "default"


@dataclass(frozen=True)
class PredictResult:
    """One request's predictions plus its serving statistics.

    Attributes
    ----------
    predictions:
        ``(rows, n_phenotypes)`` prediction panel for the request's
        cohort.
    model_key:
        The ``(name, version)`` the request was served by.
    rows:
        Cohort size of this request.
    flops:
        Operations attributable to this request (exact — predict cost
        is linear in rows — not a share estimate).
    latency_s:
        Submit-to-result wall time.
    queue_s:
        Time spent queued/coalescing before execution started.
    compute_s:
        Wall time of the micro-batch execution this request rode in
        (shared across its ``coalesced_requests``).
    coalesced_requests:
        How many requests the micro-batch merged (1 = no coalescing).
    """

    predictions: np.ndarray
    model_key: ModelKey
    rows: int
    flops: float
    latency_s: float
    queue_s: float
    compute_s: float
    coalesced_requests: int


@dataclass
class ServiceStats:
    """Cumulative service-side counters (snapshot via ``service.stats``).

    The degradation ladder is observable here: ``shed`` requests were
    refused at admission (queue full), ``expired`` requests hit their
    deadline while queued and were failed fast without burning compute,
    ``cancelled`` requests were abandoned by their caller (e.g. a
    ``predict(timeout=...)`` that gave up) and removed before dispatch,
    and ``dispatch_retries`` counts transient micro-batch execution
    faults absorbed by re-dispatching.
    """

    requests: int = 0
    batches: int = 0
    rows: int = 0
    flops: float = 0.0
    compute_s: float = 0.0
    max_coalesced: int = 0
    failures: int = 0
    shed: int = 0
    expired: int = 0
    cancelled: int = 0
    dispatch_retries: int = 0

    @property
    def mean_coalesced(self) -> float:
        return self.requests / self.batches if self.batches else 0.0


@dataclass
class _PendingRequest:
    key: ModelKey
    model: FittedModel
    genotypes: np.ndarray
    confounders: np.ndarray | None
    future: Future
    submitted_at: float = field(default_factory=time.perf_counter)
    #: absolute ``perf_counter`` point after which the request is dead
    deadline: float | None = None
    #: the relative budget the deadline came from (for error messages)
    deadline_s: float | None = None


class PredictionService:
    """Micro-batching prediction front end over a model registry.

    Parameters
    ----------
    models:
        A :class:`~repro.serve.registry.ModelRegistry`, or a single
        :class:`~repro.gwas.model.FittedModel` (registered under
        ``"default"`` in a fresh registry).
    config:
        :class:`~repro.gwas.config.ServeConfig` coalescing knobs.
    workers, execution:
        Task-runtime knobs of the per-model serving sessions (``None``
        resolves from this host's environment, like any session).
    autostart:
        Start the dispatcher thread immediately.  Pass ``False`` to
        enqueue requests first and :meth:`start` later — deterministic
        coalescing for tests and batch jobs.
    """

    def __init__(self, models: ModelRegistry | FittedModel,
                 config: ServeConfig | None = None,
                 workers: int | None = None,
                 execution: str | None = None,
                 autostart: bool = True) -> None:
        if isinstance(models, ModelRegistry):
            self.registry = models
        elif isinstance(models, FittedModel):
            self.registry = ModelRegistry()
            self.registry.register(DEFAULT_MODEL_NAME, models)
        else:
            raise TypeError(
                "models must be a ModelRegistry or a FittedModel")
        self.config = config or ServeConfig()
        self._workers = workers
        self._execution = execution
        self._sessions: dict[ModelKey, KRRSession] = {}
        self._queue: deque[_PendingRequest] = deque()
        self._cond = threading.Condition()
        self._stats = ServiceStats()
        self._stop = False
        self._closed = False
        self._thread: threading.Thread | None = None
        if autostart:
            self.start()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "PredictionService":
        """Start the dispatcher thread (idempotent)."""
        if self._closed:
            raise RuntimeError("the service has been closed")
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._dispatch_loop,
                name="repro-serve-dispatcher", daemon=True)
            self._thread.start()
        return self

    def close(self) -> None:
        """Drain queued requests, stop the dispatcher, close the sessions.

        Requests enqueued before :meth:`start` are drained too: if no
        dispatcher thread ever ran, the dispatch loop executes once on
        the closing thread so no submitted future is left unresolved.
        Then every serving session is closed
        (:meth:`~repro.gwas.session.KRRSession.close`): no worker
        process or spill file outlives the service.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._stop = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        else:
            # autostart=False and never started: serve the backlog
            # inline (the loop exits once the queue is empty)
            self._dispatch_loop()
        for session in self._sessions.values():
            session.close()
        self._sessions.clear()

    def __enter__(self) -> "PredictionService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------
    def submit(self, genotypes: np.ndarray,
               confounders: np.ndarray | None = None,
               model: str = DEFAULT_MODEL_NAME,
               version: int | None = None,
               deadline_s: float | None = None) -> Future:
        """Enqueue one cohort's predict request; returns its future.

        The model is resolved (and its registry recency bumped) at
        submit time, so an eviction between submit and execution cannot
        fail the request.  Cohort/model contract violations (SNP panel
        width, confounder presence, genotypes the INT8 Gram would
        change) raise here, synchronously.

        Degradation: a full admission queue raises
        :class:`~repro.resilience.errors.ServiceOverloadedError`
        instead of queueing unboundedly, and ``deadline_s`` (default
        ``ServeConfig.request_deadline_s``) bounds how long the request
        may wait — an expired request fails fast with
        :class:`~repro.resilience.errors.DeadlineExceededError` and is
        dropped before its micro-batch executes, so the dispatcher never
        burns flops on a caller that has already given up.
        """
        return self._enqueue(self._make_request(
            genotypes, confounders, model, version, deadline_s)).future

    def _make_request(self, genotypes, confounders, model, version,
                      deadline_s) -> _PendingRequest:
        with self._cond:
            if self._closed:
                raise RuntimeError("cannot submit to a closed service")
        entry = self.registry.entry(model, version)
        fitted = entry.model
        genotypes = np.asarray(genotypes)
        if genotypes.ndim != 2:
            raise ValueError("the request cohort must be a 2D matrix")
        if genotypes.shape[1] != fitted.n_snps:
            raise ValueError(
                f"request cohort has {genotypes.shape[1]} SNPs; model "
                f"{entry.key.name!r} v{entry.key.version} expects "
                f"{fitted.n_snps}")
        # the genotype range too: a dosage the INT8 Gram would change
        # fails this caller now, not every request in its micro-batch;
        # the queued cohort is then int8, so the dispatcher skips it
        genotypes = genotype_operand(genotypes).array
        if (confounders is None) != (fitted.training_confounders is None):
            raise ValueError(
                "request confounders must match the model's training "
                "configuration")
        if confounders is not None:
            confounders = np.asarray(confounders, dtype=np.float64)
            # full geometry check here, synchronously: a malformed
            # request failing inside the dispatcher would poison every
            # innocent request coalesced into its micro-batch
            if confounders.ndim != 2 or \
                    confounders.shape[0] != genotypes.shape[0]:
                raise ValueError(
                    "request confounders must be 2D with one row per "
                    "cohort individual")
            if confounders.shape[1] != fitted.training_confounders.shape[1]:
                raise ValueError(
                    f"request has {confounders.shape[1]} confounder "
                    f"column(s); the model expects "
                    f"{fitted.training_confounders.shape[1]}")
        if deadline_s is None:
            deadline_s = self.config.request_deadline_s
        submitted_at = time.perf_counter()
        return _PendingRequest(
            key=entry.key, model=fitted, genotypes=genotypes,
            confounders=confounders, future=Future(),
            submitted_at=submitted_at,
            deadline=(submitted_at + deadline_s
                      if deadline_s is not None else None),
            deadline_s=deadline_s)

    def _enqueue(self, request: _PendingRequest) -> _PendingRequest:
        with self._cond:
            if self._closed:
                raise RuntimeError("cannot submit to a closed service")
            depth = self.config.max_queue_depth
            if depth is not None and len(self._queue) >= depth:
                self._stats.shed += 1
                raise ServiceOverloadedError(len(self._queue), depth)
            self._queue.append(request)
            self._cond.notify_all()
        return request

    def _abandon(self, request: _PendingRequest) -> None:
        """Withdraw a request whose caller gave up waiting.

        Removes it from the pending queue (when the dispatcher has not
        pulled it yet) and cancels its future, so the dispatcher never
        computes a micro-batch slot for an abandoned caller.
        """
        with self._cond:
            try:
                self._queue.remove(request)
            except ValueError:
                pass  # already pulled; cancel() below races the dispatch
        if request.future.cancel():
            with self._cond:
                self._stats.cancelled += 1

    def predict(self, genotypes: np.ndarray,
                confounders: np.ndarray | None = None,
                model: str = DEFAULT_MODEL_NAME,
                version: int | None = None,
                timeout: float | None = None,
                deadline_s: float | None = None) -> PredictResult:
        """Blocking convenience wrapper around :meth:`submit`.

        A ``timeout`` that expires withdraws the request (see
        :meth:`_abandon`) before re-raising, so the dispatcher does not
        compute work for a caller that stopped waiting.
        """
        request = self._enqueue(self._make_request(
            genotypes, confounders, model, version, deadline_s))
        try:
            return request.future.result(timeout=timeout)
        except DeadlineExceededError:
            raise  # the dispatcher failed it, nothing left to withdraw
        except (TimeoutError, _FutureTimeout):
            self._abandon(request)
            raise

    @property
    def stats(self) -> ServiceStats:
        """A snapshot copy of the cumulative serving counters."""
        with self._cond:
            return ServiceStats(**vars(self._stats))

    def pending(self) -> int:
        with self._cond:
            return len(self._queue)

    # ------------------------------------------------------------------
    # dispatcher
    # ------------------------------------------------------------------
    def _pull_same_key(self, key: ModelKey, limit: int) -> list[_PendingRequest]:
        """Remove up to ``limit`` queued requests for ``key`` (lock held)."""
        if limit <= 0:
            return []
        pulled: list[_PendingRequest] = []
        remaining: deque[_PendingRequest] = deque()
        while self._queue:
            req = self._queue.popleft()
            if req.key == key and len(pulled) < limit:
                pulled.append(req)
            else:
                remaining.append(req)
        self._queue = remaining
        return pulled

    def _dispatch_loop(self) -> None:
        cfg = self.config
        while True:
            with self._cond:
                while not self._queue and not self._stop:
                    self._cond.wait()
                if not self._queue:
                    return  # stopped and drained
                first = self._queue.popleft()
            batch = [first]
            deadline = time.perf_counter() + cfg.batch_window_s
            while len(batch) < cfg.max_batch_requests:
                with self._cond:
                    batch.extend(self._pull_same_key(
                        first.key, cfg.max_batch_requests - len(batch)))
                    if len(batch) >= cfg.max_batch_requests or self._stop:
                        break
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        break
                    self._cond.wait(timeout=remaining)
            self._execute(batch)

    def _session_for(self, key: ModelKey, model: FittedModel) -> KRRSession:
        session = self._sessions.get(key)
        if session is None:
            session = KRRSession.from_model(model, workers=self._workers,
                                            execution=self._execution)
            self._sessions[key] = session
            # retire serving sessions of models the registry evicted
            for k in [k for k in self._sessions
                      if k != key and k not in self.registry]:
                self._sessions.pop(k).close()
        return session

    def _cull(self, batch: list[_PendingRequest]) -> list[_PendingRequest]:
        """Drop expired and abandoned requests before the batch executes.

        Expired requests fail fast with a typed
        :class:`DeadlineExceededError`; cancelled futures (a caller's
        ``predict(timeout=)`` gave up) are skipped silently.  Only the
        survivors — transitioned to RUNNING so they can no longer be
        cancelled mid-compute — join the micro-batch.
        """
        now = time.perf_counter()
        live: list[_PendingRequest] = []
        n_expired = 0
        for req in batch:
            if req.deadline is not None and now > req.deadline:
                n_expired += 1
                try:
                    req.future.set_exception(DeadlineExceededError(
                        req.deadline_s, now - req.submitted_at))
                except InvalidStateError:
                    pass  # abandoned concurrently; nothing to report
            elif req.future.set_running_or_notify_cancel():
                live.append(req)
        if n_expired:
            with self._cond:
                self._stats.expired += n_expired
        return live

    def _execute(self, batch: list[_PendingRequest]) -> None:
        batch = self._cull(batch)
        if not batch:
            return
        try:
            key, model = batch[0].key, batch[0].model
            session = self._session_for(key, model)
            genotypes = [r.genotypes for r in batch]
            confounders = [r.confounders for r in batch]
            retries = 0
            while True:
                try:
                    inject(SITE_SERVE_DISPATCH, str(key))
                    t0 = time.perf_counter()
                    parts = session.predict_many(
                        genotypes,
                        None if batch[0].confounders is None else confounders,
                        phase=SERVE_PHASE)
                    break
                except Exception as exc:
                    # transient faults (injected or I/O) re-dispatch the
                    # whole micro-batch: predict_many is pure, so the
                    # retried result is bitwise the first-try result
                    if (retries >= self.config.dispatch_retries
                            or not is_transient(exc)):
                        raise
                    retries += 1
                    with self._cond:
                        self._stats.dispatch_retries += 1
            compute_s = time.perf_counter() - t0
        except BaseException as exc:  # noqa: BLE001 - forwarded to futures
            with self._cond:
                self._stats.failures += len(batch)
            for req in batch:
                try:
                    req.future.set_exception(exc)
                except InvalidStateError:  # pragma: no cover - abandon race
                    pass
            return

        done = time.perf_counter()
        total_flops = 0.0
        total_rows = 0
        for req, preds in zip(batch, parts):
            rows = preds.shape[0]
            flops = req.model.predict_flops(rows)
            total_flops += flops
            total_rows += rows
            req.future.set_result(PredictResult(
                predictions=preds,
                model_key=req.key,
                rows=rows,
                flops=flops,
                latency_s=done - req.submitted_at,
                queue_s=t0 - req.submitted_at,
                compute_s=compute_s,
                coalesced_requests=len(batch),
            ))
        with self._cond:
            s = self._stats
            s.requests += len(batch)
            s.batches += 1
            s.rows += total_rows
            s.flops += total_flops
            s.compute_s += compute_s
            s.max_coalesced = max(s.max_coalesced, len(batch))
