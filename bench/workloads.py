"""The eight workloads: inputs from a seed, one rep, and its check.

Each workload exists because it loads one layer in a way no other
does (the ``why`` strings; ``bench/README.md`` has the table).  The
program only ever receives the generated arrays and a config.

Sizes are those at which one rep takes 0.4-1 s on one BLAS thread of
the 2-core reference host, so that a run of ``run_seconds`` holds
enough reps for a steady median inside the contract's time cap.
"""

from __future__ import annotations

import gc
import time
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field

import numpy as np

from bench import calibrate, reference

GAMMA = 0.01   # KRRConfig default, restated so the oracle does not read it
ALPHA = 0.5
SUBSAMPLE = 256  # test rows the accuracy check looks at


@dataclass(frozen=True)
class Dims:
    n: int
    ns: int
    n_test: int
    phenotypes: int = 4


@dataclass
class Rep:
    """What one timed rep hands back to the runner."""

    wall_s: float
    latencies_s: list[float]
    rows: int
    attempted: int
    output: object
    failed: int = 0                 # operations that raised (serve requests)
    info: dict = field(default_factory=dict)


@dataclass
class Check:
    failed: int
    rel_err: float


def _cohort(seed: int, dims: Dims):
    rng = np.random.default_rng(seed)
    g = rng.integers(0, 3, size=(dims.n, dims.ns), dtype=np.int8)
    g_test = rng.integers(0, 3, size=(dims.n_test, dims.ns), dtype=np.int8)
    y = rng.standard_normal((dims.n, dims.phenotypes))
    return g, g_test, y


def _subsample(n_test: int) -> np.ndarray:
    return np.unique(np.linspace(0, n_test - 1, min(SUBSAMPLE, n_test)).astype(int))


def _close(session) -> None:
    session.runtime.close()
    if session.store is not None:
        session.store.close()


def _low_precision(precision) -> bool:
    return not precision.is_integer and precision.bytes_per_element <= 2


def _session_info(session) -> dict:
    """Counters a fitted session reports about itself (traced reps only)."""
    kernel = session.kernel_
    tiles = list(kernel.layout.iter_lower_tiles())
    by_precision = session.flops_by_precision
    total = sum(by_precision.values()) or 1.0
    store = session.store_stats()
    return {
        "factorizations": session.factorization_count_,
        "alpha_boosts": session.regularization_boosts_,
        "cg_fallbacks": session.cg_fallbacks_,
        "lowp_tile_frac": sum(_low_precision(kernel.tile_precision(i, j))
                              for i, j in tiles) / len(tiles),
        "mosaic_mb": kernel.nbytes() / 2 ** 20,
        "lowp_flop_frac": sum(fl for p, fl in by_precision.items()
                              if _low_precision(p)) / total,
        "store": None if store is None else store.to_dict(),
    }


# ----------------------------------------------------------------------
# Build -> Associate -> Predict on one session
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FitWorkload:
    name: str
    why: str
    plan: str                      # key of reference.TOLERANCE
    full: Dims
    smoke: Dims
    tile: int = 256
    execution: str | None = "serial"
    store_fraction: float | None = None   # budget / lower-triangle FP32 mosaic
    library_default: bool = False          # KRRConfig() untouched
    one_core: bool = False                 # run confined to one CPU
    kind = "fit"

    @property
    def peak(self) -> str:
        return "host.dgemm_gflops" if self.plan == "fp64" else "host.sgemm_gflops"

    def nominal_gflop(self, d: Dims) -> float:
        """Operation count from the dimensions alone (not the program's tally)."""
        n, p = d.n, d.phenotypes
        return (n * n * d.ns + 2.0 * d.n_test * n * d.ns + n ** 3 / 3.0
                + 2.0 * n * n * p + 2.0 * d.n_test * n * p) / 1e9

    def config(self, d: Dims, resident_serial: bool = False):
        from repro.gwas.config import KRRConfig, PrecisionPlan

        if self.library_default:
            return KRRConfig()
        options = dict(tile_size=self.tile, execution=self.execution,
                       precision_plan=getattr(PrecisionPlan, self.plan)())
        if resident_serial:
            options["execution"] = "serial"
            return KRRConfig(**options)
        if self.execution == "process":
            options["workers"] = min(2, calibrate.cores())
        if self.store_fraction is not None:
            nt = -(-d.n // self.tile)
            mosaic = nt * (nt + 1) // 2 * self.tile * self.tile * 4
            options["store_budget_bytes"] = int(mosaic * self.store_fraction)
        return KRRConfig(**options)

    def setup(self, seed: int, smoke: bool, perturb: bool = False) -> dict:
        d = self.smoke if smoke else self.full
        g, g_test, y = _cohort(seed, d)
        sub = _subsample(d.n_test)
        ref = reference.krr_predict(
            g, y, g_test[sub], ALPHA, reference.effective_gamma(GAMMA, d.ns))
        state = {"dims": d, "g": g, "g_test": g_test, "y": y, "sub": sub,
                 "ref": ref, "config": self.config(d), "bitwise": None,
                 "resident_s": None}
        if self.store_fraction is not None or self.execution == "process":
            # the serial, fully resident run this workload must equal
            # bit for bit — and the denominator of its overhead ratio
            twin = dict(state, config=self.config(d, resident_serial=True))
            rep = self.rep(twin)
            state["bitwise"], state["resident_s"] = rep.output, rep.wall_s
        if perturb:
            state["ref"] = reference.perturbed(ref)
            if state["bitwise"] is not None:
                state["bitwise"] = reference.perturbed(state["bitwise"])
        return state

    def rep(self, state: dict, collect: bool = False) -> Rep:
        from repro.gwas.session import KRRSession

        t0 = time.perf_counter()
        session = KRRSession(state["config"])
        try:
            session.build(state["g"])
            session.associate(state["y"])
            pred = session.predict(state["g_test"])
            t1 = time.perf_counter()
            info = _session_info(session) if collect else {}
            t2 = time.perf_counter()
        finally:
            _close(session)
        wall = (t1 - t0) + (time.perf_counter() - t2)
        return Rep(wall_s=wall, latencies_s=[wall], rows=state["dims"].n_test,
                   attempted=3, output=pred, info=info)

    def check(self, state: dict, rep: Rep) -> Check:
        err = reference.rel_err(rep.output[state["sub"]], state["ref"])
        ok = err <= reference.TOLERANCE[self.plan]
        if state["bitwise"] is not None:
            ok = ok and np.array_equal(rep.output, state["bitwise"])
        return Check(failed=0 if ok else 1, rel_err=err)

    def layer_extras(self, state: dict, wall_s: float) -> dict:
        """Per-layer ratios that need a second configuration of this problem."""
        extras = {}
        if self.store_fraction is not None:
            extras["store.overhead_x"] = wall_s / state["resident_s"]
        elif self.execution == "process":
            extras["parallel.speedup_x"] = state["resident_s"] / wall_s
            print("note: spans inside worker processes are not visible from "
                  "outside; parallel.* and runtime.* are coordinator-side")
        if self.plan == "adaptive_fp8":
            extras["precision.lowp_cost_x"] = self._lowp_cost_x(state)
        return extras

    @staticmethod
    def _lowp_cost_x(state: dict) -> float:
        """``cholesky()`` of one kernel under its FP8 mosaic over plain FP32."""
        from repro.gwas.config import PrecisionPlan
        from repro.gwas.session import KRRSession
        from repro.linalg.cholesky import cholesky
        from repro.precision.formats import Precision

        session = KRRSession(state["config"])
        try:
            session.build(state["g"])
            regularized = session.kernel_.shallow_copy()
            regularized.add_diagonal(ALPHA)
            seconds = {}
            for plan in (state["config"].precision_plan, PrecisionPlan.fp32()):
                pmap = plan.precision_map(regularized.layout, matrix=regularized)
                gc.collect()
                t0 = time.perf_counter()
                cholesky(regularized, working_precision=Precision.FP32,
                         precision_map=pmap, runtime=session.runtime,
                         phase="bench")
                seconds[plan.mode] = time.perf_counter() - t0
        finally:
            _close(session)
        return seconds["adaptive"] / seconds["uniform"]


# ----------------------------------------------------------------------
# one grid_search_cv call on the factor-once CG route
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CVWorkload:
    name: str
    why: str
    full: Dims
    smoke: Dims
    tile: int = 256
    folds: int = 3
    plan = "fp64"
    kind = "cv"
    one_core = False
    peak = "host.dgemm_gflops"
    alphas = tuple(float(a) for a in np.geomspace(0.5, 2.8, 6))

    def nominal_gflop(self, d: Dims) -> float:
        n_train = d.n - d.n // self.folds
        n_valid = d.n // self.folds
        per_fold = (n_train ** 2 * d.ns + 2.0 * n_valid * n_train * d.ns
                    + n_train ** 3 / 3.0)
        return self.folds * per_fold / 1e9

    def setup(self, seed: int, smoke: bool, perturb: bool = False) -> dict:
        from repro.gwas.config import KRRConfig, PrecisionPlan
        from repro.gwas.cv import kfold_indices

        d = self.smoke if smoke else self.full
        g, _, y = _cohort(seed, d)
        train, valid = kfold_indices(d.n, self.folds, seed=0)[-1]
        ref = np.array(reference.fold_mspes(
            g[train], y[train], g[valid], y[valid], self.alphas,
            reference.effective_gamma(GAMMA, d.ns)))
        config = KRRConfig(tile_size=self.tile, execution="serial", solver="cg",
                           precision_plan=PrecisionPlan.fp64())
        return {"dims": d, "g": g, "y": y, "config": config,
                "ref": reference.perturbed(ref) if perturb else ref}

    def rep(self, state: dict, collect: bool = False) -> Rep:
        from repro.gwas import cv

        t0 = time.perf_counter()
        result = cv.grid_search_cv(
            state["g"], state["y"], alphas=self.alphas, gammas=(GAMMA,),
            n_folds=self.folds, base_config=state["config"], seed=0)
        wall = time.perf_counter() - t0
        info = {"factorizations": result.factorizations,
                "cg_fallbacks": result.cg_fallbacks} if collect else {}
        d = state["dims"]
        return Rep(wall_s=wall, latencies_s=[wall],
                   rows=len(self.alphas) * d.n,   # every row validated per alpha
                   attempted=self.folds * len(self.alphas),
                   output=result, info=info)

    def check(self, state: dict, rep: Rep) -> Check:
        last = np.array([rep.output.fold_scores[(a, GAMMA)][-1]
                         for a in self.alphas])
        err = float(np.max(np.abs(last - state["ref"]) / state["ref"]))
        return Check(failed=0 if err <= reference.CV_MSPE_TOLERANCE else 1,
                     rel_err=err)

    def layer_extras(self, state: dict, wall_s: float) -> dict:
        return {}


# ----------------------------------------------------------------------
# one closed-loop request burst against a PredictionService
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServeWorkload:
    name: str
    why: str
    full: Dims            # n_test = requests per burst
    smoke: Dims
    tile: int = 64
    rows_per_request: int = 64
    outstanding: int = 8
    sampled: int = 16
    plan = "adaptive_fp16"
    kind = "serve"
    one_core = False
    peak = "host.sgemm_gflops"

    def nominal_gflop(self, d: Dims) -> float:
        rows = d.n_test * self.rows_per_request
        return (2.0 * rows * d.n * d.ns + 2.0 * rows * d.n * d.phenotypes) / 1e9

    def setup(self, seed: int, smoke: bool, perturb: bool = False) -> dict:
        from repro.gwas.config import KRRConfig, PrecisionPlan
        from repro.gwas.session import KRRSession

        d = self.smoke if smoke else self.full
        rng = np.random.default_rng(seed)
        g = rng.integers(0, 3, size=(d.n, d.ns), dtype=np.int8)
        y = rng.standard_normal((d.n, d.phenotypes))
        requests = rng.integers(
            0, 3, size=(d.n_test, self.rows_per_request, d.ns), dtype=np.int8)
        session = KRRSession(KRRConfig(
            tile_size=self.tile, execution="serial",
            precision_plan=PrecisionPlan.adaptive_fp16()))
        try:
            session.fit(g, y)
            model = session.export_model()
            sampled = np.unique(np.linspace(
                0, d.n_test - 1, min(self.sampled, d.n_test)).astype(int))
            solo = [session.predict(requests[i]) for i in sampled]
        finally:
            _close(session)
        dense = sampled[:SUBSAMPLE // self.rows_per_request]
        ref = reference.krr_predict(
            g, y, requests[dense].reshape(-1, d.ns), ALPHA,
            reference.effective_gamma(GAMMA, d.ns))
        if perturb:
            ref = reference.perturbed(ref)
            solo = [reference.perturbed(s) for s in solo]
        return {"dims": d, "model": model, "requests": requests,
                "sampled": sampled, "solo": solo, "dense": dense, "ref": ref}

    def rep(self, state: dict, collect: bool = False) -> Rep:
        from repro.serve.service import PredictionService

        requests = state["requests"]
        results: dict[int, object] = {}
        failed = 0
        t0 = time.perf_counter()
        service = PredictionService(state["model"])
        try:
            # closed loop: this one thread keeps `outstanding` requests
            # in flight and submits the next as soon as one completes
            pending = {}
            next_request = 0
            while next_request < len(requests) or pending:
                while next_request < len(requests) \
                        and len(pending) < self.outstanding:
                    try:
                        pending[service.submit(requests[next_request])] = next_request
                    except Exception:  # noqa: BLE001 - shed counts as failed
                        failed += 1
                    next_request += 1
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    index = pending.pop(future)
                    if future.exception() is not None:
                        failed += 1   # expired or raised
                    else:
                        results[index] = future.result()
            stats = service.stats
        finally:
            service.close()
        wall = time.perf_counter() - t0
        info = {}
        if collect:
            info = {"serve": {
                "batches": stats.batches, "mean_coalesced": stats.mean_coalesced,
                "shed": stats.shed, "expired": stats.expired,
                "compute_s": stats.compute_s,
                "queue_s": [r.queue_s for r in results.values()],
                "request_compute_s": [r.compute_s for r in results.values()]}}
        return Rep(wall_s=wall,
                   latencies_s=[r.latency_s for r in results.values()],
                   rows=len(requests) * self.rows_per_request,
                   attempted=len(requests), output=results, failed=failed,
                   info=info)

    def check(self, state: dict, rep: Rep) -> Check:
        failed = rep.failed
        results = rep.output
        bitwise = all(
            i in results and np.array_equal(results[i].predictions, solo)
            for i, solo in zip(state["sampled"], state["solo"]))
        err = float("inf")
        if all(i in results for i in state["dense"]):
            got = np.vstack([results[i].predictions for i in state["dense"]])
            err = reference.rel_err(got, state["ref"])
        if not bitwise or not err <= reference.TOLERANCE[self.plan]:
            failed = max(failed, 1)
        return Check(failed=failed, rel_err=err)

    def layer_extras(self, state: dict, wall_s: float) -> dict:
        return {}


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------
_TALL = Dims(n=2560, ns=256, n_test=512)
_TALL_SMOKE = Dims(n=384, ns=64, n_test=128)

WORKLOADS = {w.name: w for w in (
    FitWorkload(
        "build_wide",
        "wide SNP panel: distance (symmetric Build + cross-kernel Predict) "
        "dominates, linalg is a few percent",
        plan="adaptive_fp16",
        full=Dims(n=1024, ns=8192, n_test=1024),
        smoke=Dims(n=256, ns=1024, n_test=256), tile=256),
    FitWorkload(
        "factor_tall_fp32",
        "tall cohort, plain fp32, serial: tiled Cholesky dominates with the "
        "quantize path bypassed; the single-threaded baseline",
        plan="fp32", full=_TALL, smoke=_TALL_SMOKE),
    FitWorkload(
        "factor_tall_fp8",
        "same kernels with off-diagonal tiles in emulated FP8: "
        "precision.quantize does most of the work",
        plan="adaptive_fp8",
        full=Dims(n=2048, ns=256, n_test=512), smoke=_TALL_SMOKE),
    FitWorkload(
        "default_fit",
        "KRRConfig() untouched (tile 64, threaded) on one CPU: thousands of "
        "small tasks, so runtime dispatch and per-task overhead dominate",
        plan="adaptive_fp16",
        full=Dims(n=1280, ns=512, n_test=512),
        smoke=Dims(n=256, ns=64, n_test=128), library_default=True,
        one_core=True),
    CVWorkload(
        "cv_sweep_cg",
        "3 folds x 6 alphas on the factor-once CG route: one factor per fold, "
        "then PCG matvecs and triangular-solve preconditioning",
        full=Dims(n=1920, ns=256, n_test=0, phenotypes=2),
        smoke=Dims(n=384, ns=64, n_test=0, phenotypes=2)),
    FitWorkload(
        "oocore_fit",
        "factor_tall_fp32 under a store budget of a quarter of the mosaic: "
        "the only workload with spill and reload traffic",
        plan="fp32", full=_TALL, smoke=_TALL_SMOKE, store_fraction=0.25),
    FitWorkload(
        "process_fit",
        "factor_tall_fp32 on worker processes: pool start and tile exchange "
        "sit on the critical path",
        plan="fp32", full=_TALL, smoke=_TALL_SMOKE, execution="process"),
    ServeWorkload(
        "serve_burst",
        "closed loop, 8 requests of 64 rows outstanding: serve coalescing and "
        "small-batch cross-kernels with shared train operands",
        full=Dims(n=1536, ns=512, n_test=160),
        smoke=Dims(n=256, ns=64, n_test=24)),
)}
