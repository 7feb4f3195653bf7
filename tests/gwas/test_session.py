"""Tests for the tile-native KRR solver session.

The headline contract under test: ``KRRSession`` keeps the kernel
matrix tiled from Build through Associate and Predict with **zero
dense n×n round-trips**, while producing predictions identical to the
historical dense Associate/Predict path.
"""

from unittest import mock

import numpy as np
import pytest

from repro.distance.build import KernelBuilder
from repro.gwas.config import KRRConfig, PrecisionPlan
from repro.gwas.cv import grid_search_cv, kfold_indices
from repro.gwas.metrics import mean_squared_prediction_error
from repro.gwas.session import KRRSession, effective_batch_rows
from repro.linalg.blas3 import gemm
from repro.linalg.cholesky import cholesky
from repro.linalg.solve import solve_cholesky
from repro.precision.formats import Precision
from repro.tiles.layout import TileLayout
from repro.tiles.matrix import TileMatrix


@pytest.fixture(scope="module")
def cohort_512():
    rng = np.random.default_rng(7)
    n, ns = 512, 128
    g_train = rng.integers(0, 3, size=(n, ns)).astype(np.int8)
    y = rng.standard_normal((n, 3))
    g_test = rng.integers(0, 3, size=(200, ns)).astype(np.int8)
    return g_train, y, g_test


def _seed_dense_fit_predict(cfg: KRRConfig, g_train, y, g_test):
    """Frozen copy of the historical dense Associate/Predict path.

    Build streams tiles (as in PR 1), but Associate densifies the
    kernel, copies the full dense matrix per regularization attempt,
    and Predict materializes the whole cross kernel — exactly what the
    estimator did before the session redesign.
    """
    plan = cfg.precision_plan
    gamma = cfg.effective_gamma(g_train.shape[1])
    builder = KernelBuilder(
        kernel_type=cfg.kernel_type, gamma=gamma, tile_size=cfg.tile_size,
        snp_precision=cfg.snp_precision,
        adaptive_rule=plan.adaptive_rule() if plan.mode == "adaptive" else None,
        storage_precision=plan.working_precision)
    build = builder.build_training(g_train)
    k_dense = build.kernel.to_dense()
    n = k_dense.shape[0]
    layout = TileLayout.square(n, cfg.tile_size)
    alpha = cfg.alpha if cfg.alpha > 0 else 1e-6
    diag = np.diag_indices(n)
    a = k_dense.copy()
    a[diag] += alpha
    pmap = plan.precision_map(layout, matrix=a)
    fact = cholesky(a, tile_size=cfg.tile_size,
                    working_precision=plan.working_precision,
                    precision_map=pmap)
    y_means = y.mean(axis=0)
    w = np.asarray(solve_cholesky(fact, y - y_means[None, :],
                                  precision=plan.working_precision),
                   dtype=np.float64)
    pbuilder = KernelBuilder(
        kernel_type=cfg.kernel_type, gamma=gamma, tile_size=cfg.tile_size,
        snp_precision=cfg.snp_precision,
        storage_precision=plan.working_precision)
    cross = pbuilder.build_cross(g_test, g_train, None, None)
    k_test = cross.to_dense()
    preds = gemm(k_test, w, tile_size=cfg.tile_size,
                 precision=plan.working_precision)
    return preds + y_means[None, :]


class TestNoDenseRoundTrip:
    def test_fit_predict_never_densifies_a_tile_matrix(self, cohort_512):
        """The acceptance criterion: no ``to_dense`` on the hot path at n=512."""
        g_train, y, g_test = cohort_512

        def forbidden(self, *args, **kwargs):
            raise AssertionError(
                "TileMatrix.to_dense called inside the session hot path")

        session = KRRSession(KRRConfig(tile_size=64))
        with mock.patch.object(TileMatrix, "to_dense", forbidden):
            session.fit(g_train, y)
            predictions = session.predict(g_test)
        assert predictions.shape == (g_test.shape[0], y.shape[1])

    def test_peak_temporaries_at_most_half_the_dense_path(self, cohort_512):
        """What the dense path had to hold — the kernel densified, one
        regularized copy, the whole cross kernel — against the session's
        factorization workspace plus one streamed Predict batch."""
        g_train, y, g_test = cohort_512
        n, n_test = g_train.shape[0], g_test.shape[0]
        session = KRRSession(KRRConfig(tile_size=64))
        session.fit(g_train, y)
        batch = min(n_test, effective_batch_rows(
            64, session.config.predict_batch_rows))
        dense_peak = 2 * n * n * 8 + n_test * n * 8
        tile_peak = session.kernel_.nbytes() + batch * n * 8
        assert dense_peak >= 2 * tile_peak

    def test_associate_retry_does_not_densify(self):
        """The boost-retry loop must stay tile-native too."""
        rng = np.random.default_rng(0)
        n = 64
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        eigs = np.linspace(1.0, 2.0, n)
        eigs[0] = -5.0  # indefinite at alpha=1, PD at alpha=10
        k = (q * eigs) @ q.T
        k = (k + k.T) / 2.0
        session = KRRSession(KRRConfig(
            tile_size=32, alpha=1.0, precision_plan=PrecisionPlan.fp64()))
        session.adopt_kernel(k)

        def forbidden(self, *args, **kwargs):
            raise AssertionError("to_dense called during associate retry")

        with mock.patch.object(TileMatrix, "to_dense", forbidden):
            session.associate(np.ones(n))
        assert session.regularization_boosts_ == 1


class TestSeedPathEquivalence:
    @pytest.mark.parametrize("plan", [
        PrecisionPlan.adaptive_fp16(),
        PrecisionPlan.fp32(),
        PrecisionPlan.adaptive_fp8(),
        PrecisionPlan.fp64(),
    ], ids=lambda p: p.label())
    def test_predictions_match_dense_path(self, cohort_512, plan):
        g_train, y, g_test = cohort_512
        cfg = KRRConfig(tile_size=64, precision_plan=plan)
        reference = _seed_dense_fit_predict(cfg, g_train, y, g_test)
        session = KRRSession(cfg)
        session.fit(g_train, y)
        predictions = session.predict(g_test)
        rel = (np.linalg.norm(predictions - reference)
               / np.linalg.norm(reference))
        assert rel <= 1e-10

    def test_batched_predict_matches_monolithic(self, cohort_512):
        g_train, y, g_test = cohort_512
        session = KRRSession(KRRConfig(tile_size=64))
        session.fit(g_train, y)
        monolithic = session.predict(g_test, batch_rows=g_test.shape[0])
        batched = session.predict(g_test, batch_rows=64)
        # sub-tile requests are clamped up to one tile
        clamped = session.predict(g_test, batch_rows=1)
        np.testing.assert_array_equal(batched, monolithic)
        np.testing.assert_array_equal(clamped, monolithic)


def _indefinite_kernel(n: int, min_eig: float, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.linspace(1.0, 2.0, n)
    eigs[0] = min_eig
    k = (q * eigs) @ q.T
    return (k + k.T) / 2.0


class TestRegularizationBoost:
    def test_no_boost_for_positive_definite_kernel(self):
        n = 48
        k = _indefinite_kernel(n, min_eig=0.5)
        session = KRRSession(KRRConfig(
            tile_size=16, alpha=1.0, precision_plan=PrecisionPlan.fp64()))
        session.adopt_kernel(k)
        session.associate(np.ones(n))
        assert session.regularization_boosts_ == 0
        assert session.alpha_ == 1.0

    def test_boost_succeeds_on_second_attempt(self):
        n = 48
        k = _indefinite_kernel(n, min_eig=-5.0)  # K+1I indefinite, K+10I PD
        session = KRRSession(KRRConfig(
            tile_size=16, alpha=1.0, precision_plan=PrecisionPlan.fp64()))
        session.adopt_kernel(k)
        y = np.random.default_rng(5).standard_normal(n)
        weights = session.associate(y)
        assert session.regularization_boosts_ == 1
        assert session.alpha_ == pytest.approx(10.0)
        # the solved system is K + 10I, not K + I
        expected = np.linalg.solve(k + 10.0 * np.eye(n), y - y.mean())
        np.testing.assert_allclose(weights[:, 0], expected, atol=1e-8)

    def test_boost_succeeds_on_third_attempt(self):
        n = 48
        k = _indefinite_kernel(n, min_eig=-50.0)  # needs alpha=100
        session = KRRSession(KRRConfig(
            tile_size=16, alpha=1.0, precision_plan=PrecisionPlan.fp64()))
        session.adopt_kernel(k)
        session.associate(np.ones(n))
        assert session.regularization_boosts_ == 2
        assert session.alpha_ == pytest.approx(100.0)

    def test_terminal_linalg_error_after_exhausted_boosts(self):
        n = 48
        k = _indefinite_kernel(n, min_eig=-500.0)  # not PD even at alpha=100
        session = KRRSession(KRRConfig(
            tile_size=16, alpha=1.0, precision_plan=PrecisionPlan.fp64()))
        session.adopt_kernel(k)
        with pytest.raises(np.linalg.LinAlgError,
                           match="remained indefinite"):
            session.associate(np.ones(n))
        # all three attempts failed; the counter records every boost
        # applied, matching the historical estimator's accounting
        assert session.regularization_boosts_ == 3


class TestFlopAccounting:
    def test_predict_folds_flops_into_both_views(self, cohort_512):
        g_train, y, g_test = cohort_512
        session = KRRSession(KRRConfig(tile_size=64))
        session.fit(g_train, y)
        before_phase = sum(session.phase_flops.values())
        before_prec = sum(session.flops_by_precision.values())
        assert before_phase == pytest.approx(before_prec)

        session.predict(g_test)
        assert session.phase_flops["predict"] > 0
        after_phase = sum(session.phase_flops.values())
        after_prec = sum(session.flops_by_precision.values())
        # the Predict contribution lands in *both* accounting views
        assert after_phase == pytest.approx(after_prec)
        assert after_phase > before_phase
        # the cross-kernel Gram runs in the SNP precision, the K_test @ W
        # GEMM in the working precision
        assert session.flops_by_precision[Precision.INT8] > 0
        assert session.flops_by_precision[Precision.FP32] > 0

    def test_reassociate_resets_associate_and_predict_accounting(self, cohort_512):
        g_train, y, g_test = cohort_512
        session = KRRSession(KRRConfig(tile_size=64))
        session.fit(g_train, y)
        session.predict(g_test)
        assert "predict" in session.phase_flops
        session.associate(y, alpha=1.0)
        assert "predict" not in session.phase_flops
        assert sum(session.phase_flops.values()) == pytest.approx(
            sum(session.flops_by_precision.values()))


class TestSessionReuse:
    def test_alpha_sweep_over_one_build(self, cohort_512):
        """associate(alpha=...) refits without rebuilding the kernel.

        Pinned to the direct route: the bitwise sweep-vs-scratch
        contract is a property of per-alpha refactorization, which a
        REPRO_SOLVER=cg environment deliberately replaces with
        tolerance-bounded CG re-solves.
        """
        g_train, y, g_test = cohort_512
        cfg = KRRConfig(tile_size=64, solver="direct")
        session = KRRSession(cfg)
        session.build(g_train)
        swept = {}
        for alpha in (0.1, 1.0):
            session.associate(y, alpha=alpha)
            swept[alpha] = session.predict(g_test)
        for alpha, pred in swept.items():
            scratch = KRRSession(cfg.with_options(alpha=alpha))
            np.testing.assert_array_equal(
                pred, scratch.fit_predict(g_train, y, g_test))

    def test_cross_kernel_reuse_matches_streamed_predict(self, cohort_512):
        g_train, y, g_test = cohort_512
        session = KRRSession(KRRConfig(tile_size=64))
        session.fit(g_train, y)
        streamed = session.predict(g_test)
        cross = session.cross_kernel(g_test)
        reused = session.predict_with_kernel(cross)
        np.testing.assert_array_equal(reused, streamed)

    def test_build_is_required_before_associate(self):
        with pytest.raises(RuntimeError):
            KRRSession().associate(np.ones(8))

    def test_fit_is_required_before_predict(self):
        with pytest.raises(RuntimeError):
            KRRSession().predict(np.zeros((3, 4)))


class TestGridSearchReuse:
    def test_one_build_per_fold_gamma(self, small_cohort):
        """The alpha axis must not rebuild the kernel."""
        genotypes = small_cohort.genotypes
        phenotypes = small_cohort.phenotypes[:, 0]
        builds = []
        original = KernelBuilder.build_training

        def counting(self, *args, **kwargs):
            builds.append(1)
            return original(self, *args, **kwargs)

        alphas, gammas, n_folds = (0.1, 1.0, 10.0), (0.005, 0.02), 2
        with mock.patch.object(KernelBuilder, "build_training", counting):
            grid_search_cv(genotypes, phenotypes, alphas=alphas, gammas=gammas,
                           n_folds=n_folds,
                           base_config=KRRConfig(tile_size=52))
        assert len(builds) == n_folds * len(gammas)

    def test_scores_match_per_point_refit(self, small_cohort):
        genotypes = small_cohort.genotypes
        phenotypes = small_cohort.phenotypes[:, 0][:, None]
        base = KRRConfig(tile_size=52)
        alphas, gammas, n_folds = (0.5, 5.0), (0.01, 0.05), 2

        # solver pinned: this asserts the kernel-reuse sweep matches
        # per-point refits to 1e-12, a direct-route property; the CG
        # route's (looser) agreement contract lives in test_cv_cg.py.
        result = grid_search_cv(genotypes, phenotypes[:, 0], alphas=alphas,
                                gammas=gammas, n_folds=n_folds,
                                base_config=base, seed=3, solver="direct")

        folds = kfold_indices(genotypes.shape[0], n_folds, seed=3)
        for alpha in alphas:
            for gamma in gammas:
                errs = []
                for train_idx, valid_idx in folds:
                    session = KRRSession(base.with_options(
                        alpha=float(alpha), gamma=float(gamma)))
                    pred = session.fit_predict(
                        genotypes[train_idx], phenotypes[train_idx],
                        genotypes[valid_idx])
                    errs.append(mean_squared_prediction_error(
                        phenotypes[valid_idx], pred))
                np.testing.assert_allclose(
                    result.scores[(float(alpha), float(gamma))],
                    float(np.mean(errs)), rtol=1e-12)


class TestShallowRegularizedCopy:
    def test_associate_shares_off_diagonal_tiles_with_kernel(self, cohort_512):
        """Regularization must not copy (or touch) the off-diagonal tiles."""
        g_train, y, _ = cohort_512
        session = KRRSession(KRRConfig(tile_size=64))
        session.build(g_train)
        before = {(i, j): session.kernel_.get_tile(i, j)
                  for i in range(3) for j in range(i)}
        before_dense = {k: t.to_float64() for k, t in before.items()}
        session.associate(y)
        for (i, j), tile in before.items():
            if session.store is None:
                # object identity proves zero copying; an out-of-core
                # session (REPRO_STORE_BUDGET) may legitimately have
                # spilled and re-faulted the tile, so only the bitwise
                # value contract applies there
                assert session.kernel_.get_tile(i, j) is tile
            np.testing.assert_array_equal(
                session.kernel_.get_tile(i, j).to_float64(),
                before_dense[(i, j)])
            np.testing.assert_array_equal(tile.to_float64(), before_dense[(i, j)])

    def test_repeated_associate_identical(self, cohort_512):
        """The kernel must survive associate() unmodified, so re-running
        with the same alpha reproduces the weights exactly."""
        g_train, y, _ = cohort_512
        session = KRRSession(KRRConfig(tile_size=64))
        session.build(g_train)
        w1 = session.associate(y, alpha=0.5)
        w2 = session.associate(y, alpha=0.5)
        np.testing.assert_array_equal(w1, w2)


class TestRuntimeTraceAccounting:
    """The session-owned runtime's traces are the accounting source."""

    def test_session_owns_one_runtime_across_phases(self, cohort_512):
        g_train, y, g_test = cohort_512
        session = KRRSession(KRRConfig(tile_size=64))
        runtime = session.runtime
        scheduler = runtime.scheduler
        session.fit(g_train, y)
        session.predict(g_test)
        assert session.runtime is runtime
        assert runtime.scheduler is scheduler
        # Build + Associate (cholesky + 2 solve sweeps) + Predict all
        # drained through the one runtime
        assert runtime.runs_completed >= 5

    def test_phase_flops_match_phase_traces(self, cohort_512):
        g_train, y, g_test = cohort_512
        session = KRRSession(KRRConfig(tile_size=64))
        session.fit(g_train, y)
        session.predict(g_test)
        rt = session.runtime
        assert session.phase_flops["build"] == pytest.approx(
            rt.phase_trace("build").total_flops)
        assert session.phase_flops["associate"] == pytest.approx(
            rt.phase_trace("associate").total_flops)
        assert session.phase_flops["predict"] == pytest.approx(
            rt.phase_trace("predict").total_flops)

    def test_associate_includes_factorization_and_solve_tasks(self, cohort_512):
        g_train, y, _ = cohort_512
        session = KRRSession(KRRConfig(tile_size=64))
        session.build(g_train)
        session.associate(y)
        trace = session.runtime.phase_trace("associate")
        names = {e.task_name for e in trace.events}
        assert {"potrf", "trsm", "syrk", "solve_trsm", "solve_gemm"} <= names
        # associate accounting = factorization + weight-panel solve
        assert session.phase_flops["associate"] > \
            session.factorization_.flops > 0

    def test_failed_boost_attempts_never_pollute_accounting(self):
        n = 64
        k = _indefinite_kernel(n, min_eig=-5.0)
        session = KRRSession(KRRConfig(
            tile_size=32, alpha=1.0, precision_plan=PrecisionPlan.fp64()))
        session.adopt_kernel(k)
        session.associate(np.ones(n))
        assert session.regularization_boosts_ == 1
        # only the successful factorization's tasks are in the trace:
        # nt=2 gives 2 potrf + 1 trsm + 1 syrk (+ 2x2 solve rows)
        trace = session.runtime.phase_trace("associate")
        by_name = {}
        for e in trace.events:
            by_name[e.task_name] = by_name.get(e.task_name, 0) + 1
        assert by_name["potrf"] == 2
        assert session.phase_flops["associate"] == pytest.approx(
            trace.total_flops)

    def test_serial_and_threaded_sessions_bitwise_identical(self, cohort_512):
        g_train, y, g_test = cohort_512
        serial = KRRSession(KRRConfig(tile_size=64, execution="serial"))
        threaded = KRRSession(KRRConfig(tile_size=64, execution="threaded",
                                        workers=8))
        p_serial = serial.fit_predict(g_train, y, g_test)
        p_threaded = threaded.fit_predict(g_train, y, g_test)
        np.testing.assert_array_equal(p_threaded, p_serial)
        assert serial.phase_flops == threaded.phase_flops

    def test_reassociate_clears_predict_trace(self, cohort_512):
        """phase_flops and the runtime's predict trace must stay in
        lock-step across a re-associate (which resets predict)."""
        g_train, y, g_test = cohort_512
        session = KRRSession(KRRConfig(tile_size=64))
        session.fit(g_train, y)
        session.predict(g_test)
        session.associate(y, alpha=1.0)
        assert session.runtime.phase_trace("predict").num_tasks == 0
        session.predict(g_test)
        assert session.phase_flops["predict"] == pytest.approx(
            session.runtime.phase_trace("predict").total_flops)

    def test_adopt_kernel_resets_build_accounting(self, cohort_512):
        """Adopting a foreign kernel after a build must drop the stale
        build entry from *both* accounting views."""
        g_train, y, _ = cohort_512
        session = KRRSession(KRRConfig(
            tile_size=64, precision_plan=PrecisionPlan.fp64()))
        session.build(g_train)
        assert session.phase_flops["build"] > 0
        k = _indefinite_kernel(64, min_eig=0.5)
        session.adopt_kernel(k)
        assert "build" not in session.phase_flops
        session.associate(np.ones(64))
        assert sum(session.phase_flops.values()) == pytest.approx(
            sum(session.flops_by_precision.values()))

    def test_adopt_kernel_consistent_before_next_associate(self, cohort_512):
        """Between adopt_kernel and the next associate, both accounting
        views must already agree (no stale build contribution)."""
        g_train, y, _ = cohort_512
        session = KRRSession(KRRConfig(tile_size=64))
        session.fit(g_train, y)
        session.adopt_kernel(_indefinite_kernel(64, min_eig=0.5))
        assert sum(session.phase_flops.values()) == pytest.approx(
            sum(session.flops_by_precision.values()))


class TestGridSearchTieBreaking:
    def test_exact_tie_breaks_to_smallest_alpha_then_gamma(self):
        """With all-zero phenotypes every grid point predicts the mean
        exactly, so every score ties at 0 — the winner must be the
        (min alpha, min gamma) pair, not whatever the caller's grid
        ordering put first in dict insertion order."""
        rng = np.random.default_rng(2)
        genotypes = rng.integers(0, 3, size=(48, 20)).astype(np.int8)
        phenotypes = np.zeros(48)

        result = grid_search_cv(
            genotypes, phenotypes,
            alphas=(10.0, 1.0), gammas=(0.1, 0.001),  # descending on purpose
            n_folds=2, base_config=KRRConfig(tile_size=24))

        tied = [k for k, v in result.scores.items()
                if v == result.best_score]
        assert len(tied) == 4, "the construction should tie every grid point"
        assert result.best_alpha == 1.0
        assert result.best_gamma == 0.001


class TestAdoptKernelAccounting:
    def test_full_fit_then_adopt_leaves_no_stale_build_flops(self, cohort_512):
        """After fit() + adopt_kernel(): no negative/stale Build
        contributions in flops_by_precision and no 'build' phase entry."""
        g_train, y, _ = cohort_512
        session = KRRSession(KRRConfig(tile_size=64))
        session.fit(g_train, y)
        # the INT8 Gram flops exist only in the Build phase
        assert Precision.INT8 in session.flops_by_precision

        session.adopt_kernel(_indefinite_kernel(64, min_eig=0.5))

        assert "build" not in session.phase_flops
        assert session.runtime.phase_trace("build").num_tasks == 0
        assert all(fl > 0.0 for fl in session.flops_by_precision.values()), (
            "no negative or zero-stale per-precision entries may remain")
        assert Precision.INT8 not in session.flops_by_precision, (
            "the Build-only INT8 Gram contribution must be dropped")


class TestPredictMany:
    """The micro-batch primitive underneath repro.serve."""

    def test_bitwise_equal_to_solo_predicts(self, cohort_512):
        g_train, y, _ = cohort_512
        session = KRRSession(KRRConfig(tile_size=64))
        session.fit(g_train, y)
        rng = np.random.default_rng(13)
        # sub-tile, non-aligned and multi-batch cohorts
        cohorts = [rng.integers(0, 3, size=(m, g_train.shape[1])).astype(np.int8)
                   for m in (1, 33, 64, 130)]
        refs = [session.predict(c) for c in cohorts]
        outs = session.predict_many(cohorts, batch_rows=64)
        refs_batched = [session.predict(c, batch_rows=64) for c in cohorts]
        for out, ref, ref_b in zip(outs, refs, refs_batched):
            assert np.array_equal(out, ref)
            assert np.array_equal(out, ref_b)

    def test_accounting_matches_solo_predicts(self, cohort_512):
        g_train, y, _ = cohort_512
        rng = np.random.default_rng(14)
        cohorts = [rng.integers(0, 3, size=(m, g_train.shape[1])).astype(np.int8)
                   for m in (40, 70)]

        solo = KRRSession(KRRConfig(tile_size=64))
        solo.fit(g_train, y)
        for c in cohorts:
            solo.predict(c)

        many = KRRSession(KRRConfig(tile_size=64))
        many.fit(g_train, y)
        many.predict_many(cohorts)

        assert many.phase_flops["predict"] == pytest.approx(
            solo.phase_flops["predict"])

    def test_custom_phase_label(self, cohort_512):
        g_train, y, _ = cohort_512
        session = KRRSession(KRRConfig(tile_size=64))
        session.fit(g_train, y)
        rng = np.random.default_rng(15)
        cohort = rng.integers(0, 3, size=(32, g_train.shape[1])).astype(np.int8)
        session.predict_many([cohort], phase="serve")
        assert "serve" in session.runtime.phases()
        assert session.phase_flops["serve"] == pytest.approx(
            session.runtime.phase_trace("serve").total_flops)
        assert "predict" not in session.phase_flops

    def test_empty_and_mismatched_lists(self, cohort_512):
        g_train, y, _ = cohort_512
        session = KRRSession(KRRConfig(tile_size=64))
        session.fit(g_train, y)
        assert session.predict_many([]) == []
        cohort = g_train[:10]
        with pytest.raises(ValueError, match="one entry per cohort"):
            session.predict_many([cohort], confounder_list=[None, None])
