"""Factor-once CG sweeps: grid_search_cv routing, counters, timings.

The sweep contract: with ``solver="cg"`` each (fold, γ) session pays one
Build and **one** factorization, solves every other α by preconditioned
CG, selects the same (α, γ) as the direct route, and reports per-phase
wall-clock plus factorization/fallback counters on the result.
"""

import numpy as np
import pytest

from repro.gwas.config import KRRConfig, PrecisionPlan
from repro.gwas.cv import CrossValidationResult, grid_search_cv
from repro.gwas.session import KRRSession
from tests.gwas.test_model import _restored

ALPHAS = (0.25, 1.0, 4.0)
GAMMAS = (0.01, 0.05)
FOLDS = 3


@pytest.fixture(scope="module")
def cohort():
    rng = np.random.default_rng(7)
    x = rng.integers(0, 3, size=(120, 30)).astype(np.float64)
    y = x[:, :5] @ rng.standard_normal(5) + 0.3 * rng.standard_normal(120)
    return x, y


@pytest.fixture(scope="module")
def direct_result(cohort):
    x, y = cohort
    return grid_search_cv(x, y, alphas=ALPHAS, gammas=GAMMAS, n_folds=FOLDS,
                          seed=0,
                          base_config=KRRConfig(tile_size=64, solver="direct"))


@pytest.fixture(scope="module")
def cg_result(cohort):
    x, y = cohort
    return grid_search_cv(x, y, alphas=ALPHAS, gammas=GAMMAS, n_folds=FOLDS,
                          seed=0,
                          base_config=KRRConfig(tile_size=64, solver="cg"))


class TestValidation:
    def test_n_folds(self, cohort):
        with pytest.raises(ValueError, match="n_folds"):
            grid_search_cv(*cohort, n_folds=1)

    def test_empty_alphas(self, cohort):
        with pytest.raises(ValueError, match="alphas"):
            grid_search_cv(*cohort, alphas=[])

    def test_empty_gammas(self, cohort):
        with pytest.raises(ValueError, match="gammas"):
            grid_search_cv(*cohort, gammas=[])

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_non_positive_alpha(self, cohort, bad):
        with pytest.raises(ValueError, match="alphas must be positive"):
            grid_search_cv(*cohort, alphas=[1.0, bad])


class TestFactorOnceSweep:
    def test_same_selection(self, direct_result, cg_result):
        assert (cg_result.best_alpha, cg_result.best_gamma) == \
            (direct_result.best_alpha, direct_result.best_gamma)

    def test_scores_close(self, direct_result, cg_result):
        for key, direct_score in direct_result.scores.items():
            assert cg_result.scores[key] == pytest.approx(
                direct_score, rel=1e-2)

    def test_factorization_counts(self, direct_result, cg_result):
        sessions = FOLDS * len(GAMMAS)
        assert direct_result.factorizations == sessions * len(ALPHAS)
        assert cg_result.factorizations == sessions + cg_result.cg_fallbacks
        assert direct_result.cg_fallbacks == 0

    def test_fp64_sweep_agrees_fold_by_fold_and_never_refactors(self, cohort):
        """Both routes solve the same FP64 systems: same (alpha, gamma),
        per-fold MSPEs to 1e-6, one factor per (fold, gamma), no fallback."""
        alphas = (0.5, 0.7, 1.0, 1.4, 2.0, 2.8)
        base = KRRConfig(tile_size=32, precision_plan=PrecisionPlan.fp64(),
                         execution="serial", cg_tol=1e-7)
        direct, cg = (
            grid_search_cv(*cohort, alphas=alphas, gammas=GAMMAS[:1],
                           n_folds=FOLDS, seed=0,
                           base_config=base.with_options(solver=solver))
            for solver in ("direct", "cg"))
        assert (cg.best_alpha, cg.best_gamma) == \
            (direct.best_alpha, direct.best_gamma)
        for key, errs in direct.fold_scores.items():
            np.testing.assert_allclose(cg.fold_scores[key], errs, rtol=1e-6)
        assert direct.factorizations == FOLDS * len(alphas)
        assert cg.factorizations == FOLDS
        assert cg.cg_fallbacks == 0

    def test_solver_reported(self, direct_result, cg_result):
        assert direct_result.solver == "direct"
        assert cg_result.solver == "cg"

    def test_phase_seconds_recorded(self, direct_result, cg_result):
        for result in (direct_result, cg_result):
            for key in ("build", "factor", "solve", "predict"):
                assert result.phase_seconds.get(key, 0.0) > 0.0
        # result dataclass defaults stay backward compatible
        bare = CrossValidationResult(best_alpha=1.0, best_gamma=0.1,
                                     best_score=0.0)
        assert bare.phase_seconds == {} and bare.factorizations == 0

    def test_fold_scores_complete(self, cg_result):
        for errs in cg_result.fold_scores.values():
            assert len(errs) == FOLDS

    def test_env_opt_in(self, cohort, monkeypatch, cg_result):
        monkeypatch.setenv("REPRO_SOLVER", "cg")
        x, y = cohort
        result = grid_search_cv(x, y, alphas=ALPHAS, gammas=GAMMAS[:1],
                                n_folds=FOLDS, seed=0,
                                base_config=KRRConfig(tile_size=64))
        assert result.solver == "cg"
        assert result.factorizations == FOLDS + result.cg_fallbacks


class TestCgSessionEnvironments:
    """CG sessions under process execution and tight store budgets."""

    def _weights(self, config, cohort):
        x, y = cohort
        session = KRRSession(config)
        session.build(x)
        for alpha in ALPHAS:
            w = session.associate(y, alpha=alpha)
        return session, w

    def test_process_backend_bitwise(self, cohort):
        ref, w_ref = self._weights(
            KRRConfig(tile_size=32, solver="cg", execution="serial"), cohort)
        proc, w_proc = self._weights(
            KRRConfig(tile_size=32, solver="cg", execution="process",
                      workers=2), cohort)
        np.testing.assert_array_equal(w_proc, w_ref)
        assert proc.factorization_count_ == ref.factorization_count_
        assert proc.cg_fallbacks_ == ref.cg_fallbacks_
        if proc.cg_result_ is not None and ref.cg_result_ is not None:
            assert proc.cg_result_.residual_norms == \
                ref.cg_result_.residual_norms

    def test_store_budget_bitwise(self, cohort):
        ref, w_ref = self._weights(KRRConfig(tile_size=32, solver="cg"),
                                   cohort)
        mosaic = ref.kernel_.nbytes()
        oo, w_oo = self._weights(
            KRRConfig(tile_size=32, solver="cg", workers=2,
                      store_budget_bytes=mosaic // 2), cohort)
        np.testing.assert_array_equal(w_oo, w_ref)
        stats = oo.store_stats()
        assert stats.spills > 0
        assert oo.factorization_count_ == ref.factorization_count_

    def test_cg_iteration_flops_visible(self, cohort):
        from repro.precision.formats import Precision

        session, _ = self._weights(KRRConfig(tile_size=32, solver="cg"),
                                   cohort)
        # the FP64 entry carries the CG matvec work (the direct route's
        # associate runs entirely in the working precision)
        assert session.flops_by_precision.get(Precision.FP64, 0.0) > 0.0
        assert session.phase_flops["associate"] > 0.0


class TestSweepMemory:
    def test_fold_sessions_do_not_grow_with_the_alpha_axis(self, cohort,
                                                           monkeypatch):
        """A 3-fold x 6-alpha CG sweep drains each fold session's
        runtime dozens of times; what stays reachable from it is the
        last drain's events, exactly as after a one-alpha sweep."""
        from repro.gwas import cv
        from tests.runtime.test_ledger import reachable_task_events

        sessions = []

        class Recorded(KRRSession):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                sessions.append(self)

        monkeypatch.setattr(cv, "KRRSession", Recorded)

        def sweep(alphas):
            sessions.clear()
            grid_search_cv(*cohort, alphas=alphas, gammas=(0.01,),
                           n_folds=3, seed=0,
                           base_config=KRRConfig(tile_size=64, solver="cg"))
            assert len(sessions) == 3
            return [(reachable_task_events(s.runtime),
                     len(s.runtime.last_result.trace.events),
                     s.runtime.runs_completed) for s in sessions]

        one = sweep((1.0,))
        six = sweep((0.125, 0.25, 0.5, 1.0, 2.0, 4.0))
        for (held_1, last_1, runs_1), (held_6, last_6, runs_6) in zip(one, six):
            assert runs_6 > runs_1
            # predict_with_kernel drains nothing: the last drain is the
            # fold's cross-kernel Build, the same whatever the alpha axis
            assert held_6 == held_1 == last_6 == last_1 > 0


class TestAssociatePath:
    """The whole alpha axis as one lockstep PCG behind one factor."""

    PATH = (0.5, 0.7, 1.0, 1.4, 2.0, 2.8)

    def _session(self, cohort, **options):
        x, y = cohort
        session = KRRSession(KRRConfig(
            tile_size=32, precision_plan=PrecisionPlan.fp64(),
            execution="serial", cg_tol=1e-9, **options))
        session.build(x)
        return session, np.column_stack([y, y[::-1]])

    def test_matches_per_alpha_direct_associates(self, cohort):
        cg, y = self._session(cohort, solver="cg")
        path = cg.associate_path(y, self.PATH)
        assert cg.factorization_count_ == 1 and cg.cg_fallbacks_ == 0
        assert cg.cg_result_.converged
        # one panel: a (n, 2) block per non-reference alpha, each column
        # with its own iteration count
        assert cg.cg_result_.column_iterations.shape == (2 * 5,)
        direct, _ = self._session(cohort, solver="direct")
        for alpha, weights in zip(self.PATH, path):
            expect = direct.associate(y, alpha=alpha)
            assert np.linalg.norm(weights - expect) <= \
                1e-6 * np.linalg.norm(expect)
        # left in the reference (sorted-middle) alpha's state
        assert cg.alpha_ == 1.0
        np.testing.assert_array_equal(cg.weights_, path[2])
        np.testing.assert_array_equal(cg.weights_,
                                      direct.associate(y, alpha=1.0))
        assert cg.export_model().alpha == 1.0

    def test_caller_order_and_duplicates(self, cohort):
        session, y = self._session(cohort, solver="cg")
        ordered = session.associate_path(y, (0.5, 1.0, 2.0))
        shuffled = session.associate_path(y, (2.0, 0.5, 2.0, 1.0))
        assert session.factorization_count_ == 1
        for i, j in ((0, 1), (1, 3), (2, 0), (2, 2)):
            np.testing.assert_array_equal(ordered[i], shuffled[j])
        with pytest.raises(ValueError, match="alphas"):
            session.associate_path(y, ())

    def test_missed_shifts_fall_back_one_by_one(self, cohort):
        """One iteration: the shift a hair off the reference is within
        tolerance before it starts, the far ones cannot be."""
        near = 1.0 - 1e-12
        grid = (0.25, near, 1.0, 4.0, 16.0)
        session, y = self._session(cohort, solver="cg", cg_max_iters=1)
        path = session.associate_path(y, grid)
        result = session.cg_result_
        assert not result.converged
        # blocks in ascending-alpha order: 0.25, near, 4.0, 16.0
        np.testing.assert_array_equal(
            result.column_converged,
            [False, False, True, True, False, False, False, False])
        assert session.cg_fallbacks_ == 3
        assert session.factorization_count_ == 1 + 3
        direct, _ = self._session(cohort, solver="direct")
        for alpha, weights in zip(grid, path):
            expect = direct.associate(y, alpha=alpha)
            if alpha in (0.25, 4.0, 16.0):      # refactorized: the direct bits
                np.testing.assert_array_equal(weights, expect)
            else:
                np.testing.assert_allclose(weights, expect, rtol=1e-6)
        # the fallbacks moved the factor, not the session's solution
        assert session.alpha_ == 1.0
        np.testing.assert_array_equal(session.weights_, path[2])

    def test_stacked_predict_is_the_per_alpha_predict(self, cohort):
        session, y = self._session(cohort, solver="cg")
        x = cohort[0]
        path = session.associate_path(y, (0.5, 1.0, 2.0))
        cross = session.cross_kernel(x[:17])
        stacked = session.predict_with_kernel(cross, weights=np.hstack(path))
        assert stacked.shape == (17, 6)
        np.testing.assert_array_equal(
            session.predict_with_kernel(cross, weights=session.weights_),
            session.predict_with_kernel(cross))
        # a wider GEMM may block differently: same numbers, not same bits
        for i, weights in enumerate(path):
            np.testing.assert_allclose(
                stacked[:, 2 * i:2 * i + 2],
                session.predict_with_kernel(cross, weights=weights),
                rtol=1e-12, atol=1e-12)
        with pytest.raises(ValueError, match="weights"):
            session.predict_with_kernel(cross, weights=path[0][:, :1])


class TestSweepReleasesItsSessions:
    """grid_search_cv closes each (fold, gamma) session's runtime and
    store itself — the sessions are held here, so nothing is left to the
    collector."""

    def _sweep(self, cohort, monkeypatch, **options):
        from repro.gwas import cv

        sessions = []

        class Recorded(KRRSession):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                sessions.append(self)

        monkeypatch.setattr(cv, "KRRSession", Recorded)
        grid_search_cv(*cohort, alphas=ALPHAS, gammas=GAMMAS[:1],
                       n_folds=FOLDS, seed=0,
                       base_config=KRRConfig(tile_size=32, solver="cg",
                                             **options))
        assert len(sessions) == FOLDS
        return sessions

    def test_no_worker_process_outlives_the_sweep(self, cohort, monkeypatch):
        import multiprocessing

        def workers():
            return {p.pid for p in multiprocessing.active_children()
                    if p.name.startswith("repro-worker")}

        before = workers()
        sessions = self._sweep(cohort, monkeypatch, execution="process",
                               workers=2)
        assert workers() <= before
        assert all(s.runtime.last_result is not None for s in sessions)

    def test_no_segment_file_outlives_the_sweep(self, cohort, monkeypatch,
                                                tmp_path):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        sessions = self._sweep(cohort, monkeypatch,
                               store_budget_bytes=16 * 1024)
        assert all(s.store_stats().spills > 0 for s in sessions)
        assert not list(tmp_path.rglob("seg-*.bin"))

    def test_a_failing_fold_still_closes_its_session(self, cohort,
                                                     monkeypatch, tmp_path):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))

        def boom(self, *args, **kwargs):
            raise RuntimeError("associate failed")

        monkeypatch.setattr(KRRSession, "associate_path", boom)
        with pytest.raises(RuntimeError, match="associate failed"):
            self._sweep(cohort, monkeypatch, store_budget_bytes=16 * 1024)
        assert not list(tmp_path.rglob("seg-*.bin"))


class TestOneSolveRule:
    """associate, associate_path and solve_additional_phenotypes solve
    by one rule: an alpha the held factor was made for is a panel solve
    against it, any other is a fresh factorization (direct) or a PCG
    column block against it (CG)."""

    def test_successive_associates_are_the_path(self, cohort):
        """Each later associate is warm-started from the held factor's
        own panel solve, whatever was solved in between."""
        x, y = cohort
        y = np.column_stack([y, y[::-1]])

        def session():
            s = KRRSession(KRRConfig(tile_size=32, solver="cg",
                                     execution="serial"))
            s.build(x)
            return s

        one_by_one = session()
        one_by_one.associate(y, alpha=0.5)
        for alpha in (2.0, 4.0):
            np.testing.assert_array_equal(
                one_by_one.associate(y, alpha=alpha),
                session().associate_path(y, [0.5, alpha])[1])
        assert one_by_one.factorization_count_ == 1

    def test_the_held_alpha_is_a_panel_solve_even_boosted(self):
        """K + I is indefinite, so the first associate boosts to 10 on
        both routes, bitwise alike; re-associating at alpha = 1 is then
        a panel solve against that boosted factor."""
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((48, 48)))
        eigs = np.linspace(1.0, 2.0, 48)
        eigs[0] = -5.0
        k = (q * eigs) @ q.T
        y = rng.standard_normal(48)
        first = {}
        for solver in ("direct", "cg"):
            s = KRRSession(KRRConfig(tile_size=16, alpha=1.0, solver=solver,
                                     precision_plan=PrecisionPlan.fp64()))
            s.adopt_kernel((k + k.T) / 2.0)
            first[solver] = w = s.associate(y)
            assert s.regularization_boosts_ == 1 and s.alpha_ == 10.0
            np.testing.assert_array_equal(s.associate(y), w)
            assert s.factorization_count_ == 1 and s.cg_result_ is None
        np.testing.assert_array_equal(first["cg"], first["direct"])

    def test_cg_columns_solve_the_stored_mosaic(self, cohort):
        """Under an adaptive plan the Build stores the kernel as the
        mosaic, so the PCG columns converge to the stored-mosaic system.
        The reference alpha is a solve against the mosaic *factor*, a
        different system, so it is left out."""
        x, y = cohort
        y = np.column_stack([y, y[::-1]])
        session = KRRSession(KRRConfig(
            tile_size=32, precision_plan=PrecisionPlan.adaptive_fp8(),
            solver="cg", execution="serial"))
        session.build(x)
        alphas = (0.5, 0.7, 1.0, 1.4, 2.0)
        path = session.associate_path(y, alphas)
        assert session.factorization_count_ == 1
        stored = session.kernel_.to_dense()
        y_c = y - y.mean(axis=0)
        for alpha, weights in zip(alphas, path):
            if alpha == session.alpha_:
                continue
            truth = np.linalg.solve(stored + alpha * np.eye(len(y)), y_c)
            err = np.linalg.norm(weights - truth) / np.linalg.norm(truth)
            assert err <= 1e-6

    @staticmethod
    def _session(cohort, solver):
        session = KRRSession(KRRConfig(tile_size=32, solver=solver,
                                       execution="serial"))
        session.build(cohort[0])
        return session

    def test_a_direct_reassociate_at_the_held_alpha_keeps_the_factor(
            self, cohort):
        session = self._session(cohort, "direct")
        y = cohort[1]
        weights = session.associate(y, alpha=0.5)
        np.testing.assert_array_equal(session.associate(y, alpha=0.5),
                                      weights)
        assert session.factorization_count_ == 1
        session.associate(y, alpha=2.0)     # any other alpha refactorizes
        assert session.factorization_count_ == 2

    def test_the_direct_path_factorizes_each_alpha_once(self, cohort):
        """Every distinct alpha once, the sorted-middle one last; each
        column is bitwise that alpha's own associate."""
        y = cohort[1]
        grid = (2.0, 0.5, 1.0, 0.5)
        session = self._session(cohort, "direct")
        path = session.associate_path(y, grid)
        assert session.factorization_count_ == 3
        assert session.cg_result_ is None
        one_by_one = self._session(cohort, "direct")
        for alpha, weights in zip(grid, path):
            np.testing.assert_array_equal(
                weights, one_by_one.associate(y, alpha=alpha))
        assert session.alpha_ == 1.0
        np.testing.assert_array_equal(session.weights_, path[2])

    @pytest.mark.parametrize("solver, held, options", [
        ("direct", None, {}),
        ("direct", 1.0, {}),                     # the held factor is kept
        ("cg", None, {"cg_max_iters": 1}),       # so is it past fallbacks
    ])
    def test_the_exported_factor_is_alpha_s(self, cohort, solver, held,
                                            options):
        """After associate_path the held factor is ``alpha_``'s, so the
        exported model solves extra phenotypes at ``alpha_``."""
        x, y = cohort
        extra = np.column_stack([y[::-1], y ** 2])
        session = KRRSession(KRRConfig(tile_size=32, solver=solver,
                                       execution="serial", **options))
        session.build(x)
        if held is not None:
            session.associate(y, alpha=held)
        session.associate_path(y, (4.0, 0.25, 1.0))
        assert session.alpha_ == 1.0
        if solver == "cg":
            assert session.cg_fallbacks_ == 2
        np.testing.assert_array_equal(
            _restored(session.export_model(), "solve_additional_phenotypes",
                      extra),
            self._session(cohort, "direct").associate(extra, alpha=1.0))

    @pytest.mark.parametrize("solver", ["direct", "cg"])
    def test_extra_phenotypes_are_the_path_column_of_alpha(self, cohort,
                                                           solver):
        """solve_additional_phenotypes at ``alpha_`` is the column
        associate_path gives that alpha, and never refactorizes: a panel
        solve against the held factor (direct), a PCG block warm-started
        from it (CG)."""
        y = cohort[1]
        extra = np.column_stack([y[::-1], y ** 2])
        fitted = self._session(cohort, solver)
        fitted.associate(y, alpha=0.5)
        fitted.associate(y, alpha=2.0)
        count = fitted.factorization_count_
        np.testing.assert_array_equal(
            fitted.solve_additional_phenotypes(extra),
            self._session(cohort, solver).associate_path(extra, [0.5, 2.0])[1])
        assert fitted.factorization_count_ == count
