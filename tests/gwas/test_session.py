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
from repro.gwas.session import KRRSession
from repro.linalg.blas3 import gemm
from repro.linalg.cholesky import cholesky
from repro.linalg.solve import solve_cholesky, solve_triangular
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
        gamma=gamma, tile_size=cfg.tile_size,
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
        gamma=gamma, tile_size=cfg.tile_size,
        storage_precision=plan.working_precision)
    cross = pbuilder.build_cross(g_test, g_train, None, None)
    k_test = cross.to_dense()
    preds = gemm(k_test, w, precision=plan.working_precision)
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
        batch = min(n_test, session.config.predict_batch_rows)
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

        def predict(batch_rows):
            session = KRRSession(KRRConfig(tile_size=64,
                                           predict_batch_rows=batch_rows))
            session.fit(g_train, y)
            predictions = session.predict(g_test)
            return predictions, session.runtime.ledger["predict"].tasks

        monolithic, tasks = predict(None)
        assert tasks == {"predict_group": 1}
        batched, tasks = predict(64)
        assert tasks == {"predict_group": 4}    # 64 + 64 + 64 + 8 rows
        np.testing.assert_array_equal(batched, monolithic)
        # a sub-tile batch is clamped up to one tile
        clamped, tasks = predict(1)
        assert tasks == {"predict_group": 4}
        np.testing.assert_array_equal(clamped, monolithic)

    @pytest.mark.parametrize("batch_rows, batches", [
        (100, 4), (128, 2), (190, 2), (1, 4), (None, 1)])
    def test_the_batch_is_rounded_down_to_whole_tiles(self, batch_rows,
                                                      batches):
        """``predict_batch_rows`` rounds down to a tile multiple, at
        least one tile: a 200-row cohort streams in ``batches`` row groups,
        one task each."""
        rng = np.random.default_rng(3)
        g = rng.integers(0, 3, size=(128, 32)).astype(np.int8)
        session = KRRSession(KRRConfig(tile_size=64,
                                       predict_batch_rows=batch_rows))
        session.fit(g, rng.standard_normal(128))
        session.predict(rng.integers(0, 3, size=(200, 32)).astype(np.int8))
        assert session.runtime.ledger["predict"].tasks == {
            "predict_group": batches}


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

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_non_finite_alpha_is_rejected(self, alpha):
        """A NaN alpha is not a non-positive one: it must not be solved
        at ``1e-6``."""
        session = KRRSession(KRRConfig(
            tile_size=16, alpha=1.0, precision_plan=PrecisionPlan.fp64()))
        session.adopt_kernel(_indefinite_kernel(48, min_eig=0.5))
        with pytest.raises(ValueError, match="alpha must be finite"):
            session.associate(np.ones(48), alpha=alpha)
        assert session.alpha_ is None

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


_ADOPTED = _indefinite_kernel(128, min_eig=0.5)

#: call sequence -> (what it runs, ``phase_flops`` it must leave).  The
#: values are the parent's on ``cohort_512`` at tile 64 on the direct
#: route, recorded before the sessions' hand-kept tallies were deleted;
#: ``"solve"`` (which the parent never tallied) is the closed form of
#: two n x n triangular sweeps over the two extra phenotypes.
_FIT = {"build": 37748736.0, "associate": 46443264.0}
LEDGER_SEQUENCES = {
    "fit·predict": (
        lambda s, g, y, gt: (s.fit(g, y), s.predict(gt)),
        {**_FIT, "predict": 26828800.0}),
    "fit·predict·associate": (
        lambda s, g, y, gt: (s.fit(g, y), s.predict(gt),
                             s.associate(y, alpha=1.0)),
        _FIT),
    "build·adopt_kernel·associate": (
        lambda s, g, y, gt: (s.build(g), s.adopt_kernel(_ADOPTED),
                             s.associate(np.ones(128))),
        {"associate": 740032.0}),
    "fit·adopt_kernel": (
        lambda s, g, y, gt: (s.fit(g, y), s.adopt_kernel(_ADOPTED)),
        {"associate": 46443264.0}),
    "fit·predict_many(serve)": (
        lambda s, g, y, gt: (s.fit(g, y), s.predict_many(
            [gt[:70], gt[70:]], phase="serve")),
        {**_FIT, "serve": 26828800.0}),
    "fit·solve_additional_phenotypes": (
        lambda s, g, y, gt: (s.fit(g, y),
                             s.solve_additional_phenotypes(y[:, :2])),
        {**_FIT, "solve": 2 * float(512 * 512 * 2)}),
    "fit·cross_kernel·predict_with_kernel": (
        lambda s, g, y, gt: (s.fit(g, y),
                             s.predict_with_kernel(s.cross_kernel(gt))),
        {**_FIT, "predict": 26828800.0}),
}


class TestLedgerAccounting:
    """``phase_flops`` / ``flops_by_precision`` are reads of the
    runtime's ledger — the one invariant that replaced the tests that
    kept two hand-synchronised views in agreement."""

    @pytest.mark.parametrize("name", list(LEDGER_SEQUENCES))
    def test_accounting_is_a_read_of_the_ledger(self, cohort_512, name):
        run, golden = LEDGER_SEQUENCES[name]
        session = KRRSession(KRRConfig(tile_size=64, solver="direct"))
        run(session, *cohort_512)

        phase_flops = session.phase_flops
        by_precision = session.flops_by_precision
        assert set(phase_flops) == set(golden) == set(session.runtime.ledger)
        for phase, expected in golden.items():
            assert phase_flops[phase] == pytest.approx(expected, rel=1e-12)
        assert all(fl > 0.0 for fl in phase_flops.values())
        assert all(fl > 0.0 for fl in by_precision.values())
        assert sum(phase_flops.values()) == pytest.approx(
            sum(by_precision.values()), rel=1e-12)
        # the INT8 Gram runs only in the Build and in cross kernels
        if not {"build", "predict", "serve"} & set(golden):
            assert Precision.INT8 not in by_precision
        else:
            assert by_precision[Precision.INT8] > 0.0
        # nothing to keep in sync: the views are computed per read and
        # the session holds no flop state of its own
        assert session.phase_flops is not phase_flops
        assert not [k for k in vars(session) if "flops" in k]
        for view in ("phase_flops", "flops_by_precision"):
            assert isinstance(getattr(KRRSession, view), property)


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
                                base_config=base.with_options(solver="direct"),
                                seed=3)

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


def _through_tiles(panel: np.ndarray, precision: Precision) -> np.ndarray:
    """The hand-over the solve used to make between every step — tile the
    panel, read it back tile row by tile row — frozen here."""
    tiled = TileMatrix.from_dense(panel, 64, precision)
    return np.vstack([
        np.hstack([tiled.get_tile(i, j).to_float64()
                   for j in range(tiled.layout.tile_cols)])
        for i in range(tiled.layout.tile_rows)])


class TestDensePanelSolve:
    @pytest.mark.parametrize("plan", [PrecisionPlan.fp32(),
                                      PrecisionPlan.adaptive_fp8()],
                             ids=lambda p: p.label())
    @pytest.mark.parametrize("n_phenotypes", [1, 3, 70])
    def test_associate_weights_equal_the_tiled_panel_route(
            self, cohort_512, plan, n_phenotypes):
        """``associate`` hands the solve the dense centred panel.  The
        route it replaced wrapped the panel in a ``TileMatrix`` (70
        phenotypes make that two column tiles), un-tiled it per sweep and
        re-tiled each answer; the weights are the same bits."""
        g_train, y, _ = cohort_512
        y = np.tile(y, (1, 24))[:, :n_phenotypes]
        session = KRRSession(KRRConfig(tile_size=64, precision_plan=plan,
                                       solver="direct"))
        session.fit(g_train, y)
        wp = plan.working_precision
        factor = session.factorization_.factor
        panel = _through_tiles(y - y.mean(axis=0)[None, :], Precision.FP64)
        for trans in (False, True):
            panel = _through_tiles(
                solve_triangular(factor, panel, trans=trans, precision=wp),
                wp)
        assert session.weights_.flags.c_contiguous
        np.testing.assert_array_equal(session.weights_, panel)
        np.testing.assert_array_equal(
            session.solve_additional_phenotypes(y), session.weights_)


class TestRuntimeLedgerAccounting:
    """The session-owned runtime's ledger is the accounting source."""

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

    def test_associate_includes_factorization_and_solve_tasks(self, cohort_512):
        g_train, y, _ = cohort_512
        session = KRRSession(KRRConfig(tile_size=64))
        session.build(g_train)
        session.associate(y)
        names = set(session.runtime.ledger["associate"].tasks)
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
        # only the successful factorization's tasks are in the ledger:
        # nt=2 gives 2 potrf + 1 trsm + 1 syrk (+ 2x2 solve rows)
        assert session.runtime.ledger["associate"].tasks["potrf"] == 2

    @pytest.mark.parametrize("bad_tile", ["first", "second"])
    def test_a_failed_boost_attempt_is_not_counted(self, bad_tile):
        """Whichever diagonal tile carries the negative eigenvalue: the
        attempt that hit it leaves nothing in the ledger, even when
        tasks of its DAG had already completed (the second-tile case,
        where the parent reported 3 potrf / 2 trsm / 2 syrk, 175 632)."""
        bad = _indefinite_kernel(32, min_eig=-5.0)
        good = 10.0 * np.eye(32)
        k = np.zeros((64, 64))
        first, second = (bad, good) if bad_tile == "first" else (good, bad)
        k[:32, :32], k[32:, 32:] = first, second
        session = KRRSession(KRRConfig(
            tile_size=32, alpha=1.0, solver="direct",
            precision_plan=PrecisionPlan.fp64()))
        session.adopt_kernel(k)
        session.associate(np.ones(64))
        assert session.regularization_boosts_ == 1
        totals = session.runtime.ledger["associate"]
        assert totals.tasks == {"potrf": 2, "trsm": 1, "syrk": 1,
                                "solve_trsm": 4, "solve_gemm": 2}
        # one 2 x 2-tile factorization plus two 64 x 64 sweeps of one column
        assert totals.flops == pytest.approx(
            session.factorization_.flops + 8192, rel=1e-12)
        assert session.phase_flops["associate"] == pytest.approx(97632.0)

    @pytest.mark.parametrize("solver", ["direct", "cg"])
    def test_reused_factors_are_counted_under_solve(self, cohort_512, solver):
        """``solve_additional_phenotypes`` lands in the ``"solve"``
        entry: two triangular sweeps on the direct route; when
        ``alpha_`` was reached by CG, the same sweeps (the warm start
        against the held factor) plus the CG matvecs."""
        g_train, y, _ = cohort_512
        n, tile_rows, extra = g_train.shape[0], 8, y[:, :2]
        session = KRRSession(KRRConfig(tile_size=64, solver=solver))
        session.fit(g_train, y)
        if solver == "cg":
            session.associate(y, alpha=2.0 * session.alpha_)
            assert session.cg_result_ is not None
        before = session.phase_flops
        session.solve_additional_phenotypes(extra)
        totals = session.runtime.ledger["solve"]
        if solver == "direct":
            # forward + backward sweep: nt diagonal solves and
            # nt(nt-1)/2 off-diagonal updates each
            assert totals.tasks == {"solve_trsm": 2 * tile_rows,
                                    "solve_gemm": tile_rows * (tile_rows - 1)}
            assert totals.flops == 2.0 * n * n * extra.shape[1]
        else:
            tasks = dict(totals.tasks)
            matvecs, rest = divmod(tasks.pop("cg_matvec"), tile_rows)
            assert matvecs >= 1 and rest == 0
            # the warm start is the direct route's two sweeps
            assert tasks == {"solve_trsm": 2 * tile_rows,
                             "solve_gemm": tile_rows * (tile_rows - 1)}
            assert totals.flops == pytest.approx(
                2.0 * n * n * extra.shape[1] + matvecs * (
                    2.0 * n * n * extra.shape[1] + n * extra.shape[1]),
                rel=1e-12)
        after = session.phase_flops
        assert after.pop("solve") == totals.flops
        assert after == before

    def test_serial_and_threaded_sessions_bitwise_identical(self, cohort_512):
        g_train, y, g_test = cohort_512
        serial = KRRSession(KRRConfig(tile_size=64, execution="serial"))
        threaded = KRRSession(KRRConfig(tile_size=64, execution="threaded",
                                        workers=8))
        p_serial = serial.fit_predict(g_train, y, g_test)
        p_threaded = threaded.fit_predict(g_train, y, g_test)
        np.testing.assert_array_equal(p_threaded, p_serial)
        assert serial.phase_flops == threaded.phase_flops
        assert serial.flops_by_precision == threaded.flops_by_precision


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


class TestGenotypesTheInt8GramWouldChange:
    """A dosage off the integers or a code outside [-128, 127] is a
    ``ValueError`` at every entry to the INT8 Gram, never rounded or
    clipped in silence."""

    @staticmethod
    def _bad(value, rows=8, ns=12):
        g = np.ones((rows, ns), dtype=type(value))  # float64 / int64
        g[rows // 2, ns // 2] = value
        return g

    @pytest.mark.parametrize("value", [0.5, 300, -129, float("nan")])
    def test_build_predict_and_predict_many_raise(self, value):
        rng = np.random.default_rng(17)
        g = rng.integers(0, 3, size=(32, 12)).astype(np.int8)
        y = rng.standard_normal((32, 1))
        session = KRRSession(KRRConfig(tile_size=16))
        try:
            with pytest.raises(ValueError, match=r"\[-128, 127\]"):
                session.build(self._bad(value, rows=32))
            session.fit(g, y)
            with pytest.raises(ValueError, match=r"\[-128, 127\]"):
                session.predict(self._bad(value))
            with pytest.raises(ValueError, match=r"\[-128, 127\]"):
                session.predict_many([g[:4], self._bad(value)])
            # the same values as integers of another dtype are accepted
            assert np.array_equal(session.predict(g.astype(np.float64)),
                                  session.predict(g))
        finally:
            session.close()


class TestPredictMany:
    """The micro-batch primitive underneath repro.serve."""

    @pytest.mark.parametrize("options, n_conf", [
        ({}, 0),
        ({}, 3),
        ({"execution": "threaded", "workers": 2}, 3),  # groups cut to 2 lanes
        ({"store_budget_bytes": 1 << 18}, 3),          # spilled weights
        ({"precision_plan": PrecisionPlan.adaptive_fp8()}, 0),
    ])
    def test_bitwise_equal_to_solo_predicts(self, cohort_512, options,
                                            n_conf):
        g_train, y, _ = cohort_512
        rng = np.random.default_rng(13)
        c_train = rng.normal(size=(g_train.shape[0], n_conf)) if n_conf else None
        session = KRRSession(KRRConfig(tile_size=64, **options))
        session.fit(g_train, y, c_train)
        # empty, sub-tile, non-aligned, one-tile and multi-tile cohorts
        sizes = (0, 1, 33, 64, 128, 130)
        cohorts = [rng.integers(0, 3, size=(m, g_train.shape[1])).astype(np.int8)
                   for m in sizes]
        confs = ([rng.normal(size=(m, n_conf)) for m in sizes] if n_conf
                 else [None] * len(sizes))
        refs = [session.predict(g, c) for g, c in zip(cohorts, confs)]
        for batch_rows in (None, 64, 128):
            batched = KRRSession(KRRConfig(tile_size=64,
                                           predict_batch_rows=batch_rows,
                                           **options))
            batched.fit(g_train, y, c_train)
            outs = batched.predict_many(cohorts, confs)
            for out, ref, g, c in zip(outs, refs, cohorts, confs):
                assert out.shape == (g.shape[0], y.shape[1])
                assert np.array_equal(out, ref)
                assert np.array_equal(out, batched.predict(g, c))

    @pytest.mark.parametrize("cohort_rows", [
        [64] * 8,                          # tile-aligned
        [1, 33, 64, 0, 130, 7, 63, 214],   # ragged, one empty
    ])
    def test_eight_tile_cohorts_issue_one_snp_gram(self, cohort_512,
                                                   monkeypatch, cohort_rows):
        from repro.distance import build

        g_train, y, _ = cohort_512
        # serial: the Gram runs inside the Predict task, which a process
        # lane would run where this spy cannot see it
        session = KRRSession(KRRConfig(tile_size=64, execution="serial"))
        session.fit(g_train, y)
        rng = np.random.default_rng(15)
        cohorts = [rng.integers(0, 3, size=(m, g_train.shape[1])).astype(np.int8)
                   for m in cohort_rows]
        refs = [session.predict(c) for c in cohorts]
        rows = []
        real = build.gemm_mixed

        def counting(a, b, **kw):
            rows.append(a.shape[0])
            return real(a, b, **kw)

        monkeypatch.setattr(build, "gemm_mixed", counting)
        outs = session.predict_many(cohorts)
        assert rows == [sum(cohort_rows)]  # one exact Gram for the micro-batch
        assert all(np.array_equal(o, r) for o, r in zip(outs, refs))

    def test_one_gemm_per_row_group_and_one_per_cohort(self, cohort_512,
                                                       monkeypatch):
        """C cohorts in G row groups cost G exact SNP Grams plus C
        ``K·W`` products — each ``K·W`` one ``gemm_mixed`` call over the
        whole training axis, not one per k-block of it."""
        from repro.distance import build
        from repro.linalg import blas3

        g_train, y, _ = cohort_512
        session = KRRSession(KRRConfig(tile_size=64, predict_batch_rows=128,
                                       execution="serial"))
        session.fit(g_train, y)
        rng = np.random.default_rng(16)
        cohorts = [rng.integers(0, 3, size=(64, g_train.shape[1])).astype(np.int8)
                   for _ in range(5)]
        refs = [session.predict(c) for c in cohorts]
        calls = []
        for module in (build, blas3):
            def counting(a, b, real=module.gemm_mixed, site=module, **kw):
                calls.append(site)
                return real(a, b, **kw)
            monkeypatch.setattr(module, "gemm_mixed", counting)
        outs = session.predict_many(cohorts)
        # five 64-row cohorts in groups of at most 128 rows: G = 3, C = 5
        assert calls.count(build) == 3 and calls.count(blas3) == 5
        assert len(calls) == 3 + 5
        assert all(np.array_equal(o, r) for o, r in zip(outs, refs))

    def test_train_operands_prepared_once_per_build(self, cohort_512,
                                                    monkeypatch):
        import weakref

        g_train, y, g_test = cohort_512
        made = []
        real = KernelBuilder.train_operands

        def spy(self, *args):
            operands = real(self, *args)
            made.append(weakref.ref(operands))
            return operands

        monkeypatch.setattr(KernelBuilder, "train_operands", spy)
        session = KRRSession(KRRConfig(tile_size=64))
        session.fit(g_train, y)
        first = session.predict(g_test[:70])
        session.predict_many([g_test[:40], g_test[40:]])
        assert np.array_equal(session.predict(g_test[:70]), first)
        assert len(made) == 1
        session.fit(g_train[:256], y[:256])
        assert made[0]() is None          # a rebuild drops the old panel's
        session.predict(g_test[:70])
        assert len(made) == 2 and made[1]() is not None
        session.close()
        assert made[1]() is None

    def test_a_1d_cohort_is_a_value_error(self, cohort_512):
        g_train, y, g_test = cohort_512
        session = KRRSession(KRRConfig(tile_size=64))
        session.fit(g_train, y)
        for entry in (session.predict, session.cross_kernel,
                      lambda g: session.predict_many([g])):
            with pytest.raises(ValueError, match="2-D"):
                entry(g_test[0])
        session.close()

    def test_an_empty_cohort_predicts_nothing(self, cohort_512):
        g_train, y, _ = cohort_512
        session = KRRSession(KRRConfig(tile_size=64, predict_batch_rows=None))
        session.fit(g_train, y)
        empty = g_train[:0]
        assert session.predict(empty).shape == (0, y.shape[1])
        cohorts = [g_train[:40], empty, g_train[40:100]]
        outs = session.predict_many(cohorts)
        assert outs[1].shape == (0, y.shape[1])
        assert np.array_equal(outs[0], session.predict(cohorts[0]))
        assert np.array_equal(outs[2], session.predict(cohorts[2]))

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

    def test_empty_and_mismatched_lists(self, cohort_512):
        g_train, y, _ = cohort_512
        session = KRRSession(KRRConfig(tile_size=64))
        session.fit(g_train, y)
        assert session.predict_many([]) == []
        cohort = g_train[:10]
        with pytest.raises(ValueError, match="one entry per cohort"):
            session.predict_many([cohort], confounder_list=[None, None])
