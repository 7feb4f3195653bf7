"""Tests for the tile-native preconditioned CG solver.

The contract under test:

* CG with the session's low-precision tiled Cholesky factor as the
  preconditioner solves ``(K + alpha*I) x = b`` to the requested
  tolerance on ill-conditioned kernels, matching the direct tiled
  Cholesky solve and the FP64 dense solve.
* ``alpha`` may carry one shift per right-hand-side column: the panel
  iterates in lockstep, each column block agrees with its own
  single-shift solve, and a column that met the tolerance is frozen.
* The convergence history is deterministic — bitwise identical across
  serial / threaded / process execution and store residency budgets.
* Non-convergence in a session falls back to the direct factorization
  and matches the direct route exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gwas.config import KRRConfig, PrecisionPlan
from repro.gwas.session import KRRSession
from repro.linalg.cg import cg_solve, kernel_matvec
from repro.linalg.cholesky import cholesky
from repro.linalg.solve import solve_cholesky
from repro.precision.formats import Precision
from repro.runtime.runtime import Runtime
from repro.store import TileStore
from repro.tiles.matrix import TileMatrix

TILE = 16
N = 4 * TILE


def _ill_kernel(n=N, seed=0, decades=6):
    """An SPD 'kernel' with eigenvalues spanning ``decades`` decades."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.logspace(0, -decades, n)
    return (q * lam) @ q.T


def _tiled(dense):
    return TileMatrix.from_dense(dense, TILE, Precision.FP64, symmetric=True)


def _preconditioner(kernel_dense, alpha_ref, plan):
    """The session-style factor of ``K + alpha_ref*I`` in the plan's mosaic."""
    reg = _tiled(kernel_dense + alpha_ref * np.eye(kernel_dense.shape[0]))
    pmap = plan.precision_map(reg.layout, matrix=reg)
    return cholesky(reg, working_precision=plan.working_precision,
                    precision_map=pmap)


PLANS = {
    "fp64": PrecisionPlan.fp64(),
    "fp32": PrecisionPlan.fp32(),
    "adaptive-fp16": PrecisionPlan.adaptive_fp16(),
    "adaptive-fp8": PrecisionPlan.adaptive_fp8(),
}


@pytest.fixture(scope="module")
def process_rt():
    rt = Runtime(execution="process", workers=2)
    yield rt
    rt.close()


class TestKernelMatvec:
    def test_matches_dense(self, rng):
        k = _ill_kernel(seed=3, decades=2)
        kernel = _tiled(k)
        v = rng.standard_normal(N)
        out = kernel_matvec(kernel, v, alpha=0.7)
        np.testing.assert_allclose(out, (k + 0.7 * np.eye(N)) @ v,
                                   rtol=1e-12, atol=1e-12)

    def test_panel_rhs(self, rng):
        k = _ill_kernel(seed=4, decades=2)
        v = rng.standard_normal((N, 3))
        out = kernel_matvec(_tiled(k), v)
        np.testing.assert_allclose(out, k @ v, rtol=1e-12, atol=1e-12)

    def test_dag_bitwise_matches_inline(self, rng):
        k = _ill_kernel(seed=5, decades=3)
        kernel = _tiled(k)
        v = rng.standard_normal((N, 2))
        inline = kernel_matvec(kernel, v, alpha=0.3)
        rt = Runtime(execution="threaded", workers=3)
        tasked = kernel_matvec(kernel, v, alpha=0.3, runtime=rt)
        np.testing.assert_array_equal(tasked, inline)

    def test_rejects_non_square(self, rng):
        rect = TileMatrix.from_dense(rng.standard_normal((N, 2 * N)), TILE,
                                     Precision.FP64)
        with pytest.raises(ValueError, match="square"):
            kernel_matvec(rect, rng.standard_normal(2 * N))

    def test_rejects_mismatched_rows(self, rng):
        with pytest.raises(ValueError, match="rows"):
            kernel_matvec(_tiled(_ill_kernel(decades=1)),
                          rng.standard_normal(N + 1))


class TestCgValidation:
    def test_bad_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            cg_solve(_tiled(_ill_kernel(decades=1)), np.ones(N), alpha=-1.0)

    @pytest.mark.parametrize("bad", [
        [1.0, 2.0],                 # not one shift per column (3)
        [[1.0, 2.0, 3.0]],          # not a vector
        [1.0, -2.0, 3.0],
        [1.0, np.nan, 3.0],
        [1.0, np.inf, 3.0],
    ], ids=["length", "ndim", "negative", "nan", "inf"])
    def test_bad_shift_vector(self, bad):
        with pytest.raises(ValueError, match="alpha"):
            cg_solve(_tiled(_ill_kernel(decades=1)), np.ones((N, 3)),
                     alpha=np.array(bad))

    def test_bad_warm_start(self):
        kernel, b = _tiled(_ill_kernel(decades=1)), np.ones((N, 2))
        with pytest.raises(ValueError, match="x0"):
            cg_solve(kernel, b, alpha=1.0, x0=np.ones((N, 3)))
        with pytest.raises(ValueError, match="r0"):
            cg_solve(kernel, b, alpha=1.0, x0=b, r0=np.ones((N, 3)))
        with pytest.raises(ValueError, match="r0"):
            cg_solve(kernel, b, alpha=1.0, r0=b)

    def test_bad_tol(self):
        with pytest.raises(ValueError, match="tol"):
            cg_solve(_tiled(_ill_kernel(decades=1)), np.ones(N), alpha=1.0,
                     tol=0.0)

    def test_bad_max_iterations(self):
        with pytest.raises(ValueError, match="max_iterations"):
            cg_solve(_tiled(_ill_kernel(decades=1)), np.ones(N), alpha=1.0,
                     max_iterations=0)

    def test_bad_rhs_rows(self):
        with pytest.raises(ValueError, match="rows"):
            cg_solve(_tiled(_ill_kernel(decades=1)), np.ones(N - 1), alpha=1.0)


class TestSolverKnob:
    def test_session_snapshots_the_route_at_construction(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVER", "cg")
        from_env = KRRSession(KRRConfig(tile_size=TILE))
        explicit = KRRSession(KRRConfig(tile_size=TILE, solver="direct"))
        monkeypatch.setenv("REPRO_SOLVER", "direct")
        assert from_env.solver_ == "cg"         # not re-read per associate()
        assert explicit.solver_ == "direct"     # explicit beats env

    def test_config_knob_validated(self):
        with pytest.raises(ValueError, match="solver"):
            KRRConfig(solver="jacobi")
        with pytest.raises(ValueError, match="cg_tol"):
            KRRConfig(cg_tol=0.0)
        with pytest.raises(ValueError, match="cg_max_iters"):
            KRRConfig(cg_max_iters=0)


class TestCgAccuracy:
    """CG vs direct Cholesky vs the FP64 dense solve, ill-conditioned K."""

    @pytest.mark.parametrize("plan_name", list(PLANS), ids=list(PLANS))
    def test_matches_direct_and_dense(self, rng, plan_name):
        plan = PLANS[plan_name]
        k = _ill_kernel(seed=1)
        # FP8 tile storage perturbs K by ~6% of the tile scale: the
        # reference shift must dominate that noise to keep the
        # preconditioner factorizable (the session's boost loop plays
        # this role in production)
        if plan_name == "adaptive-fp8":
            alpha_ref, alpha = 0.25, 0.1
        else:
            alpha_ref, alpha = 1e-2, 3e-3
        b = rng.standard_normal(N)
        truth = np.linalg.solve(k + alpha * np.eye(N), b)

        fact = _preconditioner(k, alpha_ref, plan)
        res = cg_solve(_tiled(k), b, alpha=alpha, preconditioner=fact,
                       tol=1e-10, max_iterations=300,
                       precision=plan.working_precision)
        assert res.converged, f"{plan_name}: {res.residual_norms[-5:]}"
        # the matvec operator is exact FP64, so the converged CG answer
        # tracks the true solution regardless of preconditioner quality
        np.testing.assert_allclose(res.x, truth, rtol=1e-6, atol=1e-8)

        # and so does the direct tiled solve *of the same alpha*
        direct_fact = _preconditioner(k, alpha, PrecisionPlan.fp64())
        direct = solve_cholesky(direct_fact, b, precision=Precision.FP64)
        np.testing.assert_allclose(res.x, direct, rtol=1e-6, atol=1e-8)

    def test_preconditioner_pays(self, rng):
        """The factor-preconditioned solve beats unpreconditioned CG."""
        k = _ill_kernel(seed=2)
        b = rng.standard_normal(N)
        fact = _preconditioner(k, 1e-2, PrecisionPlan.fp32())
        pre = cg_solve(_tiled(k), b, alpha=3e-3, preconditioner=fact,
                       tol=1e-8, max_iterations=300)
        bare = cg_solve(_tiled(k), b, alpha=3e-3, preconditioner=None,
                        tol=1e-8, max_iterations=300)
        assert pre.converged
        assert pre.iterations < bare.iterations

    def test_multi_rhs_matches_column_solves(self, rng):
        k = _ill_kernel(seed=6, decades=4)
        b = rng.standard_normal((N, 3))
        fact = _preconditioner(k, 1e-2, PrecisionPlan.fp32())
        panel = cg_solve(_tiled(k), b, alpha=5e-3, preconditioner=fact,
                         tol=1e-10, max_iterations=300)
        assert panel.converged
        truth = np.linalg.solve(k + 5e-3 * np.eye(N), b)
        np.testing.assert_allclose(panel.x, truth, rtol=1e-6, atol=1e-8)

    def test_residual_history_shape(self, rng):
        k = _ill_kernel(seed=7, decades=2)
        b = rng.standard_normal(N)
        fact = _preconditioner(k, 1e-2, PrecisionPlan.fp32())
        res = cg_solve(_tiled(k), b, alpha=1e-2, preconditioner=fact,
                       tol=1e-8, max_iterations=50)
        assert res.residual_norms[0] == 1.0  # zero initial guess
        assert res.residual_norms[-1] <= 1e-8
        assert len(res.residual_norms) == res.iterations + 1


def _view(a):
    """Integer view of a float64 array: equality is bit equality."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


class TestShiftPanel:
    """One shift per column: the alpha axis as a panel dimension."""

    TOL = 1e-9

    def _solve(self, k, b, alpha, fact, max_iterations=300, **kwargs):
        return cg_solve(_tiled(k), b, alpha=alpha, preconditioner=fact,
                        tol=self.TOL, max_iterations=max_iterations,
                        precision=Precision.FP32, **kwargs)

    def test_blocks_match_single_shift_solves_and_dense(self, rng):
        k = _ill_kernel(seed=11, decades=4)
        y = rng.standard_normal((N, 2))
        shifts = (4e-3, 1e-2, 3e-2)
        fact = _preconditioner(k, 1e-2, PrecisionPlan.fp32())
        panel = self._solve(k, np.tile(y, (1, 3)), np.repeat(shifts, 2), fact)
        assert panel.converged and panel.column_converged.all()
        assert panel.iterations == panel.column_iterations.max()
        for i, a in enumerate(shifts):
            block = panel.x[:, 2 * i:2 * i + 2]
            single = self._solve(k, y, a, fact)
            scale = np.abs(single.x).max()
            np.testing.assert_allclose(block, single.x, rtol=0,
                                       atol=10 * self.TOL * scale)
            truth = np.linalg.solve(k + a * np.eye(N), y)
            np.testing.assert_allclose(block, truth, rtol=1e-6, atol=1e-8)

    def test_scalar_is_the_constant_vector(self, rng):
        k = _ill_kernel(seed=12, decades=4)
        b = rng.standard_normal((N, 3))
        fact = _preconditioner(k, 1e-2, PrecisionPlan.fp32())
        scalar = self._solve(k, b, 4e-3, fact)
        vector = self._solve(k, b, np.full(3, 4e-3), fact)
        np.testing.assert_array_equal(_view(vector.x), _view(scalar.x))
        assert vector.residual_norms == scalar.residual_norms
        np.testing.assert_array_equal(vector.column_iterations,
                                      scalar.column_iterations)
        v = rng.standard_normal((N, 3))
        np.testing.assert_array_equal(
            _view(kernel_matvec(_tiled(k), v, alpha=np.full(3, 0.3))),
            _view(kernel_matvec(_tiled(k), v, alpha=0.3)))

    def test_easy_columns_retire_first_and_freeze(self, rng):
        """A shift next to the reference converges in a step or two;
        from then on its columns are out of the panel, bit for bit."""
        k = _ill_kernel(seed=13, decades=4)
        y = rng.standard_normal((N, 2))
        alpha_ref = 1e-2
        fact = _preconditioner(k, alpha_ref, PrecisionPlan.fp64())
        b = np.tile(y, (1, 2))
        shifts = np.repeat([alpha_ref * 1.01, alpha_ref * 30], 2)
        full = self._solve(k, b, shifts, fact)
        assert full.converged
        easy, far = full.column_iterations[:2], full.column_iterations[2:]
        assert easy.max() < far.min()
        assert full.iterations == far.max()
        # stopped at the iteration the easy block converged, the panel
        # has run exactly the same full-width iterations
        stopped = self._solve(k, b, shifts, fact,
                              max_iterations=int(easy.max()))
        assert not stopped.converged
        np.testing.assert_array_equal(stopped.column_converged,
                                      [True, True, False, False])
        np.testing.assert_array_equal(stopped.column_iterations[:2], easy)
        np.testing.assert_array_equal(_view(full.x[:, :2]),
                                      _view(stopped.x[:, :2]))
        assert full.residual_norms[:len(stopped.residual_norms)] == \
            stopped.residual_norms

    def test_supplied_residual_skips_the_initial_matvec(self, rng):
        k = _ill_kernel(seed=14, decades=4)
        y = rng.standard_normal((N, 2))
        fact = _preconditioner(k, 1e-2, PrecisionPlan.fp32())
        x_ref = np.linalg.solve(k + 1e-2 * np.eye(N), y)
        shifts = (5e-3, 2e-2)
        b, x0 = np.tile(y, (1, 2)), np.tile(x_ref, (1, 2))
        r0 = np.hstack([y - k @ x_ref - a * x_ref for a in shifts])
        rt = Runtime(execution="serial", workers=1)
        warm = self._solve(k, b, np.repeat(shifts, 2), fact, x0=x0, r0=r0,
                           runtime=rt)
        assert warm.converged
        assert rt.runs_completed == warm.iterations   # no matvec for r0
        cold = self._solve(k, b, np.repeat(shifts, 2), fact)
        assert warm.iterations < cold.iterations
        for i, a in enumerate(shifts):
            np.testing.assert_allclose(
                warm.x[:, 2 * i:2 * i + 2],
                np.linalg.solve(k + a * np.eye(N), y), rtol=1e-6, atol=1e-8)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(5, 40), tile=st.sampled_from([7, 16, 64]),
           ncols=st.integers(1, 4), seed=st.integers(0, 2 ** 16),
           data=st.data())
    def test_random_kernels_and_shifts_converge(self, n, tile, ncols, seed,
                                                data):
        """n off the tile grid, single-tile kernels, one-column panels."""
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        k = a @ a.T / n
        shifts = np.array(data.draw(st.lists(
            st.floats(0.05, 20.0), min_size=ncols, max_size=ncols)))
        b = rng.standard_normal((n, ncols))
        alpha_ref = float(np.median(shifts))
        kernel = TileMatrix.from_dense(k, tile, Precision.FP64,
                                       symmetric=True)
        reg = TileMatrix.from_dense(k + alpha_ref * np.eye(n), tile,
                                    Precision.FP64, symmetric=True)
        fact = cholesky(reg, working_precision=Precision.FP64)
        res = cg_solve(kernel, b, alpha=shifts, preconditioner=fact,
                       tol=1e-10, max_iterations=400,
                       precision=Precision.FP64)
        assert res.converged, res.residual_norms[-3:]
        for j in range(ncols):
            truth = np.linalg.solve(k + shifts[j] * np.eye(n), b[:, j])
            np.testing.assert_allclose(res.x[:, j], truth, rtol=1e-6,
                                       atol=1e-8)
            residual = b[:, j] - (k @ res.x[:, j] + shifts[j] * res.x[:, j])
            assert np.linalg.norm(residual) <= \
                1e-8 * np.linalg.norm(b[:, j])


class TestCgDeterminism:
    """Bitwise identical solves across execution modes and store budgets."""

    def _reference(self, k, b, fact, plan):
        return cg_solve(_tiled(k), b, alpha=4e-3, preconditioner=fact,
                        tol=1e-9, max_iterations=300,
                        precision=plan.working_precision)

    @pytest.mark.parametrize("plan_name", ["fp32", "adaptive-fp16"],
                             ids=["fp32", "adaptive-fp16"])
    @pytest.mark.parametrize("mode", ["serial", "threaded", "process"])
    @pytest.mark.parametrize("budget", ["none", "tight"],
                             ids=["resident", "oocore"])
    def test_history_bitwise_stable(self, rng, plan_name, mode, budget,
                                    process_rt, request):
        plan = PLANS[plan_name]
        k = _ill_kernel(seed=8, decades=4)
        b = np.random.default_rng(9).standard_normal((N, 2))
        fact = _preconditioner(k, 1e-2, plan)
        ref = self._reference(k, b, fact, plan)
        assert ref.converged

        kernel = _tiled(k)
        if mode == "process":
            rt = process_rt
        else:
            rt = Runtime(execution=mode, workers=1 if mode == "serial" else 3)
        store = None
        if budget == "tight":
            # room for well under one tile row: the matvec must fault
            # kernel tiles in and out under pinning, and still match
            store = TileStore(budget_bytes=6 * TILE * TILE * 8)
            kernel.attach_store(store)
        try:
            res = cg_solve(kernel, b, alpha=4e-3, preconditioner=fact,
                           tol=1e-9, max_iterations=300,
                           precision=plan.working_precision, runtime=rt)
            if store is not None:
                assert store.stats.spills > 0, "tight budget must spill"
        finally:
            if store is not None:
                kernel.detach_store()
                store.close()
        np.testing.assert_array_equal(res.x, ref.x)
        assert res.iterations == ref.iterations
        assert res.residual_norms == ref.residual_norms


    @pytest.mark.parametrize("lane", ["serial", "threaded", "process",
                                      "oocore"])
    def test_shift_vector_history_bitwise_stable(self, lane, process_rt):
        """The shift panel (columns retiring at different iterations)
        against the runtime-less inline loop, as integer views."""
        plan = PLANS["fp32"]
        k = _ill_kernel(seed=8, decades=4)
        b = np.tile(np.random.default_rng(9).standard_normal((N, 2)), (1, 3))
        shifts = np.repeat([1.1e-2, 4e-3, 6e-2], 2)
        fact = _preconditioner(k, 1e-2, plan)

        def solve(kernel, runtime):
            return cg_solve(kernel, b, alpha=shifts, preconditioner=fact,
                            tol=1e-9, max_iterations=300,
                            precision=plan.working_precision,
                            runtime=runtime)

        ref = solve(_tiled(k), None)
        assert ref.converged
        assert len(set(ref.column_iterations.tolist())) > 1

        kernel = _tiled(k)
        store = None
        if lane == "process":
            rt = process_rt
        elif lane == "oocore":
            rt = Runtime(execution="threaded", workers=2)
            store = TileStore(budget_bytes=6 * TILE * TILE * 8)
            kernel.attach_store(store)
        else:
            rt = Runtime(execution=lane, workers=1 if lane == "serial" else 2)
        try:
            res = solve(kernel, rt)
            if store is not None:
                assert store.stats.spills > 0, "tight budget must spill"
        finally:
            if store is not None:
                kernel.detach_store()
                store.close()
        np.testing.assert_array_equal(_view(res.x), _view(ref.x))
        assert res.residual_norms == ref.residual_norms
        np.testing.assert_array_equal(res.column_iterations,
                                      ref.column_iterations)


class TestSessionFallback:
    """Non-converging CG sessions fall back to the direct factorization."""

    def _cohort(self, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 3, size=(96, 40)).astype(np.float64)
        y = rng.standard_normal(96)
        return x, y

    def test_fallback_triggers_and_matches_direct(self):
        x, y = self._cohort()
        # one iteration at a sub-fp64 tolerance cannot converge
        cg_cfg = KRRConfig(tile_size=32, solver="cg", cg_tol=1e-15,
                           cg_max_iters=1)
        s_cg = KRRSession(cg_cfg)
        s_cg.build(x)
        s_cg.associate(y, alpha=1.0)
        assert s_cg.factorization_count_ == 1 and s_cg.cg_fallbacks_ == 0
        w = s_cg.associate(y, alpha=8.0)
        assert s_cg.cg_fallbacks_ == 1
        assert s_cg.factorization_count_ == 2
        assert s_cg.cg_result_ is not None and not s_cg.cg_result_.converged

        s_direct = KRRSession(KRRConfig(tile_size=32, solver="direct"))
        s_direct.build(x)
        w_direct = s_direct.associate(y, alpha=8.0)
        np.testing.assert_array_equal(w, w_direct)

    def test_converged_cg_skips_factorization(self):
        x, y = self._cohort(seed=1)
        s = KRRSession(KRRConfig(tile_size=32, solver="cg"))
        s.build(x)
        s.associate(y, alpha=1.0)
        s.associate(y, alpha=2.0)
        assert s.factorization_count_ == 1
        assert s.cg_fallbacks_ == 0
        assert s.cg_result_ is not None and s.cg_result_.converged
