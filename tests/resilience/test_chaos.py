"""End-to-end chaos contract of ISSUE 6.

Every transient-fault run is **bitwise identical** to the fault-free
run — across precision plans, worker counts and store budgets — and
permanent faults surface as typed aggregates with task context rather
than hangs or silent corruption.  Fault coverage is asserted through
the plan's counters (``fired_for``), never through timing.
"""

import numpy as np
import pytest

from repro.gwas.config import KRRConfig, PrecisionPlan
from repro.gwas.session import KRRSession
from repro.resilience import FaultPlan, FaultSite, TaskGroupError
from repro.resilience.faults import (
    SITE_SEGMENT_READ,
    SITE_TASK_BODY,
    clear_plan,
    fault_plan,
)

N_TRAIN, N_TEST, NS, TILE = 128, 48, 32, 32
#: Four fp64 tiles: forces spill/reload traffic during fit and predict.
BUDGET = 4 * TILE * TILE * 8

PLANS = {
    "fp64": PrecisionPlan.fp64,
    "fp32": PrecisionPlan.fp32,
    "adaptive-fp16": PrecisionPlan.adaptive_fp16,
    "adaptive-fp8": PrecisionPlan.adaptive_fp8,
}


@pytest.fixture(autouse=True)
def _clean_plan_state(monkeypatch):
    """Isolate from any suite-wide chaos env (the tier1-chaos CI job)."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_TASK_RETRIES", raising=False)
    clear_plan()
    yield
    clear_plan()


@pytest.fixture(scope="module")
def cohort():
    rng = np.random.default_rng(61)
    g_train = rng.integers(0, 3, size=(N_TRAIN, NS)).astype(np.int8)
    y = rng.standard_normal((N_TRAIN, 2))
    g_test = rng.integers(0, 3, size=(N_TEST, NS)).astype(np.int8)
    return g_train, y, g_test


def fit_predict(cohort, plan_name, workers=1, budget=None,
                task_retries=None):
    g_train, y, g_test = cohort
    config = KRRConfig(tile_size=TILE,
                       precision_plan=PLANS[plan_name](),
                       workers=workers, store_budget_bytes=budget,
                       task_retries=task_retries)
    session = KRRSession(config)
    session.fit(g_train, y)
    predictions = session.predict(g_test)
    store = getattr(session, "store", None)
    stats = store.stats.snapshot() if store is not None else None
    return predictions, stats


@pytest.fixture(scope="module")
def baselines(cohort):
    """Fault-free reference predictions, one per precision plan."""
    return {name: fit_predict(cohort, name)[0] for name in PLANS}


def chaos_plan() -> FaultPlan:
    """Transient faults at the runtime and store layers.

    Deterministic counter schedules; the store's single-retry read
    absorbs every ``segment-read`` fault (``every=4`` cannot fire on
    two consecutive occurrences), and ``task_retries`` absorbs the
    ``task-body`` ones.
    """
    return FaultPlan([
        FaultSite(site=SITE_TASK_BODY, kind="raise", every=7),
        FaultSite(site=SITE_SEGMENT_READ, kind="oserror", every=4),
    ], seed=42)


class TestBitwiseUnderTransientFaults:
    @pytest.mark.parametrize("plan_name", list(PLANS))
    @pytest.mark.parametrize("workers", [1, 8])
    @pytest.mark.parametrize("budget", [None, BUDGET],
                             ids=["resident", "budgeted"])
    def test_chaos_run_bitwise_identical(self, cohort, baselines,
                                         plan_name, workers, budget):
        plan = chaos_plan()
        with fault_plan(plan):
            predictions, stats = fit_predict(
                cohort, plan_name, workers=workers, budget=budget,
                task_retries=3)
        assert plan.fired_for(SITE_TASK_BODY) >= 1, \
            "the chaos run must actually have injected runtime faults"
        if budget is not None:
            assert plan.fired_for(SITE_SEGMENT_READ) >= 1, \
                "a budgeted run must exercise faulted segment reads"
            # every one absorbed by the store's retry, none surfaced
            assert stats.io_retries >= plan.fired_for(SITE_SEGMENT_READ)
        np.testing.assert_array_equal(predictions, baselines[plan_name])


class TestPerPhaseCoverage:
    def test_each_pipeline_phase_survives_a_fault(self, cohort, baselines):
        """>=1 transient fault in Build, Factor, Solve, Predict and the
        store-reload path — one run, still bitwise identical."""
        g_train, y, g_test = cohort
        config = KRRConfig(tile_size=TILE,
                           precision_plan=PrecisionPlan.adaptive_fp16(),
                           workers=4, store_budget_bytes=BUDGET,
                           task_retries=2)
        session = KRRSession(config)
        fit_sites = [
            FaultSite(site=SITE_TASK_BODY, match="build_row", times=1),
            FaultSite(site=SITE_TASK_BODY, match="potrf", times=1),
            FaultSite(site=SITE_TASK_BODY, match="solve_", times=1),
            FaultSite(site=SITE_SEGMENT_READ, kind="oserror", every=5),
        ]
        fit_plan = FaultPlan(fit_sites, seed=7)
        with fault_plan(fit_plan):
            session.fit(g_train, y)
        for spec, fired in zip(fit_plan.sites, fit_plan._fired):
            assert fired >= 1, f"no fault injected for {spec}"

        predict_plan = FaultPlan(
            [FaultSite(site=SITE_TASK_BODY, match="predict_group", times=1)])
        with fault_plan(predict_plan):
            predictions = session.predict(g_test)
        assert predict_plan.fired == 1
        np.testing.assert_array_equal(predictions, baselines["adaptive-fp16"])


class TestPermanentFaults:
    def test_typed_aggregate_with_task_context(self, cohort):
        g_train, y, _ = cohort
        session = KRRSession(KRRConfig(tile_size=TILE, workers=2,
                                       task_retries=3))
        plan = FaultPlan([FaultSite(site=SITE_TASK_BODY, match="potrf",
                                    transient=False, times=1)])
        with fault_plan(plan):
            with pytest.raises(TaskGroupError) as err:
                session.fit(g_train, y)
        assert any(f.task.name == "potrf" for f in err.value.failures)
        assert "potrf" in str(err.value)
        assert not err.value.transient

    def test_session_reusable_after_permanent_failure(self, cohort,
                                                      baselines):
        """A failed fit leaves the session runtime clean for a redo."""
        g_train, y, g_test = cohort
        session = KRRSession(KRRConfig(tile_size=TILE,
                                       precision_plan=PrecisionPlan.fp64(),
                                       workers=2))
        plan = FaultPlan([FaultSite(site=SITE_TASK_BODY, match="syrk",
                                    transient=False, times=1)])
        with fault_plan(plan):
            with pytest.raises(TaskGroupError):
                session.fit(g_train, y)
        session.fit(g_train, y)  # plan exhausted: the redo is fault-free
        predictions = session.predict(g_test)
        np.testing.assert_array_equal(predictions, baselines["fp64"])
