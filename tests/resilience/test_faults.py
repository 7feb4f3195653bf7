"""Unit tests of the deterministic fault-injection framework.

The whole chaos methodology rests on two properties pinned here: fault
schedules are *deterministic* (same plan + same workload = same
faults), and plans are *scoped* (installed plans shadow the
``REPRO_FAULTS`` environment, and leave no residue).
"""

import pytest

from repro.resilience import (
    DeadlineExceededError,
    FaultPlan,
    FaultSite,
    InjectedFault,
    InjectedIOError,
    RetryPolicy,
    ServiceOverloadedError,
    StoreCorruptionError,
    TaskFailure,
    TaskGroupError,
    is_transient,
)
from repro.resilience.faults import (
    SITE_SEGMENT_READ,
    SITE_TASK_BODY,
    active_plan,
    clear_plan,
    fault_plan,
    install_plan,
    no_faults,
    parse_faults,
)
from repro.runtime.runtime import Runtime
from repro.runtime.scheduler import Scheduler


@pytest.fixture(autouse=True)
def _clean_plan_state(monkeypatch):
    """Every test starts with no installed plan and no env plan."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    clear_plan()
    yield
    clear_plan()


class TestFaultSite:
    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            FaultSite(site="")
        with pytest.raises(ValueError, match="kind"):
            FaultSite(site=SITE_TASK_BODY, kind="explode")
        with pytest.raises(ValueError, match="every"):
            FaultSite(site=SITE_TASK_BODY, every=0)
        with pytest.raises(ValueError, match="rate"):
            FaultSite(site=SITE_TASK_BODY, rate=1.5)

    def test_modular_schedule(self):
        plan = FaultPlan([FaultSite(site=SITE_TASK_BODY, every=3, after=1)])
        hits = [plan.fire(SITE_TASK_BODY) is not None for _ in range(10)]
        # 1-based occurrences: fires when n > 1 and (n - 1) % 3 == 0
        assert hits == [False, False, False, True, False, False, True,
                        False, False, True]

    def test_times_caps_firings(self):
        plan = FaultPlan([FaultSite(site=SITE_TASK_BODY, every=1, times=2)])
        fired = sum(plan.fire(SITE_TASK_BODY) is not None for _ in range(10))
        assert fired == 2
        assert plan.fired == 2
        assert plan.occurrences(SITE_TASK_BODY) == 10

    def test_match_filters_by_key(self):
        plan = FaultPlan([FaultSite(site=SITE_TASK_BODY, match="potrf")])
        assert plan.fire(SITE_TASK_BODY, "gemm#3") is None
        assert plan.fire(SITE_TASK_BODY, "potrf#0") is not None
        # non-matching keys do not advance the spec's counter
        assert plan.occurrences(SITE_TASK_BODY) == 1

    def test_rate_schedule_is_deterministic(self):
        def firing_pattern(seed):
            plan = FaultPlan(
                [FaultSite(site=SITE_TASK_BODY, rate=0.3)], seed=seed)
            return [plan.fire(SITE_TASK_BODY) is not None for _ in range(64)]

        a, b = firing_pattern(7), firing_pattern(7)
        assert a == b            # same seed, same schedule
        assert any(a) and not all(a)
        assert firing_pattern(8) != a  # the seed matters

    def test_first_matching_spec_wins_but_all_count(self):
        plan = FaultPlan([
            FaultSite(site=SITE_TASK_BODY, kind="raise", every=2),
            FaultSite(site=SITE_TASK_BODY, kind="oserror", every=2),
        ])
        with pytest.raises(InjectedFault):
            for _ in range(2):
                plan.inject(SITE_TASK_BODY)
        # both specs saw both occurrences; only the first fired
        assert plan.fired_for(SITE_TASK_BODY) == 1

    def test_inject_kinds(self):
        plan = FaultPlan([FaultSite(site="io", kind="oserror")])
        with pytest.raises(InjectedIOError):
            plan.inject("io")
        plan = FaultPlan([FaultSite(site="x", kind="raise", transient=False)])
        with pytest.raises(InjectedFault) as err:
            plan.inject("x", key="k1")
        assert err.value.transient is False
        assert err.value.site == "x"
        assert err.value.key == "k1"
        # stalls sleep instead of raising
        plan = FaultPlan([FaultSite(site="s", kind="stall", delay_s=0.0)])
        plan.inject("s")
        assert plan.fired == 1

    def test_corrupt_flips_exactly_one_byte(self):
        plan = FaultPlan([FaultSite(site="c", kind="corrupt")], seed=3)
        data = bytes(range(64))
        out = plan.corrupt("c", data)
        assert len(out) == len(data)
        diff = [i for i in range(64) if out[i] != data[i]]
        assert len(diff) == 1
        assert out[diff[0]] == data[diff[0]] ^ 0xFF
        # a non-firing occurrence returns the identical object
        plan = FaultPlan([FaultSite(site="c", kind="corrupt", after=10)])
        assert plan.corrupt("c", data) == data


class TestParseGrammar:
    def test_full_grammar(self):
        plan = parse_faults(
            "seed=42;task-body:raise:every=97:transient=0;"
            "segment-read:oserror:times=2:after=1;"
            "corrupt-read:corrupt:match=seg-00001;"
            "task-body:stall:delay=0.01;"
            "task-body:raise:rate=0.125")
        assert plan.seed == 42
        assert len(plan.sites) == 5
        assert plan.sites[0].transient is False
        assert plan.sites[0].every == 97
        assert plan.sites[1].kind == "oserror"
        assert plan.sites[1].times == 2
        assert plan.sites[1].after == 1
        assert plan.sites[2].match == "seg-00001"
        assert plan.sites[3].delay_s == 0.01
        assert plan.sites[4].rate == 0.125

    def test_kind_defaults_to_raise(self):
        plan = parse_faults("task-body")
        assert plan.sites[0].kind == "raise"

    def test_malformed_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_faults("task-body:raise:every")
        with pytest.raises(ValueError, match="unknown"):
            parse_faults("task-body:raise:bogus=1")
        with pytest.raises(ValueError, match="kind"):
            parse_faults("task-body:explode")


class TestPlanResolution:
    def test_no_plan_by_default(self):
        assert active_plan() is None

    def test_env_plan_parsed_and_counters_persist(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "seed=1;task-body:raise:every=2")
        plan = active_plan()
        assert plan is not None and plan.seed == 1
        plan.fire(SITE_TASK_BODY)
        # same env value -> the *same* plan object (counters survive)
        assert active_plan() is plan
        assert active_plan().occurrences(SITE_TASK_BODY) == 1
        # a changed value re-parses
        monkeypatch.setenv("REPRO_FAULTS", "seed=2;task-body:raise")
        assert active_plan() is not plan
        assert active_plan().seed == 2

    def test_installed_plan_shadows_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "task-body:raise")
        mine = FaultPlan([FaultSite(site=SITE_SEGMENT_READ)])
        install_plan(mine)
        assert active_plan() is mine
        clear_plan()
        assert active_plan() is not None  # env applies again

    def test_fault_plan_scope_restores_previous(self):
        outer = FaultPlan([FaultSite(site=SITE_TASK_BODY)])
        install_plan(outer)
        inner = FaultPlan([FaultSite(site=SITE_SEGMENT_READ)])
        with fault_plan(inner) as plan:
            assert plan is inner and active_plan() is inner
        assert active_plan() is outer

    def test_no_faults_disables_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "task-body:raise")
        with no_faults():
            assert active_plan() is None
        assert active_plan() is not None


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)

    def test_delay_capped_exponential_deterministic(self):
        policy = RetryPolicy(base_delay_s=0.01, max_delay_s=0.04, jitter=0.5)
        delays = [policy.delay(a, "gemm#7") for a in range(6)]
        assert delays == [policy.delay(a, "gemm#7") for a in range(6)]
        for a, d in enumerate(delays):
            raw = min(0.04, 0.01 * 2 ** a)
            assert 0.5 * raw <= d <= raw
        # different keys decorrelate (no lockstep retry bursts)
        assert policy.delay(0, "gemm#7") != policy.delay(0, "syrk#3")

    def test_retryable_is_transience(self):
        policy = RetryPolicy()
        assert policy.retryable(InjectedFault("s"))
        assert policy.retryable(OSError("disk hiccup"))
        assert not policy.retryable(InjectedFault("s", transient=False))
        assert not policy.retryable(np_linalg_error())
        assert not policy.retryable(
            StoreCorruptionError("m", (0, 0), None, "p", "bad crc"))

    def test_runtime_resolution_order(self, monkeypatch):
        def policy(**kwargs):
            return Runtime(**kwargs).scheduler.retry_policy

        monkeypatch.setenv("REPRO_TASK_RETRIES", "5")
        assert policy(task_retries=2).max_retries == 2    # explicit wins
        assert policy().max_retries == 5                  # env
        # the scheduler itself never reads the environment
        assert Scheduler().retry_policy is None
        monkeypatch.delenv("REPRO_TASK_RETRIES")
        assert policy() is None                           # fail-fast


def np_linalg_error():
    import numpy as np
    return np.linalg.LinAlgError("not positive definite")


class TestErrorTaxonomy:
    def test_is_transient_taxonomy(self):
        assert is_transient(InjectedIOError("segment-read"))
        assert is_transient(OSError("EIO"))
        assert not is_transient(ValueError("shape"))
        assert not is_transient(
            DeadlineExceededError(0.1, 0.2))  # TimeoutError, not OSError
        assert not is_transient(ServiceOverloadedError(8, 8))

    def test_task_group_error_reports_every_failure(self):
        class T:
            def __init__(self, name, uid):
                self.name, self.uid, self.tag = name, uid, (name, uid)

        failures = [TaskFailure(T("potrf", 1), np_linalg_error(), retries=2),
                    TaskFailure(T("gemm", 2), InjectedFault("task-body"))]
        err = TaskGroupError(failures, completed=(T("syrk", 0),),
                             unfinished=(T("potrf", 1), T("gemm", 2),
                                         T("trsm", 3)))
        msg = str(err)
        assert "2 of 4 task(s) failed" in msg
        assert "(1 completed, 3 unfinished)" in msg
        assert "'potrf'#1" in msg and "after 2 retries" in msg
        assert "'gemm'#2" in msg
        assert err.__cause__ is failures[0].error
        assert not err.matches(np_linalg_error().__class__)  # mixed types
        assert err.matches(Exception)
        assert not err.transient  # LinAlgError is permanent

    def test_task_group_error_transient_aggregate(self):
        class T:
            name, uid, tag = "gemm", 7, None

        err = TaskGroupError([TaskFailure(T(), InjectedFault("x")),
                              TaskFailure(T(), InjectedIOError("y"))],
                             unfinished=(T(), T()))
        assert err.transient
        assert is_transient(err)

    def test_task_group_error_caps_listing(self):
        class T:
            def __init__(self, i):
                self.name, self.uid, self.tag = "t", i, None

        failures = [TaskFailure(T(i), ValueError(str(i))) for i in range(12)]
        msg = str(TaskGroupError(failures, unfinished=[T(i) for i in range(12)]))
        assert "... and 4 more" in msg

    def test_store_corruption_error_names_the_tile(self):
        err = StoreCorruptionError(
            matrix="store binding 0 (4x4 matrix)", coords=(2, 1),
            precision=None, path="/tmp/seg-00000.bin",
            reason="checksum mismatch")
        assert "(2, 1)" in str(err)
        assert "seg-00000.bin" in str(err)
        assert "checksum mismatch" in str(err)
