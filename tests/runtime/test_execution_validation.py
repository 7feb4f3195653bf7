"""Typed validation of the execution-mode and worker-count knobs.

Unknown execution modes and non-positive worker counts must raise a
``ValueError`` that names the allowed modes / the offending knob —
for explicit arguments.  The environment paths are rows of
``tests/test_settings.py``; here each consumer shows once that an
explicit argument beats the environment.
"""

import pytest

from repro.gwas.config import KRRConfig
from repro.runtime.runtime import Runtime
from repro.runtime.scheduler import EXECUTION_MODES, Scheduler

ALL_MODES = ("serial", "threaded", "process")


def test_execution_modes_constant_names_all_three():
    assert sorted(EXECUTION_MODES) == sorted(ALL_MODES)


@pytest.mark.parametrize("factory", [Runtime, KRRConfig, Scheduler],
                         ids=lambda f: f.__name__)
def test_simulated_is_not_an_execution_mode(factory, monkeypatch):
    # the device-timing model is repro.runtime.replay.replay(graph, ...)
    monkeypatch.delenv("REPRO_EXECUTION", raising=False)
    with pytest.raises(ValueError) as err:
        factory(execution="simulated")
    for mode in ALL_MODES:
        assert mode in str(err.value)


class TestSchedulerAndRuntime:
    def test_scheduler_rejects_unknown_mode(self):
        with pytest.raises(ValueError) as err:
            Scheduler(execution="mpi")
        for mode in ALL_MODES:
            assert mode in str(err.value)

    def test_runtime_rejects_unknown_mode(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTION", raising=False)
        with pytest.raises(ValueError) as err:
            Runtime(execution="bogus")
        for mode in ALL_MODES:
            assert mode in str(err.value)

    def test_runtime_env_driven_bogus_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTION", "bogus")
        with pytest.raises(ValueError):
            Runtime()

    @pytest.mark.parametrize("bad", [0, -1])
    def test_runtime_rejects_non_positive_workers(self, bad):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            Runtime(execution="threaded", workers=bad)

    def test_runtime_arguments_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTION", "process")
        monkeypatch.setenv("REPRO_WORKERS", "5")
        monkeypatch.setenv("REPRO_TASK_RETRIES", "5")
        rt = Runtime(execution="serial", workers=3, task_retries=1)
        assert (rt.execution, rt.workers) == ("serial", 3)
        assert rt.scheduler.retry_policy.max_retries == 1

    def test_runtime_env_garbage_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "abc")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            Runtime()

    def test_runtime_env_process_mode_runs(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTION", "process")
        monkeypatch.setenv("REPRO_WORKERS", "1")
        rt = Runtime()
        try:
            assert rt.execution == "process"
            assert rt.workers == 1
        finally:
            rt.close()


class TestKRRConfigValidation:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_valid_modes_accepted(self, mode):
        assert KRRConfig(execution=mode).execution == mode

    def test_none_is_accepted(self):
        assert KRRConfig().execution is None

    def test_bogus_mode_raises_naming_modes(self):
        with pytest.raises(ValueError) as err:
            KRRConfig(execution="async")
        for mode in ALL_MODES:
            assert mode in str(err.value)

    def test_zero_workers_raises(self):
        with pytest.raises(ValueError):
            KRRConfig(workers=0)
