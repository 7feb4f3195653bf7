"""Typed validation of the execution-mode and worker-count knobs.

Unknown execution modes and non-positive worker counts must raise a
``ValueError`` that names the allowed modes / the offending knob —
both for explicit arguments and for the ``REPRO_EXECUTION`` /
``REPRO_WORKERS`` environment paths.
"""

import pytest

from repro.gwas.config import KRRConfig
from repro.runtime.runtime import (
    EXECUTION_ENV,
    WORKERS_ENV,
    Runtime,
    resolve_execution,
    resolve_workers,
)
from repro.runtime.scheduler import EXECUTION_MODES, Scheduler

ALL_MODES = ("serial", "threaded", "process")


def test_execution_modes_constant_names_all_three():
    assert sorted(EXECUTION_MODES) == sorted(ALL_MODES)


@pytest.mark.parametrize("factory", [Runtime, KRRConfig, Scheduler],
                         ids=lambda f: f.__name__)
def test_simulated_is_not_an_execution_mode(factory, monkeypatch):
    # the device-timing model is repro.runtime.replay.replay(graph, ...)
    monkeypatch.delenv(EXECUTION_ENV, raising=False)
    with pytest.raises(ValueError) as err:
        factory(execution="simulated")
    for mode in ALL_MODES:
        assert mode in str(err.value)


class TestResolveExecution:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_valid_modes_pass_through(self, mode, monkeypatch):
        monkeypatch.delenv(EXECUTION_ENV, raising=False)
        assert resolve_execution(mode) == mode

    def test_default_is_threaded(self, monkeypatch):
        monkeypatch.delenv(EXECUTION_ENV, raising=False)
        assert resolve_execution() == "threaded"

    def test_bogus_argument_names_allowed_modes(self, monkeypatch):
        monkeypatch.delenv(EXECUTION_ENV, raising=False)
        with pytest.raises(ValueError) as err:
            resolve_execution("fork-join")
        for mode in ALL_MODES:
            assert mode in str(err.value)
        assert "fork-join" in str(err.value)

    def test_bogus_env_names_allowed_modes(self, monkeypatch):
        monkeypatch.setenv(EXECUTION_ENV, "distributed")
        with pytest.raises(ValueError) as err:
            resolve_execution()
        for mode in ALL_MODES:
            assert mode in str(err.value)

    def test_env_selects_process(self, monkeypatch):
        monkeypatch.setenv(EXECUTION_ENV, "process")
        assert resolve_execution() == "process"

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(EXECUTION_ENV, "process")
        assert resolve_execution("serial") == "serial"


class TestResolveWorkers:
    def test_explicit_value_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert resolve_workers(3) == 3

    @pytest.mark.parametrize("bad", [0, -1])
    def test_non_positive_raises(self, bad):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            resolve_workers(bad)

    def test_env_zero_raises_naming_knob(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "0")
        with pytest.raises(ValueError, match=WORKERS_ENV):
            resolve_workers()

    def test_env_garbage_raises_naming_knob(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "abc")
        with pytest.raises(ValueError, match=WORKERS_ENV):
            resolve_workers()

    def test_env_valid_value(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "2")
        assert resolve_workers() == 2


class TestSchedulerAndRuntime:
    def test_scheduler_rejects_unknown_mode(self):
        with pytest.raises(ValueError) as err:
            Scheduler(execution="mpi")
        for mode in ALL_MODES:
            assert mode in str(err.value)

    def test_runtime_rejects_unknown_mode(self, monkeypatch):
        monkeypatch.delenv(EXECUTION_ENV, raising=False)
        with pytest.raises(ValueError) as err:
            Runtime(execution="bogus")
        for mode in ALL_MODES:
            assert mode in str(err.value)

    def test_runtime_env_driven_bogus_mode(self, monkeypatch):
        monkeypatch.setenv(EXECUTION_ENV, "bogus")
        with pytest.raises(ValueError):
            Runtime()

    def test_runtime_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            Runtime(execution="threaded", workers=0)

    def test_runtime_env_process_mode_runs(self, monkeypatch):
        monkeypatch.setenv(EXECUTION_ENV, "process")
        monkeypatch.setenv(WORKERS_ENV, "1")
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
