"""Chaos: worker crashes mid-Cholesky are transient, recovery is bitwise.

``REPRO_FAULTS=worker-kill:...`` makes workers ``os._exit`` mid-task.
With a retry budget the coordinator must respawn the worker, replay the
lost task, and still produce the exact serial factorization; without
one the drain must fail fast with a :class:`TaskGroupError` whose
failures are transient :class:`WorkerCrashError` records.
"""

import numpy as np
import pytest

from repro.linalg.cholesky import cholesky
from repro.precision.formats import Precision
from repro.resilience.errors import (
    TaskGroupError,
    WorkerCrashError,
    is_transient,
)
from repro.runtime.runtime import Runtime

N = 128
TILE = 32


def _spd(seed: int = 41) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((N, N))
    return a @ a.T / N + 4.0 * np.eye(N)


@pytest.fixture(autouse=True)
def _clean_fault_env(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_TASK_RETRIES", raising=False)
    yield


def test_worker_kill_recovers_bitwise(monkeypatch):
    a = _spd()
    serial = cholesky(a, tile_size=TILE,
                      working_precision=Precision.FP32).to_dense()

    # every third worker-kill site occurrence kills that worker process
    # (counters are per process, so each respawned worker crashes again
    # until the drain outruns the fault plan)
    monkeypatch.setenv("REPRO_FAULTS", "worker-kill:raise:every=3:times=1")
    monkeypatch.setenv("REPRO_TASK_RETRIES", "2")
    rt = Runtime(execution="process", workers=2)
    try:
        proc = cholesky(a, tile_size=TILE, working_precision=Precision.FP32,
                        runtime=rt).to_dense()
        respawns = rt.scheduler._pool.respawns
    finally:
        rt.close()

    np.testing.assert_array_equal(proc, serial)
    assert respawns >= 1, "the fault plan must actually have killed workers"


def test_worker_kill_without_retries_fails_fast(monkeypatch):
    a = _spd(seed=43)
    monkeypatch.setenv("REPRO_FAULTS", "worker-kill:raise:every=2:times=1")
    monkeypatch.setenv("REPRO_TASK_RETRIES", "0")
    rt = Runtime(execution="process", workers=2)
    try:
        with pytest.raises(TaskGroupError) as err:
            cholesky(a, tile_size=TILE, working_precision=Precision.FP32,
                     runtime=rt)
    finally:
        rt.close()

    failures = err.value.failures
    assert failures, "a failed drain must carry failure records"
    crashes = [f.error for f in failures
               if isinstance(f.error, WorkerCrashError)]
    assert crashes, "failures must include the worker crash"
    assert all(is_transient(err) for err in crashes)


def test_pool_usable_after_failed_drain(monkeypatch):
    """A crash-failed drain must leave the runtime able to factor again
    once the fault plan is gone."""
    a = _spd(seed=47)
    serial = cholesky(a, tile_size=TILE,
                      working_precision=Precision.FP32).to_dense()

    monkeypatch.setenv("REPRO_FAULTS", "worker-kill:raise:every=2:times=1")
    monkeypatch.setenv("REPRO_TASK_RETRIES", "0")
    rt = Runtime(execution="process", workers=2)
    try:
        with pytest.raises(TaskGroupError):
            cholesky(a, tile_size=TILE, working_precision=Precision.FP32,
                     runtime=rt)
        # heal the environment: respawned workers parse the env afresh
        monkeypatch.delenv("REPRO_FAULTS")
        rt.scheduler._pool.reset_all()
        proc = cholesky(a, tile_size=TILE, working_precision=Precision.FP32,
                        runtime=rt).to_dense()
    finally:
        rt.close()
    np.testing.assert_array_equal(proc, serial)
