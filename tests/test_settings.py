"""``repro.settings``: every ``REPRO_*`` variable, parsed in one place.

One table over ``Settings.from_env`` with a plain dict: per variable,
unset / valid / garbage / out of range.  A bad value is a ``ValueError``
naming its variable.  ``REPRO_FAULTS`` carries a grammar that belongs to
``parse_faults``, so its bad rows go through the plan the text becomes.
"""

import dataclasses
import os
import re
import threading
from pathlib import Path

import pytest

from repro.distance.build import KernelBuilder
from repro.gwas.session import KRRSession
from repro.resilience import faults
from repro.runtime.runtime import Runtime
from repro.settings import ENVIRONMENT, Settings

DEFAULTS = Settings()

#: (variable, text or None for unset, field, expected value or ValueError)
ROWS = [
    ("REPRO_WORKERS", None, "workers", min(8, len(os.sched_getaffinity(0)))),
    ("REPRO_WORKERS", "", "workers", DEFAULTS.workers),
    ("REPRO_WORKERS", "2", "workers", 2),
    ("REPRO_WORKERS", "abc", "workers", ValueError),
    ("REPRO_WORKERS", "2.5", "workers", ValueError),
    ("REPRO_WORKERS", "0", "workers", ValueError),
    ("REPRO_WORKERS", "-1", "workers", ValueError),
    ("REPRO_EXECUTION", None, "execution", "threaded"),
    ("REPRO_EXECUTION", "serial", "execution", "serial"),
    ("REPRO_EXECUTION", "threaded", "execution", "threaded"),
    ("REPRO_EXECUTION", "process", "execution", "process"),
    ("REPRO_EXECUTION", "distributed", "execution", ValueError),
    ("REPRO_EXECUTION", "simulated", "execution", ValueError),  # a replayer now
    ("REPRO_SOLVER", None, "solver", "direct"),
    ("REPRO_SOLVER", "cg", "solver", "cg"),
    ("REPRO_SOLVER", "direct", "solver", "direct"),
    ("REPRO_SOLVER", "minres", "solver", ValueError),
    ("REPRO_SOLVER", "CG", "solver", ValueError),
    ("REPRO_STORE_BUDGET", None, "store_budget_bytes", None),
    ("REPRO_STORE_BUDGET", "1048576", "store_budget_bytes", 1 << 20),
    ("REPRO_STORE_BUDGET", "64k", "store_budget_bytes", 64 << 10),
    ("REPRO_STORE_BUDGET", "2M", "store_budget_bytes", 2 << 20),
    ("REPRO_STORE_BUDGET", "1g", "store_budget_bytes", 1 << 30),
    ("REPRO_STORE_BUDGET", "1.5m", "store_budget_bytes", int(1.5 * (1 << 20))),
    ("REPRO_STORE_BUDGET", "lots", "store_budget_bytes", ValueError),
    ("REPRO_STORE_BUDGET", "  ", "store_budget_bytes", ValueError),
    ("REPRO_STORE_BUDGET", "m", "store_budget_bytes", ValueError),
    ("REPRO_STORE_BUDGET", "0", "store_budget_bytes", ValueError),
    ("REPRO_STORE_BUDGET", "-1m", "store_budget_bytes", ValueError),
    ("REPRO_STORE_BUDGET", "1e999", "store_budget_bytes", ValueError),
    ("REPRO_TASK_RETRIES", None, "task_retries", None),
    ("REPRO_TASK_RETRIES", "0", "task_retries", 0),
    ("REPRO_TASK_RETRIES", "5", "task_retries", 5),
    ("REPRO_TASK_RETRIES", "abc", "task_retries", ValueError),
    ("REPRO_TASK_RETRIES", "-1", "task_retries", ValueError),   # not clamped
    ("REPRO_FAULTS", None, "faults", None),
    ("REPRO_FAULTS", "seed=1;task-body:raise:every=2", "faults",
     "seed=1;task-body:raise:every=2"),
]


@pytest.mark.parametrize("variable, text, field, expected", ROWS)
def test_from_env(variable, text, field, expected):
    environ = {} if text is None else {variable: text}
    if expected is ValueError:
        with pytest.raises(ValueError, match=variable):
            Settings.from_env(environ)
    else:
        settings = Settings.from_env(environ)
        assert getattr(settings, field) == expected
        # the other five are untouched
        assert dataclasses.replace(
            settings, **{field: getattr(DEFAULTS, field)}) == DEFAULTS


@pytest.mark.parametrize("text", [
    "task-body:raise:every",        # option without a value
    "task-body:raise:bogus=1",      # unknown option
    "task-body:explode",            # unknown kind
    "seed=abc",
    "task-body:raise:every=two",
    "task-body:raise:every=0",      # out of range, four ways
    "task-body:raise:times=-1",
    "task-body:raise:rate=1.5",
    "task-body:stall:delay=-1",
])
def test_a_bad_fault_plan_names_its_variable(text, monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", text)
    assert Settings.from_env().faults == text
    with pytest.raises(ValueError, match="REPRO_FAULTS"):
        faults.active_plan()


def test_every_field_has_one_variable_and_nothing_else_is_read():
    fields = [f.name for f in dataclasses.fields(Settings)]
    assert list(ENVIRONMENT) == fields
    assert len(set(ENVIRONMENT.values())) == len(fields) == 6
    assert {row[0] for row in ROWS} == set(ENVIRONMENT.values())
    # any other REPRO_* name is not a variable: ignored, not an error
    assert Settings.from_env({"REPRO_MP_START": "spawn",
                              "REPRO_BLAS_THREADS": "x",
                              "REPRO_STORE_DIR": "/nowhere"}) == DEFAULTS


def test_the_documented_table_is_the_dataclass():
    api_md = Path(__file__).parents[1] / "docs" / "api.md"
    rows = re.findall(r"^\| `(REPRO_[A-Z_]+)` \| `(\w+)` \|",
                      api_md.read_text(), re.MULTILINE)
    assert {field: variable for variable, field in rows} == ENVIRONMENT
    assert [field for _, field in rows] == [
        f.name for f in dataclasses.fields(Settings)]


def test_nothing_is_cached_at_import(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert Settings.from_env().workers == 3
    monkeypatch.setenv("REPRO_WORKERS", "4")
    assert Settings.from_env().workers == 4


class TestWorkerDefault:
    """Explicit argument, else ``REPRO_WORKERS``, else the CPUs this
    process may run on — not the machine's — capped at 8."""

    @pytest.fixture(autouse=True)
    def _unset(self, monkeypatch):
        for variable in ("REPRO_WORKERS", "REPRO_EXECUTION",
                         "REPRO_STORE_BUDGET"):
            monkeypatch.delenv(variable, raising=False)

    @pytest.mark.parametrize("cpus, expected", [(1, 1), (3, 3), (64, 8)])
    def test_the_affinity_mask_sets_it(self, monkeypatch, cpus, expected):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        monkeypatch.setattr(os, "cpu_count", lambda: 128)  # not consulted
        assert Settings.from_env({}).workers == expected
        assert Runtime().workers == expected
        assert KernelBuilder().runtime.workers == expected

    def test_the_variable_and_the_argument_ignore_the_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert Runtime(workers=4).workers == 4
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert Settings.from_env().workers == 3
        assert Runtime().workers == 3
        assert KRRSession().runtime.workers == 3

    def test_one_cpu_drains_on_the_callers_thread(self, monkeypatch,
                                                  small_cohort):
        """Confined to one CPU, a default session starts no lane thread:
        every task of ``fit`` + ``predict`` runs where it was called."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

        seen = set()

        class Threads:
            def task_dispatch(self, task):
                seen.add(threading.current_thread().name)

            def task_complete(self, task):
                pass

        session = KRRSession(tile_size=64)
        assert session.runtime.execution == "threaded"
        assert session.runtime.workers == 1
        session.runtime.scheduler.hooks = Threads()
        g, y = small_cohort.genotypes, small_cohort.phenotypes
        session.fit(g[:200], y[:200])
        session.predict(g[200:])
        assert seen == {threading.current_thread().name}
        assert not [t.name for t in threading.enumerate()
                    if t.name.startswith("repro-runtime-")]
