"""The one reader of the process environment.

Six ``REPRO_*`` variables let CI re-run the whole suite under another
concurrency level, solver route, store budget or fault plan without
touching call sites.  :meth:`Settings.from_env` parses and validates
them, and a malformed value is a ``ValueError`` naming its variable.
``Runtime``, ``Scheduler``, ``KRRSession`` and ``grid_search_cv`` take a
snapshot when they are constructed (called) and resolve "explicit
argument, else the snapshot's field"; a field's default is the
library's default.  Nothing is cached at import, so a variable set
later is seen by the next object built.

The worker default is measured: argument, else ``REPRO_WORKERS``, else
the CPUs this process may run on (:func:`effective_cpu_count`, capped at
8) — confined to one CPU, a drain runs on the caller's thread.

A leaf module: it imports nothing from ``repro``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Mapping

__all__ = ["ENVIRONMENT", "EXECUTION_MODES", "SOLVER_MODES", "Settings",
           "effective_cpu_count", "read"]

EXECUTION_MODES = ("threaded", "serial", "process")
SOLVER_MODES = ("direct", "cg")

_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}


def effective_cpu_count() -> int:
    """CPUs actually available to this process.

    ``os.cpu_count()`` reports the machine, not the cgroup/affinity
    mask a CI runner or batch scheduler grants — ``sched_getaffinity``
    is authoritative where it exists.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _integer(lowest: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < lowest:
            raise ValueError(text)
        return value
    return parse


def _one_of(choices: tuple[str, ...]):
    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(text)
        return text
    return parse


def _bytes(text: str) -> int:
    """``"1048576"`` / ``"64k"`` / ``"1.5m"`` / ``"2G"`` as a byte count."""
    text = text.strip().lower()
    scale = _SUFFIXES.get(text[-1:], 1)
    value = int(float(text[:-1] if scale > 1 else text) * scale)
    if value < 1:
        raise ValueError(text)
    return value


#: field -> (variable, parser, what the parser accepts)
_VARIABLES = {
    "workers": ("REPRO_WORKERS", _integer(1), "an integer >= 1"),
    "execution": ("REPRO_EXECUTION", _one_of(EXECUTION_MODES),
                  f"one of {EXECUTION_MODES}"),
    "solver": ("REPRO_SOLVER", _one_of(SOLVER_MODES), f"one of {SOLVER_MODES}"),
    "store_budget_bytes": ("REPRO_STORE_BUDGET", _bytes,
                           "a positive byte count (k/m/g suffixes accepted)"),
    "task_retries": ("REPRO_TASK_RETRIES", _integer(0), "an integer >= 0"),
    # the grammar is repro.resilience.faults.parse_faults', which builds
    # the plan once per distinct text and names the variable itself
    "faults": ("REPRO_FAULTS", str, "a fault plan"),
}

#: field of :class:`Settings` -> the environment variable behind it
ENVIRONMENT = {name: spec[0] for name, spec in _VARIABLES.items()}


def read(name: str, environ: Mapping[str, str] = os.environ):
    """The parsed value of one field's variable; ``None`` when unset or empty.

    What :meth:`Settings.from_env` is made of; the fault-injection sites,
    which run per task, read their one variable through it directly.
    """
    variable, parse, accepts = _VARIABLES[name]
    text = environ.get(variable)
    if not text:
        return None
    try:
        return parse(text)
    except (ValueError, OverflowError):
        raise ValueError(
            f"{variable} must be {accepts}, got {text!r}") from None


@dataclass(frozen=True)
class Settings:
    """What the environment says, or the library default where it is silent."""

    #: worker threads/processes of a ``Runtime``
    workers: int = field(default_factory=lambda: min(8, effective_cpu_count()))
    #: execution mode of a ``Runtime``
    execution: str = "threaded"
    #: Associate solve route of a ``KRRSession`` / ``grid_search_cv``
    solver: str = "direct"
    #: residency budget of a ``KRRSession``'s tile store; ``None`` = resident
    store_budget_bytes: int | None = None
    #: transient-failure retries per task; ``None`` = fail fast
    task_retries: int | None = None
    #: fault-plan text consulted at every injection site; ``None`` = no plan
    faults: str | None = None

    @classmethod
    def from_env(cls, environ: Mapping[str, str] = os.environ) -> "Settings":
        values = {name: read(name, environ) for name in _VARIABLES}
        return cls(**{k: v for k, v in values.items() if v is not None})
