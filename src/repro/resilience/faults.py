"""Deterministic, seeded fault injection.

A :class:`FaultPlan` is a list of :class:`FaultSite` specs evaluated at
*named injection sites* threaded through the stack:

==================== =====================================================
site                 where it fires
==================== =====================================================
``task-body``        in the scheduler, immediately before a task body runs
                     (``stall`` kind: a slow worker)
``segment-read``     in ``_Segment.read`` (raises ``InjectedIOError``)
``segment-write``    in ``_Segment.write`` (raises ``InjectedIOError``)
``corrupt-read``     in ``_Segment.read`` — flips one byte of the payload
``slow-read``        in ``_Segment.read`` — sleeps ``delay_s``
``serve-dispatch``   in the serving dispatcher, before ``predict_many``
``worker-kill``      in a process-backend worker, before a task body —
                     hard-kills the worker process (``os._exit``)
==================== =====================================================

Fault schedules are *counter*-based, not clock- or random-module-based:
a site spec fires on deterministic occurrence numbers (``every``/
``after``/``times``) or via a seeded hash of the occurrence counter
(``rate``), so the same plan against the same workload injects the same
faults — the property the bitwise-identity chaos tests lean on.  All
counters are guarded by one lock; plans are safe to share across the
scheduler's lane threads.

Plans come from two places, checked in order:

1. an explicitly installed plan (:func:`install_plan` or the
   :func:`fault_plan` context manager — tests use this), or
2. the ``REPRO_FAULTS`` environment variable (read through
   :mod:`repro.settings`), parsed once per distinct value, e.g.::

       REPRO_FAULTS="seed=42;task-body:raise:every=97;corrupt-read:corrupt:times=2"

Sites are zero-cost when no plan is active (one global read).
"""

from __future__ import annotations

import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass

from repro.resilience.errors import InjectedFault, InjectedIOError
from repro.settings import ENVIRONMENT, read

__all__ = [
    "SITE_TASK_BODY",
    "SITE_SEGMENT_READ",
    "SITE_SEGMENT_WRITE",
    "SITE_CORRUPT_READ",
    "SITE_SLOW_READ",
    "SITE_SERVE_DISPATCH",
    "SITE_WORKER_KILL",
    "FaultSite",
    "FaultPlan",
    "parse_faults",
    "active_plan",
    "install_plan",
    "clear_plan",
    "fault_plan",
    "no_faults",
    "inject",
    "reset_child_state",
]

SITE_TASK_BODY = "task-body"
SITE_SEGMENT_READ = "segment-read"
SITE_SEGMENT_WRITE = "segment-write"
SITE_CORRUPT_READ = "corrupt-read"
SITE_SLOW_READ = "slow-read"
SITE_SERVE_DISPATCH = "serve-dispatch"
SITE_WORKER_KILL = "worker-kill"

KINDS = ("raise", "oserror", "stall", "slow", "corrupt")


def _hash01(seed: int, tag: str, n: int) -> float:
    """Deterministic uniform-ish value in [0, 1) from (seed, tag, n)."""
    h = zlib.crc32(f"{seed}:{tag}:{n}".encode())
    return (h & 0xFFFFFFFF) / 2.0 ** 32


@dataclass(frozen=True)
class FaultSite:
    """One injection spec: *where* (site/match) and *when* (schedule).

    The schedule fires on eligible occurrence numbers ``n`` (1-based,
    per spec): ``n > after`` and ``(n - after) % every == 0``, at most
    ``times`` firings total.  When ``rate`` is given it replaces the
    modular schedule with a seeded hash test (still deterministic for a
    fixed plan seed and occurrence sequence).
    """

    site: str
    kind: str = "raise"
    every: int = 1
    times: int | None = None
    after: int = 0
    match: str | None = None
    rate: float | None = None
    delay_s: float = 0.002
    transient: bool = True

    def __post_init__(self) -> None:
        if not self.site:
            raise ValueError("FaultSite.site must be a non-empty string")
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {KINDS}")
        if self.every < 1:
            raise ValueError("FaultSite.every must be >= 1")
        if self.times is not None and self.times < 0:
            raise ValueError("FaultSite.times must be >= 0")
        if self.after < 0:
            raise ValueError("FaultSite.after must be >= 0")
        if self.rate is not None and not 0.0 <= self.rate <= 1.0:
            raise ValueError("FaultSite.rate must be in [0, 1]")
        if self.delay_s < 0:
            raise ValueError("FaultSite.delay_s must be >= 0")


class FaultPlan:
    """A seeded, thread-safe schedule of :class:`FaultSite` specs.

    ``fired`` / ``fired_for`` expose how many faults each spec actually
    injected — chaos tests assert coverage (">=1 fault in the Factor
    phase") through these counters rather than timing.
    """

    def __init__(self, sites, seed: int = 0) -> None:
        self.sites = tuple(sites)
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._seen = [0] * len(self.sites)
        self._fired = [0] * len(self.sites)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan(seed={self.seed}, sites={list(self.sites)!r})"

    def fire(self, site: str, key: object = None) -> FaultSite | None:
        """Count an occurrence of ``site``; return the spec that fires.

        Every spec matching (site, key) advances its own occurrence
        counter; the first whose schedule hits wins.
        """
        winner = None
        with self._lock:
            for idx, spec in enumerate(self.sites):
                if spec.site != site:
                    continue
                if spec.match is not None and (
                        key is None or spec.match not in str(key)):
                    continue
                n = self._seen[idx] = self._seen[idx] + 1
                if winner is not None:
                    continue
                if spec.times is not None and self._fired[idx] >= spec.times:
                    continue
                if spec.rate is not None:
                    hit = _hash01(self.seed, f"{idx}:{site}", n) < spec.rate
                else:
                    hit = n > spec.after and (n - spec.after) % spec.every == 0
                if hit:
                    self._fired[idx] += 1
                    winner = spec
        return winner

    def inject(self, site: str, key: object = None) -> None:
        """Evaluate ``site``; raise or stall if a spec fires."""
        spec = self.fire(site, key)
        if spec is None:
            return
        if spec.kind in ("stall", "slow"):
            time.sleep(spec.delay_s)
            return
        if spec.kind == "oserror":
            raise InjectedIOError(site, key)
        raise InjectedFault(site, key, transient=spec.transient)

    def corrupt(self, site: str, data: bytes, key: object = None) -> bytes:
        """Return ``data``, with one byte flipped if a spec fires."""
        spec = self.fire(site, key)
        if spec is None or not data:
            return data
        n = sum(self._fired)
        pos = int(_hash01(self.seed, f"pos:{site}", n) * len(data))
        flipped = bytearray(data)
        flipped[pos] ^= 0xFF
        return bytes(flipped)

    @property
    def fired(self) -> int:
        """Total faults injected so far across all specs."""
        with self._lock:
            return sum(self._fired)

    def fired_for(self, site: str) -> int:
        """Faults injected so far at a given site name."""
        with self._lock:
            return sum(f for spec, f in zip(self.sites, self._fired)
                       if spec.site == site)

    def occurrences(self, site: str) -> int:
        """Occurrence count (fired or not) seen at a given site name."""
        with self._lock:
            return max((s for spec, s in zip(self.sites, self._seen)
                        if spec.site == site), default=0)


def parse_faults(text: str) -> FaultPlan:
    """Parse the ``REPRO_FAULTS`` grammar into a :class:`FaultPlan`.

    ``seed=42;site:kind:opt=val:...;site2:kind2`` — entries separated
    by ``;``, options by ``:``.  Options: ``every``, ``times``,
    ``after``, ``match``, ``rate``, ``delay`` (seconds) and
    ``transient`` (0/1).  Any malformed or out-of-range entry is a
    ``ValueError`` naming the variable and the entry.
    """
    seed = 0
    sites: list[FaultSite] = []
    for entry in text.split(";"):
        entry = entry.strip()
        if not entry:
            continue
        try:
            if entry.startswith("seed="):
                seed = int(entry[len("seed="):])
                continue
            parts = [part.strip() for part in entry.split(":")]
            kwargs: dict[str, object] = {}
            for opt in filter(None, parts[2:]):
                name, eq, value = (s.strip() for s in opt.partition("="))
                if not eq:
                    raise ValueError(f"malformed option {opt!r}")
                if name in ("every", "times", "after"):
                    kwargs[name] = int(value)
                elif name == "rate":
                    kwargs[name] = float(value)
                elif name == "delay":
                    kwargs["delay_s"] = float(value)
                elif name == "transient":
                    kwargs["transient"] = value not in ("0", "false", "no")
                elif name == "match":
                    kwargs["match"] = value
                else:
                    raise ValueError(f"unknown option {name!r}")
            kind = parts[1] if len(parts) > 1 and parts[1] else "raise"
            sites.append(FaultSite(site=parts[0], kind=kind, **kwargs))
        except ValueError as exc:
            raise ValueError(
                f"{ENVIRONMENT['faults']} entry {entry!r}: {exc}") from None
    return FaultPlan(sites, seed=seed)


_UNSET = object()
_override: object = _UNSET
_env_text: str | None = None
_env_plan: FaultPlan | None = None
_env_lock = threading.Lock()


def _plan_from_env() -> FaultPlan | None:
    """The plan parsed from ``REPRO_FAULTS``, cached per distinct value.

    The cache keeps the plan's *counters* alive across calls (a chaos
    CI run accumulates occurrences over the whole test session) while
    still noticing monkeypatched env changes.
    """
    global _env_text, _env_plan
    text = read("faults")
    with _env_lock:
        if text != _env_text:
            _env_plan = parse_faults(text) if text else None
            _env_text = text
        return _env_plan


def active_plan() -> FaultPlan | None:
    """The plan injection sites consult; ``None`` disables injection."""
    if _override is not _UNSET:
        return _override  # type: ignore[return-value]
    return _plan_from_env()


def install_plan(plan: FaultPlan | None) -> None:
    """Install ``plan`` for this process, shadowing ``REPRO_FAULTS``.

    ``install_plan(None)`` disables injection entirely (including any
    env-configured plan) until :func:`clear_plan`.
    """
    global _override
    _override = plan


def clear_plan() -> None:
    """Drop any installed plan; ``REPRO_FAULTS`` (if set) applies again."""
    global _override
    _override = _UNSET


@contextmanager
def fault_plan(plan: FaultPlan | None):
    """Scope an installed plan; restores the previous override on exit."""
    global _override
    previous = _override
    _override = plan
    try:
        yield plan
    finally:
        _override = previous


def no_faults():
    """Scope with injection disabled (shadows env plans too)."""
    return fault_plan(None)


def inject(site: str, key: object = None) -> None:
    """Module-level injection site: no-op unless a plan is active."""
    plan = active_plan()
    if plan is not None:
        plan.inject(site, key)


def reset_child_state() -> None:
    """Reinitialize module state in a freshly forked worker process.

    A ``fork`` can capture ``_env_lock`` held by another thread (a
    threaded drain's lane injects task and segment faults under it) and plan
    objects whose internal locks are likewise mid-acquire — either
    would deadlock the child on its first injection site.  Process-
    backend workers call this from their bootstrap: a fresh lock, no
    cached env plan (the child re-parses ``REPRO_FAULTS`` with its own
    counters) and no installed override (``install_plan`` is per
    process by design — worker-side injection is env-driven only).
    """
    global _override, _env_text, _env_plan, _env_lock
    _env_lock = threading.Lock()
    _override = _UNSET
    _env_text = None
    _env_plan = None
