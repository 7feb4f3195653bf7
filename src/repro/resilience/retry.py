"""Retry policy with capped exponential backoff and deterministic jitter.

Tile task bodies are pure functions from quantized inputs to quantized
outputs, so re-running one after a transient fault is always safe and
always bitwise-reproducible — the only question is pacing.  The policy
here uses capped exponential backoff whose jitter comes from a seeded
hash of (retry key, attempt), not from ``random``: two runs of the same
workload under the same fault plan back off identically, keeping chaos
runs deterministic end to end.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.resilience.errors import is_transient

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """How many times, and how fast, to re-run a transiently failed task.

    ``max_retries`` bounds re-executions *per task* (0 disables retry).
    The delay before retry ``attempt`` (0-based) is
    ``min(max_delay_s, base_delay_s * 2**attempt)`` scaled down by up
    to ``jitter`` via a seeded hash of the retry key — deterministic,
    but decorrelated across tasks so a burst of transient faults does
    not retry in lockstep.
    """

    max_retries: int = 2
    base_delay_s: float = 0.001
    max_delay_s: float = 0.050
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("backoff delays must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def retryable(self, exc: BaseException) -> bool:
        """Retry only transient faults; permanent errors surface at once."""
        return is_transient(exc)

    def delay(self, attempt: int, key: str = "") -> float:
        """Backoff before 0-based retry ``attempt`` of retry-key ``key``."""
        raw = min(self.max_delay_s, self.base_delay_s * 2.0 ** attempt)
        h = zlib.crc32(f"{self.seed}:{key}:{attempt}".encode()) & 0xFFFFFFFF
        return raw * (1.0 - self.jitter * (h / 2.0 ** 32))

