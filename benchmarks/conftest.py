"""Shared configuration for the benchmark harness.

Each benchmark regenerates one table or figure of the paper (at a
scaled-down size for the accuracy experiments, at the paper's true
dimensions for the performance-model figures) and prints the same
rows/series the paper reports.  Run with::

    pytest benchmarks/ --benchmark-only

Pass ``-s`` to see the printed tables inline; every benchmark also
asserts the figure's qualitative "shape" (who wins, by roughly what
factor) so a regression in the reproduction fails the harness.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

#: Scale preset used by the accuracy benchmarks (seconds-to-minutes).
ACCURACY_SCALE = "small"


@pytest.fixture(scope="session")
def accuracy_scale() -> str:
    return ACCURACY_SCALE


def run_once(benchmark, func, *args, **kwargs):
    """Run an experiment exactly once under the benchmark timer.

    The accuracy experiments are deterministic and relatively slow, so a
    single timed round is both sufficient and necessary to keep the
    harness runtime reasonable.
    """
    return benchmark.pedantic(func, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
