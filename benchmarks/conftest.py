"""Shared configuration for the benchmark harness.

Each benchmark regenerates one table or figure of the paper (at a
scaled-down size for the accuracy experiments, at the paper's true
dimensions for the performance-model figures) and prints the same
rows/series the paper reports.  Run with::

    pytest benchmarks/ --benchmark-only

Pass ``-s`` to see the printed tables inline; every benchmark also
asserts the figure's qualitative "shape" (who wins, by roughly what
factor) so a regression in the reproduction fails the harness.

The accuracy benchmarks (Figs. 5 and 6, Table I) assert through one
helper, the ``claims`` fixture, which records every asserted quantity
with its bound, margin, seed and scale.  With ``--record-results`` the
records of the tests that ran are merged into the tracked
``RESULTS.json`` at the repository root; without it nothing is
written, so an ordinary run leaves the checkout clean::

    pytest benchmarks/test_fig05_mspe_rr_vs_krr.py \
        benchmarks/test_fig06_mspe_fp8.py \
        benchmarks/test_table1_pearson.py --record-results
"""

from __future__ import annotations

import json
import operator
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

#: Scale preset used by the accuracy benchmarks (seconds-to-minutes).
ACCURACY_SCALE = "small"

#: The paper-claims ledger ``--record-results`` writes.
RESULTS_PATH = Path(__file__).resolve().parents[1] / "RESULTS.json"

#: ``op`` of a claim -> (test, signed margin: positive while it holds)
_RELATIONS = {
    "<=": (operator.le, lambda value, bound: bound - value),
    "<": (operator.lt, lambda value, bound: bound - value),
    ">=": (operator.ge, lambda value, bound: value - bound),
    ">": (operator.gt, lambda value, bound: value - bound),
}

#: records of this session's tests, ``"<test>: <claim>" -> record``
_RECORDS: dict[str, dict] = {}


def pytest_addoption(parser):
    parser.addoption(
        "--record-results", action="store_true", default=False,
        help="merge every claim the accuracy benchmarks assert on into "
             "RESULTS.json")


def pytest_sessionfinish(session):
    # getoption's default: a run whose initial conftests do not include
    # this one never registered the option
    if not _RECORDS or not session.config.getoption("record_results", False):
        return
    ledger = (json.loads(RESULTS_PATH.read_text())
              if RESULTS_PATH.exists() else {})
    ledger.update(_RECORDS)
    RESULTS_PATH.write_text(json.dumps(ledger, indent=1, sort_keys=True)
                            + "\n")


class Claims:
    """One test's claims: :meth:`check` records a quantity, then asserts
    on it."""

    def __init__(self, test: str, seed: int, scale: str) -> None:
        self.test, self.seed, self.scale = test, seed, scale

    def check(self, claim: str, value: float, op: str, bound: float) -> None:
        """Assert ``value op bound``; the record is kept either way."""
        holds, margin = _RELATIONS[op]
        value, bound = float(value), float(bound)
        _RECORDS[f"{self.test}: {claim}"] = {
            "value": value, "op": op, "bound": bound,
            "margin": margin(value, bound),
            "seed": self.seed, "scale": self.scale,
        }
        assert holds(value, bound), f"{claim}: {value!r} {op} {bound!r}"


@pytest.fixture
def claims(request, accuracy_scale):
    """``claims(seed)``: the ledger entry of this test's experiment run
    at ``seed`` and the accuracy scale."""
    return lambda seed: Claims(request.node.name, seed, accuracy_scale)


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
