"""End-to-end GWAS workflow driver.

``GWASWorkflow`` ties the pieces together the way the paper's Fig. 3
diagrams them: take a cohort (:class:`~repro.data.dataset.GWASDataset`),
split it 80/20, run RR and/or KRR with a chosen precision plan, and
report MSPE and Pearson correlation per phenotype — the exact quantities
of Fig. 5 and Table I.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import GWASDataset, TrainTestSplit
from repro.gwas.config import KRRConfig, RRConfig
from repro.gwas.metrics import accuracy_report
from repro.gwas.session import KRRSession, RRSession

__all__ = ["GWASWorkflow", "WorkflowResult"]


@dataclass
class WorkflowResult:
    """Accuracy results of one workflow run.

    Attributes
    ----------
    method:
        ``"rr"`` or ``"krr"``.
    report:
        Per-phenotype metrics (``mspe``, ``pearson``, ``r2``).
    predictions:
        ``n_test × nph`` prediction panel.
    phase_flops:
        Per-phase operation counts of the session's ledger.
    """

    method: str
    report: dict[str, dict[str, float]]
    predictions: np.ndarray
    phase_flops: dict[str, float] = field(default_factory=dict)

    def mspe(self, phenotype: str) -> float:
        return self.report[phenotype]["mspe"]

    def pearson(self, phenotype: str) -> float:
        return self.report[phenotype]["pearson"]

    def mean_mspe(self) -> float:
        return float(np.mean([m["mspe"] for m in self.report.values()]))

    def mean_pearson(self) -> float:
        return float(np.mean([m["pearson"] for m in self.report.values()]))


class GWASWorkflow:
    """Run RR / KRR GWAS on a dataset with a fixed train/test split.

    Parameters
    ----------
    dataset:
        The cohort to analyse.
    train_fraction:
        Train share of the split (paper: 0.8).
    seed:
        Split RNG seed, fixed so RR and KRR see identical partitions.
    """

    def __init__(self, dataset: GWASDataset, train_fraction: float = 0.8,
                 seed: int = 0) -> None:
        self.dataset = dataset
        self.split: TrainTestSplit = dataset.split(train_fraction, seed=seed)

    # ------------------------------------------------------------------
    def run_rr(self, config: RRConfig | None = None) -> WorkflowResult:
        """Linear ridge-regression GWAS on the split."""
        return self._run("rr", RRSession(config))

    def run_krr(self, config: KRRConfig | None = None) -> WorkflowResult:
        """Kernel ridge-regression GWAS on the split (tile-native session)."""
        return self._run("krr", KRRSession(config))

    def _run(self, method: str, session: KRRSession | RRSession
             ) -> WorkflowResult:
        """Fit on the train split, predict the test split: both sessions
        take the same genotype panel and confounders."""
        train, test = self.split.train, self.split.test
        predictions = session.fit_predict(
            train.genotypes, train.phenotypes, test.genotypes,
            train_confounders=train.confounders, test_confounders=test.confounders,
        )
        report = accuracy_report(test.phenotypes, predictions,
                                 self.dataset.phenotype_names)
        return WorkflowResult(
            method=method, report=report, predictions=predictions,
            phase_flops={phase: totals.flops
                         for phase, totals in session.runtime.ledger.items()})

    def compare(self, rr_config: RRConfig | None = None,
                krr_config: KRRConfig | None = None) -> dict[str, WorkflowResult]:
        """Run both methods on the same split (the paper's comparison setup)."""
        return {"rr": self.run_rr(rr_config), "krr": self.run_krr(krr_config)}
