"""The paper's contribution: mixed-precision RR and KRR multivariate GWAS.

* :class:`~repro.gwas.session.KRRSession` — the tile-native three-phase
  Kernel Ridge Regression session (Build / Associate / Predict,
  Algorithms 1–5): the kernel matrix stays a tiled ``TileMatrix`` end
  to end with zero dense n×n round-trips, the regularization boost
  touches only diagonal tiles, and Predict streams in row batches.
* :class:`~repro.gwas.session.RRSession` — linear ridge regression on
  the genotypes and confounders (Eq. 1–2 of the paper): the INT8 SNP
  Gram, FP32 confounder products and the tiled Cholesky, with the KRR
  session's inputs and shape.  The two sessions are the only estimator classes.
* :mod:`repro.gwas.metrics` — MSPE and Pearson correlation, the two
  accuracy metrics of Sec. VII.
* :mod:`repro.gwas.cv` — cross-validation for the α / γ hyperparameters
  (one kernel Build per (fold, γ), one factorization per α).
* :mod:`repro.gwas.workflow` — end-to-end driver over a
  :class:`~repro.data.dataset.GWASDataset`.
"""

from repro.gwas.config import KRRConfig, PrecisionPlan, RRConfig
from repro.gwas.metrics import (
    accuracy_report,
    mean_squared_prediction_error,
    mspe,
    pearson_correlation,
)
from repro.gwas.session import KRRSession, RRSession
from repro.gwas.cv import CrossValidationResult, grid_search_cv
from repro.gwas.workflow import GWASWorkflow, WorkflowResult

__all__ = [
    "PrecisionPlan",
    "RRConfig",
    "KRRConfig",
    "KRRSession",
    "RRSession",
    "mspe",
    "mean_squared_prediction_error",
    "pearson_correlation",
    "accuracy_report",
    "grid_search_cv",
    "CrossValidationResult",
    "GWASWorkflow",
    "WorkflowResult",
]
