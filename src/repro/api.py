"""repro.api — the stable public facade of the reproduction.

The solver API is organised around tile-native **sessions**
(:class:`~repro.gwas.session.KRRSession`,
:class:`~repro.gwas.session.RRSession`): one object owns the phase
pipeline (Build → Associate → Predict) and keeps the kernel matrix
tiled end to end, with zero dense n×n round-trips (see
``docs/api.md`` for the memory contract).

Typical use::

    from repro.api import KRRSession, KRRConfig, PrecisionPlan

    session = KRRSession(KRRConfig(
        precision_plan=PrecisionPlan.adaptive_fp16()))
    session.fit(train_genotypes, train_phenotypes)
    predictions = session.predict(test_genotypes)

Fitting and serving are decoupled by the immutable
:class:`~repro.gwas.model.FittedModel` artifact: ``export_model()``
extracts the predict-side state (weights, γ/α, SNP-panel contract and
the storage-precision tiled factorization), ``save``/``load``
round-trip it bitwise with each tile in its native precision bytes.
The artifact is data only: ``KRRSession.from_model`` restores a
session that predicts from it (close it when done), and the
:mod:`repro.serve` tier answers concurrent predict requests against
registered models through micro-batches at the model's
``predict_batch_rows``::

    model = session.export_model()
    model.save("height.npz")

    restored = KRRSession.from_model(FittedModel.load("height.npz"))
    predictions = restored.predict(cohort)
    restored.close()

    registry = ModelRegistry(max_resident_bytes=2 << 30)
    registry.register("height", FittedModel.load("height.npz"))
    with PredictionService(registry) as service:
        result = service.predict(cohort, model="height")
"""

from repro.data.dataset import GWASDataset, TrainTestSplit
from repro.gwas.config import KRRConfig, PrecisionPlan, RRConfig, ServeConfig
from repro.gwas.cv import CrossValidationResult, grid_search_cv
from repro.gwas.metrics import (
    accuracy_report,
    mean_squared_prediction_error,
    mspe,
    pearson_correlation,
)
from repro.gwas.model import FittedModel
from repro.gwas.session import KRRSession, RRSession
from repro.gwas.workflow import GWASWorkflow, WorkflowResult
from repro.precision.formats import Precision
from repro.serve import (
    ModelKey,
    ModelRegistry,
    PredictionService,
    PredictResult,
)
from repro.store import StoreStats, TileStore

__all__ = [
    "KRRSession",
    "RRSession",
    "KRRConfig",
    "RRConfig",
    "ServeConfig",
    "PrecisionPlan",
    "Precision",
    "FittedModel",
    "ModelRegistry",
    "ModelKey",
    "PredictionService",
    "PredictResult",
    "TileStore",
    "StoreStats",
    "GWASDataset",
    "TrainTestSplit",
    "GWASWorkflow",
    "WorkflowResult",
    "grid_search_cv",
    "CrossValidationResult",
    "mspe",
    "mean_squared_prediction_error",
    "pearson_correlation",
    "accuracy_report",
]
