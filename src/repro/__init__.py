"""repro — Mixed-Precision Kernel Ridge Regression for multivariate GWAS.

Reproduction of Ltaief et al., "Toward Capturing Genetic Epistasis From
Multivariate Genome-Wide Association Studies Using Mixed-Precision Kernel
Ridge Regression" (SC 2024, Gordon Bell finalist).

The package is organised around the paper's three-phase KRR workflow
(Build / Associate / Predict) and the substrates it depends on:

``repro.precision``
    Software-emulated low-precision arithmetic (FP64/FP32/FP16,
    FP8 E4M3, INT8) and the tensor-core style mixed-precision
    GEMM/SYRK variants used throughout the paper.
``repro.tiles``
    Tiled matrix storage with a per-tile precision mosaic, the
    tile-centric adaptive precision rule, and band ("rainbow")
    precision assignments.
``repro.runtime``
    A PaRSEC-like dynamic task runtime: task DAGs, one dataflow
    drain with a serial, a threaded and a process lane, and a graph
    replayer that times a DAG on modelled devices with a communication
    engine deciding whether precision conversion happens at the sender
    or the receiver.
``repro.linalg``
    Tiled mixed-precision Cholesky factorization, triangular solves,
    SYRK and GEMM drivers built on the tile kernels.
``repro.distance``
    GEMM-form squared Euclidean distances (the INT8 tensor-core trick),
    the Gaussian kernel, and the fused Build phase.
``repro.gwas``
    The paper's contribution: ridge regression (RR) and kernel ridge
    regression (KRR) multivariate GWAS with mixed-precision plans,
    metrics, and cross-validation, behind the two tile-native solver
    sessions (``repro.api`` is the stable facade).
``repro.settings``
    The one module that reads the environment: the six ``REPRO_*``
    variables, parsed and validated into a frozen ``Settings``.
``repro.data``
    Synthetic genotype/phenotype generation (LD-block and coalescent
    simulators, UK-BioBank-like cohorts) replacing the restricted-access
    datasets used in the paper.
``repro.perfmodel``
    Machine/system performance models used to regenerate the paper's
    supercomputer-scale performance figures.
``repro.experiments``
    One driver per paper table/figure.
"""

from repro.precision import Precision
from repro.data.dataset import GWASDataset, TrainTestSplit
from repro.gwas.config import KRRConfig, PrecisionPlan, RRConfig
from repro.gwas.metrics import mspe, pearson_correlation
from repro.gwas.session import KRRSession, RRSession

__all__ = [
    "Precision",
    "GWASDataset",
    "TrainTestSplit",
    "KRRSession",
    "RRSession",
    "KRRConfig",
    "RRConfig",
    "PrecisionPlan",
    "mspe",
    "pearson_correlation",
]

__version__ = "1.0.0"
