"""Operation counts of the GWAS phases.

Sec. VI-C of the paper: "MxP SYRK and Cholesky matrix computations
account for most operations with an algorithmic complexity of
``N_P² × N_S`` and ``1/3 × N_P³`` respectively."  These counts drive
both the performance model and the "mixed-precision ExaOp/s" numbers
reported by the paper (operations are counted once regardless of the
precision they execute in).
"""

from __future__ import annotations

from repro.precision.formats import Precision
from repro.precision.gemm import gemm_flop_count

__all__ = [
    "build_flops",
    "associate_flops",
    "solve_flops",
    "predict_flops",
    "associate_precision_fractions",
]


def build_flops(n_patients: int, n_snps: int) -> float:
    """Build phase: the distance SYRK over the SNP dimension (``N_P²·N_S``)."""
    return float(n_patients) ** 2 * float(n_snps)


def associate_flops(n_patients: int) -> float:
    """Associate phase: the Cholesky factorization (``N_P³/3``)."""
    return float(n_patients) ** 3 / 3.0


def solve_flops(n_patients: int, n_phenotypes: int) -> float:
    """Triangular solves for the weight panel (``2·N_P²·N_Ph``)."""
    return 2.0 * float(n_patients) ** 2 * float(n_phenotypes)


def predict_flops(n_test: int, n_train: int, n_snps: int, n_phenotypes: int) -> float:
    """Predict phase: cross kernel build plus ``K_test @ W``."""
    return (gemm_flop_count(n_test, n_train, n_snps)
            + gemm_flop_count(n_test, n_train, n_phenotypes))


def associate_precision_fractions(n_tiles: int,
                                  low_precision: Precision = Precision.FP16,
                                  working_precision: Precision = Precision.FP32,
                                  ) -> dict[Precision, float]:
    """Fraction of Associate-phase operations per precision.

    With the adaptive mosaic all off-diagonal GEMM updates run in the
    low precision while POTRF/TRSM/SYRK panel work stays in the working
    precision.  For an ``nt × nt`` tile grid, the GEMM share of the
    Cholesky operation count is ``(nt-1)(nt-2)/(nt² + ...) → 1`` as
    ``nt`` grows; the exact tile-level ratio is computed here.
    """
    nt = max(int(n_tiles), 1)
    # per-tile op counts in tile units (nb³): potrf ~ 1/3, trsm ~ 1,
    # syrk ~ 1, gemm ~ 2 (counted per k-step)
    potrf = nt * (1.0 / 3.0)
    trsm = nt * (nt - 1) / 2.0
    syrk = nt * (nt - 1) / 2.0
    gemm = nt * (nt - 1) * (nt - 2) / 6.0 * 2.0
    total = potrf + trsm + syrk + gemm
    if total <= 0:
        return {working_precision: 1.0}
    high = (potrf + trsm + syrk) / total
    low = gemm / total
    if low_precision == working_precision:
        return {working_precision: 1.0}
    return {working_precision: high, low_precision: low}
