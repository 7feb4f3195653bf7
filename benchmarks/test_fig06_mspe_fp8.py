"""Fig. 6 — MSPE with the FP8 floor on msprime-like (coalescent) cohorts.

Paper result: the MSPE of FP8-enabled KRR is slightly higher than
FP16-enabled KRR but remains lower than FP16-enabled RR.
"""

from conftest import run_once

from repro.experiments.mspe_sweep import run_mspe_fp8
from repro.experiments.report import format_table

SEED = 7


def test_fig06_mspe_fp8(benchmark, accuracy_scale, claims):
    result = run_once(benchmark, run_mspe_fp8, scale=accuracy_scale,
                      seed=SEED)

    print("\n=== Fig. 6: MSPE on coalescent cohorts (FP16 vs FP8 floors) ===")
    print(format_table(result.rows(), precision=4))

    claim = claims(SEED)
    for idx, size in enumerate(result.sizes):
        rr = result.mspe["RR FP32/FP16"][idx]
        krr16 = result.mspe["KRR FP32/FP16"][idx]
        krr8 = result.mspe["KRR FP32/FP8"][idx]
        # KRR (either floor) beats RR
        claim.check(f"n={size}: MSPE KRR FP32/FP16", krr16, "<", rr)
        claim.check(f"n={size}: MSPE KRR FP32/FP8", krr8, "<", rr)
        # the FP8 floor costs at most a small MSPE increase over FP16
        claim.check(f"n={size}: MSPE KRR FP32/FP8 vs 1.10 FP16", krr8,
                    "<=", krr16 * 1.10 + 1e-9)
