"""Fig. 5 — MSPE: band-precision RR configs vs adaptive RR vs adaptive KRR.

Paper result (per disease): the band configurations down to 20% FP32
match the full-FP32 MSPE, the most constricted configuration
deteriorates, the adaptive plan matches FP32, and KRR achieves a
clearly lower MSPE than every RR variant.  (At the scaled-down cohort
size the deterioration is demonstrated with an FP8-banded analogue —
see the module docstring of ``repro.experiments.mspe_sweep``.)
"""

import numpy as np
from conftest import run_once

from repro.experiments.mspe_sweep import run_mspe_sweep
from repro.experiments.report import format_table

SEED = 42


def test_fig05_mspe_sweep(benchmark, accuracy_scale, claims):
    result = run_once(benchmark, run_mspe_sweep, scale=accuracy_scale,
                      seed=SEED)

    print("\n=== Fig. 5: MSPE per precision configuration ===")
    print(format_table(result.rows(), precision=4))

    fp32 = result.config_mspe("100(FP32)")
    adaptive_rr = result.config_mspe("Adaptive RR FP32/FP16")
    adaptive_krr = result.config_mspe("Adaptive KRR FP32/FP16")
    constricted = result.config_mspe("10(FP32):90(FP8_E4M3)")
    claim = claims(SEED)

    for disease in fp32:
        # moderate FP16 band configurations preserve the FP32 MSPE
        for frac in (80, 60, 40, 20):
            label = f"{frac}(FP32):{100 - frac}(FP16)"
            claim.check(f"{disease}: |MSPE {label} - FP32|",
                        abs(result.mspe[disease][label] - fp32[disease]),
                        "<=", 0.02 * fp32[disease])
        # adaptive RR matches FP32 RR
        claim.check(f"{disease}: |MSPE adaptive RR - FP32|",
                    abs(adaptive_rr[disease] - fp32[disease]),
                    "<=", 0.02 * fp32[disease])
        # the over-constricted configuration never *improves* meaningfully
        claim.check(f"{disease}: MSPE 10(FP32):90(FP8_E4M3)",
                    constricted[disease], ">=", fp32[disease] * (1.0 - 0.01))
        # KRR achieves a clearly lower MSPE than the RR reference
        claim.check(f"{disease}: MSPE adaptive KRR", adaptive_krr[disease],
                    "<", 0.95 * fp32[disease])

    # on average the over-constricted configuration is worse than FP32,
    # and the deterioration is visible on at least one disease
    claim.check("mean MSPE 10(FP32):90(FP8_E4M3)",
                np.mean(list(constricted.values())),
                ">=", np.mean(list(fp32.values())))
    claim.check("max over diseases: MSPE 10(FP32):90(FP8_E4M3) - 1.001 FP32",
                max(constricted[d] - 1.001 * fp32[d] for d in fp32), ">", 0.0)
