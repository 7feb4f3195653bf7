"""Table I — Pearson correlations: RR vs KRR per phenotype.

Paper result: for every phenotype the KRR prediction correlates much
more strongly with the held-out ground truth than the RR prediction
(0.81–0.87 vs 0.20–0.32 at the paper's scale — "up to four times
more"); on the synthetic msprime cohort the FP8 run sits between
RR-FP16 and KRR-FP16.
"""

import numpy as np
from conftest import run_once

from repro.experiments.pearson import run_pearson_table
from repro.experiments.report import format_table


SEED = 42


def test_table1_pearson_correlations(benchmark, accuracy_scale, claims):
    table = run_once(benchmark, run_pearson_table, scale=accuracy_scale,
                     seed=SEED)

    print("\n=== Table I: Pearson correlations (RR vs KRR) ===")
    print(format_table(table.rows(), precision=4))

    diseases = [k for k in table.rr_fp16 if k != "Synthetic [msprime]"]
    rr_mean = float(np.mean([table.rr_fp16[d] for d in diseases]))
    krr_mean = float(np.mean([table.krr_fp16[d] for d in diseases]))
    print(f"mean over diseases: RR-FP16 = {rr_mean:.3f}, KRR-FP16 = {krr_mean:.3f} "
          f"(advantage {krr_mean / max(rr_mean, 1e-9):.2f}x)")

    # shape: KRR clearly ahead of RR on average and on most diseases
    claim = claims(SEED)
    claim.check("mean Pearson KRR-FP16 over diseases", krr_mean,
                ">", rr_mean + 0.1)
    wins = sum(table.krr_fp16[d] > table.rr_fp16[d] for d in diseases)
    claim.check("diseases where KRR-FP16 beats RR-FP16", wins,
                ">=", len(diseases) - 1)

    # synthetic msprime row: KRR-FP8 between RR-FP16 and KRR-FP16 (allowing
    # a small tolerance around the FP16 value, as in the paper's Table I)
    name = "Synthetic [msprime]"
    claim.check(f"{name}: Pearson KRR-FP16", table.krr_fp16[name],
                ">", table.rr_fp16[name])
    assert table.krr_fp8[name] is not None
    claim.check(f"{name}: Pearson KRR-FP8 vs RR-FP16", table.krr_fp8[name],
                ">", table.rr_fp16[name])
    claim.check(f"{name}: Pearson KRR-FP8 vs KRR-FP16", table.krr_fp8[name],
                "<=", table.krr_fp16[name] + 0.05)
