"""Table I — Pearson correlations: RR vs KRR per phenotype.

For each of the five UK-BioBank-like diseases the experiment reports
the Pearson correlation between held-out ground truth and predictions
under

* RR with the FP32/FP16 adaptive plan (the paper's "RR-FP16" column),
* KRR with the FP32/FP16 adaptive plan ("KRR-FP16"), and
* — for the synthetic msprime-like cohort only, as in the paper —
  KRR with the FP32/FP8 adaptive plan ("KRR-FP8").

Expected shape: KRR correlations are substantially higher than RR for
every phenotype, and KRR-FP8 on the synthetic cohort sits between
RR-FP16 and KRR-FP16.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.coalescent import simulate_coalescent_genotypes
from repro.data.dataset import GWASDataset
from repro.data.phenotypes import simulate_phenotypes
from repro.data.ukb import make_ukb_like_cohort
from repro.experiments.scale import ScalePreset, get_scale
from repro.gwas.config import KRRConfig, PrecisionPlan, RRConfig
from repro.gwas.workflow import GWASWorkflow

__all__ = ["PearsonTable", "run_pearson_table"]


@dataclass
class PearsonTable:
    """Table I analogue: one row per phenotype."""

    rr_fp16: dict[str, float] = field(default_factory=dict)
    krr_fp16: dict[str, float] = field(default_factory=dict)
    krr_fp8: dict[str, float | None] = field(default_factory=dict)

    def rows(self) -> list[dict[str, object]]:
        out = []
        for name in self.rr_fp16:
            fp8 = self.krr_fp8.get(name)
            out.append({
                "phenotype": name,
                "RR-FP16": self.rr_fp16[name],
                "KRR-FP16": self.krr_fp16[name],
                "KRR-FP8": "N/A" if fp8 is None else fp8,
            })
        return out


def run_pearson_table(scale: str | ScalePreset = "small",
                      seed: int = 42) -> PearsonTable:
    """Run the Table I experiment at the given scale."""
    preset = get_scale(scale)
    table = PearsonTable()

    # ----- UK-BioBank-like diseases (RR-FP16 and KRR-FP16 columns)
    cohort = make_ukb_like_cohort(
        n_individuals=preset.n_individuals, n_snps=preset.n_snps, seed=seed,
    )
    keep = min(preset.n_diseases, cohort.n_phenotypes)
    cohort = GWASDataset(
        genotypes=cohort.genotypes,
        phenotypes=cohort.phenotypes[:, :keep],
        confounders=cohort.confounders,
        phenotype_names=cohort.phenotype_names[:keep],
        name=cohort.name,
    )
    workflow = GWASWorkflow(cohort, train_fraction=0.8, seed=0)
    rr_res = workflow.run_rr(RRConfig(tile_size=preset.tile_size, regularization=10.0,
                                      precision_plan=PrecisionPlan.adaptive_fp16()))
    krr_res = workflow.run_krr(KRRConfig(tile_size=preset.tile_size,
                                         precision_plan=PrecisionPlan.adaptive_fp16()))
    for name in cohort.phenotype_names:
        table.rr_fp16[name] = rr_res.pearson(name)
        table.krr_fp16[name] = krr_res.pearson(name)
        table.krr_fp8[name] = None  # UK BioBank cannot run on the FP8 system (license)

    # ----- synthetic msprime-like cohort (all three columns)
    rng = np.random.default_rng(seed + 1)
    genotypes = simulate_coalescent_genotypes(
        preset.coalescent_individuals, preset.coalescent_snps,
        segment_snps=max(preset.coalescent_snps // 8, 5),
        seed=int(rng.integers(0, 2 ** 31 - 1)),
    )
    phenotypes = simulate_phenotypes(
        genotypes, n_phenotypes=1,
        n_causal=max(preset.coalescent_snps // 4, 8),
        n_epistatic_pairs=max(preset.coalescent_snps // 3, 10),
        heritability_additive=0.08, heritability_epistatic=0.77,
        seed=int(rng.integers(0, 2 ** 31 - 1)),
    )
    synthetic = GWASDataset(genotypes=genotypes, phenotypes=phenotypes,
                            phenotype_names=["Synthetic [msprime]"],
                            name="msprime-like")
    tile = max(min(preset.tile_size, synthetic.n_individuals // 4), 16)
    syn_wf = GWASWorkflow(synthetic, train_fraction=0.8, seed=0)
    # Coalescent cohorts carry mostly rare variants, so pairwise distances
    # are small; a sharper bandwidth keeps the Gaussian kernel informative
    # (and diagonally dominant enough for the FP8 tile storage).
    coalescent_gamma = 0.03
    syn_rr = syn_wf.run_rr(RRConfig(tile_size=tile, regularization=10.0,
                                    precision_plan=PrecisionPlan.adaptive_fp16()))
    syn_krr16 = syn_wf.run_krr(KRRConfig(tile_size=tile, gamma=coalescent_gamma,
                                         precision_plan=PrecisionPlan.adaptive_fp16()))
    syn_krr8 = syn_wf.run_krr(KRRConfig(tile_size=tile, gamma=coalescent_gamma,
                                        precision_plan=PrecisionPlan.adaptive_fp8()))
    name = "Synthetic [msprime]"
    table.rr_fp16[name] = syn_rr.pearson(name)
    table.krr_fp16[name] = syn_krr16.pearson(name)
    table.krr_fp8[name] = syn_krr8.pearson(name)
    return table
