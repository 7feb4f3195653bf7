"""Figs. 5 and 6 — MSPE comparisons across precision configurations.

Fig. 5 (per disease): FP32 ridge regression against the hand-tuned band
configurations (100/80/60/40/20/10% FP32, rest FP16), the adaptive
FP32/FP16 RR, and the adaptive FP32/FP16 KRR.  Expected shape:

* band configurations down to 20% FP32 match the FP32 MSPE,
* the most constricted band configuration *deteriorates*,
* adaptive RR matches FP32 RR, and
* adaptive KRR achieves a clearly lower MSPE than every RR variant.

Scale note: at the paper's dimensions (245K training patients) the
Gram-matrix entries overflow/erode FP16 once 90% of the bands drop to
FP16, which is the deterioration Fig. 5 shows.  At the scaled-down
cohort sizes used here FP16 is effectively exact for the RR system, so
the sweep additionally includes a ``10(FP32):90(FP8_E4M3)`` band
configuration — the scaled-down analogue of "one precision level below
what the data needs" — which reproduces the deterioration trend; see
EXPERIMENTS.md.

Fig. 6: the same KRR comparison on msprime-like (coalescent) cohorts
with the FP8 floor available on GH200 — FP8 KRR is slightly worse than
FP16 KRR but still better than FP16 RR.
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
from repro.precision.formats import Precision

__all__ = ["MSPESweepResult", "run_mspe_sweep", "run_mspe_fp8"]

#: The paper's Fig. 5 band configurations (fraction of FP32 bands).
BAND_FRACTIONS: tuple[float, ...] = (1.0, 0.8, 0.6, 0.4, 0.2, 0.1)


@dataclass
class MSPESweepResult:
    """MSPE per (disease, configuration) plus the configuration order."""

    configurations: list[str]
    mspe: dict[str, dict[str, float]] = field(default_factory=dict)
    pearson: dict[str, dict[str, float]] = field(default_factory=dict)

    def rows(self) -> list[dict[str, object]]:
        """One row per disease, one column per configuration (for printing)."""
        out = []
        for disease, values in self.mspe.items():
            row: dict[str, object] = {"phenotype": disease}
            row.update({cfg: values[cfg] for cfg in self.configurations})
            out.append(row)
        return out

    def config_mspe(self, configuration: str) -> dict[str, float]:
        return {d: v[configuration] for d, v in self.mspe.items()}


def run_mspe_sweep(scale: str | ScalePreset = "small",
                   diseases: tuple[str, ...] | None = None,
                   rr_regularization: float = 10.0,
                   rr_tile_size: int = 8,
                   seed: int = 42) -> MSPESweepResult:
    """Fig. 5: MSPE of band-precision RR vs adaptive RR vs adaptive KRR.

    ``rr_tile_size`` is deliberately small so the feature-space Gram
    matrix has enough tile bands for the band configurations to differ.
    """
    preset = get_scale(scale)
    cohort = make_ukb_like_cohort(
        n_individuals=preset.n_individuals, n_snps=preset.n_snps, seed=seed,
    )
    names = (list(diseases) if diseases is not None
             else cohort.phenotype_names[:preset.n_diseases])
    cohort = GWASDataset(
        genotypes=cohort.genotypes,
        phenotypes=cohort.phenotypes[
            :, [cohort.phenotype_names.index(d) for d in names]],
        confounders=cohort.confounders,
        phenotype_names=names,
        name=cohort.name,
    )

    workflow = GWASWorkflow(cohort, train_fraction=0.8, seed=0)

    configurations: list[str] = []
    result = MSPESweepResult(configurations=configurations)
    for name in cohort.phenotype_names:
        result.mspe[name] = {}
        result.pearson[name] = {}

    def record(label: str, wf_result) -> None:
        if label not in configurations:
            configurations.append(label)
        for name in cohort.phenotype_names:
            result.mspe[name][label] = wf_result.mspe(name)
            result.pearson[name][label] = wf_result.pearson(name)

    # --- band-precision RR configurations ("rainbow" baselines)
    for fraction in BAND_FRACTIONS:
        plan = (PrecisionPlan.fp32() if fraction >= 1.0
                else PrecisionPlan.band(fraction, low_precision=Precision.FP16))
        rr_cfg = RRConfig(tile_size=rr_tile_size, regularization=rr_regularization,
                          precision_plan=plan)
        record(plan.label(), workflow.run_rr(rr_cfg))

    # --- the over-constricted configuration (deterioration analogue)
    constricted = PrecisionPlan.band(0.1, low_precision=Precision.FP8_E4M3)
    record(constricted.label(), workflow.run_rr(
        RRConfig(tile_size=rr_tile_size, regularization=rr_regularization,
                 precision_plan=constricted)))

    # --- adaptive RR (FP32/FP16)
    adaptive_rr = RRConfig(tile_size=rr_tile_size, regularization=rr_regularization,
                           precision_plan=PrecisionPlan.adaptive_fp16())
    record("Adaptive RR FP32/FP16", workflow.run_rr(adaptive_rr))

    # --- adaptive KRR (FP32/FP16), the paper's method
    adaptive_krr = KRRConfig(tile_size=preset.tile_size,
                             precision_plan=PrecisionPlan.adaptive_fp16())
    record("Adaptive KRR FP32/FP16", workflow.run_krr(adaptive_krr))

    return result


@dataclass
class MSPEFP8Result:
    """Fig. 6 outcome: MSPE per configuration on coalescent cohorts."""

    sizes: list[tuple[int, int]]
    mspe: dict[str, list[float]] = field(default_factory=dict)

    def rows(self) -> list[dict[str, object]]:
        out = []
        for k, (n, ns) in enumerate(self.sizes):
            row: dict[str, object] = {"n_patients": n, "n_snps": ns}
            for cfg, series in self.mspe.items():
                row[cfg] = series[k]
            out.append(row)
        return out


def run_mspe_fp8(scale: str | ScalePreset = "small",
                 seed: int = 7) -> MSPEFP8Result:
    """Fig. 6: KRR-FP16 vs KRR-FP8 vs RR-FP16 MSPE on coalescent cohorts.

    The paper sweeps matrix sizes with ``NP = NS`` plus one
    ``NP = 300K, NS = 40K`` point; scaled down here to two cohort sizes
    derived from the preset.
    """
    preset = get_scale(scale)
    base_n = preset.coalescent_individuals
    base_s = preset.coalescent_snps
    sizes = [(max(base_n // 2, 120), max(base_s // 2, 40)), (base_n, base_s)]

    result = MSPEFP8Result(sizes=sizes)
    # sharper kernel bandwidth for coalescent (rare-variant-dominated) data;
    # see the note in repro.experiments.pearson.
    coalescent_gamma = 0.03
    configs = {
        "RR FP32/FP16": ("rr", PrecisionPlan.adaptive_fp16()),
        "KRR FP32/FP16": ("krr", PrecisionPlan.adaptive_fp16()),
        "KRR FP32/FP8": ("krr", PrecisionPlan.adaptive_fp8()),
    }
    for label in configs:
        result.mspe[label] = []

    rng = np.random.default_rng(seed)
    for n, ns in sizes:
        genotypes = simulate_coalescent_genotypes(
            n, ns, segment_snps=max(ns // 8, 5), seed=int(rng.integers(0, 2 ** 31 - 1)),
        )
        phenotypes = simulate_phenotypes(
            genotypes, n_phenotypes=1, n_causal=max(ns // 4, 8),
            n_epistatic_pairs=max(ns // 3, 10),
            heritability_additive=0.08, heritability_epistatic=0.77,
            seed=int(rng.integers(0, 2 ** 31 - 1)),
        )
        cohort = GWASDataset(genotypes=genotypes, phenotypes=phenotypes,
                             phenotype_names=["synthetic"], name="msprime-like")
        tile = max(min(preset.tile_size, n // 4), 16)
        workflow = GWASWorkflow(cohort, train_fraction=0.8, seed=0)
        for label, (method, plan) in configs.items():
            if method == "rr":
                res = workflow.run_rr(RRConfig(tile_size=tile, regularization=10.0,
                                               precision_plan=plan))
            else:
                res = workflow.run_krr(KRRConfig(tile_size=tile,
                                                 gamma=coalescent_gamma,
                                                 precision_plan=plan))
            result.mspe[label].append(res.mspe("synthetic"))
    return result
