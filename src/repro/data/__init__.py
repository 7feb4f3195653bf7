"""Synthetic GWAS data substrate.

The paper evaluates on restricted-access UK BioBank data plus synthetic
cohorts from msprime.  Neither is available here, so this package
provides generators whose *statistical structure* matches what the
paper's conclusions rely on:

* genotypes coded 0/1/2 with realistic allele-frequency spectra and
  linkage-disequilibrium (LD) block structure
  (:mod:`repro.data.genotypes`), plus a simplified coalescent simulator
  standing in for msprime (:mod:`repro.data.coalescent`);
* quantitative and liability-threshold phenotypes driven by additive
  effects, *epistatic* (pairwise-interaction) effects, and confounder
  effects (:mod:`repro.data.phenotypes`) — the epistatic component is
  what makes KRR outperform linear RR, the paper's central accuracy
  claim;
* confounder covariates (age, sex, genetic principal components)
  (:mod:`repro.data.confounders`);
* a UK-BioBank-like multi-disease cohort builder (:mod:`repro.data.ukb`);
* dataset containers with train/test splitting
  (:mod:`repro.data.dataset`).
"""

from repro.data.genotypes import GenotypeSimulator, LDBlockConfig, simulate_genotypes
from repro.data.coalescent import CoalescentSimulator, simulate_coalescent_genotypes
from repro.data.phenotypes import (
    PhenotypeModel,
    simulate_phenotypes,
    liability_to_binary,
)
from repro.data.confounders import simulate_confounders
from repro.data.ukb import UKBLikeCohort, make_ukb_like_cohort, DISEASES
from repro.data.dataset import GWASDataset, TrainTestSplit

__all__ = [
    "GenotypeSimulator",
    "LDBlockConfig",
    "simulate_genotypes",
    "CoalescentSimulator",
    "simulate_coalescent_genotypes",
    "PhenotypeModel",
    "simulate_phenotypes",
    "liability_to_binary",
    "simulate_confounders",
    "UKBLikeCohort",
    "make_ukb_like_cohort",
    "DISEASES",
    "GWASDataset",
    "TrainTestSplit",
]
