"""Dataset containers and train/test splitting.

``GWASDataset`` bundles the genotype matrix, the phenotype panel, the
confounder covariates and the phenotype names, and provides the 80/20
train/test split used throughout the paper's accuracy experiments
(Sec. VII-B: "80% of the data is used for training and 20% is withheld
for testing").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["GWASDataset", "TrainTestSplit"]


@dataclass
class GWASDataset:
    """A GWAS cohort: genotypes, phenotypes and confounders.

    Attributes
    ----------
    genotypes:
        ``n × ns`` matrix of 0/1/2 dosages (int8 or wider).
    phenotypes:
        ``n × nph`` matrix of phenotype values (float64).  Binary
        disease phenotypes are stored as 0.0/1.0.
    confounders:
        Optional ``n × c`` covariate matrix (float64).
    phenotype_names:
        Names of the phenotype columns.
    name:
        Free-form dataset name (e.g. ``"ukb-like"``, ``"msprime-like"``).
    """

    genotypes: np.ndarray
    phenotypes: np.ndarray
    confounders: np.ndarray | None = None
    phenotype_names: list[str] = field(default_factory=list)
    name: str = "synthetic"

    def __post_init__(self) -> None:
        self.genotypes = np.asarray(self.genotypes)
        self.phenotypes = np.asarray(self.phenotypes, dtype=np.float64)
        if self.phenotypes.ndim == 1:
            self.phenotypes = self.phenotypes[:, None]
        if self.genotypes.ndim != 2 or self.phenotypes.ndim != 2:
            raise ValueError("genotypes and phenotypes must be 2D")
        if self.genotypes.shape[0] != self.phenotypes.shape[0]:
            raise ValueError("genotypes and phenotypes must have the same number of rows")
        if self.confounders is not None:
            self.confounders = np.asarray(self.confounders, dtype=np.float64)
            if self.confounders.shape[0] != self.n_individuals:
                raise ValueError("confounders must have one row per individual")
        if not self.phenotype_names:
            self.phenotype_names = [f"phenotype_{k}" for k in range(self.n_phenotypes)]
        if len(self.phenotype_names) != self.n_phenotypes:
            raise ValueError("phenotype_names must match the number of phenotype columns")

    # ------------------------------------------------------------------
    @property
    def n_individuals(self) -> int:
        return self.genotypes.shape[0]

    @property
    def n_snps(self) -> int:
        return self.genotypes.shape[1]

    @property
    def n_phenotypes(self) -> int:
        return self.phenotypes.shape[1]

    @property
    def n_confounders(self) -> int:
        return 0 if self.confounders is None else self.confounders.shape[1]

    def phenotype(self, name: str) -> np.ndarray:
        """Return one phenotype column by name."""
        try:
            idx = self.phenotype_names.index(name)
        except ValueError as exc:
            raise KeyError(f"unknown phenotype {name!r}; "
                           f"available: {self.phenotype_names}") from exc
        return self.phenotypes[:, idx]

    # ------------------------------------------------------------------
    def split(self, train_fraction: float = 0.8, seed: int | None = 0) -> "TrainTestSplit":
        """Random train/test split (default 80/20 as in the paper)."""
        if not 0.0 < train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        n = self.n_individuals
        rng = np.random.default_rng(seed)
        perm = rng.permutation(n)
        n_train = int(round(train_fraction * n))
        n_train = min(max(n_train, 1), n - 1)
        train_idx = np.sort(perm[:n_train])
        test_idx = np.sort(perm[n_train:])
        return TrainTestSplit(dataset=self, train_indices=train_idx,
                              test_indices=test_idx)

    def subset(self, indices: np.ndarray, name: str | None = None) -> "GWASDataset":
        """Row subset of the dataset."""
        indices = np.asarray(indices)
        return GWASDataset(
            genotypes=self.genotypes[indices],
            phenotypes=self.phenotypes[indices],
            confounders=None if self.confounders is None else self.confounders[indices],
            phenotype_names=list(self.phenotype_names),
            name=name or self.name,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GWASDataset({self.name!r}, n={self.n_individuals}, "
            f"snps={self.n_snps}, phenotypes={self.n_phenotypes}, "
            f"confounders={self.n_confounders})"
        )


@dataclass
class TrainTestSplit:
    """A train/test partition of a :class:`GWASDataset`."""

    dataset: GWASDataset
    train_indices: np.ndarray
    test_indices: np.ndarray

    def __post_init__(self) -> None:
        self.train_indices = np.asarray(self.train_indices)
        self.test_indices = np.asarray(self.test_indices)
        overlap = np.intersect1d(self.train_indices, self.test_indices)
        if overlap.size:
            raise ValueError("train and test indices overlap")

    @property
    def train(self) -> GWASDataset:
        return self.dataset.subset(self.train_indices, name=f"{self.dataset.name}-train")

    @property
    def test(self) -> GWASDataset:
        return self.dataset.subset(self.test_indices, name=f"{self.dataset.name}-test")

    @property
    def n_train(self) -> int:
        return int(self.train_indices.size)

    @property
    def n_test(self) -> int:
        return int(self.test_indices.size)
