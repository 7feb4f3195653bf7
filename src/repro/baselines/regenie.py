"""REGENIE-like stacked block ridge regression.

REGENIE (Mbatchou et al., Nature Genetics 2021 — reference [13] of the
paper) is the state-of-the-art CPU whole-genome regression software the
paper compares against.  Its core idea is a two-level *stacked ridge*:

* **Level 0** — partition the genome into contiguous SNP blocks; within
  each block fit ridge regressions at several regularization values and
  keep the per-block predictions as a small set of representative
  variables;
* **Level 1** — fit a second ridge regression (with cross-validated
  regularization) on the stacked level-0 predictions, producing the
  whole-genome predictor.

We implement both levels with a leave-out scheme at level 0 so the
level-1 features are (approximately) out-of-sample.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

__all__ = ["RegenieConfig", "RegenieLikeRegression"]


@dataclass(frozen=True)
class RegenieConfig:
    """Configuration of the stacked ridge regression.

    Parameters
    ----------
    block_size:
        SNPs per level-0 block (REGENIE defaults to ~1000 for millions
        of SNPs; scaled down here).
    level0_ridge_values:
        Regularization grid of the level-0 block ridges; each value
        contributes one representative variable per block.
    level1_ridge_values:
        Regularization grid of the level-1 ridge, selected by K-fold CV.
    n_folds:
        Folds used both for level-0 out-of-fold predictions and level-1
        selection.
    """

    block_size: int = 32
    level0_ridge_values: tuple[float, ...] = (0.1, 1.0, 10.0, 100.0)
    level1_ridge_values: tuple[float, ...] = (0.01, 0.1, 1.0, 10.0, 100.0)
    n_folds: int = 5

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")
        if self.n_folds < 2:
            raise ValueError("n_folds must be at least 2")
        if not self.level0_ridge_values or not self.level1_ridge_values:
            raise ValueError("ridge value grids must be non-empty")


def _ridge_solve(x: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Ridge coefficients via the normal equations (small systems)."""
    p = x.shape[1]
    return np.linalg.solve(x.T @ x + lam * np.eye(p), x.T @ y)


class RegenieLikeRegression:
    """Two-level stacked ridge regression (REGENIE-like baseline).

    The model handles a single phenotype per fit (REGENIE also fits one
    trait at a time); use :meth:`fit_multivariate` for a panel.
    """

    def __init__(self, config: RegenieConfig | None = None, **overrides) -> None:
        if config is None:
            config = RegenieConfig()
        if overrides:
            config = dataclasses.replace(config, **overrides)
        self.config = config
        self._level0_betas: list[list[np.ndarray]] = []
        self._level1_beta: np.ndarray | None = None
        self._blocks: list[slice] = []
        self._x_mean: np.ndarray | None = None
        self._x_scale: np.ndarray | None = None
        self._y_mean: float = 0.0

    # ------------------------------------------------------------------
    def _make_blocks(self, n_snps: int) -> list[slice]:
        bs = self.config.block_size
        return [slice(s, min(s + bs, n_snps)) for s in range(0, n_snps, bs)]

    def _standardize(self, g: np.ndarray, fit: bool) -> np.ndarray:
        g = np.asarray(g, dtype=np.float64)
        if fit:
            self._x_mean = g.mean(axis=0)
            scale = g.std(axis=0)
            scale[scale == 0] = 1.0
            self._x_scale = scale
        return (g - self._x_mean) / self._x_scale

    def _fold_indices(self, n: int, seed: int = 0) -> list[np.ndarray]:
        rng = np.random.default_rng(seed)
        return [np.sort(f) for f in np.array_split(rng.permutation(n), self.config.n_folds)]

    # ------------------------------------------------------------------
    def fit(self, genotypes: np.ndarray, phenotype: np.ndarray,
            seed: int = 0) -> "RegenieLikeRegression":
        """Fit the stacked ridge to one phenotype."""
        cfg = self.config
        x = self._standardize(genotypes, fit=True)
        y = np.asarray(phenotype, dtype=np.float64).ravel()
        n, ns = x.shape
        if y.shape[0] != n:
            raise ValueError("phenotype length must match the genotype rows")
        self._y_mean = float(y.mean())
        yc = y - self._y_mean

        self._blocks = self._make_blocks(ns)
        folds = self._fold_indices(n, seed)

        # ----- level 0: per-block ridges, out-of-fold predictions
        n_features = len(self._blocks) * len(cfg.level0_ridge_values)
        level0_pred = np.zeros((n, n_features))
        self._level0_betas = []
        for b, block in enumerate(self._blocks):
            xb = x[:, block]
            betas_per_lambda: list[np.ndarray] = []
            for r, lam in enumerate(cfg.level0_ridge_values):
                col = b * len(cfg.level0_ridge_values) + r
                # out-of-fold level-0 predictions for level-1 training
                for fold in folds:
                    mask = np.ones(n, dtype=bool)
                    mask[fold] = False
                    beta_fold = _ridge_solve(xb[mask], yc[mask], lam)
                    level0_pred[fold, col] = xb[fold] @ beta_fold
                # full-data coefficients used at prediction time
                betas_per_lambda.append(_ridge_solve(xb, yc, lam))
            self._level0_betas.append(betas_per_lambda)

        # ----- level 1: ridge on the stacked predictions, CV over lambda
        best_lambda, best_err = None, np.inf
        for lam in cfg.level1_ridge_values:
            err = 0.0
            for fold in folds:
                mask = np.ones(n, dtype=bool)
                mask[fold] = False
                beta = _ridge_solve(level0_pred[mask], yc[mask], lam)
                resid = yc[fold] - level0_pred[fold] @ beta
                err += float(resid @ resid)
            if err < best_err:
                best_err, best_lambda = err, lam
        self._level1_lambda = float(best_lambda)
        self._level1_beta = _ridge_solve(level0_pred, yc, self._level1_lambda)
        return self

    def predict(self, genotypes: np.ndarray) -> np.ndarray:
        """Whole-genome prediction for new individuals."""
        if self._level1_beta is None:
            raise RuntimeError("fit() must be called before predict()")
        cfg = self.config
        x = self._standardize(genotypes, fit=False)
        n = x.shape[0]
        n_features = len(self._blocks) * len(cfg.level0_ridge_values)
        level0_pred = np.zeros((n, n_features))
        for b, block in enumerate(self._blocks):
            xb = x[:, block]
            for r, beta in enumerate(self._level0_betas[b]):
                col = b * len(cfg.level0_ridge_values) + r
                level0_pred[:, col] = xb @ beta
        return level0_pred @ self._level1_beta + self._y_mean

    def fit_predict(self, train_genotypes: np.ndarray, train_phenotype: np.ndarray,
                    test_genotypes: np.ndarray, seed: int = 0) -> np.ndarray:
        self.fit(train_genotypes, train_phenotype, seed=seed)
        return self.predict(test_genotypes)

    def fit_multivariate(self, genotypes: np.ndarray, phenotypes: np.ndarray,
                         seed: int = 0) -> list["RegenieLikeRegression"]:
        """Fit one stacked ridge per phenotype column; returns the fitted models."""
        phenotypes = np.asarray(phenotypes, dtype=np.float64)
        if phenotypes.ndim == 1:
            phenotypes = phenotypes[:, None]
        models = []
        for k in range(phenotypes.shape[1]):
            model = RegenieLikeRegression(self.config)
            model.fit(genotypes, phenotypes[:, k], seed=seed + k)
            models.append(model)
        return models
