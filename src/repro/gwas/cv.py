"""Cross-validation for the KRR / RR hyperparameters.

The paper notes that both KRR hyperparameters — the regularization α
and the kernel bandwidth γ — "are typically chosen through techniques
such as cross-validation".  ``grid_search_cv`` implements K-fold CV
over a grid of (α, γ) pairs using MSPE as the selection criterion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.gwas.config import KRRConfig
from repro.gwas.metrics import mean_squared_prediction_error
from repro.gwas.session import KRRSession
from repro.settings import Settings

__all__ = ["CrossValidationResult", "grid_search_cv", "kfold_indices"]


def kfold_indices(n: int, n_folds: int, seed: int | None = 0) -> list[tuple[np.ndarray, np.ndarray]]:
    """Return ``n_folds`` (train_idx, valid_idx) pairs covering ``range(n)``."""
    if n_folds < 2:
        raise ValueError("n_folds must be at least 2")
    if n < n_folds:
        raise ValueError("need at least one sample per fold")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    folds = np.array_split(perm, n_folds)
    out = []
    for k in range(n_folds):
        valid = np.sort(folds[k])
        train = np.sort(np.concatenate([folds[j] for j in range(n_folds) if j != k]))
        out.append((train, valid))
    return out


@dataclass
class CrossValidationResult:
    """Grid-search cross-validation outcome.

    Attributes
    ----------
    best_alpha, best_gamma:
        Hyperparameters with the lowest mean validation MSPE.
    best_score:
        The corresponding mean MSPE.
    scores:
        Mapping ``(alpha, gamma) -> mean MSPE`` over all grid points.
    fold_scores:
        Mapping ``(alpha, gamma) -> list of per-fold MSPEs``.
    solver:
        The resolved solver route the sweep ran with
        (``"direct"`` or ``"cg"``).
    factorizations:
        Total tiled Cholesky factorizations across all (fold, γ)
        sessions — ``folds * len(gammas) * len(alphas)`` on the direct
        route, ``folds * len(gammas)`` on the factor-once CG route
        (plus any CG fallbacks).
    cg_fallbacks:
        CG solves that failed to converge and fell back to a direct
        factorization.
    phase_seconds:
        Wall-clock seconds summed over every session in the sweep,
        keyed by phase: ``build`` / ``factor`` / ``solve`` /
        ``predict``.
    """

    best_alpha: float
    best_gamma: float
    best_score: float
    scores: dict[tuple[float, float], float] = field(default_factory=dict)
    fold_scores: dict[tuple[float, float], list[float]] = field(default_factory=dict)
    solver: str = "direct"
    factorizations: int = 0
    cg_fallbacks: int = 0
    phase_seconds: dict[str, float] = field(default_factory=dict)

    def best_config(self, base: KRRConfig | None = None) -> KRRConfig:
        """A :class:`KRRConfig` carrying the selected hyperparameters."""
        base = base or KRRConfig()
        return base.with_options(alpha=self.best_alpha, gamma=self.best_gamma)


def grid_search_cv(
    genotypes: np.ndarray,
    phenotypes: np.ndarray,
    alphas: Sequence[float] = (0.1, 1.0, 10.0),
    gammas: Sequence[float] = (0.001, 0.01, 0.1),
    confounders: np.ndarray | None = None,
    n_folds: int = 3,
    base_config: KRRConfig | None = None,
    seed: int | None = 0,
) -> CrossValidationResult:
    """K-fold grid search over (α, γ) for the KRR GWAS model.

    Returns the pair minimizing the mean validation MSPE; exact score
    ties break deterministically toward the smallest α, then the
    smallest γ.  Everything but (α, γ) — kernel type, tile size,
    precision plan, the task-runtime pair and the solver route — is
    ``base_config``'s (``cfg.with_options(solver="cg", workers=4)``),
    applied to every session the sweep spawns: each (fold, γ) session
    owns one runtime that executes its Build, the per-α solves and the
    validation predictions.

    The kernel matrix ``K`` depends on γ but **not** on α, so each
    (fold, γ) pair builds ``K`` and the validation cross kernel exactly
    once; the whole α axis is then one
    :meth:`KRRSession.associate_path` against the retained tiled kernel,
    each α scored against the retained cross kernel.  For a
    grid with ``A`` alphas this removes ``(A-1)/A`` of the Build work
    the per-grid-point refit performed.

    The route decides what the path costs.  On the direct route each α
    pays one O(n³/3) factorization.  With ``base_config.solver == "cg"``
    (or ``REPRO_SOLVER=cg``) the sweep goes *factor-once*: the
    sorted-middle α is factorized, and every other α is a column block
    of one lockstep preconditioned CG against that factor — one Build,
    **one factorization** and a few O(n²) panel sweeps per (fold, γ),
    shared by the whole α axis.

    Each (fold, γ) session's runtime and store are closed before the
    next one is built.
    """
    if n_folds < 2:
        raise ValueError("n_folds must be at least 2")
    alphas = [float(a) for a in alphas]
    gammas = [float(g) for g in gammas]
    if not alphas:
        raise ValueError("alphas must be non-empty")
    if not gammas:
        raise ValueError("gammas must be non-empty")
    for a in alphas:
        if not a > 0:
            raise ValueError(f"alphas must be positive, got {a!r}")
    genotypes = np.asarray(genotypes)
    phenotypes = np.asarray(phenotypes, dtype=np.float64)
    if phenotypes.ndim == 1:
        phenotypes = phenotypes[:, None]
    base = base_config or KRRConfig()
    # one snapshot for the whole sweep: every fold's session gets the
    # route spelled out instead of reading the environment again
    solver_mode = base.solver or Settings.from_env().solver
    base = base.with_options(solver=solver_mode)

    folds = kfold_indices(genotypes.shape[0], n_folds, seed=seed)
    scores: dict[tuple[float, float], float] = {}
    fold_scores: dict[tuple[float, float], list[float]] = {
        (a, g): [] for a in alphas for g in gammas}
    phase_seconds: dict[str, float] = {}
    factorizations = 0
    cg_fallbacks = 0

    for train_idx, valid_idx in folds:
        g_train, g_valid = genotypes[train_idx], genotypes[valid_idx]
        y_train, y_valid = phenotypes[train_idx], phenotypes[valid_idx]
        c_train = None if confounders is None else confounders[train_idx]
        c_valid = None if confounders is None else confounders[valid_idx]
        for gamma in gammas:
            session = KRRSession(base.with_options(gamma=gamma))
            try:
                session.build(g_train, c_train)
                path = session.associate_path(y_train, alphas)
                # K_test depends only on gamma — built once per fold
                cross = session.cross_kernel(g_valid, c_valid)
                # one predict per alpha: a one-phenotype panel is then the
                # same GEMV as a refit's predict, so each score is bitwise
                # the per-point refit's on the direct route
                for alpha, weights in zip(alphas, path):
                    pred = session.predict_with_kernel(cross, weights=weights)
                    fold_scores[(alpha, gamma)].append(
                        mean_squared_prediction_error(y_valid, pred))
                for key, secs in session.phase_seconds.items():
                    phase_seconds[key] = phase_seconds.get(key, 0.0) + secs
                factorizations += session.factorization_count_
                cg_fallbacks += session.cg_fallbacks_
            finally:
                # a worker pool (process execution) or segment files
                # (store budget) must not wait for the collector, nor
                # this fold's cross kernel and weights for the next
                # fold's to be built beside them
                session.close()
                cross = pred = path = None

    for key, errs in fold_scores.items():
        scores[key] = float(np.mean(errs))

    # deterministic under exact score ties: smallest alpha, then
    # smallest gamma — never the dict insertion order of whatever grid
    # ordering the caller passed
    best_key = min(scores, key=lambda k: (scores[k], k[0], k[1]))
    return CrossValidationResult(
        best_alpha=best_key[0],
        best_gamma=best_key[1],
        best_score=scores[best_key],
        scores=scores,
        fold_scores=fold_scores,
        solver=solver_mode,
        factorizations=factorizations,
        cg_fallbacks=cg_fallbacks,
        phase_seconds=phase_seconds,
    )
