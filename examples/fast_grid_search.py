#!/usr/bin/env python
"""Factor-once hyperparameter sweeps with the CG solver route.

A (α, γ) grid search re-solves ``(K + alpha*I) W = Y`` with the *same*
kernel for every α, and on the direct route each re-solve pays a fresh
O(n³/3) tiled Cholesky.  With ``KRRConfig(solver="cg")`` the sweep goes
factor-once: each (fold, γ) session factors the sorted-middle α
exactly once, keeps that factor as the CG preconditioner, and solves
every other α with a handful of O(n²) preconditioned-CG iterations —
one lockstep panel for the whole grid, warm-started from the factor's
own panel solve.

This example runs the same sweep on both routes and reports wall
clock, factorization counts, and the agreement of the selected
hyperparameters and per-fold validation MSPEs (the CG route's contract
is rtol 1e-6 against direct; measured agreement is far tighter).

Usage::

    python examples/fast_grid_search.py [--individuals 1024]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.api import KRRConfig, PrecisionPlan
from repro.gwas.cv import grid_search_cv

ALPHAS = (0.5, 0.7, 1.0, 1.4, 2.0, 2.8)
GAMMAS = (0.01,)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--individuals", type=int, default=1024)
    parser.add_argument("--snps", type=int, default=64)
    parser.add_argument("--folds", type=int, default=4)
    args = parser.parse_args()

    rng = np.random.default_rng(2025)
    genotypes = rng.integers(
        0, 3, size=(args.individuals, args.snps)).astype(np.float64)
    phenotypes = (genotypes[:, :8] @ rng.standard_normal(8)
                  + 0.5 * rng.standard_normal(args.individuals))

    # FP64 plan so both routes solve the same systems; the CG route
    # composes with any precision plan — the mosaic then quantizes both
    # the kernel matvec tiles and the preconditioner factor.
    base = KRRConfig(tile_size=128, precision_plan=PrecisionPlan.fp64())

    results = {}
    for solver in ("direct", "cg"):
        t0 = time.perf_counter()
        result = grid_search_cv(genotypes, phenotypes, alphas=ALPHAS,
                                gammas=GAMMAS, n_folds=args.folds, seed=0,
                                base_config=base.with_options(solver=solver))
        seconds = time.perf_counter() - t0
        results[solver] = (result, seconds)
        print(f"{solver:>6}: {seconds:6.2f} s  "
              f"best (alpha={result.best_alpha}, gamma={result.best_gamma})  "
              f"{result.factorizations} factorizations, "
              f"{result.cg_fallbacks} fallbacks")
        phases = result.phase_seconds
        print("        phases: " + "  ".join(
            f"{k}={phases.get(k, 0.0):.2f}s"
            for k in ("build", "factor", "solve", "predict")))

    direct, direct_s = results["direct"]
    cg, cg_s = results["cg"]
    assert (cg.best_alpha, cg.best_gamma) == \
        (direct.best_alpha, direct.best_gamma)
    worst = max(
        float(np.max(np.abs(np.asarray(cg.fold_scores[key])
                            - np.asarray(errs))
                     / np.abs(errs)))
        for key, errs in direct.fold_scores.items())
    print(f"\nsame selection on both routes; "
          f"worst relative fold-MSPE deviation: {worst:.2e}")
    print(f"sweep speedup: {direct_s / cg_s:.2f}x "
          f"({direct.factorizations} -> {cg.factorizations} factorizations)")


if __name__ == "__main__":
    main()
