#!/usr/bin/env python
"""Out-of-core KRR: fit under a residency budget a quarter of the mosaic.

The paper fits 305k-patient cohorts only because the kernel matrix is a
precision-adapted tile mosaic — and past a point the mosaic itself no
longer fits one node.  This example runs the full Build → Factor →
Solve → Predict pipeline with the session's tile store capped at ~25%
of the mosaic footprint: the tile whose next use is farthest in the
drain's own order spills to disk in its native storage precision (a
budgeted factorization runs its updates column by column, so that is
mostly a finished tile), the scheduler pins each task's working set,
and a spilled tile is reloaded when a task reads it.

The contract being demonstrated (and asserted): the budgeted run's
predictions are **bitwise identical** to the fully-resident run, and
the tracked peak resident tile bytes stay under the budget.

Usage::

    python examples/out_of_core.py [--individuals 4096] [--snps 256]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.api import KRRConfig, KRRSession, PrecisionPlan


def fmt(nbytes: float) -> str:
    return f"{nbytes / (1 << 20):8.2f} MiB"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--individuals", type=int, default=4096)
    parser.add_argument("--snps", type=int, default=256)
    parser.add_argument("--tile-size", type=int, default=256)
    parser.add_argument("--budget-fraction", type=float, default=0.25)
    # the peak<=budget contract needs the pinned working set
    # (<= workers x 3 tiles) to fit inside the budget
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    n = args.individuals
    g_train = rng.integers(0, 3, size=(n, args.snps)).astype(np.float64)
    y = rng.standard_normal(n)
    g_test = rng.integers(0, 3, size=(max(256, n // 16), args.snps)
                          ).astype(np.float64)

    base = KRRConfig(tile_size=args.tile_size, workers=args.workers,
                     precision_plan=PrecisionPlan.adaptive_fp16())

    # ------------------------------------------------------------------
    # reference: fully resident
    # ------------------------------------------------------------------
    print(f"Fitting n={n} (tile {args.tile_size}) fully resident ...")
    t0 = time.perf_counter()
    ref = KRRSession(base)
    ref.fit(g_train, y)
    ref_pred = ref.predict(g_test)
    t_ref = time.perf_counter() - t0
    mosaic = ref.kernel_.nbytes()
    dense_fp64 = n * n * 8

    budget = int(mosaic * args.budget_fraction)
    print(f"  dense FP64 kernel would be {fmt(dense_fp64)}")
    print(f"  tile-mosaic footprint is   {fmt(mosaic)} "
          f"({mosaic / dense_fp64:.2%} of dense)")
    print(f"  store budget               {fmt(budget)} "
          f"({args.budget_fraction:.0%} of the mosaic)")

    # ------------------------------------------------------------------
    # out-of-core: same fit under the budget
    # ------------------------------------------------------------------
    print(f"\nFitting again under the budget ...")
    t0 = time.perf_counter()
    oo = KRRSession(base.with_options(store_budget_bytes=budget))
    oo.fit(g_train, y)
    oo_pred = oo.predict(g_test)
    t_oo = time.perf_counter() - t0
    stats = oo.store_stats()

    print(f"\nStoreStats (budgeted run):")
    print(f"  peak resident tile bytes   {fmt(stats.peak_resident_bytes)} "
          f"(budget {fmt(budget)})")
    print(f"  spills {stats.spills:6d}   ({fmt(stats.bytes_spilled)} written)")
    print(f"  reloads {stats.reloads:5d}   ({fmt(stats.bytes_reloaded)} read)")
    print(f"  clean drops {stats.drops:5d}   "
          f"budget overflows {stats.budget_overflows}")
    print(f"  wall clock: resident {t_ref:.1f} s vs budgeted {t_oo:.1f} s "
          f"({t_oo / t_ref:.2f}x)")

    bitwise = (np.array_equal(oo_pred, ref_pred)
               and np.array_equal(oo.weights_, ref.weights_))
    under = stats.peak_resident_bytes <= budget
    print(f"\n  predictions + weights bitwise identical: {bitwise}")
    print(f"  peak resident under budget:              {under}")
    if not (bitwise and under):
        raise SystemExit("out-of-core contract violated")


if __name__ == "__main__":
    main()
