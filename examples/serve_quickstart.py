#!/usr/bin/env python
"""Model artifacts and serving: fit → export → save/load → serve.

Walks the full serving lifecycle of the reproduction:

1. fit a KRR session on a synthetic cohort (under an FP32 plan *and*
   an adaptive-FP8 plan),
2. export the fitted state as an immutable ``FittedModel`` artifact and
   ``save``/``load`` it — each tile in its native precision bytes, so
   the adaptive-FP8 artifact's file is a fraction of the FP32 one,
3. register the loaded models in a ``ModelRegistry`` (LRU-budgeted by
   resident tile bytes),
4. answer concurrent predict requests through a ``PredictionService``,
   whose micro-batching keeps every response bitwise identical to a
   solo ``session.predict``,
5. open the artifact **store-backed** (``FittedModel.load(path,
   store=TileStore(...))``): the factor tiles stay spilled on disk and
   fault in lazily, so the registered model costs a fraction of its
   full footprint in resident bytes — and a predict served after
   registry-pressure eviction and reload is still bitwise identical.

Usage::

    python examples/serve_quickstart.py [--individuals 512] [--snps 128]
"""

from __future__ import annotations

import argparse
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.api import (
    FittedModel,
    KRRConfig,
    KRRSession,
    ModelRegistry,
    PrecisionPlan,
    PredictionService,
    ServeConfig,
    TileStore,
)
from repro.data import make_ukb_like_cohort


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--individuals", type=int, default=512)
    parser.add_argument("--snps", type=int, default=128)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    print(f"Simulating a cohort: {args.individuals} patients x "
          f"{args.snps} SNPs ...")
    cohort = make_ukb_like_cohort(
        n_individuals=args.individuals, n_snps=args.snps, seed=args.seed)
    split = cohort.split(train_fraction=0.8, seed=0)

    # ------------------------------------------------------------------
    # 1) fit under two precision plans
    # ------------------------------------------------------------------
    plans = {
        "fp32": PrecisionPlan.fp32(),
        "adaptive-fp8": PrecisionPlan.adaptive_fp8(),
    }
    artifacts: dict[str, Path] = {}
    sessions: dict[str, KRRSession] = {}
    tmp = Path(tempfile.mkdtemp(prefix="repro-serve-"))
    print("\nFitting and exporting model artifacts:")
    for name, plan in plans.items():
        session = KRRSession(KRRConfig(precision_plan=plan))
        session.fit(split.train.genotypes, split.train.phenotypes,
                    split.train.confounders)
        sessions[name] = session

        # 2) export + save: native mixed-precision tile bytes on disk
        model = session.export_model()
        path = model.save(tmp / f"height-{name}")
        artifacts[name] = path
        mosaic = {p.value: f"{b / 1024:.0f} KiB"
                  for p, b in model.footprint_by_precision().items()}
        print(f"  {name:13s} artifact {path.stat().st_size / 1024:8.1f} KiB   "
              f"resident {model.resident_bytes() / 1024:8.1f} KiB   "
              f"factor mosaic {mosaic}")

    ratio = artifacts["adaptive-fp8"].stat().st_size / \
        artifacts["fp32"].stat().st_size
    print(f"  -> the adaptive-FP8 artifact is {ratio:.2f}x the FP32 file "
          "size (the on-disk footprint follows the precision mosaic)")

    # ------------------------------------------------------------------
    # 3) load + register (versions; LRU budget over resident tile bytes)
    # ------------------------------------------------------------------
    registry = ModelRegistry(max_resident_bytes=256 << 20)
    for name, path in artifacts.items():
        loaded = FittedModel.load(path)
        key = registry.register("height", loaded)
        print(f"Registered {path.name} as "
              f"{key.name!r} v{key.version} ({name})")

    # ------------------------------------------------------------------
    # 4) concurrent predicts through the service (latest = adaptive-fp8)
    # ------------------------------------------------------------------
    rng = np.random.default_rng(7)
    n_test = split.test.genotypes.shape[0]
    requests = []
    for _ in range(args.clients):
        rows = rng.choice(n_test, size=rng.integers(8, max(9, n_test // 2)),
                          replace=False)
        rows.sort()
        requests.append((split.test.genotypes[rows],
                         None if split.test.confounders is None
                         else split.test.confounders[rows]))

    print(f"\nServing {args.clients} concurrent predict requests "
          "(micro-batched) ...")
    with PredictionService(
            registry,
            config=ServeConfig(max_batch_requests=args.clients,
                               batch_window_s=0.01)) as service:
        with ThreadPoolExecutor(args.clients) as pool:
            results = list(pool.map(
                lambda rq: service.predict(rq[0], rq[1], model="height",
                                           timeout=120),
                requests))
        stats = service.stats

    reference = sessions["adaptive-fp8"]
    all_bitwise = all(
        np.array_equal(res.predictions, reference.predict(g, c))
        for res, (g, c) in zip(results, requests))
    print(f"  {stats.requests} requests in {stats.batches} micro-batch(es), "
          f"mean coalescing {stats.mean_coalesced:.1f} req/batch")
    for i, res in enumerate(results[:4]):
        print(f"  request {i}: {res.rows:4d} rows  "
              f"latency {res.latency_s * 1e3:7.2f} ms  "
              f"(queue {res.queue_s * 1e3:6.2f} ms)  "
              f"{res.flops / 1e6:8.1f} MFLOP  "
              f"coalesced with {res.coalesced_requests - 1} other(s)")
    print(f"  bitwise identical to solo session.predict: {all_bitwise}")
    if not all_bitwise:
        raise SystemExit("serving results diverged from the fitted session")

    # ------------------------------------------------------------------
    # 5) store-backed registration: resident bytes follow actual faults
    # ------------------------------------------------------------------
    print("\nStore-backed registration (out-of-core artifacts):")
    path = artifacts["fp32"]
    plain = FittedModel.load(path)
    with TileStore() as store:
        lazy = FittedModel.load(path, store=store)
        print(f"  fully-resident load: {plain.resident_bytes() / 1024:8.1f} "
              f"KiB resident")
        print(f"  store-backed load:   {lazy.resident_bytes() / 1024:8.1f} "
              f"KiB resident (factor spilled, "
              f"{lazy.factor.nbytes() / 1024:.1f} KiB on disk)")

        budgeted = ModelRegistry(max_resident_bytes=2 * lazy.resident_bytes())
        budgeted.register("height", lazy)
        # pressure the registry until the store-backed entry is evicted
        budgeted.register("other", plain)
        budgeted.register("other2", plain)
        evicted = budgeted.versions("height") == []
        # reload from the artifact and serve again: still bitwise exact
        budgeted.register("height", FittedModel.load(path, store=store))
        g, c = requests[0]
        # the artifact is data: a session restored from it predicts
        restored = KRRSession.from_model(budgeted.get("height"))
        after_reload = restored.predict(g, c)
        restored.close()
        reload_bitwise = np.array_equal(after_reload,
                                        sessions["fp32"].predict(g, c))
        print(f"  evicted under registry pressure: {evicted}; predict after "
              f"reload bitwise identical: {reload_bitwise}")
        if not reload_bitwise:
            raise SystemExit("store-backed reload diverged from the session")


if __name__ == "__main__":
    main()
