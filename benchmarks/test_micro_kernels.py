"""Micro-benchmarks and ablations of the design choices in DESIGN.md.

Not a paper figure, but the quantitative backing for the paper's two
key kernel-level claims and for the ablations listed in DESIGN.md:

* the GEMM-form INT8 distance computation is exact and much faster than
  the direct pairwise loop (Sec. V-B1 / VI-B2);
* the adaptive tile mosaic preserves the FP32 factorization accuracy
  while cutting the storage footprint (Sec. V-B2);
* shipping tiles at the narrower of source/destination precisions
  (conversion-at-sender/receiver) reduces the bytes moved (Sec. VI-B1).
"""

import numpy as np
import pytest

from repro.data.genotypes import simulate_genotypes
from repro.distance.euclidean import squared_euclidean_direct, squared_euclidean_gemm
from repro.linalg.cholesky import cholesky
from repro.precision.formats import Precision
from repro.precision.gemm import integer_backend
from repro.runtime import Runtime, replay
from repro.tiles.adaptive import AdaptivePrecisionRule, decide_tile_precisions
from repro.tiles.layout import TileLayout
from repro.tiles.matrix import TileMatrix


@pytest.fixture(scope="module")
def genotypes():
    return simulate_genotypes(300, 120, seed=3, maf_low=0.2)


def test_distance_gemm_form_vs_direct(benchmark, genotypes):
    """Ablation: GEMM-form distances vs the instruction-bound direct loop."""
    import time

    t0 = time.perf_counter()
    direct = squared_euclidean_direct(genotypes)
    direct_time = time.perf_counter() - t0

    gemm_form = benchmark(squared_euclidean_gemm, genotypes)

    np.testing.assert_array_equal(gemm_form, direct)
    print(f"\ndirect pairwise loop: {direct_time * 1e3:.1f} ms for "
          f"{genotypes.shape[0]}x{genotypes.shape[0]} distances "
          "(GEMM form timed by the benchmark fixture)")


def test_distance_int8_path_is_exact(benchmark, genotypes):
    """The INT8 tensor-core path loses nothing for 0/1/2 genotype data."""
    int8 = benchmark(squared_euclidean_gemm, genotypes)
    with integer_backend("int64"):
        reference = squared_euclidean_gemm(genotypes)
    np.testing.assert_array_equal(int8, reference)
    np.testing.assert_array_equal(int8, squared_euclidean_direct(genotypes))


def test_adaptive_cholesky_accuracy_and_footprint(benchmark):
    """Ablation: adaptive mosaic vs uniform FP32 Cholesky."""
    rng = np.random.default_rng(0)
    n, nb = 192, 32
    a = 1e-3 * rng.standard_normal((n, n))
    a = a + a.T + np.diag(2.0 + rng.random(n))

    decisions = decide_tile_precisions(a, AdaptivePrecisionRule(), tile_size=nb)
    runtime = Runtime()  # the timed factorization is the task DAG
    adaptive = benchmark.pedantic(
        cholesky, args=(a,),
        kwargs=dict(tile_size=nb, precision_map=decisions, runtime=runtime),
        rounds=1, iterations=1)
    uniform = cholesky(a, tile_size=nb, runtime=runtime)
    runtime.close()

    la, lu = adaptive.to_dense(), uniform.to_dense()
    err_adaptive = np.linalg.norm(la @ la.T - a) / np.linalg.norm(a)
    err_uniform = np.linalg.norm(lu @ lu.T - a) / np.linalg.norm(a)
    print(f"\nrelative factorization error: adaptive={err_adaptive:.2e}, "
          f"uniform FP32={err_uniform:.2e}")
    assert err_adaptive < 5e-3

    mosaic = TileMatrix.from_dense(a, nb, precision=lambda i, j: decisions[(i, j)])
    fp32 = TileMatrix.from_dense(a, nb, precision=Precision.FP32)
    reduction = fp32.nbytes() / mosaic.nbytes()
    print(f"storage footprint reduction from the mosaic: {reduction:.2f}x")
    assert reduction > 1.3


def test_tile_size_ablation(benchmark):
    """Ablation: the factorization accuracy is tile-size independent."""
    rng = np.random.default_rng(1)
    a = rng.standard_normal((128, 128))
    a = a @ a.T / 128 + 2.0 * np.eye(128)

    runtime = Runtime()

    def factor_all():
        return {nb: cholesky(a, tile_size=nb, working_precision=Precision.FP32,
                             runtime=runtime)
                for nb in (16, 32, 64)}

    results = benchmark.pedantic(factor_all, rounds=1, iterations=1)
    runtime.close()
    reference = np.linalg.cholesky(a)
    for nb, result in results.items():
        err = np.linalg.norm(result.to_dense() - reference) / np.linalg.norm(reference)
        print(f"tile {nb}: relative error vs FP64 = {err:.2e}")
        assert err < 1e-5


def test_conversion_placement_ablation(benchmark):
    """Ablation: adaptive conversion placement moves fewer bytes."""
    rng = np.random.default_rng(2)
    a = rng.standard_normal((160, 160))
    a = a @ a.T / 160 + 4.0 * np.eye(160)
    layout = TileLayout.square(160, 32)
    pmap = {t: (Precision.FP32 if t[0] == t[1] else Precision.FP16)
            for t in layout.iter_tiles()}

    # conversion placement is a property of the replayed transfer
    # ledger; the host lanes move no bytes
    runtime = Runtime()
    cholesky(a, tile_size=32, precision_map=pmap, runtime=runtime)
    runtime.close()

    def run(adaptive: bool) -> int:
        schedule = replay(runtime.last_graph, num_devices=4,
                          adaptive_conversion=adaptive)
        return schedule.comm.total_bytes

    adaptive_bytes = benchmark.pedantic(run, args=(True,), rounds=1, iterations=1)
    baseline_bytes = run(False)
    print(f"\nbytes moved: adaptive conversion = {adaptive_bytes:,}, "
          f"source-precision shipping = {baseline_bytes:,}")
    assert adaptive_bytes <= baseline_bytes
