"""The on-grid invariant of factor tiles, across every execution path.

The Cholesky task bodies adopt kernel results as tiles without rounding
them again (``Tile._on_grid``), wherever the kernel has just rounded to
the tile's own precision.  A wrong adoption site — one that adopts a
value computed at another precision, as TRSM's would be — leaves a tile
whose payload is off its format's grid or in the wrong dtype.  This
module factors one kernel under the four precision plans through the
six execution paths — the host-ordered reference, and the one DAG loop
resident or store-backed under each drain — and checks every stored
tile, then checks that the six factors are the same bits.  Smaller
cohorts repeat that for the tile shapes an in-place BLAS call could
trip over: no ragged tile, a single tile, a last tile of one row.
"""

import numpy as np
import pytest

from repro.gwas.config import PrecisionPlan
from repro.linalg.cholesky import cholesky
from repro.precision.formats import Precision
from repro.precision.quantize import quantize
from repro.runtime.runtime import Runtime
from repro.store import TileStore
from repro.tiles.matrix import TileMatrix

N, TILE = 150, 32  # 4 full tiles + a ragged one of 22
#: Orders of the edge cohorts (same tile size).
EDGE_COHORTS = {"divisible": 128, "single-tile": 20, "one-row-tail": 97}

PLANS = {
    "fp64": PrecisionPlan.fp64(),
    "fp32": PrecisionPlan.fp32(),
    "adaptive-fp16": PrecisionPlan.adaptive_fp16(),
    "adaptive-fp8": PrecisionPlan.adaptive_fp8(),
}
EXECUTIONS = ("direct", "runtime-serial", "runtime-threaded", "store",
              "process", "process+store")


def regularized_kernel(seed: int = 3, n: int = N) -> np.ndarray:
    """A Gaussian kernel matrix + alpha*I, like the Associate phase's."""
    rng = np.random.default_rng(seed)
    g = rng.integers(0, 3, size=(n, 48)).astype(np.float64)
    sq = (g * g).sum(axis=1)
    dist = sq[:, None] + sq[None, :] - 2.0 * g @ g.T
    return np.exp(-0.02 * dist) + 0.5 * np.eye(n)


def bits(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    return a.view({2: np.uint16, 4: np.uint32, 8: np.uint64}[a.dtype.itemsize])


def lower_tiles(factor: TileMatrix) -> dict:
    nt = factor.layout.tile_rows
    return {(i, j): factor.get_tile(i, j)
            for i in range(nt) for j in range(i + 1)}


@pytest.fixture(scope="module")
def process_rt():
    rt = Runtime(execution="process", workers=2)
    yield rt
    rt.close()


def factor(plan: PrecisionPlan, execution: str, process_rt,
           n: int = N) -> dict:
    """Lower tiles of the factor, computed the way a session would."""
    storage = (Precision.FP64 if plan.working_precision is Precision.FP64
               else Precision.FP32)
    kernel = TileMatrix.from_dense(regularized_kernel(n=n), TILE, storage,
                                   symmetric=True)
    pmap = plan.precision_map(kernel.layout, matrix=kernel)
    kwargs = dict(working_precision=plan.working_precision,
                  precision_map=pmap)
    if execution == "direct":
        result = cholesky(kernel, **kwargs)  # no runtime: the reference
        assert result.schedule is None
        return lower_tiles(result.factor)
    if execution == "process":
        return lower_tiles(cholesky(kernel, runtime=process_rt, **kwargs).factor)
    if execution in ("store", "process+store"):
        # its own runtime: the store's scheduler hooks stay attached
        rt = (Runtime(execution="threaded", workers=8) if execution == "store"
              else Runtime(execution="process", workers=2))
        budget = 4 * TILE * TILE * storage.bytes_per_element
        try:
            with TileStore(budget_bytes=budget) as store:
                kernel.attach_store(store)
                result = cholesky(kernel, runtime=rt, **kwargs)
                assert store.stats.spills > 0 or n <= 2 * TILE, \
                    "a 4-tile budget must spill"
                return lower_tiles(result.factor)
        finally:
            rt.close()
    rt = (Runtime(execution="serial") if execution == "runtime-serial"
          else Runtime(execution="threaded", workers=8))
    return lower_tiles(cholesky(kernel, runtime=rt, **kwargs).factor)


@pytest.fixture(scope="module")
def factors(process_rt):
    return {(name, execution): factor(plan, execution, process_rt)
            for name, plan in PLANS.items() for execution in EXECUTIONS}


def test_adaptive_plans_lower_some_tiles():
    """The mosaics under test do contain FP16 / FP8 tiles."""
    kernel = TileMatrix.from_dense(regularized_kernel(), TILE, Precision.FP32,
                                   symmetric=True)
    for name, floor in (("adaptive-fp16", Precision.FP16),
                        ("adaptive-fp8", Precision.FP8_E4M3)):
        pmap = PLANS[name].precision_map(kernel.layout, matrix=kernel)
        assert floor in set(pmap.values()), name


@pytest.mark.parametrize("execution", EXECUTIONS)
@pytest.mark.parametrize("plan", sorted(PLANS))
def test_every_factor_tile_is_on_its_grid(factors, plan, execution):
    wp = PLANS[plan].working_precision
    tiles = factors[(plan, execution)]
    assert len(tiles) == 15
    for (i, j), tile in tiles.items():
        if i == j:
            assert tile.precision is wp
        assert tile.data.dtype == tile.precision.numpy_dtype, (i, j)
        assert np.isfinite(tile.data).all()
        rounded = quantize(tile.data, tile.precision)
        assert rounded.dtype == tile.data.dtype
        # rounding again changes nothing: the payload is on the grid.
        # (Bits are compared off the zeros only — the FP8 quantizer
        # answers +0.0 to a -0.0 input, and -0 is an FP8 value.)
        np.testing.assert_array_equal(rounded, tile.data, err_msg=f"{(i, j)}")
        nonzero = tile.data != 0
        np.testing.assert_array_equal(bits(rounded)[nonzero],
                                      bits(tile.data)[nonzero])


def assert_same_bits(reference: dict, tiles: dict, execution: str) -> None:
    assert tiles.keys() == reference.keys()
    for key, want in reference.items():
        got = tiles[key]
        assert got.precision is want.precision, (execution, key)
        assert got.data.dtype == want.precision.numpy_dtype, (execution, key)
        np.testing.assert_array_equal(got.data, want.data,
                                      err_msg=f"{execution} {key}")
        # and the sign of every zero, which array_equal lets pass
        np.testing.assert_array_equal(bits(got.data), bits(want.data),
                                      err_msg=f"{execution} {key}")


@pytest.mark.parametrize("plan", sorted(PLANS))
def test_the_five_executions_give_the_same_bits(factors, plan):
    for execution in EXECUTIONS[1:]:
        assert_same_bits(factors[(plan, "direct")],
                         factors[(plan, execution)], execution)


@pytest.mark.parametrize("cohort", sorted(EDGE_COHORTS))
@pytest.mark.parametrize("plan", sorted(PLANS))
def test_edge_cohorts_give_the_same_bits_and_a_factor(process_rt, plan, cohort):
    n = EDGE_COHORTS[cohort]
    nt = -(-n // TILE)
    reference = factor(PLANS[plan], "direct", process_rt, n)
    assert len(reference) == nt * (nt + 1) // 2
    assert reference[(nt - 1, nt - 1)].shape == ((n - 1) % TILE + 1,) * 2
    for execution in EXECUTIONS[1:]:
        assert_same_bits(reference,
                         factor(PLANS[plan], execution, process_rt, n),
                         execution)
    # and it is the factor: diagonal tiles keep a zero upper triangle
    dense = np.zeros((n, n))
    for (i, j), tile in reference.items():
        dense[i * TILE:i * TILE + tile.shape[0],
              j * TILE:j * TILE + tile.shape[1]] = tile.to_float64()
    assert not np.triu(dense, 1).any()
    a = regularized_kernel(n=n)
    tolerance = {"fp64": 1e-13, "fp32": 1e-5}.get(plan, 0.1)
    assert np.linalg.norm(dense @ dense.T - a) <= tolerance * np.linalg.norm(a)


def test_low_precision_tiles_keep_their_storage_dtype(factors):
    """Every emulated format is float32 in memory."""
    seen = set()
    for (plan, _), tiles in factors.items():
        for tile in tiles.values():
            seen.add((tile.precision, tile.data.dtype))
    assert (Precision.FP16, np.dtype(np.float32)) in seen
    assert (Precision.FP8_E4M3, np.dtype(np.float32)) in seen
    assert all(dtype == p.numpy_dtype for p, dtype in seen)
