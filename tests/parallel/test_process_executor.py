"""End-to-end process-backend drains: bitwise equality with serial.

Every phase that ships descriptors to workers — Build rows, Cholesky
tile tasks (resident and store-backed), triangular-solve row blocks —
must produce results bitwise identical to the serial drain, and
worker-side failures must surface as the same typed exceptions the
in-process paths raise.
"""

import numpy as np
import pytest

from repro.distance.build import KernelBuilder
from repro.linalg.cholesky import cholesky
from repro.linalg.solve import solve_cholesky
from repro.precision.formats import Precision
from repro.runtime.runtime import Runtime
from repro.store import TileStore
from repro.tiles.matrix import TileMatrix

N = 128
TILE = 32


def _spd(n: int = N, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a @ a.T / n + 4.0 * np.eye(n)


@pytest.fixture(scope="module")
def process_rt():
    """One two-worker process pool shared by the module's drains."""
    rt = Runtime(execution="process", workers=2)
    yield rt
    rt.close()


class TestCholeskyProcess:
    @pytest.mark.parametrize("wp", [Precision.FP64, Precision.FP32])
    def test_resident_bitwise_vs_serial(self, process_rt, wp):
        a = _spd()
        serial = cholesky(a, tile_size=TILE, working_precision=wp).to_dense()
        proc = cholesky(a, tile_size=TILE, working_precision=wp,
                        runtime=process_rt).to_dense()
        np.testing.assert_array_equal(proc, serial)

    def test_store_budgeted_bitwise_vs_serial(self, process_rt):
        a = _spd(seed=9)
        serial = cholesky(
            TileMatrix.from_dense(a, TILE, Precision.FP64, symmetric=True),
            working_precision=Precision.FP32).to_dense()

        tiled = TileMatrix.from_dense(a, TILE, Precision.FP64, symmetric=True)
        tile_bytes = TILE * TILE * 8
        with TileStore(budget_bytes=3 * tile_bytes) as store:
            tiled.attach_store(store)
            proc = cholesky(tiled, working_precision=Precision.FP32,
                            runtime=process_rt).to_dense()
            stats = store.stats
            assert stats.spills > 0, "tight budget must actually spill"
        np.testing.assert_array_equal(proc, serial)

    def test_workers_one_matches_serial(self):
        a = _spd(seed=11)
        serial = cholesky(a, tile_size=TILE,
                          working_precision=Precision.FP32).to_dense()
        rt = Runtime(execution="process", workers=1)
        try:
            proc = cholesky(a, tile_size=TILE,
                            working_precision=Precision.FP32,
                            runtime=rt).to_dense()
        finally:
            rt.close()
        np.testing.assert_array_equal(proc, serial)

    def test_indefinite_matrix_raises_linalgerror(self, process_rt):
        bad = np.eye(N)
        bad[0, 0] = -1.0  # first diagonal tile fails POTRF
        with pytest.raises(np.linalg.LinAlgError):
            cholesky(bad, tile_size=TILE, working_precision=Precision.FP64,
                     runtime=process_rt)
        # the failed drain must not poison the pool for later drains
        a = _spd(seed=13)
        serial = cholesky(a, tile_size=TILE,
                          working_precision=Precision.FP32).to_dense()
        proc = cholesky(a, tile_size=TILE, working_precision=Precision.FP32,
                        runtime=process_rt).to_dense()
        np.testing.assert_array_equal(proc, serial)


class TestSolveProcess:
    def test_solve_cholesky_bitwise_vs_serial(self, process_rt):
        a = _spd(seed=17)
        rhs = np.random.default_rng(18).standard_normal((N, 4))
        factor = cholesky(a, tile_size=TILE,
                          working_precision=Precision.FP32)
        serial = solve_cholesky(factor, rhs, precision=Precision.FP32)
        proc = solve_cholesky(factor, rhs, precision=Precision.FP32,
                              runtime=process_rt)
        np.testing.assert_array_equal(np.asarray(proc), np.asarray(serial))


class TestBuildProcess:
    def test_build_training_bitwise_vs_serial(self, process_rt):
        rng = np.random.default_rng(19)
        g = rng.integers(0, 3, size=(96, 256)).astype(np.int8)
        serial = KernelBuilder(gamma=0.01, tile_size=TILE, snp_block=128,
                               storage_precision=Precision.FP32,
                               runtime=Runtime(execution="serial")
                               ).build_training(g)
        proc_builder = KernelBuilder(gamma=0.01, tile_size=TILE,
                                     snp_block=128,
                                     storage_precision=Precision.FP32,
                                     runtime=process_rt)
        proc = proc_builder.build_training(g)
        np.testing.assert_array_equal(proc.to_dense(), serial.to_dense())
        # inline consume_row tasks ran on the coordinator, build rows on
        # the pool's two workers
        assert proc_builder.runtime is process_rt and process_rt.workers == 2


class TestRuntimeReuse:
    def test_sequential_drains_share_one_pool(self, process_rt):
        """Factor then solve on the same runtime: exchange resets between
        drains must not leak refs across them."""
        a = _spd(seed=29)
        rhs = np.random.default_rng(30).standard_normal((N, 2))
        serial_factor = cholesky(a, tile_size=TILE,
                                 working_precision=Precision.FP32)
        serial_x = solve_cholesky(serial_factor, rhs,
                                  precision=Precision.FP32)

        proc_factor = cholesky(a, tile_size=TILE,
                               working_precision=Precision.FP32,
                               runtime=process_rt)
        proc_x = solve_cholesky(proc_factor, rhs, precision=Precision.FP32,
                                runtime=process_rt)
        np.testing.assert_array_equal(
            proc_factor.to_dense(), serial_factor.to_dense())
        np.testing.assert_array_equal(np.asarray(proc_x),
                                      np.asarray(serial_x))
