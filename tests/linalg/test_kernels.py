"""Tests for the single-tile POTRF/TRSM/SYRK/GEMM kernels."""

import sys

import numpy as np
import pytest

from repro.linalg.cholesky import cholesky
from repro.linalg.kernels import (
    panel_operand,
    potrf_flops,
    syrk_flops,
    tile_gemm,
    tile_potrf,
    tile_syrk,
    tile_trsm,
    trsm_flops,
)
from repro.linalg.solve import SolveGemmSpec, SolveTrsmSpec
from repro.parallel.payload import decode_obj, encode_obj
from repro.precision.formats import Precision
from repro.precision.gemm import (QuantizedOperand, gemm_flop_count,
                                  gemm_mixed, syrk_mixed)
from repro.precision.quantize import quantize
from repro.resilience import FaultPlan, FaultSite
from repro.resilience.faults import SITE_TASK_BODY, clear_plan, fault_plan
from repro.runtime.runtime import Runtime
from repro.store import TileStore
from repro.tiles.matrix import TileMatrix
from repro.tiles.tile import Tile

NATIVE = [Precision.FP32, Precision.FP64]
PRECISIONS = NATIVE + [Precision.FP16, Precision.FP8_E4M3]


def bits(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    return a.view({2: np.uint16, 4: np.uint32, 8: np.uint64}[a.dtype.itemsize])


def spd(rng, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return a @ a.T / n + 2.0 * np.eye(n)


@pytest.fixture
def spd_tile(rng):
    return spd(rng, 16)


def _exchanged(x, precision):
    """The tile as a process lane receives it: decoded from its format's
    bytes (an FP64/FP32 tile is then a read-only buffer view)."""
    return decode_obj(*encode_obj(Tile(x, precision=precision)))


def _reloaded(x, precision):
    """The tile as an out-of-core drain reads it: spilled to a store
    segment and reloaded from its format's bytes."""
    matrix = TileMatrix.from_dense(x, max(x.shape), precision)
    with TileStore(budget_bytes=1) as store:  # evict on every load
        matrix.attach_store(store)
        tile = matrix.get_tile(0, 0)
        assert store.stats.reloads == 1
    return tile


#: The ways a tile reaches a kernel: built in memory, received from a
#: process lane, reloaded from a spill.
ORIGINS = {"built": lambda x, p: Tile(x, precision=p),
           "exchanged": _exchanged, "reloaded": _reloaded}


class TestPotrf:
    def test_matches_numpy_in_fp64(self, spd_tile):
        l = tile_potrf(spd_tile, precision=Precision.FP64)
        np.testing.assert_allclose(l, np.linalg.cholesky(spd_tile), rtol=1e-12)

    def test_reconstruction_fp32(self, spd_tile):
        l = tile_potrf(spd_tile, precision=Precision.FP32)
        assert l.dtype == np.float32
        l = l.astype(np.float64)
        np.testing.assert_allclose(l @ l.T, spd_tile, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("p", PRECISIONS, ids=lambda p: p.value)
    def test_reads_the_lower_triangle_and_zeroes_the_upper(self, spd_tile, p):
        dirty = np.tril(spd_tile) + np.triu(np.full((16, 16), 7.0), 1)
        got, want = tile_potrf(dirty, p), tile_potrf(spd_tile, p)
        assert got.dtype == want.dtype == p.numpy_dtype
        np.testing.assert_array_equal(bits(got), bits(want))
        assert not np.triu(got, 1).any()

    @pytest.mark.parametrize("p", [Precision.FP64, Precision.FP32,
                                   Precision.FP16], ids=lambda p: p.value)
    def test_indefinite_raises(self, p):
        with pytest.raises(np.linalg.LinAlgError):
            tile_potrf(np.array([[1.0, 2.0], [2.0, 1.0]]), p)

    def test_low_precision_quantizes_input(self, spd_tile):
        l16 = tile_potrf(spd_tile, precision=Precision.FP16)
        l64 = tile_potrf(spd_tile, precision=Precision.FP64)
        assert not np.allclose(l16, l64)
        np.testing.assert_allclose(l16, l64, rtol=0.02, atol=0.02)


class TestTrsm:
    @pytest.mark.parametrize("p,rtol", [(Precision.FP64, 1e-10),
                                        (Precision.FP32, 1e-4),
                                        (Precision.FP16, 0.05)],
                             ids=lambda v: getattr(v, "value", None))
    def test_solves_against_the_transposed_lower_factor(self, spd_tile, rng,
                                                        p, rtol):
        l = np.linalg.cholesky(spd_tile)
        b = rng.standard_normal((10, 16))
        x = tile_trsm(l, b, precision=p)
        assert x.dtype == p.numpy_dtype and x.shape == b.shape
        np.testing.assert_allclose(x.astype(np.float64) @ l.T, b,
                                   rtol=rtol, atol=rtol)

    @pytest.mark.parametrize("p,rtol", [(Precision.FP64, 1e-10),
                                        (Precision.FP32, 1e-4),
                                        (Precision.FP16, 0.05)],
                             ids=lambda v: getattr(v, "value", None))
    def test_trans_solves_against_the_lower_factor(self, spd_tile, rng, p,
                                                   rtol):
        l = np.linalg.cholesky(spd_tile)
        b = rng.standard_normal((10, 16))
        x = tile_trsm(l, b, precision=p, trans=True)
        assert x.dtype == p.numpy_dtype and x.shape == b.shape
        np.testing.assert_allclose(x.astype(np.float64) @ l, b,
                                   rtol=rtol, atol=rtol)

    @pytest.mark.parametrize("p", NATIVE + [Precision.FP16],
                             ids=lambda p: p.value)
    def test_reads_the_lower_triangle_only(self, spd_tile, rng, p):
        l = np.linalg.cholesky(spd_tile)
        b = rng.standard_normal((10, 16))
        dirty = l + np.triu(np.full((16, 16), 7.0), 1)
        np.testing.assert_array_equal(bits(tile_trsm(dirty, b, p)),
                                      bits(tile_trsm(l, b, p)))


class TestSyrkGemm:
    def test_syrk_update(self, rng):
        a = rng.standard_normal((12, 8))
        c = np.eye(12) * 10.0
        out = tile_syrk(a, c, precision=Precision.FP64)
        # the lower triangle is the update; nothing reads the upper one
        np.testing.assert_allclose(np.tril(out), np.tril(c - a @ a.T),
                                   rtol=1e-10)

    def test_gemm_update(self, rng):
        a = rng.standard_normal((6, 9))
        b = rng.standard_normal((7, 9))
        c = rng.standard_normal((6, 7))
        out = tile_gemm(a, b, c, precision=Precision.FP64)
        np.testing.assert_allclose(out, c - a @ b.T, rtol=1e-10)

    @pytest.mark.parametrize("p,c,a,exact,stored", [
        # 1 - (2**-12 + 2**-30): float32 rounds it onto the FP16 midpoint
        # 1 - 2**-12, which ties to 1.0; rounded once it is 1 - 2**-11
        (Precision.FP16, 1.0, (2.0 ** -6, 2.0 ** -15), 1 - 2.0 ** -11, 1.0),
        # 128 - (4 + 2**-18): float32 gives the E4M3 midpoint 124, which
        # ties to 128; rounded once it is 120
        (Precision.FP8_E4M3, 128.0, (2.0, 2.0 ** -9), 120.0, 128.0),
    ], ids=["fp16", "fp8"])
    @pytest.mark.parametrize("kernel", ["syrk", "gemm"])
    def test_emulated_update_subtracts_in_the_fp32_accumulator(
            self, kernel, p, c, a, exact, stored):
        """``C - A·Aᵀ`` is rounded to float32 before the one rounding to
        the compute grid, as a tensor core's FP32 accumulator does."""
        row, dest = np.array([a]), np.array([[c]])
        out = (tile_syrk(row, dest, p) if kernel == "syrk"
               else tile_gemm(row, row, dest, p))
        assert float(quantize(np.array([c - a[0] ** 2 - a[1] ** 2]), p)[0]) == exact
        assert out.dtype == p.numpy_dtype and float(out[0, 0]) == stored

    def test_fp16_gemm_less_accurate_than_fp32(self, rng):
        a = rng.standard_normal((20, 40))
        b = rng.standard_normal((20, 40))
        c = np.zeros((20, 20))
        exact = -a @ b.T
        err16 = np.linalg.norm(tile_gemm(a, b, c, precision=Precision.FP16) - exact)
        err32 = np.linalg.norm(tile_gemm(a, b, c, precision=Precision.FP32) - exact)
        assert err32 < err16


class TestFlopFormulas:
    def test_potrf_dominant_term(self):
        assert potrf_flops(100) == pytest.approx(100 ** 3 / 3, rel=0.05)

    def test_trsm_gemm_syrk(self):
        assert trsm_flops(10, 20) == 2000
        assert gemm_flop_count(4, 5, 6) == 240
        assert syrk_flops(10, 20) == 10 * 11 * 20


@pytest.mark.parametrize("size", [16, 256])
class TestTileDestination:
    """SYRK/GEMM read a ``Tile`` — destination or operand — bit for bit
    like the array of its values."""

    @staticmethod
    def _operands(size):
        rng = np.random.default_rng(size)
        a = rng.standard_normal((size, size - 4))
        b = rng.standard_normal((size, size - 4))
        c = 3.0 * rng.standard_normal((size, size))
        return a, b, c

    @pytest.mark.parametrize("origin", sorted(ORIGINS))
    @pytest.mark.parametrize("stored", PRECISIONS, ids=lambda p: p.value)
    @pytest.mark.parametrize("compute", PRECISIONS, ids=lambda p: p.value)
    def test_gemm_tile_equals_ndarray(self, size, compute, stored, origin):
        a, b, c = self._operands(size)
        a, b, tile = (ORIGINS[origin](x, stored) for x in (a, b, c))
        # same precision: read without rounding; another one: must
        # still quantize to the compute precision, like the array call
        got = tile_gemm(a, b, tile, precision=compute)
        want = tile_gemm(a.to_float64(), b.to_float64(), tile.to_float64(),
                         precision=compute)
        assert got.dtype == want.dtype == compute.numpy_dtype
        np.testing.assert_array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("origin", sorted(ORIGINS))
    @pytest.mark.parametrize("stored", PRECISIONS, ids=lambda p: p.value)
    @pytest.mark.parametrize("compute", PRECISIONS, ids=lambda p: p.value)
    def test_syrk_tile_equals_ndarray(self, size, compute, stored, origin):
        a, _, c = self._operands(size)
        make = ORIGINS[origin]
        a, tile = make(a, stored), make(c + c.T, stored)
        got = tile_syrk(a, tile, precision=compute)
        want = tile_syrk(a.to_float64(), tile.to_float64(), precision=compute)
        assert got.dtype == want.dtype == compute.numpy_dtype
        np.testing.assert_array_equal(bits(got), bits(want))

    def test_mismatched_tile_is_quantized(self, size):
        """An FP64 tile handed to an FP8 update is rounded on read."""
        a, b, c = self._operands(size)
        zeros = np.zeros_like(a)
        got = tile_gemm(zeros, zeros, Tile(c, precision=Precision.FP64),
                        precision=Precision.FP8_E4M3)
        np.testing.assert_array_equal(got, quantize(c, Precision.FP8_E4M3))
        assert not np.array_equal(got, c)

    def test_result_is_adoptable_at_the_compute_precision(self, size):
        """What the kernels return is on the compute precision's grid in
        its storage dtype, so adopting it is free and equals
        constructing a tile from it."""
        a, b, c = self._operands(size)
        for p in PRECISIONS:
            out = tile_gemm(a, b, c, precision=p)
            adopted, built = Tile._on_grid(out, p), Tile(out, precision=p)
            assert adopted.data is out
            assert built.data.dtype == p.numpy_dtype
            np.testing.assert_array_equal(adopted.data, built.data)


class TestPanelOperandFromTile:
    """A panel tile on the operand's input grid is the operand."""

    @pytest.mark.parametrize("origin", sorted(ORIGINS))
    @pytest.mark.parametrize("stored", PRECISIONS, ids=lambda p: p.value)
    @pytest.mark.parametrize("compute", PRECISIONS, ids=lambda p: p.value)
    def test_tile_equals_ndarray(self, rng, compute, stored, origin):
        tile = ORIGINS[origin](3.0 * rng.standard_normal((16, 12)), stored)
        got = panel_operand(tile, compute)
        want = panel_operand(tile.to_float64(), compute)
        assert got.precision is want.precision
        assert got.array.dtype == want.array.dtype
        np.testing.assert_array_equal(got.array, want.array)
        assert got.max_abs() == want.max_abs()
        if stored is compute:
            assert got.array is tile.data  # adopted, not re-quantized


# ----------------------------------------------------------------------
# the native (FP32/FP64) path: BLAS in the tile's dtype, in place in a
# copy of the destination — never in an input
# ----------------------------------------------------------------------
def _specimens(rng, dtype, mb=24, nb=16):
    """Inputs of the four kernels, keyed by kernel name."""
    def arr(*shape):
        return rng.standard_normal(shape).astype(dtype)
    lkk = np.linalg.cholesky(spd(rng, nb)).astype(dtype)
    return {"potrf": (spd(rng, nb).astype(dtype),),
            "trsm": (lkk, arr(mb, nb)),
            "syrk": (arr(mb, nb), spd(rng, mb).astype(dtype)),
            "gemm": (arr(mb, nb), arr(nb + 4, nb), arr(mb, nb + 4))}


KERNELS = {"potrf": tile_potrf, "trsm": tile_trsm, "syrk": tile_syrk,
           "gemm": tile_gemm}


def _read_only(x):
    x = x.copy()
    x.flags.writeable = False
    return x


def _strided(x):
    wide = np.zeros((x.shape[0], 2 * x.shape[1]), dtype=x.dtype)
    wide[:, ::2] = x
    return wide[:, ::2]


LAYOUTS = {"read-only": _read_only, "fortran": np.asfortranarray,
           "strided": _strided,
           "wider-dtype": lambda x: x.astype(np.float64),
           "tile": lambda x: Tile._on_grid(x, Precision.FP32 if
                                           x.dtype == np.float32
                                           else Precision.FP64)}


@pytest.mark.parametrize("p", NATIVE, ids=lambda p: p.value)
@pytest.mark.parametrize("kernel", sorted(KERNELS))
class TestNativeInputs:
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_any_input_layout_same_bits_inputs_intact(self, kernel, p, layout):
        plain = _specimens(np.random.default_rng(1), p.numpy_dtype)[kernel]
        want = KERNELS[kernel](*plain, p)
        given = tuple(LAYOUTS[layout](x) for x in plain)
        arrays = [g.data if isinstance(g, Tile) else g for g in given]
        before = [a.copy() for a in arrays]
        got = KERNELS[kernel](*given, p)
        assert got.dtype == p.numpy_dtype and got.flags.c_contiguous
        assert got.flags.writeable
        np.testing.assert_array_equal(bits(got), bits(want))
        for a, b in zip(arrays, before):
            np.testing.assert_array_equal(bits(a), bits(b))
            assert not np.shares_memory(got, a)

    def test_a_second_run_sees_the_same_inputs(self, kernel, p):
        """What a retried task relies on."""
        given = tuple(_read_only(x) for x in
                      _specimens(np.random.default_rng(2), p.numpy_dtype)[kernel])
        first = KERNELS[kernel](*given, p)
        np.testing.assert_array_equal(bits(KERNELS[kernel](*given, p)),
                                      bits(first))

    @pytest.mark.parametrize("mb,nb", [(1, 16), (16, 1), (1, 1)])
    def test_one_row_and_one_column_edge_tiles(self, kernel, p, mb, nb):
        given = _specimens(np.random.default_rng(3), np.float64, mb, nb)[kernel]
        got = KERNELS[kernel](*given, p).astype(np.float64)
        reference = {"potrf": lambda a: np.linalg.cholesky(a),
                     "trsm": lambda l, b: np.linalg.solve(l, b.T).T,
                     "syrk": lambda a, c: c - a @ a.T,
                     "gemm": lambda a, b, c: c - a @ b.T}[kernel](*given)
        assert got.shape == reference.shape
        if kernel == "syrk":  # the lower triangle is the update
            got, reference = np.tril(got), np.tril(reference)
        np.testing.assert_allclose(got, reference, rtol=1e-4, atol=1e-4)

    def test_empty_tiles_do_not_reach_blas(self, kernel, p, capfd):
        empty = {"potrf": (np.zeros((0, 0)),),
                 "trsm": (np.zeros((4, 4)), np.zeros((0, 4))),
                 "syrk": (np.zeros((5, 0)), np.ones((5, 5))),
                 "gemm": (np.zeros((5, 0)), np.zeros((3, 0)), np.ones((5, 3)))}
        got = KERNELS[kernel](*empty[kernel], p)
        assert got.dtype == p.numpy_dtype
        np.testing.assert_array_equal(got, empty[kernel][-1])
        assert "illegal value" not in capfd.readouterr().err  # xerbla


# ----------------------------------------------------------------------
# the contract of the native path, as behaviour
# ----------------------------------------------------------------------
N, TILE = 96, 32


def _kernel_matrix(storage: Precision) -> TileMatrix:
    rng = np.random.default_rng(9)
    g = rng.integers(0, 3, size=(N, 40)).astype(np.float64)
    sq = (g * g).sum(axis=1)
    dense = np.exp(-0.02 * (sq[:, None] + sq[None, :] - 2.0 * g @ g.T))
    return TileMatrix.from_dense(dense + 0.5 * np.eye(N), TILE, storage,
                                 symmetric=True)


def _factor_bits(result) -> list:
    nt = result.factor.layout.tile_rows
    return [bits(result.factor.get_tile(i, j).data)
            for i in range(nt) for j in range(i + 1)]


def _forbid(monkeypatch, original):
    """Make every binding of ``original`` under ``repro`` raise."""
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{original.__name__} called on the native path")

    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and mod_name.split(".")[0] == "repro":
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, forbidden)


@pytest.mark.parametrize("p", NATIVE, ids=lambda p: p.value)
def test_native_factorization_never_quantizes(monkeypatch, p):
    """No float64 round trip, no ``QuantizedOperand``, no emulated GEMM:
    an FP32 / FP64 factorization runs with all of them forbidden."""
    kernel = _kernel_matrix(p)
    want = _factor_bits(cholesky(kernel, working_precision=p))
    for function in (quantize, gemm_mixed, syrk_mixed):
        _forbid(monkeypatch, function)
    monkeypatch.setattr(QuantizedOperand, "__init__",
                        lambda self, *a, **k: pytest.fail("QuantizedOperand"))
    with pytest.raises(AssertionError, match="native path"):
        Tile(np.zeros(2), precision=p)  # the patch reaches the tile layer
    reference = cholesky(kernel, working_precision=p)
    assert reference.schedule is None
    drained = cholesky(kernel, working_precision=p,
                       runtime=Runtime(execution="serial"))
    for got in (_factor_bits(reference), _factor_bits(drained)):
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("p", NATIVE, ids=lambda p: p.value)
@pytest.mark.parametrize("transpose", [False, True])
def test_native_solve_steps_never_quantize(monkeypatch, rng, p, transpose):
    """The triangular solve's block update and diagonal solve at FP32 /
    FP64 are that dtype's BLAS: no ``quantize`` and no float64 read of a
    tile (the emulation they replaced did both on every call)."""
    diag = Tile(np.linalg.cholesky(spd(rng, 16)), precision=p)
    lij = Tile(rng.standard_normal((16, 16)), precision=p)
    panel = np.asfortranarray(rng.standard_normal((16, 3)), p.numpy_dtype)
    _forbid(monkeypatch, quantize)
    monkeypatch.setattr(Tile, "float64_values",
                        lambda self: pytest.fail("float64_values"))
    acc = SolveGemmSpec(p, transpose).run(panel, panel, lij)
    out = SolveTrsmSpec(p, transpose).run(acc, diag)
    assert acc.dtype == out.dtype == p.numpy_dtype


@pytest.mark.parametrize("execution", ["direct", "serial", "threaded", "process"])
def test_indefinite_fp32_tile_is_a_linalg_error(execution):
    """``?potrf`` info > 0 keeps its type through every drain, so the
    session's regularization retry still fires."""
    kernel = _kernel_matrix(Precision.FP32)
    # the leading tile stays positive definite (smallest eigenvalue
    # 0.76), the leading two do not (0.69): the second POTRF fails
    kernel.add_diagonal(-0.7)
    rt = None if execution == "direct" else Runtime(execution=execution, workers=2)
    try:
        with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
            cholesky(kernel, working_precision=Precision.FP32, runtime=rt)
    finally:
        if rt is not None:
            rt.close()


@pytest.mark.parametrize("execution", ["serial", "threaded", "process"])
def test_retried_native_tasks_return_the_same_bits(monkeypatch, execution):
    """One injected ``task-body`` fault per kernel kind: the retried
    task finds its inputs intact (no kernel wrote into one)."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    clear_plan()
    kernel = _kernel_matrix(Precision.FP32)
    want = _factor_bits(cholesky(kernel, working_precision=Precision.FP32))
    plan = FaultPlan([FaultSite(site=SITE_TASK_BODY, match=name, times=1)
                      for name in ("potrf", "trsm", "syrk", "gemm")])
    rt = Runtime(execution=execution, workers=2, task_retries=2)
    try:
        with fault_plan(plan):
            result = cholesky(kernel, working_precision=Precision.FP32,
                              runtime=rt)
    finally:
        rt.close()
        clear_plan()
    assert plan.fired_for(SITE_TASK_BODY) == 4
    assert sum(e.retries for e in result.schedule.trace.events) == 4
    for a, b in zip(_factor_bits(result), want):
        np.testing.assert_array_equal(a, b)
