"""Descriptor pickle round-trips and behavior equality vs closure bodies.

Every descriptor kind the insertion sites emit must (a) survive a
pickle round trip bit-for-bit and (b) compute exactly what the
corresponding serial closure computes — the process backend's bitwise
contract rests on both.
"""

import hashlib
import pickle

import numpy as np
import pytest
import scipy.linalg

from repro.distance.build import KernelBuilder, compute_kernel_rows
from repro.linalg.blas3 import gemm
from repro.linalg.kernels import (
    tile_gemm,
    tile_potrf,
    tile_syrk,
    tile_trsm,
)
from repro.parallel.descriptors import (
    ALL_SPEC_KINDS,
    BodySpec,
    BuildRowSpec,
    CgMatvecSpec,
    GemmTrailSpec,
    PotrfSpec,
    PredictGroupSpec,
    SolveGemmSpec,
    SolveTrsmSpec,
    SyrkSpec,
    TrsmSpec,
)
from repro.precision.formats import Precision
from repro.precision.quantize import quantize
from repro.tiles.serialize import encode_payload
from repro.tiles.tile import Tile

T = 16
_PREFIX = {Precision.FP32: "s", Precision.FP64: "d"}  # BLAS routine prefix


def _rng(seed=0):
    return np.random.default_rng(seed)


def _spd_tile(seed=0, coords=(0, 0)) -> Tile:
    a = _rng(seed).standard_normal((T, T))
    return Tile(a @ a.T / T + 4.0 * np.eye(T), precision=Precision.FP64,
                coords=coords)


def _tile(seed=1, coords=(1, 0), precision=Precision.FP32) -> Tile:
    return Tile(_rng(seed).standard_normal((T, T)), precision=precision,
                coords=coords)


def _round_trip(spec):
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    return clone


def _specimens():
    """One representative instance of every descriptor kind."""
    return {
        PotrfSpec: PotrfSpec(Precision.FP32),
        TrsmSpec: TrsmSpec(Precision.FP32, Precision.FP16),
        SyrkSpec: SyrkSpec(Precision.FP32),
        GemmTrailSpec: GemmTrailSpec(Precision.FP16),
        SolveGemmSpec: SolveGemmSpec(Precision.FP32, transpose=True),
        SolveTrsmSpec: SolveTrsmSpec(Precision.FP32, transpose=False),
        BuildRowSpec: BuildRowSpec(gamma=0.01, snp_block=64, row_start=0,
                                   row_stop=8, col_end=24),
        PredictGroupSpec: PredictGroupSpec(
            gamma=0.01, snp_block=64, tile_size=8,
            precision=Precision.FP32, batches=((0, 8), (8, 12))),
        CgMatvecSpec: CgMatvecSpec(shifts=(0.5,), row_start=16, row_stop=32,
                                   transposes=(False, False, True)),
    }


def test_every_descriptor_is_listed_and_has_a_specimen():
    """The list is checked against the code, not against a second list:
    importing ``repro.parallel.descriptors`` has imported every module
    that emits one, so a ``BodySpec`` defined under ``repro`` and left
    out of ``ALL_SPEC_KINDS`` has no pickle round-trip below."""
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)
    defined = {k for k in subclasses(BodySpec)
               if k.__module__.split(".")[0] == "repro"}
    assert defined == set(ALL_SPEC_KINDS) == set(_specimens())
    assert len(ALL_SPEC_KINDS) == len(set(ALL_SPEC_KINDS))


@pytest.mark.parametrize("kind", ALL_SPEC_KINDS,
                         ids=lambda k: k.__name__)
def test_pickle_round_trip(kind):
    spec = _specimens()[kind]
    clone = _round_trip(spec)
    # frozen dataclasses: field-for-field equality after the trip
    assert clone.__dict__ == spec.__dict__


def bits(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    return a.view({2: np.uint16, 4: np.uint32, 8: np.uint64}[a.dtype.itemsize])


#: Compute precisions of the Cholesky kernels under test — the two
#: native ones and one emulated — each with a storage precision equal
#: to, narrower than and wider than it.
STORAGE = {
    Precision.FP32: (Precision.FP32, Precision.FP8_E4M3, Precision.FP64),
    Precision.FP64: (Precision.FP64, Precision.FP16, Precision.FP64),
    Precision.FP16: (Precision.FP16, Precision.FP8_E4M3, Precision.FP32),
}
CASES = [pytest.param(size, compute, stored,
                      id=f"{size}-{compute.value}-{stored.value}")
         for size in (16, 256) for compute, storages in STORAGE.items()
         for stored in dict.fromkeys(storages)]


def _panel_tile(size, stored, seed, coords):
    return Tile(0.25 * _rng(seed).standard_normal((size, size)),
                precision=stored, coords=coords)


def _spd(size, stored, seed, coords):
    a = _rng(seed).standard_normal((size, size))
    return Tile(a @ a.T / size + 4.0 * np.eye(size), precision=stored,
                coords=coords)


def _assert_tile(out: Tile, expect: np.ndarray, precision, coords):
    assert out.precision is precision and out.coords == coords
    assert out.data.dtype == expect.dtype == precision.numpy_dtype
    np.testing.assert_array_equal(bits(out.data), bits(expect))


def _lattice(shape, mult: int, scale: float) -> np.ndarray:
    """Multiples ``-7..7`` of ``scale``, from integer arithmetic alone.

    Exact in every float format down to FP8, and every partial sum of a
    product of two such arrays is exact in float32 — so the goldens
    below depend neither on the BLAS's summation order nor on a random
    stream, only on the kernels' rounding.
    """
    idx = np.arange(int(np.prod(shape)), dtype=np.int64).reshape(shape)
    return ((idx * mult) % 15 - 7) * scale


#: sha256 (first 16 hex digits) of the output payload of the emulated
#: updates: one ``ssyrk``/``sgemm`` with ``beta=1`` in a float32 copy of
#: the on-grid destination (the FP32 accumulator), rounded once to the
#: compute precision.  An FP16 payload is hashed in its 2-byte wire
#: encoding (``encode_payload``): the bytes it held in memory when these
#: digests were recorded, before FP16 moved into a float32 container.
#:
#: * Lattice GEMMs: recorded at commit 4e7d7b2, when the update still
#:   subtracted in float64.  Every partial sum of `_lattice` products is
#:   exact in float32, so moving the subtract into the accumulator left
#:   these bits as they were.
#: * Lattice SYRKs: re-pinned when the emulated SYRK became one
#:   ``ssyrk`` in the accumulator.  The lower triangle has the same bits
#:   as before; the strict upper one now keeps the destination's values
#:   instead of a mirror of the update, as on the native path.
#: * ``random-`` cases (`_random_tiles`): what pins the FP32 accumulator
#:   itself — accumulating in float64, or a second float32 product, moves
#:   these bits.  Unlike the lattice digests they depend on the BLAS's
#:   float32 summation order; they were recorded with OpenBLAS.
GOLDEN = {
    ("gemm", 16, Precision.FP8_E4M3, Precision.FP8_E4M3): "aad05807a517a3d7",
    ("gemm", 16, Precision.FP16, Precision.FP32): "0177093e939ef645",
    ("gemm", 16, Precision.FP16, Precision.FP8_E4M3): "314146305e3fbbfc",
    ("gemm", 256, Precision.FP8_E4M3, Precision.FP8_E4M3): "28f810d669e33142",
    ("gemm", 256, Precision.FP16, Precision.FP32): "cd1623bae729a233",
    ("gemm", 256, Precision.FP16, Precision.FP8_E4M3): "b3e22df142ccd223",
    ("syrk", 16, Precision.FP16, Precision.FP16): "d343eeb4551a1104",
    ("syrk", 16, Precision.FP8_E4M3, Precision.FP32): "34cf0c92ab1d3c13",
    ("syrk", 256, Precision.FP16, Precision.FP16): "8ad27fac1cf09c2e",
    ("syrk", 256, Precision.FP8_E4M3, Precision.FP32): "86bf421f32eee0fa",
    ("random-gemm", 256, Precision.FP16, Precision.FP16): "6f88c6e15f312763",
    ("random-gemm", 256, Precision.FP8_E4M3, Precision.FP8_E4M3): "35f813fbaacd06d4",
    ("random-syrk", 256, Precision.FP16, Precision.FP16): "1295fb8c18860180",
    ("random-syrk", 256, Precision.FP8_E4M3, Precision.FP8_E4M3): "a31d5040424bd06e",
}


def _random_tiles(size):
    """Seeded Gaussian panels and destination: off every lattice."""
    rng = _rng(size)
    return (0.5 * rng.standard_normal((size, size)),
            0.5 * rng.standard_normal((size, size)),
            rng.standard_normal((size, size)))


def _golden_case(kernel, size, compute, stored) -> Tile:
    if kernel.startswith("random-"):
        kernel = kernel[len("random-"):]
        a, b, c = _random_tiles(size)
        c_sym = c + c.T + size * np.eye(size)
    else:
        a = _lattice((size, size), 7, 0.125)
        b = _lattice((size, size), 11, 0.25)
        c = _lattice((size, size), 4, 1.0 / 64) * np.arange(1, size + 1)
        c_sym = c + c.T
    lik = Tile(a, precision=stored, coords=(2, 0))
    ljk = Tile(b, precision=stored, coords=(1, 0))
    if kernel == "gemm":
        return GemmTrailSpec(compute).run(
            lik, ljk, Tile(c, precision=stored, coords=(2, 1)))
    return SyrkSpec(compute).run(
        lik, Tile(c_sym, precision=stored, coords=(2, 2)))


class TestBehaviorEquality:
    """Descriptor.run == the array-level kernel's arithmetic, bit for
    bit, whatever precision the tiles are stored at."""

    @pytest.mark.parametrize("size,compute,stored", CASES)
    def test_potrf(self, size, compute, stored):
        a = _spd(size, stored, 0, (0, 0))
        out = _round_trip(PotrfSpec(compute)).run(a)
        _assert_tile(out, tile_potrf(a.to_float64(), compute), compute, (0, 0))
        assert not np.triu(out.data, 1).any()

    @pytest.mark.parametrize("size,compute,stored", CASES)
    def test_trsm(self, size, compute, stored):
        lkk = Tile(np.linalg.cholesky(_spd(size, stored, 0, None).to_float64()),
                   precision=stored, coords=(0, 0))
        aik = _panel_tile(size, stored, 2, (1, 0))
        out = _round_trip(TrsmSpec(compute, stored)).run(lkk, aik)
        expect = tile_trsm(lkk.to_float64(), aik.to_float64(), compute)
        # computed at ``compute``, stored at ``stored``: a real rounding,
        # and none where the two are the same format
        expect = (Tile._on_grid(expect, stored) if stored is compute
                  else Tile(expect, precision=stored))
        _assert_tile(out, expect.data, stored, (1, 0))

    @pytest.mark.parametrize("size,compute,stored", CASES)
    def test_syrk(self, size, compute, stored):
        lik = _panel_tile(size, stored, 3, (2, 0))
        aii = _spd(size, stored, 4, (2, 2))
        out = _round_trip(SyrkSpec(compute)).run(lik, aii)
        expect = tile_syrk(lik.to_float64(), aii.to_float64(), compute)
        _assert_tile(out, expect, compute, (2, 2))

    @pytest.mark.parametrize("size,compute,stored", CASES)
    def test_gemm_trail(self, size, compute, stored):
        lik = _panel_tile(size, stored, 5, (2, 0))
        ljk = _panel_tile(size, stored, 6, (1, 0))
        aij = _panel_tile(size, stored, 7, (2, 1))
        out = _round_trip(GemmTrailSpec(compute)).run(lik, ljk, aij)
        expect = tile_gemm(lik.to_float64(), ljk.to_float64(),
                           aij.to_float64(), compute)
        _assert_tile(out, expect, compute, (2, 1))

    @pytest.mark.parametrize("case", sorted(GOLDEN, key=str), ids=str)
    def test_emulated_updates_keep_their_bits(self, case):
        out = _golden_case(*case)
        data = out.data
        if out.precision is Precision.FP16:
            data = encode_payload(data, out.precision)  # see GOLDEN
        digest = hashlib.sha256(bits(data).tobytes()).hexdigest()[:16]
        assert digest == GOLDEN[case]

    def test_rerun_is_bitwise_stable(self):
        lik = _tile(seed=3, coords=(2, 0))
        aii = _spd_tile(seed=4, coords=(2, 2))
        spec = SyrkSpec(Precision.FP32)
        first = spec.run(lik, aii).to_float64()
        second = spec.run(lik, aii).to_float64()
        np.testing.assert_array_equal(first, second)

    @pytest.mark.parametrize("kernel", ["syrk", "gemm"])
    @pytest.mark.parametrize("compute", [Precision.FP16, Precision.FP8_E4M3],
                             ids=lambda p: p.value)
    def test_an_update_keeps_nothing_between_runs(self, kernel, compute):
        """One spec run on a panel, then on other panels at the same
        coordinates, then on the first again: each result is the
        array-level kernel's on those tiles, bit for bit.  An emulated
        update quantizes its panels per run and holds no operand across
        tasks."""
        def case(seed):
            panels = (_panel_tile(T, Precision.FP32, seed, (2, 0)),
                      _panel_tile(T, Precision.FP32, seed + 1, (1, 0)))
            if kernel == "gemm":
                return panels + (_panel_tile(T, Precision.FP32, seed + 2,
                                             (2, 1)),)
            return panels[:1] + (_spd(T, Precision.FP32, seed + 2, (2, 2)),)

        spec = (GemmTrailSpec if kernel == "gemm" else SyrkSpec)(compute)
        first, other = case(20), case(30)
        runs = [spec.run(*tiles) for tiles in (first, other, first)]
        array_kernel = tile_gemm if kernel == "gemm" else tile_syrk
        for tiles, out in zip((first, other, first), runs):
            expect = array_kernel(*(t.to_float64() for t in tiles), compute)
            _assert_tile(out, expect, compute, tiles[-1].coords)

    @pytest.mark.parametrize("p", [Precision.FP32, Precision.FP64],
                             ids=lambda p: p.value)
    @pytest.mark.parametrize("transpose", [False, True])
    def test_solve_gemm(self, p, transpose):
        """``acc - op(L) x`` is one ``?gemm`` in the working dtype on the
        tile's F-ordered view, into a copy of ``acc``."""
        dtype = p.numpy_dtype
        xj = np.asfortranarray(_rng(8).standard_normal((T, 3)), dtype)
        acc = np.asfortranarray(_rng(9).standard_normal((T, 3)), dtype)
        before = acc.copy()
        lij = _tile(seed=10, coords=(2, 1), precision=p)
        spec = _round_trip(SolveGemmSpec(p, transpose=transpose))
        out = spec.run(xj, acc, lij)
        gemm = getattr(scipy.linalg.blas, _PREFIX[p] + "gemm")
        expect = gemm(-1.0, lij.data.T, xj, beta=1.0, c=acc.copy(order="F"),
                      trans_a=int(not transpose))
        assert out.dtype == dtype
        np.testing.assert_array_equal(out, expect)
        np.testing.assert_array_equal(acc, before)

    @pytest.mark.parametrize("p", [Precision.FP32, Precision.FP64],
                             ids=lambda p: p.value)
    @pytest.mark.parametrize("transpose", [False, True])
    def test_solve_trsm(self, p, transpose):
        """``op(L) X = acc`` is one ``?trsm`` in the working dtype on the
        diagonal tile's F-ordered view, into a copy of ``acc``."""
        dtype = p.numpy_dtype
        acc = np.asfortranarray(_rng(11).standard_normal((T, 3)), dtype)
        before = acc.copy()
        diag = Tile(np.linalg.cholesky(_spd_tile(seed=12).to_float64()),
                    precision=p, coords=(1, 1))
        spec = _round_trip(SolveTrsmSpec(p, transpose=transpose))
        out = spec.run(acc, diag)
        trsm = getattr(scipy.linalg.blas, _PREFIX[p] + "trsm")
        expect = trsm(1.0, diag.data.T, acc.copy(order="F"), lower=0,
                      trans_a=int(not transpose))
        assert out.dtype == dtype
        np.testing.assert_array_equal(out, expect)
        np.testing.assert_array_equal(acc, before)

    def test_build_row(self):
        g = _rng(13).integers(0, 3, size=(24, 96)).astype(np.int8)
        builder = KernelBuilder(gamma=0.01, tile_size=8, snp_block=64)
        ctx = builder._prepare_operands(g, g, None, None, symmetric=True)
        spec = _round_trip(BuildRowSpec(gamma=0.01, snp_block=64,
                                        row_start=0, row_stop=8, col_end=24))
        out = spec.run(pickle.loads(pickle.dumps(ctx)))
        expect = compute_kernel_rows(ctx, 0.01, 64, slice(0, 8), slice(0, 24))
        np.testing.assert_array_equal(out, expect)

    def test_predict_group(self):
        """The group's blocks times ``W``, one product per batch — the
        blocks ``iter_cross_rows`` yields for the same group."""
        g = _rng(20).integers(0, 3, size=(40, 96)).astype(np.int8)
        w = _rng(21).standard_normal((24, 2))
        builder = KernelBuilder(gamma=0.01, tile_size=8, snp_block=64)
        ctx = builder._prepare_operands(g[24:], g[:24], None, None,
                                        symmetric=False)
        spec = _round_trip(PredictGroupSpec(
            gamma=0.01, snp_block=64, tile_size=8, precision=Precision.FP32,
            batches=((0, 8), (8, 12))))
        out = spec.run(pickle.loads(pickle.dumps(ctx)), w)
        expect = np.vstack([
            gemm(block.kernel, w, precision=Precision.FP32)
            for block in builder.iter_cross_rows(
                g[24:36], g[:24], batch_rows=8, cohort_rows=[8, 4])])
        np.testing.assert_array_equal(out, expect)

    def test_cg_matvec(self):
        from repro.linalg.cg import kernel_matvec
        from repro.tiles.matrix import TileMatrix

        k_dense = _rng(16).standard_normal((3 * T, 3 * T))
        k_dense = k_dense @ k_dense.T / (3 * T)
        kernel = TileMatrix.from_dense(k_dense, T, Precision.FP32,
                                       symmetric=True)
        v = _rng(17).standard_normal((3 * T, 2))
        # the insertion site ships *stored* tiles plus a transpose mask
        # for the symmetric upper triangle
        keys = [kernel._stored_key(1, j) for j in range(3)]
        spec = _round_trip(CgMatvecSpec(shifts=(0.5, 0.25), row_start=T,
                                        row_stop=2 * T,
                                        transposes=tuple(t for _, t in keys)))
        tiles = tuple(kernel.get_tile(*key) for key, _ in keys)
        out = spec.run(v, None, *tiles)
        # the closure path (kernel_matvec without a runtime) computes the
        # same row band — bit for bit
        expect = kernel_matvec(kernel, v, alpha=np.array([0.5, 0.25]))[T:2 * T]
        np.testing.assert_array_equal(out, expect)
