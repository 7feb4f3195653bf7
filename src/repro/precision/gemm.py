"""Emulated tensor-core GEMM / SYRK variants, BLAS-backed.

The paper's Build and Associate phases call cuBLAS with precision
combinations chosen per tile:

* ``AB8I_C32I_OP32I`` — operands A/B in INT8, C and the accumulator in
  INT32 (used for the SNP part of the distance SYRK, Sec. V-A/V-B1).
* ``cublasSgemm`` — plain FP32 GEMM (confounder tiles).
* FP16 and FP8 (``CUDA_R_8F_E4M3``) tensor-core GEMMs with FP32
  accumulation (off-diagonal Cholesky update tiles).

Each variant is emulated by (1) quantizing the operands onto the input
format's value grid, (2) performing the product in the accumulation
format, (3) rounding the result to the output format.  Integer variants
are exact as long as the INT32 accumulator does not overflow, exactly
like the hardware.

Backend
-------
The integer variants dispatch the actual multiplication through the
narrowest float BLAS routine that is exact (``"blas"`` backend, the
default): a float product of integer-valued operands is bit-exact as
long as every partial sum stays below ``2**24`` in float32
(:data:`EXACT_SGEMM_BOUND`; sgemm for genotype data) or ``2**53`` in
float64 (:data:`EXACT_DGEMM_BOUND`), which the analytic bound
``max|a| * max|b| * k`` proves (:func:`integer_gemm_dtype`).  NumPy
executes integer matmul with scalar loops (no BLAS), so this dispatch
is what makes the "fast" INT8 path actually fast on the host.  Given a
float ``C`` and ``beta=1``, an integer variant adds its product into
that ``C`` in place — the caller's exact accumulator, standing in for
the tensor core's INT32 ``C``.  The historical int64 matmul is kept
behind the ``"int64"`` backend for cross-checking;
:func:`integer_backend` switches it temporarily.

Operands that are reused across many tiles (the genotype matrix in the
Build phase, the panel tiles in the Cholesky trailing update) can be
wrapped in a :class:`QuantizedOperand` so quantization and the
``max|.|`` bound are computed once per matrix instead of once per
(tile x SNP-block) GEMM call.  The float cast BLAS multiplies with is
made by the operand that is multiplied: a Build slices the genotype
operand and each slice casts only its own rows and SNP block.
"""

from __future__ import annotations

import contextlib
import ctypes
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas as _scipy_blas
from scipy.linalg import cython_blas as _scipy_cython_blas

from repro.precision.formats import Precision
from repro.precision.quantize import quantize

#: Largest magnitude below which every float64 partial sum of an
#: integer-valued product is exactly representable (2**53).
EXACT_DGEMM_BOUND = float(2 ** 53)

#: Same bound for float32 accumulation (2**24): when the analytic
#: partial-sum bound stays below it, the integer product can dispatch to
#: sgemm — twice the flop rate and half the operand-cache footprint.
EXACT_SGEMM_BOUND = float(2 ** 24)


def integer_gemm_dtype(max_a: float, max_b: float, k: int) -> type | None:
    """Narrowest float dtype that multiplies these integers exactly.

    Returns ``numpy.float32``/``numpy.float64`` when the analytic
    partial-sum bound ``max|a| * max|b| * k`` proves every intermediate
    exactly representable, or ``None`` when not even float64 is safe
    (the caller must fall back to the int64 reference path).
    """
    bound = max_a * max_b * max(k, 1)
    if bound < EXACT_SGEMM_BOUND:
        return np.float32
    if bound < EXACT_DGEMM_BOUND:
        return np.float64
    return None

_INT32_MAX = float(np.iinfo(np.int32).max)
_INT32_MIN = float(np.iinfo(np.int32).min)

#: Module-level integer-GEMM backend: "blas" (float64 dgemm, exact under
#: :data:`EXACT_DGEMM_BOUND`) or "int64" (the historical reference path).
_INTEGER_BACKEND = "blas"


def set_integer_backend(backend: str) -> str:
    """Select the integer-GEMM backend; returns the previous setting."""
    global _INTEGER_BACKEND
    if backend not in ("blas", "int64"):
        raise ValueError("integer backend must be 'blas' or 'int64'")
    previous = _INTEGER_BACKEND
    _INTEGER_BACKEND = backend
    return previous


@contextlib.contextmanager
def integer_backend(backend: str):
    """Context manager pinning the integer-GEMM backend (tests/benchmarks)."""
    previous = set_integer_backend(backend)
    try:
        yield
    finally:
        set_integer_backend(previous)


@dataclass(frozen=True)
class GemmVariant:
    """A named (input, accumulate, output) precision combination.

    Attributes
    ----------
    name:
        cuBLAS-style identifier, e.g. ``"AB8I_C32I_OP32I"``.
    input_precision:
        Format the A/B operands are quantized to before multiplying.
    accumulate_precision:
        Format of the accumulator (INT32 for integer variants, FP32
        for tensor-core float variants, FP64 for the reference path).
    output_precision:
        Format the result is rounded to on store.
    """

    name: str
    input_precision: Precision
    accumulate_precision: Precision
    output_precision: Precision


#: Registry of the GEMM variants referenced in the paper.
_VARIANTS: dict[str, GemmVariant] = {
    "AB8I_C32I_OP32I": GemmVariant(
        "AB8I_C32I_OP32I", Precision.INT8, Precision.INT32, Precision.INT32
    ),
    "FP64": GemmVariant("FP64", Precision.FP64, Precision.FP64, Precision.FP64),
    "FP32": GemmVariant("FP32", Precision.FP32, Precision.FP32, Precision.FP32),
    "FP16_FP32ACC": GemmVariant(
        "FP16_FP32ACC", Precision.FP16, Precision.FP32, Precision.FP32
    ),
    "FP8_E4M3_FP32ACC": GemmVariant(
        "FP8_E4M3_FP32ACC", Precision.FP8_E4M3, Precision.FP32, Precision.FP32
    ),
}


def gemm_variant(name: str) -> GemmVariant:
    """Look up a GEMM variant by its cuBLAS-style name."""
    try:
        return _VARIANTS[name.upper()]
    except KeyError as exc:
        raise ValueError(
            f"unknown GEMM variant {name!r}; available: {sorted(_VARIANTS)}"
        ) from exc


def variant_for_input(precision: Precision | str) -> GemmVariant:
    """Choose the natural GEMM variant given the input tile precision.

    Mirrors the fine-grained dispatch in Fig. 2 of the paper: integer
    tiles go through the INT8/INT32 path, FP32 tiles through SGEMM, and
    lower float precisions through a tensor-core variant with FP32
    accumulation.
    """
    precision = Precision.from_string(precision)
    mapping = {
        Precision.INT8: "AB8I_C32I_OP32I",
        Precision.INT32: "AB8I_C32I_OP32I",
        Precision.FP64: "FP64",
        Precision.FP32: "FP32",
        Precision.FP16: "FP16_FP32ACC",
        Precision.FP8_E4M3: "FP8_E4M3_FP32ACC",
    }
    return gemm_variant(mapping[precision])


class QuantizedOperand:
    """A matrix quantized once to a GEMM input precision.

    Wrapping an operand amortizes two per-call costs of
    :func:`gemm_mixed` across every tile GEMM that reads the matrix —
    quantization onto the input format's value grid and the ``max|.|``
    scan backing the analytic overflow/exactness bounds — and caches
    the float cast the BLAS backend multiplies with for as long as the
    operand object lives (two products of one block share it).

    Slicing (``q[rows, cols]``) returns a view-backed operand sharing
    the parent's quantized values, bound and any cast already made, so
    the Build phase quantizes the genotype matrix exactly once no matter
    how many (tile x SNP-block) products are taken from it; a slice of
    an uncast parent casts only its own block.
    """

    __slots__ = ("array", "precision", "_floats", "_max_abs")

    def __init__(self, data: np.ndarray, precision: Precision | str) -> None:
        self.precision = Precision.from_string(precision)
        self.array = quantize(np.asarray(data), self.precision)
        self._floats: dict[type, np.ndarray] = {}
        self._max_abs: float | None = None

    # ------------------------------------------------------------------
    @classmethod
    def _on_grid(cls, array: np.ndarray, precision: Precision,
                 floats: dict | None = None,
                 max_abs: float | None = None) -> "QuantizedOperand":
        """Operand over ``array``, already on ``precision``'s grid in its
        storage dtype (a view of another operand, a tile payload)."""
        op = cls.__new__(cls)
        op.precision = precision
        op.array = array
        op._floats = {} if floats is None else floats
        op._max_abs = max_abs
        return op

    @classmethod
    def wrap(cls, x: "np.ndarray | QuantizedOperand",
             precision: Precision | str) -> "QuantizedOperand":
        """Wrap ``x``, reusing it when already quantized to ``precision``."""
        precision = Precision.from_string(precision)
        if isinstance(x, QuantizedOperand):
            if x.precision is precision:
                return x
            return cls(np.asarray(x.array), precision)
        return cls(x, precision)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape

    def as_float(self, dtype: type = np.float64) -> np.ndarray:
        """The quantized values in a float dtype (cached; fed to BLAS)."""
        cached = self._floats.get(dtype)
        if cached is None:
            if self.array.dtype == dtype:
                cached = self.array
            else:
                cached = np.asarray(self.array, dtype=dtype)
            self._floats[dtype] = cached
        return cached

    def max_abs(self) -> float:
        """Cached ``max|.|`` of the quantized values (overflow bounds)."""
        if self._max_abs is None:
            if not self.array.size:
                self._max_abs = 0.0
            elif np.issubdtype(self.array.dtype, np.integer):
                # scan the narrow integer storage; abs() on int8 would
                # overflow at -128, so take |min|/|max| in python floats
                self._max_abs = max(abs(float(self.array.min())),
                                    abs(float(self.array.max())))
            else:
                self._max_abs = float(np.max(np.abs(self.array)))
        return self._max_abs

    def __getitem__(self, idx) -> "QuantizedOperand":
        """View-backed slice sharing the parent's caches.

        The parent's ``max|.|`` is kept as a (conservative) bound for
        the slice — it only ever over-estimates, which is safe for both
        the overflow and the exactness checks.
        """
        return QuantizedOperand._on_grid(
            self.array[idx], self.precision,
            {dt: f[idx] for dt, f in self._floats.items()}, self._max_abs)

    @property
    def T(self) -> "QuantizedOperand":
        """Transposed view sharing the parent's caches."""
        return QuantizedOperand._on_grid(
            self.array.T, self.precision,
            {dt: f.T for dt, f in self._floats.items()}, self._max_abs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QuantizedOperand({self.shape}, {self.precision})"


def _check_int32_overflow(prod: np.ndarray, max_a: float, max_b: float,
                          k: int) -> None:
    """Raise if the emulated INT32 accumulator would have overflowed.

    The analytic bound ``max|a| * max|b| * k`` proves safety without
    touching the product: genotypes in {0, 1, 2} give ``4*k``, under
    ``2**31`` for any ``k`` below 500 million, so the hot path never
    pays the full ``O(m*n)`` min/max scan the historical implementation
    performed on every tile.
    """
    if max_a * max_b * k <= _INT32_MAX:
        return
    if prod.size and (prod.max() > _INT32_MAX or prod.min() < _INT32_MIN):
        raise OverflowError(
            "INT32 accumulator overflow in integer GEMM; "
            "reduce the inner dimension per tile (the paper tiles the "
            "SNP dimension so partial sums stay in range)"
        )


def _integer_product(qa: QuantizedOperand, qb: QuantizedOperand,
                     transa: bool, transb: bool) -> np.ndarray:
    """Exact integer product ``op(A) @ op(B)`` in a float container.

    Dispatches to sgemm/dgemm at the narrowest float dtype whose
    partial-sum bound proves exactness (sgemm for genotype-scale data);
    falls back to the int64 reference path otherwise or when pinned via
    :func:`integer_backend`.  The returned values are exact integers
    whatever the container dtype.
    """
    k = (qa.shape[0] if transa else qa.shape[-1])
    blas_dtype = integer_gemm_dtype(qa.max_abs(), qb.max_abs(), k)
    if _INTEGER_BACKEND == "blas" and blas_dtype is not None:
        fa = qa.as_float(blas_dtype)
        fb = qb.as_float(blas_dtype)
        if transa:
            fa = fa.T
        if transb:
            fb = fb.T
        prod = fa @ fb  # sgemm/dgemm; exact under the analytic bound
    else:
        ia = np.asarray(qa.array, dtype=np.int64)
        ib = np.asarray(qb.array, dtype=np.int64)
        if transa:
            ia = ia.T
        if transb:
            ib = ib.T
        prod = (ia @ ib).astype(np.float64)
    _check_int32_overflow(prod, qa.max_abs(), qb.max_abs(), k)
    return prod


def _cython_blas(name: str, nargs: int):
    """BLAS routine ``name`` of scipy's ``cython_blas`` table as a ctypes
    function.  Unlike scipy's f2py wrappers it takes leading dimensions,
    so ``C`` may be a block of a larger array, and it releases the GIL
    while it runs, so the products of concurrent lanes overlap."""
    capsule = _scipy_cython_blas.__pyx_capi__[name]
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * nargs)(
        _capsule_pointer(capsule, _capsule_name(capsule)))


_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(
    ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))
#: ``?gemm`` / ``?syrk`` and their scalar type, by accumulator dtype
_GEMM = {np.float32: _cython_blas("sgemm", 13),
         np.float64: _cython_blas("dgemm", 13)}
_SYRK = {np.float32: _cython_blas("ssyrk", 10),
         np.float64: _cython_blas("dsyrk", 10)}
_SCALAR = {np.float32: ctypes.c_float, np.float64: ctypes.c_double}


def _int(value: int):
    return ctypes.byref(ctypes.c_int(value))


def _column_major(m: np.ndarray) -> tuple[bytes, np.ndarray, int]:
    """``(trans, x, ld)``: ``op(x) = m`` for the column-major array at
    ``x`` (``m`` itself when contiguous) with leading dimension ``ld``."""
    if not (m.flags.f_contiguous or m.flags.c_contiguous):
        m = np.ascontiguousarray(m)
    if m.flags.f_contiguous:
        return b"N", m, max(1, m.shape[0])
    return b"T", m, max(1, m.shape[1])


def _is_exact_accumulator(c, beta: float) -> bool:
    """``C`` is a caller's float accumulator that ``beta=1`` adds into."""
    return beta == 1.0 and isinstance(c, np.ndarray) \
        and c.dtype in (np.float32, np.float64)


def _add_integer_product(c: np.ndarray, alpha: float, qa: QuantizedOperand,
                         transa: bool, qb: QuantizedOperand | None = None,
                         transb: bool = False, lower: bool = True
                         ) -> np.ndarray:
    """``C += alpha·op(A)·op(B)`` in place in the float array ``C``.

    With ``qb=None`` it is the symmetric update ``alpha·op(A)·op(A)ᵀ``
    (``?syrk``) of ``C``'s ``lower`` (or upper) triangle only.  The
    operands are cast one call at a time to ``C``'s dtype, so every
    partial sum is an integer: the update is exact while the caller's
    bound on ``C`` (its preload plus every product) stays under that
    dtype's :func:`integer_gemm_dtype` limit.  ``C`` may be any block
    of a larger array with unit stride along one axis.
    """
    dtype = c.dtype.type
    if _INTEGER_BACKEND != "blas":
        ia = np.asarray(qa.array, dtype=np.int64)
        ia = ia.T if transa else ia
        if qb is None:
            prod = ia @ ia.T
            prod = np.tril(prod) if lower else np.triu(prod)
        else:
            ib = np.asarray(qb.array, dtype=np.int64)
            prod = ia @ (ib.T if transb else ib)
        c += alpha * prod
        return c
    fa = qa.as_float(dtype)
    fa = fa.T if transa else fa
    if not (c.size and fa.shape[1]):
        return c
    # BLAS is column-major: a row-major C is updated as Cᵀ = α·Bᵀ·Aᵀ + Cᵀ
    row_major = c.strides[1] == c.itemsize
    ld, rows = ((c.strides[0], c.shape[1]) if row_major
                else (c.strides[1], c.shape[0]))
    if not (row_major or c.strides[0] == c.itemsize) \
            or ld < rows * c.itemsize:
        raise ValueError("the accumulator C must be a block of an array "
                         "with unit stride along one axis")
    ldc = ld // c.itemsize
    one, scale = _SCALAR[dtype](1.0), _SCALAR[dtype](alpha)
    if qb is None:
        trans, x, ld = _column_major(fa)
        uplo = b"U" if row_major == lower else b"L"
        _SYRK[dtype](uplo, trans, _int(c.shape[0]), _int(fa.shape[1]),
                     ctypes.byref(scale), x.ctypes.data, _int(ld),
                     ctypes.byref(one), c.ctypes.data, _int(ldc))
        return c
    fb = qb.as_float(dtype)
    fb = fb.T if transb else fb
    left, right = (fb.T, fa.T) if row_major else (fa, fb)
    (ta, xa, lda), (tb, xb, ldb) = _column_major(left), _column_major(right)
    _GEMM[dtype](ta, tb, _int(left.shape[0]), _int(right.shape[1]),
                 _int(fa.shape[1]), ctypes.byref(scale), xa.ctypes.data,
                 _int(lda), xb.ctypes.data, _int(ldb), ctypes.byref(one),
                 c.ctypes.data, _int(ldc))
    return c


def _float_accumulator_dtype(acc: Precision) -> type:
    return np.float64 if acc is Precision.FP64 else np.float32


def gemm_mixed(
    a: np.ndarray | QuantizedOperand,
    b: np.ndarray | QuantizedOperand,
    c: np.ndarray | None = None,
    *,
    variant: GemmVariant | str = "FP32",
    alpha: float = 1.0,
    beta: float = 0.0,
    transa: bool = False,
    transb: bool = False,
) -> np.ndarray:
    """Mixed-precision ``C = alpha * op(A) @ op(B) + beta * C``.

    Operands are quantized to the variant's input precision (skipped
    when a matching :class:`QuantizedOperand` is passed), the product is
    accumulated in the variant's accumulation precision, and the result
    is rounded to the output precision.

    For the integer variant the computation is exact provided the INT32
    accumulator does not overflow; an overflow raises ``OverflowError``
    (hardware would silently wrap, which is never acceptable for the
    distance computation the paper performs).  Given a float32/float64
    ``C`` and ``beta=1`` instead, the integer product is added into
    that ``C`` in place and ``C`` is returned: it is the caller's exact
    accumulator (:func:`_add_integer_product` states its bound).
    """
    if isinstance(variant, str):
        variant = gemm_variant(variant)

    qa = QuantizedOperand.wrap(a, variant.input_precision)
    qb = QuantizedOperand.wrap(b, variant.input_precision)
    inner_a = qa.shape[0] if transa else qa.shape[-1]
    inner_b = qb.shape[-1] if transb else qb.shape[0]
    if inner_a != inner_b:
        op_shape_a = qa.shape[::-1] if transa else qa.shape
        op_shape_b = qb.shape[::-1] if transb else qb.shape
        raise ValueError(
            f"inner dimensions do not match: {op_shape_a} @ {op_shape_b}"
        )

    acc = variant.accumulate_precision
    if acc.is_integer:
        if _is_exact_accumulator(c, beta):
            return _add_integer_product(c, alpha, qa, transa, qb, transb)
        prod = _integer_product(qa, qb, transa, transb)
        if (alpha == 1.0 and beta == 0.0
                and variant.output_precision is Precision.INT32):
            # overflow was checked above and the values are integral, so
            # the INT32 store rounding is a plain cast — skip the
            # rint/clip float roundtrip of the generic quantizer
            return prod.astype(np.int32)
        result = alpha * np.asarray(prod, dtype=np.float64)
    else:
        dtype = _float_accumulator_dtype(acc)
        fa = qa.as_float(dtype)
        fb = qb.as_float(dtype)
        if transa:
            fa = fa.T
        if transb:
            fb = fb.T
        prod = fa @ fb  # sgemm/dgemm at the accumulation precision
        if (alpha == 1.0 and beta == 0.0
                and variant.output_precision is acc):
            # the accumulator already holds the output format: storing
            # it is the identity, not a float64 round trip
            return prod
        # round the accumulated product once, as the hardware does on store
        result = alpha * prod.astype(np.float64)

    if beta != 0.0:
        if c is None:
            raise ValueError("beta != 0 requires C")
        result = result + beta * np.asarray(c, dtype=np.float64)

    return quantize(result, variant.output_precision)


def _mirror_triangle(tri: np.ndarray) -> np.ndarray:
    """Fill the full symmetric matrix from one computed triangle.

    ``tri`` must have its unreferenced triangle zeroed — true both for
    freshly allocated ``?syrk`` output and for ``tril``/``triu`` —
    which is what makes ``tri + tri.T`` the exact mirror.
    """
    diagonal = np.diagonal(tri).copy()
    full = tri + tri.T
    np.fill_diagonal(full, diagonal)
    return full


def mirror_lower(c: np.ndarray) -> np.ndarray:
    """Copy the square ``c``'s lower triangle onto its upper, in place
    and one tile-sized strip of columns at a time: the one mirror of a
    :func:`syrk_mixed` accumulation, with no full-size temporary."""
    n = len(c)
    for j0 in range(0, n, 256):
        j1 = min(j0 + 256, n)
        diagonal = c[j0:j1, j0:j1]
        np.copyto(diagonal, diagonal.T, where=~np.tri(j1 - j0, dtype=bool))
        c[j0:j1, j1:] = c[j1:, j0:j1].T
    return c


def syrk_mixed(
    a: np.ndarray | QuantizedOperand,
    c: np.ndarray | None = None,
    *,
    variant: GemmVariant | str = "FP32",
    alpha: float = 1.0,
    beta: float = 0.0,
    trans: bool = False,
    lower: bool = True,
) -> np.ndarray:
    """Mixed-precision symmetric rank-k update.

    ``C = alpha * A @ A.T + beta * C`` (``trans=False``) or
    ``C = alpha * A.T @ A + beta * C`` (``trans=True``), with the same
    quantize/accumulate/round pipeline as :func:`gemm_mixed`.  Only the
    requested triangle is *computed* — the update runs through the BLAS
    ``?syrk`` routine at half the flops of a full GEMM — and the result
    is mirrored exactly into the other triangle on return, so the full
    symmetric matrix is available for convenience.  An integer variant
    given a float ``C`` and ``beta=1`` adds into that ``C``'s triangle
    in place instead, and mirrors nothing (as :func:`gemm_mixed` does).
    """
    if isinstance(variant, str):
        variant = gemm_variant(variant)
    q = QuantizedOperand.wrap(a, variant.input_precision)
    acc = variant.accumulate_precision

    if acc.is_integer and _is_exact_accumulator(c, beta):
        return _add_integer_product(c, alpha, q, trans, lower=lower)
    if acc.is_integer:
        k = q.shape[0] if trans else q.shape[-1]
        blas_dtype = integer_gemm_dtype(q.max_abs(), q.max_abs(), k)
        if _INTEGER_BACKEND == "blas" and blas_dtype is not None and (
                q.array.size):
            op = q.as_float(blas_dtype)
            if trans:
                op = op.T
            syrk_fn = (_scipy_blas.dsyrk if blas_dtype is np.float64
                       else _scipy_blas.ssyrk)
            tri = np.asarray(syrk_fn(1.0, op, lower=lower), dtype=np.float64)
        else:
            iop = np.asarray(q.array, dtype=np.int64)
            if trans:
                iop = iop.T
            prod = (iop @ iop.T).astype(np.float64)
            tri = np.tril(prod) if lower else np.triu(prod)
        _check_int32_overflow(tri, q.max_abs(), q.max_abs(), k)
        full = _mirror_triangle(tri)
    else:
        dtype = _float_accumulator_dtype(acc)
        op = q.as_float(dtype)
        if trans:
            op = op.T
        if op.size:
            syrk_fn = _scipy_blas.dsyrk if dtype is np.float64 else _scipy_blas.ssyrk
            tri = syrk_fn(1.0, op, lower=lower)
        else:
            tri = np.zeros((op.shape[0], op.shape[0]), dtype=dtype)
        # mirroring adds a zero to every entry, exact in any float dtype
        full = _mirror_triangle(tri)
        if (alpha == 1.0 and beta == 0.0
                and variant.output_precision is acc):
            return full  # as in gemm_mixed: storing is the identity

    result = alpha * np.asarray(full, dtype=np.float64)
    if beta != 0.0:
        if c is None:
            raise ValueError("beta != 0 requires C")
        result = result + beta * np.asarray(c, dtype=np.float64)
    return quantize(result, variant.output_precision)


def gemm_flop_count(m: int, n: int, k: int) -> float:
    """Number of floating (or integer) operations of an ``m×k @ k×n`` GEMM
    (the one definition every operation count of a product calls)."""
    return 2.0 * m * n * k
