"""Bit-faithful FP8 (E4M3) quantization, and FP16's.

NumPy has no 8-bit float dtype, so FP8 values are represented as
``float32`` arrays whose values lie exactly on the FP8 grid.  The
quantizer implements round-to-nearest-even on the target grid with
gradual underflow (subnormals) and saturation to the largest finite
value, matching the saturating behaviour of ``cublasLtMatmul`` with
``CUDA_R_8F_E4M3`` operands that the paper relies on.  FP16 (IEEE
binary16) is emulated by the same routine, in the same container.

The E4M3 format (1 sign, 4 exponent, 3 mantissa bits, bias 7) follows
the OCP FP8 specification: exponent field 0b1111 is *not* reserved for
infinities, so the maximum finite value is ``1.75 * 2**8 = 448``.
"""

from __future__ import annotations

import numpy as np

from repro.precision.formats import Precision

#: Unsigned view, sign bit, exponent field and mantissa width of the
#: float dtypes the rounding runs in: float32 inputs round in float32,
#: any other input in float64.
_LAYOUT = {np.dtype(np.float64): (np.uint64, 1 << 63, 0x7FF0000000000000, 52),
           np.dtype(np.float32): (np.uint32, 1 << 31, 0x7F800000, 23)}

# (mantissa_bits, max_finite, min_normal_exponent) of the formats
# emulated as float32 on their binary grid
_GRID_PARAMS = {
    Precision.FP8_E4M3: (3, 448.0, -6),
    Precision.FP16: (10, 65504.0, -14),
}


def _round_to_grid(x: np.ndarray, mantissa_bits: int, min_normal_exp: int,
                   max_finite: float) -> np.ndarray:
    """Round ``x`` to a low-precision binary grid (in float32 for a
    float32/float16 input, else in float64: the value is exact in either
    and rounded once, so both give the same bits).

    Branch-free round-to-nearest-even on the bit pattern: for ``|x|``
    with (clamped) exponent ``e`` the grid spacing is
    ``2**(e - mantissa_bits)``, exactly the spacing of the rounding dtype
    (``t`` mantissa bits) just above ``magic = 2**(e + t - mantissa_bits)``
    — so ``(|x| + magic) - magic`` lets the FPU's own round-half-to-even
    do it, the rounding mode of tensor-core conversions.  Clamping ``e``
    below at ``min_normal_exp`` keeps the subnormal spacing (gradual
    underflow).  ``|x|`` saturates before rounding, which is monotone
    with ``max_finite`` on the grid: the same as saturating after.
    """
    x = np.asarray(x)
    x = x.astype(np.float32 if x.dtype in (np.float32, np.float16)
                 else np.float64, copy=False)
    uint, sign, exponent_field, t = _LAYOUT[x.dtype]
    bits = np.atleast_1d(x).view(uint)  # ufuncs turn 0-d arrays into scalars
    mag_bits = bits & uint(sign - 1)  # |x|
    mag = mag_bits.view(x.dtype)
    with np.errstate(invalid="ignore"):  # signalling NaNs stay silent
        smallest = mag.min() if mag.size else 1.0
        # one-sided: |x| >= 0, and after the saturation max_finite
        # bounds the magic addend too; NaN propagates through both
        np.minimum(mag, max_finite, out=mag)
        # per-element magic addend: keep only the exponent field of the
        # clamped magnitude, then raise it by t - mantissa_bits binades
        magic = np.maximum(mag, 2.0 ** min_normal_exp)
        magic_bits = magic.view(uint)
        magic_bits &= uint(exponent_field)
        magic_bits += uint((t - mantissa_bits) << t)
        mag += magic
        mag -= magic
    mag_bits |= np.bitwise_and(bits, uint(sign), out=magic_bits)  # sign, in magic
    if not smallest > 0.0:
        # an exact zero or a NaN somewhere: zeros come back as +0.0 and
        # NaNs as the canonical quiet NaN, whatever their sign/payload
        mag[bits.view(x.dtype) == 0.0] = 0.0
        mag[np.isnan(bits.view(x.dtype))] = np.nan
    return mag.reshape(x.shape)


def quantize_grid(x: np.ndarray, precision: Precision) -> np.ndarray:
    """Round ``x`` onto the grid of FP16 or FP8 E4M3, as ``float32``
    (exact zeros come back ``+0.0``, NaNs as the canonical quiet NaN)."""
    mantissa_bits, max_finite, min_normal_exp = _GRID_PARAMS[precision]
    rounded = _round_to_grid(x, mantissa_bits, min_normal_exp, max_finite)
    return rounded.astype(np.float32, copy=False)
