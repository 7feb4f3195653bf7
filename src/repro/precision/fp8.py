"""Bit-faithful FP8 quantization (E4M3 and E5M2).

NumPy has no 8-bit float dtype, so FP8 values are represented as
``float32`` arrays whose values lie exactly on the FP8 grid.  The
quantizer implements round-to-nearest-even on the target grid with
gradual underflow (subnormals) and saturation to the largest finite
value, matching the saturating behaviour of ``cublasLtMatmul`` with
``CUDA_R_8F_E4M3`` operands that the paper relies on.

The E4M3 format (1 sign, 4 exponent, 3 mantissa bits, bias 7) follows
the OCP FP8 specification: exponent field 0b1111 is *not* reserved for
infinities, so the maximum finite value is ``1.75 * 2**8 = 448``.
E5M2 (bias 15) mirrors IEEE binary16 semantics with a max finite of
``1.75 * 2**14 = 57344``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.precision.formats import Precision

#: Exponent field of an IEEE binary64 bit pattern.
_EXPONENT_FIELD = np.uint64(0x7FF0000000000000)

# (mantissa_bits, exponent_bias, max_finite, min_normal_exponent)
_FP8_PARAMS = {
    Precision.FP8_E4M3: (3, 7, 448.0, -6),
    Precision.FP8_E5M2: (2, 15, 57344.0, -14),
}


def _round_to_grid(x: np.ndarray, mantissa_bits: int, min_normal_exp: int,
                   max_finite: float) -> np.ndarray:
    """Round ``x`` (float32/float64) to a low-precision binary grid.

    Branch-free round-to-nearest-even on the float64 bit pattern: for
    ``|x|`` with (clamped) exponent ``e`` the grid spacing is
    ``2**(e - mantissa_bits)``, which is exactly the float64 spacing
    just above ``magic = 2**(e + 52 - mantissa_bits)`` — so
    ``(|x| + magic) - magic`` lets the FPU's own round-half-to-even do
    the rounding, the rounding mode of tensor-core conversions.
    Clamping ``e`` from below at ``min_normal_exp`` keeps the subnormal
    spacing fixed (gradual underflow); clamping it from above keeps the
    exponent arithmetic in range for huge inputs, which saturate anyway.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = np.atleast_1d(x)  # ufuncs turn 0-d arrays into scalars
    with np.errstate(invalid="ignore"):  # signalling NaNs stay silent
        mag = np.abs(flat)
        smallest = mag.min() if mag.size else 1.0
        # per-element magic addend: keep only the exponent field of the
        # clamped magnitude, then raise it by 52 - mantissa_bits binades
        magic = np.clip(mag, 2.0 ** min_normal_exp,
                        2.0 ** math.frexp(max_finite)[1])
        field = magic.view(np.uint64)
        field &= _EXPONENT_FIELD
        field += np.uint64((52 - mantissa_bits) << 52)
        mag += magic
        mag -= magic
        # saturate to max finite (no infinities in E4M3); NaN propagates
        np.minimum(mag, max_finite, out=mag)
        np.copysign(mag, flat, out=mag)
    if not smallest > 0.0:
        # an exact zero or a NaN somewhere: zeros come back as +0.0 and
        # NaNs as the canonical quiet NaN, whatever their sign/payload
        mag[flat == 0.0] = 0.0
        mag[np.isnan(flat)] = np.nan
    return mag.reshape(x.shape)


def quantize_fp8(x: np.ndarray, variant: Precision = Precision.FP8_E4M3) -> np.ndarray:
    """Quantize an array to the FP8 value grid, returned as ``float32``.

    Parameters
    ----------
    x:
        Input array (any float dtype).
    variant:
        ``Precision.FP8_E4M3`` (default, the variant used by the paper's
        Cholesky tiles on GH200) or ``Precision.FP8_E5M2``.

    Returns
    -------
    numpy.ndarray
        ``float32`` array whose values all lie on the chosen FP8 grid.
        Values beyond the format's range saturate to ``±max_finite``;
        NaNs propagate.
    """
    if variant not in _FP8_PARAMS:
        raise ValueError(f"{variant} is not an FP8 format")
    mantissa_bits, _bias, max_finite, min_normal_exp = _FP8_PARAMS[variant]
    rounded = _round_to_grid(x, mantissa_bits, min_normal_exp, max_finite)
    return rounded.astype(np.float32)


def fp8_grid(variant: Precision = Precision.FP8_E4M3) -> np.ndarray:
    """Return all non-negative representable FP8 values, ascending.

    Useful for tests and for illustrating the format's dynamic range.
    """
    if variant not in _FP8_PARAMS:
        raise ValueError(f"{variant} is not an FP8 format")
    mantissa_bits, bias, max_finite, min_normal_exp = _FP8_PARAMS[variant]
    values = [0.0]
    # subnormals: fraction/2**m * 2**min_normal_exp
    for frac in range(1, 2 ** mantissa_bits):
        values.append(frac / (2 ** mantissa_bits) * 2.0 ** min_normal_exp)
    # normals
    max_exp = int(np.floor(np.log2(max_finite)))
    for e in range(min_normal_exp, max_exp + 1):
        for frac in range(2 ** mantissa_bits):
            v = (1.0 + frac / (2 ** mantissa_bits)) * 2.0 ** e
            if v <= max_finite:
                values.append(v)
    return np.array(sorted(set(values)), dtype=np.float64)


def is_representable_fp8(x: np.ndarray, variant: Precision = Precision.FP8_E4M3,
                         rtol: float = 0.0) -> np.ndarray:
    """Element-wise check that values already lie on the FP8 grid."""
    q = quantize_fp8(x, variant)
    x = np.asarray(x, dtype=np.float32)
    if rtol == 0.0:
        return q == x
    return np.abs(q - x) <= rtol * np.abs(x)
