"""Narrow inputs round in their own dtype, to the float64 path's bits.

``quantize`` rounds a float32 (or float16) input to FP8 or FP16 with
the same table-driven grid routine (``fp8.quantize_grid``), by the
bit-pattern trick in float32.  The input's value is exact in float64
too, and either way it is rounded once, so the result must be bit for
bit the one of the float64 path — compared as integer views.  The
inputs are the cases of the bit-identity suite that are exactly
representable in the narrow dtype, 2**20 random float32 bit patterns
and all 65 536 float16 patterns.

NaNs: the grid routine returns the canonical quiet NaN on both paths.
FP8's NaN bits are compared; an FP16 NaN is only required to stay a
NaN, a looser check kept from when FP16 was a clip-and-cast to float16.
"""

import warnings

import numpy as np
import pytest

from repro.precision.formats import Precision
from repro.precision.quantize import quantize
from tests.precision.test_quantize_bitwise import MATRIX, all_half_patterns, bits

FORMATS = (Precision.FP8_E4M3, Precision.FP16)


def representable(x, dtype):
    """The values of ``x`` that ``dtype`` holds exactly, NaNs included."""
    with np.errstate(over="ignore", invalid="ignore"):
        narrow = np.asarray(x).astype(dtype)
        exact = (narrow.astype(np.float64) == x) | np.isnan(x)
    return narrow[exact]


def random_32_bit_patterns(n=1 << 20, seed=20241016):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << 32, size=n,
                        dtype=np.uint64).astype(np.uint32).view(np.float32)


def widened(x):
    with np.errstate(invalid="ignore"):  # widening a signalling NaN
        return x.astype(np.float64)


def assert_float64_bits(x, precision):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the narrow path stays silent
        got = quantize(x, precision)
    want = quantize(widened(x), precision)
    assert got.dtype == want.dtype == precision.numpy_dtype
    assert got.shape == x.shape
    keep = np.ones(x.shape, dtype=bool)
    if precision is Precision.FP16:
        keep = ~np.isnan(want)
        assert np.isnan(got[~keep]).all()
    np.testing.assert_array_equal(bits(got)[keep], bits(want)[keep])
    assert not np.shares_memory(got, x)


FLOAT32_CASES = {
    **{case: (lambda p, case=case: representable(MATRIX[case](p), np.float32))
       for case in MATRIX},
    "random-32-bit": lambda p: random_32_bit_patterns(),
}


@pytest.mark.parametrize("precision", FORMATS, ids=lambda p: p.value)
@pytest.mark.parametrize("case", sorted(FLOAT32_CASES))
def test_float32_input_gives_the_float64_bits(precision, case):
    x = FLOAT32_CASES[case](precision)
    assert x.dtype == np.float32 and x.size
    assert_float64_bits(x, precision)


@pytest.mark.parametrize("precision", FORMATS, ids=lambda p: p.value)
def test_float16_input_gives_the_float64_bits(precision):
    x = np.concatenate([all_half_patterns()] + [
        representable(MATRIX[case](precision), np.float16)
        for case in sorted(MATRIX)])
    assert_float64_bits(x, precision)


@pytest.mark.parametrize("precision", FORMATS, ids=lambda p: p.value)
def test_narrow_input_layouts(precision):
    """Fortran order, strides and 0-d inputs take the narrow path too."""
    x = np.random.default_rng(5).normal(scale=30.0, size=4096)
    for make in (lambda v: np.asfortranarray(v.reshape(64, -1)),
                 lambda v: v.reshape(64, -1)[::2, ::3],
                 lambda v: np.asarray(v[7])):
        for dtype in (np.float32, np.float16):
            assert_float64_bits(make(x.astype(dtype)), precision)
