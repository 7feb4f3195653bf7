"""Bit-identity of the software quantizers.

The FP8 quantizer in ``repro.precision.fp8`` rounds on the float64 bit
pattern; the routine it replaced (``log2``/``floor``/``exp2`` over a
masked gather, then ``rint``) is kept here, verbatim, as the oracle.
FP16 rounds through the same routine with its own format parameters and
is held to the same oracle.  Results are compared as *integer views*, so
``-0.0`` vs ``+0.0`` and the NaN bit pattern count — ``==`` would wave
both through.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.precision.formats import Precision
from repro.precision.quantize import quantize
from tests.precision.grids import fp8_grid

# (mantissa_bits, min_normal_exponent, max_finite)
_PARAMS = {
    Precision.FP8_E4M3: (3, -6, 448.0),
    Precision.FP16: (10, -14, 65504.0),
}
FP8_VARIANTS = (Precision.FP8_E4M3,)
#: The formats ``quantize`` rounds with the FP8 routine.
GRID_FORMATS = FP8_VARIANTS + (Precision.FP16,)


def reference_round_to_grid(x, mantissa_bits, min_normal_exp, max_finite):
    """The pre-bit-trick ``fp8._round_to_grid``, kept as the oracle."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    finite = np.isfinite(x)
    nonzero = finite & (x != 0.0)

    if np.any(nonzero):
        vals = x[nonzero]
        # exponent of each value: floor(log2(|v|))
        exp = np.floor(np.log2(np.abs(vals))).astype(np.int64)
        # clamp to the subnormal range: below min_normal_exp the grid
        # spacing stays 2**(min_normal_exp - mantissa_bits)
        exp = np.maximum(exp, min_normal_exp)
        scale = np.exp2(mantissa_bits - exp.astype(np.float64))
        rounded = np.rint(vals * scale) / scale
        # saturate to max finite (no infinities in E4M3)
        rounded = np.clip(rounded, -max_finite, max_finite)
        out[nonzero] = rounded

    # propagate NaN, saturate +-inf
    nan_mask = np.isnan(x)
    out[nan_mask] = np.nan
    posinf = np.isposinf(x)
    neginf = np.isneginf(x)
    out[posinf] = max_finite
    out[neginf] = -max_finite
    return out


def reference(x, precision):
    with warnings.catch_warnings():
        # the oracle multiplies 1e300-scale values by 2**k: overflow to
        # inf, then clipped — harmless there, noise here
        warnings.simplefilter("ignore", RuntimeWarning)
        return reference_round_to_grid(x, *_PARAMS[precision])


def bits(a):
    a = np.ascontiguousarray(a)
    return a.view({2: np.uint16, 4: np.uint32, 8: np.uint64}[a.dtype.itemsize])


# ----------------------------------------------------------------------
# the input matrix
# ----------------------------------------------------------------------
def all_half_patterns():
    return np.arange(1 << 16, dtype=np.uint16).view(np.float16)


def midpoints_and_neighbours(precision):
    if precision in FP8_VARIANTS:
        grid = fp8_grid()
    else:  # a stretch of the FP16 grid around 1 and in the subnormals
        m, emin, _ = _PARAMS[precision]
        steps = np.arange(0, 4 << m, dtype=np.float64)
        grid = np.concatenate([steps * 2.0 ** (emin - m),
                               (1.0 + steps / (1 << m))])
    mid = (grid[:-1] + grid[1:]) / 2.0
    pts = np.concatenate([mid, np.nextafter(mid, -np.inf),
                          np.nextafter(mid, np.inf)])
    return np.concatenate([pts, -pts])


def powers_of_two():
    p = 2.0 ** np.arange(-30, 20)
    pts = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])
    return np.concatenate([pts, -pts])


SPECIALS = np.array([
    0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
    1e300, -1e300,
    # saturation boundary, E4M3 (448 max; 464 is the midpoint to 480)
    448.0, 464.0, 465.0, 480.0, -448.0, -464.0, -465.0, -480.0,
    # large finite values between FP8's and FP16's maxima
    57344.0, 61440.0, 61441.0, -57344.0, -61440.0, -61441.0,
    # FP16 boundary (65504 max; 65520 the midpoint to 65536)
    65504.0, 65519.0, 65520.0, 65521.0, 1e6, -65520.0,
])


def random_bit_patterns(n=1 << 20, seed=20240928):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << 64, size=n, dtype=np.uint64).view(np.float64)


MATRIX = {
    "half-patterns": lambda p: all_half_patterns().astype(np.float64),
    "midpoints": midpoints_and_neighbours,
    "powers-of-two": lambda p: powers_of_two(),
    "specials": lambda p: SPECIALS,
    "random-64-bit": lambda p: random_bit_patterns(),
}


# ----------------------------------------------------------------------
# FP8 and FP16: bit-identical to the retained reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("variant", GRID_FORMATS, ids=lambda p: p.value)
@pytest.mark.parametrize("case", sorted(MATRIX))
def test_fp8_bit_identical_to_reference(variant, case):
    x = MATRIX[case](variant)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the quantizer itself stays silent
        got = quantize(x, variant)
    want = reference(x, variant).astype(np.float32)
    assert got.dtype == np.float32 and got.shape == x.shape
    np.testing.assert_array_equal(bits(got), bits(want))


@pytest.mark.parametrize("variant", GRID_FORMATS, ids=lambda p: p.value)
def test_fp8_zero_and_nan_bit_patterns(variant):
    x = np.array([0.0, -0.0, -1e-30, 1e-30, np.nan, -np.nan])
    got = bits(quantize(x, variant))
    # exact zeros come back +0.0; a negative that rounds to zero keeps
    # its sign; every NaN is the canonical quiet NaN
    assert list(got) == [0, 0, 0x80000000, 0, 0x7FC00000, 0x7FC00000]


@pytest.mark.parametrize("variant", GRID_FORMATS, ids=lambda p: p.value)
@pytest.mark.parametrize("make", [
    lambda x: x.astype(np.float32),
    lambda x: x.astype(np.float16),
    lambda x: np.asfortranarray(x.reshape(64, -1)),
    lambda x: x.reshape(64, -1)[::2, ::3],
    lambda x: x[:0],
    lambda x: x[7],                     # numpy scalar
    lambda x: np.asarray(x[7]),         # 0-d array
    lambda x: float(x[7]),              # python float
], ids=["f32", "f16", "fortran", "strided", "empty", "scalar", "0-d", "float"])
def test_fp8_input_layouts(variant, make):
    x = make(np.random.default_rng(5).normal(scale=30.0, size=4096))
    got = quantize(x, variant)
    want = reference(x, variant).astype(np.float32)
    assert got.dtype == np.float32 and got.shape == want.shape
    np.testing.assert_array_equal(bits(got), bits(want))


# ----------------------------------------------------------------------
# FP8 and FP16: properties
# ----------------------------------------------------------------------
finite64 = st.floats(allow_nan=False, allow_infinity=False, width=64)


@pytest.mark.parametrize("variant", FP8_VARIANTS, ids=lambda p: p.value)
@given(values=st.lists(finite64, min_size=1, max_size=64))
@settings(max_examples=100, deadline=None)
def test_fp8_result_is_on_the_grid(variant, values):
    q = quantize(np.array(values), variant).astype(np.float64)
    assert np.isin(np.abs(q), fp8_grid()).all()


@pytest.mark.parametrize("variant", GRID_FORMATS, ids=lambda p: p.value)
@given(values=st.lists(finite64, min_size=1, max_size=64))
@settings(max_examples=100, deadline=None)
def test_fp8_idempotent(variant, values):
    once = quantize(np.array(values), variant)
    twice = quantize(once, variant)
    # value-idempotent; bit-idempotent too except that a -0.0 *result*
    # (a negative rounded to zero) re-quantizes to +0.0, as the
    # reference's exact-zero rule has it
    np.testing.assert_array_equal(twice, once)
    nonzero = once != 0.0
    np.testing.assert_array_equal(bits(twice)[nonzero], bits(once)[nonzero])


@pytest.mark.parametrize("variant", GRID_FORMATS, ids=lambda p: p.value)
@given(values=st.lists(finite64, min_size=2, max_size=64))
@settings(max_examples=100, deadline=None)
def test_fp8_monotone(variant, values):
    x = np.sort(np.array(values))
    assert np.all(np.diff(quantize(x, variant)) >= 0)


@pytest.mark.parametrize("variant", FP8_VARIANTS, ids=lambda p: p.value)
@given(value=finite64)
@settings(max_examples=200, deadline=None)
def test_fp8_rounds_to_a_nearest_grid_point(variant, value):
    grid = fp8_grid()
    q = float(quantize(np.array([value]), variant)[0])
    clipped = min(abs(value), grid[-1])
    assert abs(abs(q) - clipped) == np.min(np.abs(grid - clipped))


# ----------------------------------------------------------------------
# FP16: specified semantics
# ----------------------------------------------------------------------
def test_fp16_saturates_and_ties_to_even():
    got = quantize(np.array([1e6, np.inf, -np.inf, 65519.0, 65520.0]), "fp16")
    np.testing.assert_array_equal(
        got.astype(np.float64), [65504.0, 65504.0, -65504.0, 65504.0, 65504.0])
    # 1 + 2**-11 is the midpoint of 1 and 1 + 2**-10: ties to even (1.0);
    # 1 + 3 * 2**-11 ties to 1 + 2**-9
    got = quantize(np.array([1 + 2.0 ** -11, 1 + 3 * 2.0 ** -11]), "fp16")
    np.testing.assert_array_equal(got.astype(np.float64),
                                  [1.0, 1 + 2.0 ** -9])
