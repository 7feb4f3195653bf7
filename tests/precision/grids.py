"""The FP8 E4M3 value grid, enumerated: the oracle of the quantizer and
codec tests."""

import numpy as np


def fp8_grid() -> np.ndarray:
    """Return all non-negative representable FP8 E4M3 values, ascending."""
    mantissa_bits, max_finite, min_normal_exp = 3, 448.0, -6
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
