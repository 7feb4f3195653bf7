"""Rounding arrays to a target precision's value grid.

``quantize`` is the single entry point used by the tile layer: given an
array and a :class:`~repro.precision.formats.Precision` it returns the
array rounded to that format's representable values.  For formats with
a native NumPy dtype (FP64/FP32/INT8/INT32) this is a cast; for FP16
and FP8 it is a software round-to-nearest-even onto the format's grid,
stored back in float32.
"""

from __future__ import annotations

import numpy as np

from repro.precision.formats import Precision
from repro.precision.fp8 import quantize_grid


def quantize(x: np.ndarray, precision: Precision | str) -> np.ndarray:
    """Round ``x`` onto the value grid of ``precision``.

    The returned array's dtype is the format's storage dtype
    (``float32`` for the FP16/FP8 grids, ``int8`` for INT8, ...).
    Quantization is value-faithful: converting the result back to
    float64 yields exactly the values low-precision hardware would have
    stored.

    When the input is already on the target grid in the target dtype
    (float64 input for FP64, int8 input for INT8, ...), the input array
    itself may be returned without copying — callers that need an
    independent buffer must copy explicitly.

    For INT8 the input is rounded and clipped to [-128, 127].
    """
    precision = Precision.from_string(precision)
    if precision is Precision.FP64:
        return np.asarray(x, dtype=np.float64)
    if precision is Precision.FP32:
        return np.asarray(x, dtype=np.float32)
    if precision in (Precision.FP16, Precision.FP8_E4M3):
        return quantize_grid(x, precision)
    if precision is Precision.INT8:
        x = np.asarray(x)
        if x.dtype == np.int8:
            return x  # already on the INT8 grid: no float roundtrip
        if np.issubdtype(x.dtype, np.integer):
            return np.clip(x, -128, 127).astype(np.int8)
        x64 = np.asarray(x, dtype=np.float64)
        return np.clip(np.rint(x64), -128, 127).astype(np.int8)
    if precision is Precision.INT32:
        x = np.asarray(x)
        info = np.iinfo(np.int32)
        if x.dtype in (np.int32, np.int8, np.int16, np.uint8, np.uint16):
            return np.asarray(x, dtype=np.int32)  # exactly representable
        if np.issubdtype(x.dtype, np.integer):
            return np.clip(x, info.min, info.max).astype(np.int32)
        x64 = np.asarray(x, dtype=np.float64)
        return np.clip(np.rint(x64), info.min, info.max).astype(np.int32)
    raise ValueError(f"unsupported precision {precision}")


def storage_bytes(shape: tuple[int, ...], precision: Precision | str) -> int:
    """Bytes needed to store an array of ``shape`` in ``precision``.

    Used by the memory-footprint accounting (the paper highlights the
    footprint reduction from the FP16/FP8 tile mosaic).
    """
    precision = Precision.from_string(precision)
    n = 1
    for dim in shape:
        n *= int(dim)
    return n * precision.bytes_per_element
