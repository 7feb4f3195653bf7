"""Precision format descriptors.

Each format is described by the metadata needed both for numerical
emulation (mantissa/exponent widths, largest finite value, unit
roundoff) and for the performance model (bytes per element, the
tensor-core throughput class it maps to).

The formats follow the hardware the paper targets:

* ``FP64``, ``FP32`` — IEEE binary64/binary32.
* ``FP16`` — IEEE binary16, emulated like FP8 (see ``numpy_dtype``).
* ``FP8_E4M3`` — the OCP/IEEE-style 8-bit float used by Hopper tensor
  cores (4 exponent bits, 3 mantissa bits, max finite 448).  This is
  the only FP8 formulation usable by ``cublasLtMatmul`` for both
  operands, as discussed in Sec. VI-B3 of the paper.
* ``INT8`` / ``INT32`` — integer formats used for the SNP-matrix
  distance computations (inputs in INT8, accumulation in INT32).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

#: Largest finite value representable in FP8 E4M3 (S.1111.110 = 448).
FP8_E4M3_MAX = 448.0


@dataclass(frozen=True)
class FormatSpec:
    """Numerical metadata for one storage/compute format.

    Attributes
    ----------
    name:
        Human-readable name (matches the :class:`Precision` member).
    bytes_per_element:
        Storage size, used by the memory-footprint and data-motion
        accounting.
    is_integer:
        True for INT8/INT32.
    mantissa_bits:
        Explicit mantissa (fraction) bits; ``None`` for integers.
    exponent_bits:
        Exponent field width; ``None`` for integers.
    max_finite:
        Largest finite representable magnitude.
    unit_roundoff:
        ``u = 2**-(mantissa_bits + 1)`` for floating point formats;
        for integer formats this is 0 (integer arithmetic is exact
        within range).
    numpy_dtype:
        The dtype values of this format are *stored* in: ``float32`` on
        the format's value grid for the emulated formats (FP16, FP8),
        which only the codecs write in ``bytes_per_element``.
    """

    name: str
    bytes_per_element: int
    is_integer: bool
    mantissa_bits: int | None
    exponent_bits: int | None
    max_finite: float
    unit_roundoff: float
    numpy_dtype: np.dtype

    @property
    def is_float(self) -> bool:
        return not self.is_integer


class Precision(enum.Enum):
    """Enumeration of supported precisions, ordered from widest to narrowest."""

    FP64 = "fp64"
    FP32 = "fp32"
    FP16 = "fp16"
    FP8_E4M3 = "fp8_e4m3"
    INT8 = "int8"
    INT32 = "int32"

    # ------------------------------------------------------------------
    # metadata access
    # ------------------------------------------------------------------
    @property
    def spec(self) -> FormatSpec:
        return _SPECS[self]

    @property
    def bytes_per_element(self) -> int:
        return self.spec.bytes_per_element

    @property
    def is_integer(self) -> bool:
        return self.spec.is_integer

    @property
    def is_float(self) -> bool:
        return self.spec.is_float

    @property
    def max_finite(self) -> float:
        return self.spec.max_finite

    @property
    def numpy_dtype(self) -> np.dtype:
        return self.spec.numpy_dtype

    # ------------------------------------------------------------------
    # ordering helpers
    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        """Width rank: larger means numerically wider (more accurate)."""
        return _RANK[self]

    def narrower_than(self, other: "Precision") -> bool:
        return self.rank < other.rank

    @staticmethod
    def narrowest(*precisions: "Precision") -> "Precision":
        """Return the narrowest of the given precisions."""
        if not precisions:
            raise ValueError("narrowest() requires at least one precision")
        return min(precisions, key=lambda p: p.rank)

    @classmethod
    def from_string(cls, value: "str | Precision") -> "Precision":
        """Parse a precision from common aliases (``"fp16"``, ``"half"``, ...)."""
        if isinstance(value, cls):
            return value
        try:
            return _ALIASES[str(value).strip().lower()]
        except KeyError:
            raise ValueError(f"unknown precision {value!r}") from None

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Accepted spellings of each precision (see :meth:`Precision.from_string`).
_ALIASES: dict[str, Precision] = {
    "double": Precision.FP64,
    "float64": Precision.FP64,
    "fp64": Precision.FP64,
    "single": Precision.FP32,
    "float32": Precision.FP32,
    "fp32": Precision.FP32,
    "half": Precision.FP16,
    "float16": Precision.FP16,
    "fp16": Precision.FP16,
    "fp8": Precision.FP8_E4M3,
    "fp8_e4m3": Precision.FP8_E4M3,
    "e4m3": Precision.FP8_E4M3,
    "int8": Precision.INT8,
    "int32": Precision.INT32,
}

_SPECS: dict[Precision, FormatSpec] = {
    Precision.FP64: FormatSpec(
        name="fp64",
        bytes_per_element=8,
        is_integer=False,
        mantissa_bits=52,
        exponent_bits=11,
        max_finite=float(np.finfo(np.float64).max),
        unit_roundoff=2.0 ** -53,
        numpy_dtype=np.dtype(np.float64),
    ),
    Precision.FP32: FormatSpec(
        name="fp32",
        bytes_per_element=4,
        is_integer=False,
        mantissa_bits=23,
        exponent_bits=8,
        max_finite=float(np.finfo(np.float32).max),
        unit_roundoff=2.0 ** -24,
        numpy_dtype=np.dtype(np.float32),
    ),
    Precision.FP16: FormatSpec(
        name="fp16",
        bytes_per_element=2,
        is_integer=False,
        mantissa_bits=10,
        exponent_bits=5,
        max_finite=65504.0,
        unit_roundoff=2.0 ** -11,
        numpy_dtype=np.dtype(np.float32),
    ),
    Precision.FP8_E4M3: FormatSpec(
        name="fp8_e4m3",
        bytes_per_element=1,
        is_integer=False,
        mantissa_bits=3,
        exponent_bits=4,
        max_finite=FP8_E4M3_MAX,
        unit_roundoff=2.0 ** -4,
        numpy_dtype=np.dtype(np.float32),
    ),
    Precision.INT8: FormatSpec(
        name="int8",
        bytes_per_element=1,
        is_integer=True,
        mantissa_bits=None,
        exponent_bits=None,
        max_finite=127.0,
        unit_roundoff=0.0,
        numpy_dtype=np.dtype(np.int8),
    ),
    Precision.INT32: FormatSpec(
        name="int32",
        bytes_per_element=4,
        is_integer=True,
        mantissa_bits=None,
        exponent_bits=None,
        max_finite=float(np.iinfo(np.int32).max),
        unit_roundoff=0.0,
        numpy_dtype=np.dtype(np.int32),
    ),
}

# Width ranking used by the adaptive precision logic.  Integers rank at
# the bottom: they are never chosen as a floating tile storage format.
_RANK: dict[Precision, int] = {
    Precision.FP64: 70,
    Precision.FP32: 60,
    Precision.FP16: 40,
    Precision.FP8_E4M3: 20,
    Precision.INT32: 10,
    Precision.INT8: 0,
}


def unit_roundoff(precision: "Precision | str") -> float:
    """Return the unit roundoff ``u`` of a floating-point format.

    The unit roundoff drives the Higham–Mary adaptive precision rule
    (see :mod:`repro.tiles.adaptive`): a tile may be stored in a format
    with unit roundoff ``u_k`` when ``u_k * ||A_tile|| <= eps * ||A||``.
    Integer formats return 0.
    """
    return Precision.from_string(precision).spec.unit_roundoff
