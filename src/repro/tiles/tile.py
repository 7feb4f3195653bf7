"""A single matrix tile with an attached storage precision.

Tiles are the unit of both storage and computation in the paper's
runtime: each tile carries its own precision, and every task (POTRF,
TRSM, SYRK, GEMM, kernel-build) consumes/produces tiles.  A ``Tile``
always keeps its payload quantized to its declared precision, so
conversions are explicit (:meth:`TileMatrix.set_tile_precision
<repro.tiles.matrix.TileMatrix.set_tile_precision>`), mirroring the
datatype-conversion tasks PaRSEC inserts on the fly.

The on-grid invariant
---------------------
``tile.data`` holds values of ``tile.precision``'s grid in that
format's storage dtype — always.  ``Tile(...)`` and :meth:`Tile.update`
establish it by rounding; everything that
reads a tile may rely on it: a kernel handed a ``Tile`` at its own
compute precision reads :meth:`Tile.float64_values` without rounding
again.  Rounding is the expensive part of emulated low precision, so
the one way around it is :meth:`Tile._on_grid`, reserved for a caller
whose values are on that grid by construction: a kernel that has *just*
rounded to that same precision (a tile kernel's return value), or a
codec decoding that format's own bytes.  A kernel that computes at one
precision and stores at another — TRSM runs at the working precision,
its panel tile is stored at the mosaic's — is neither, and must
construct a ``Tile``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.precision.formats import Precision
from repro.precision.quantize import quantize, storage_bytes


@dataclass
class Tile:
    """One tile of a :class:`~repro.tiles.matrix.TileMatrix`.

    Parameters
    ----------
    data:
        Tile payload.  Stored quantized to ``precision`` (the array's
        values lie on that format's grid even when the dtype is a wider
        container, as for FP16/FP8) — the on-grid invariant of the
        module docstring.
    precision:
        Storage precision of the tile.
    coords:
        Optional ``(i, j)`` coordinates in the parent tile grid; kept
        for tracing and debugging.
    """

    data: np.ndarray
    precision: Precision = Precision.FP64
    coords: tuple[int, int] | None = None
    _version: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        self.data = quantize(np.asarray(self.data), self.precision)

    @classmethod
    def _on_grid(cls, values: np.ndarray, precision: Precision,
                 coords: tuple[int, int] | None = None) -> "Tile":
        """Adopt ``values`` that are on ``precision``'s grid already.

        Skips the constructor's rounding (a no-op on such values, but a
        full software pass for FP8/FP16) and only casts to the
        format's storage dtype.  See the module docstring for who may
        call this.
        """
        tile = cls.__new__(cls)
        tile.data = np.asarray(values, dtype=precision.numpy_dtype)
        tile.precision = precision
        tile.coords = coords
        tile._version = 0
        return tile

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def nbytes(self) -> int:
        """Storage footprint in the tile's declared precision."""
        return storage_bytes(self.data.shape, self.precision)

    @property
    def version(self) -> int:
        """Monotonic data version (bumped on every write)."""
        return self._version

    # ------------------------------------------------------------------
    # conversions and updates
    # ------------------------------------------------------------------
    def to_float64(self) -> np.ndarray:
        """Return the tile's values as a float64 array (copy)."""
        return np.asarray(self.data, dtype=np.float64).copy()

    def float64_values(self) -> np.ndarray:
        """Read-only float64 view of the tile's values (no copy when the
        payload is already a float64 array).

        Bitwise identical values to :meth:`to_float64`; use this on hot
        read paths (e.g. the CG matvec, which touches every tile once
        per iteration) where a 0.5 MB defensive copy per tile access is
        pure overhead.  Callers must not write through the result.
        """
        if self.data.dtype == np.float64:
            view = self.data.view()
            view.flags.writeable = False
            return view
        return np.asarray(self.data, dtype=np.float64)

    def update(self, data: np.ndarray) -> "Tile":
        """Replace the payload (quantized to the tile's precision)."""
        self.data = quantize(np.asarray(data), self.precision)
        self._version += 1
        return self

    # ------------------------------------------------------------------
    # numerics helpers
    # ------------------------------------------------------------------
    def norm(self, ord: str | int = "fro") -> float:
        """Norm of the tile's stored values."""
        # C order whatever the payload's layout: the summation order,
        # hence the last bit, must not depend on it (no copy when the
        # payload is C-contiguous float64 already)
        d = np.ascontiguousarray(self.float64_values())
        if d.ndim <= 1:
            return float(np.linalg.norm(d))
        return float(np.linalg.norm(d, ord=ord))

    def max_abs(self) -> float:
        d = self.float64_values()
        return float(np.max(np.abs(d))) if d.size else 0.0

    def copy(self) -> "Tile":
        return Tile._on_grid(self.data.copy(), self.precision, self.coords)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = f" at {self.coords}" if self.coords is not None else ""
        return f"Tile({self.shape}, {self.precision}{where})"


def retile(data: "np.ndarray | Tile", precision: Precision,
           coords: tuple[int, int] | None = None) -> Tile:
    """The tile holding ``data`` at ``precision``.

    Arrays are rounded; so is a :class:`Tile` of another precision.  A
    tile already at ``precision`` is on that grid by the tile invariant
    and is re-wrapped (payload shared) without rounding.
    """
    if isinstance(data, Tile):
        if data.precision is precision:
            return Tile._on_grid(data.data, precision, coords)
        data = data.data
    return Tile(data, precision=precision, coords=coords)
