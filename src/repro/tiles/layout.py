"""Tile-grid geometry.

A :class:`TileLayout` describes how an ``m × n`` matrix is cut into
``tile_size × tile_size`` tiles (edge tiles may be smaller).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class TileLayout:
    """Geometry of a tiled ``rows × cols`` matrix.

    Parameters
    ----------
    rows, cols:
        Global matrix dimensions.
    tile_size:
        Target (square) tile edge.  The last tile row/column may be
        smaller when the dimensions are not multiples of ``tile_size``.
    """

    rows: int
    cols: int
    tile_size: int

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if self.tile_size <= 0:
            raise ValueError("tile_size must be positive")

    # ------------------------------------------------------------------
    # grid shape
    # ------------------------------------------------------------------
    @property
    def tile_rows(self) -> int:
        """Number of tile rows."""
        return -(-self.rows // self.tile_size) if self.rows else 0

    @property
    def tile_cols(self) -> int:
        """Number of tile columns."""
        return -(-self.cols // self.tile_size) if self.cols else 0

    @property
    def grid_shape(self) -> tuple[int, int]:
        return (self.tile_rows, self.tile_cols)

    @property
    def is_square_grid(self) -> bool:
        return self.tile_rows == self.tile_cols

    # ------------------------------------------------------------------
    # per-tile geometry
    # ------------------------------------------------------------------
    def tile_shape(self, i: int, j: int) -> tuple[int, int]:
        """Shape of tile ``(i, j)`` (edge tiles may be smaller)."""
        self._check(i, j)
        r = min(self.tile_size, self.rows - i * self.tile_size)
        c = min(self.tile_size, self.cols - j * self.tile_size)
        return (r, c)

    def tile_slice(self, i: int, j: int) -> tuple[slice, slice]:
        """Row/column slices of tile ``(i, j)`` in the dense matrix."""
        self._check(i, j)
        r0 = i * self.tile_size
        c0 = j * self.tile_size
        r1 = min(r0 + self.tile_size, self.rows)
        c1 = min(c0 + self.tile_size, self.cols)
        return (slice(r0, r1), slice(c0, c1))

    def iter_tiles(self) -> Iterator[tuple[int, int]]:
        """Iterate all tile coordinates in row-major order."""
        for i in range(self.tile_rows):
            for j in range(self.tile_cols):
                yield (i, j)

    def iter_lower_tiles(self, include_diagonal: bool = True) -> Iterator[tuple[int, int]]:
        """Iterate tiles of the lower triangle (for symmetric matrices)."""
        for i in range(self.tile_rows):
            upper = i + 1 if include_diagonal else i
            for j in range(min(upper, self.tile_cols)):
                yield (i, j)

    def _check(self, i: int, j: int) -> None:
        if not (0 <= i < self.tile_rows and 0 <= j < self.tile_cols):
            raise IndexError(
                f"tile ({i}, {j}) outside grid {self.tile_rows}x{self.tile_cols}"
            )

    # ------------------------------------------------------------------
    # convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def square(cls, n: int, tile_size: int) -> "TileLayout":
        return cls(rows=n, cols=n, tile_size=tile_size)
