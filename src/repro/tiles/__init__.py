"""Tiled matrix storage with a per-tile precision mosaic.

The paper stores the kernel matrix as a grid of tiles, each tile kept
in the narrowest precision that preserves the application's accuracy
target (the "tile-centric adaptive precision" of Higham & Mary).  This
package provides:

``TileLayout``
    Geometry of a tile grid.
``Tile`` and ``TileMatrix``
    Storage objects.  A ``TileMatrix`` can be constructed from a dense
    array, carries one precision per tile, and converts back to dense.
``decide_tile_precisions`` / ``AdaptivePrecisionRule``
    The norm-based adaptive precision decision (Fig. 4's heatmaps).
``band_precision_map``
    The hand-tuned band ("rainbow") precision assignment the paper uses
    as a baseline in Fig. 5.
"""

from repro.tiles.layout import TileLayout
from repro.tiles.tile import Tile
from repro.tiles.matrix import TileMatrix
from repro.tiles.adaptive import (
    AdaptivePrecisionRule,
    decide_tile_precisions,
    precision_heatmap,
)
from repro.tiles.band import band_precision_map
from repro.tiles.serialize import pack_tile_matrix, unpack_tile_matrix

__all__ = [
    "pack_tile_matrix",
    "unpack_tile_matrix",
    "TileLayout",
    "Tile",
    "TileMatrix",
    "AdaptivePrecisionRule",
    "decide_tile_precisions",
    "precision_heatmap",
    "band_precision_map",
]
