"""Tests for tile-grid geometry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tiles.layout import TileLayout


class TestTileLayout:
    def test_even_division(self):
        layout = TileLayout(rows=100, cols=60, tile_size=20)
        assert layout.grid_shape == (5, 3)
        assert len(list(layout.iter_tiles())) == 15
        assert layout.tile_shape(0, 0) == (20, 20)
        assert layout.tile_shape(4, 2) == (20, 20)

    def test_ragged_edges(self):
        layout = TileLayout(rows=105, cols=50, tile_size=20)
        assert layout.grid_shape == (6, 3)
        assert layout.tile_shape(5, 0) == (5, 20)
        assert layout.tile_shape(0, 2) == (20, 10)
        assert layout.tile_shape(5, 2) == (5, 10)

    def test_tile_slice(self):
        layout = TileLayout(rows=10, cols=10, tile_size=4)
        rs, cs = layout.tile_slice(2, 1)
        assert (rs.start, rs.stop) == (8, 10)
        assert (cs.start, cs.stop) == (4, 8)

    def test_iter_tiles_count_and_order(self):
        layout = TileLayout(rows=9, cols=6, tile_size=3)
        tiles = list(layout.iter_tiles())
        assert len(tiles) == 6
        assert tiles[0] == (0, 0)
        assert tiles[-1] == (2, 1)

    def test_iter_lower_tiles(self):
        layout = TileLayout.square(12, 4)
        lower = list(layout.iter_lower_tiles())
        assert len(lower) == 6  # 3*4/2
        assert all(i >= j for i, j in lower)
        strict = list(layout.iter_lower_tiles(include_diagonal=False))
        assert len(strict) == 3
        assert all(i > j for i, j in strict)

    def test_square_constructor(self):
        layout = TileLayout.square(16, 4)
        assert layout.rows == layout.cols == 16
        assert layout.is_square_grid

    def test_out_of_range_tile_raises(self):
        layout = TileLayout(rows=8, cols=8, tile_size=4)
        with pytest.raises(IndexError):
            layout.tile_shape(2, 0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TileLayout(rows=-1, cols=4, tile_size=2)
        with pytest.raises(ValueError):
            TileLayout(rows=4, cols=4, tile_size=0)

    def test_empty_matrix(self):
        layout = TileLayout(rows=0, cols=0, tile_size=4)
        assert layout.grid_shape == (0, 0)
        assert list(layout.iter_tiles()) == []

    @given(st.integers(1, 200), st.integers(1, 200), st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_tile_shapes_cover_matrix(self, rows, cols, tile_size):
        layout = TileLayout(rows=rows, cols=cols, tile_size=tile_size)
        total = sum(layout.tile_shape(i, j)[0] * layout.tile_shape(i, j)[1]
                    for i, j in layout.iter_tiles())
        assert total == rows * cols
