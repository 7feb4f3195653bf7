"""Tests for band ("rainbow") precision assignments."""

import pytest

from repro.precision.formats import Precision
from repro.tiles.band import band_precision_map
from repro.tiles.layout import TileLayout


def band_fraction_map(pmap: dict[tuple[int, int], Precision],
                      layout: TileLayout) -> dict[Precision, float]:
    """Fraction of off-diagonal tiles per precision in a band map."""
    counts: dict[Precision, int] = {}
    total = 0
    for (i, j), p in pmap.items():
        if i == j:
            continue
        counts[p] = counts.get(p, 0) + 1
        total += 1
    if total == 0:
        return {}
    return {p: c / total for p, c in counts.items()}


@pytest.fixture
def layout():
    return TileLayout.square(100, 10)  # 10x10 tile grid


class TestBandMap:
    def test_full_fp32(self, layout):
        pmap = band_precision_map(layout, 1.0)
        assert all(p is Precision.FP32 for p in pmap.values())

    def test_zero_fraction_keeps_only_diagonal_high(self, layout):
        pmap = band_precision_map(layout, 0.0)
        for (i, j), p in pmap.items():
            if i == j:
                assert p is Precision.FP32
            else:
                assert p is Precision.FP16

    def test_half_fraction_splits_bands(self, layout):
        pmap = band_precision_map(layout, 0.5)
        # band distance <= round(0.5 * 9) = 4 stays FP32
        assert pmap[(4, 0)] is Precision.FP32
        assert pmap[(5, 0)] is Precision.FP16

    def test_fraction_monotone(self, layout):
        fractions = [band_fraction_map(band_precision_map(layout, f), layout)
                     .get(Precision.FP32, 0.0) for f in (0.1, 0.4, 0.8)]
        assert fractions[0] <= fractions[1] <= fractions[2]

    def test_custom_precisions(self, layout):
        pmap = band_precision_map(layout, 0.2, high="fp64", low="fp8",
                                  diagonal="fp32")
        assert pmap[(0, 0)] is Precision.FP32
        assert pmap[(1, 0)] is Precision.FP64
        assert pmap[(9, 0)] is Precision.FP8_E4M3

    def test_covers_all_tiles(self, layout):
        pmap = band_precision_map(layout, 0.3)
        assert len(pmap) == len(list(layout.iter_tiles()))

    def test_symmetric_pattern(self, layout):
        pmap = band_precision_map(layout, 0.4)
        for i in range(10):
            for j in range(10):
                assert pmap[(i, j)] == pmap[(j, i)]

    def test_invalid_fraction(self, layout):
        with pytest.raises(ValueError):
            band_precision_map(layout, 1.5)

    def test_non_square_grid_raises(self):
        with pytest.raises(ValueError):
            band_precision_map(TileLayout(rows=20, cols=10, tile_size=5), 0.5)


class TestFractionMap:
    def test_excludes_diagonal(self, layout):
        pmap = band_precision_map(layout, 0.0)
        fractions = band_fraction_map(pmap, layout)
        assert fractions[Precision.FP16] == pytest.approx(1.0)

    def test_empty_map(self, layout):
        assert band_fraction_map({}, layout) == {}
