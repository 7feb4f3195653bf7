"""Tests for the tile-centric adaptive precision rule."""

import numpy as np
import pytest

from repro.precision.formats import Precision
from repro.tiles.adaptive import (
    AdaptivePrecisionRule,
    PrecisionHeatmap,
    candidates_for_gpu,
    decide_tile_precisions,
    precision_heatmap,
)
from repro.tiles.matrix import TileMatrix


def _near_diagonal_matrix(n=64, tile=16, off_scale=1e-4, seed=0):
    """Diagonally dominant matrix: off-diagonal tiles have tiny norms."""
    rng = np.random.default_rng(seed)
    a = off_scale * rng.normal(size=(n, n))
    a = a + a.T
    np.fill_diagonal(a, 1.0 + rng.random(n))
    return a


class TestRule:
    def test_diagonal_kept_wide(self):
        rule = AdaptivePrecisionRule()
        assert rule.decide(1.0, 10.0, 4, is_diagonal=True) is Precision.FP32

    def test_zero_tile_gets_narrowest(self):
        rule = AdaptivePrecisionRule()
        narrowest = Precision.narrowest(*rule.candidates)
        assert rule.decide(0.0, 10.0, 4, is_diagonal=False) is narrowest

    def test_large_tile_never_dropped_below_working(self):
        rule = AdaptivePrecisionRule(accuracy=1e-8)
        chosen = rule.decide(10.0, 10.0, 4, is_diagonal=False)
        # a dominant tile under a tight threshold must stay at or above FP32
        assert chosen.rank >= Precision.FP32.rank

    def test_small_tile_can_drop(self):
        rule = AdaptivePrecisionRule(accuracy=1e-3)
        assert rule.decide(1e-6, 10.0, 4, is_diagonal=False) is Precision.FP16

    def test_tighter_accuracy_chooses_wider(self):
        loose = AdaptivePrecisionRule(accuracy=1e-2)
        tight = AdaptivePrecisionRule(accuracy=1e-9)
        norm, total = 0.01, 10.0
        assert loose.decide(norm, total, 4, False).rank <= \
            tight.decide(norm, total, 4, False).rank


class TestCandidates:
    def test_fp8_capable_gpus(self):
        assert candidates_for_gpu("GH200")[0] is Precision.FP8_E4M3
        assert candidates_for_gpu("h100")[0] is Precision.FP8_E4M3

    def test_fp16_floor_gpus(self):
        assert candidates_for_gpu("A100")[0] is Precision.FP16
        assert candidates_for_gpu("V100")[0] is Precision.FP16
        assert candidates_for_gpu("MI250X")[0] is Precision.FP16


class TestDecisions:
    def test_near_diagonal_matrix_gets_low_offdiag(self):
        a = _near_diagonal_matrix()
        decisions = decide_tile_precisions(a, AdaptivePrecisionRule(), tile_size=16)
        for (i, j), p in decisions.items():
            if i == j:
                assert p is Precision.FP32
            else:
                assert p is Precision.FP16

    def test_fp8_floor_used_when_available(self):
        a = _near_diagonal_matrix(off_scale=1e-5)
        rule = AdaptivePrecisionRule(candidates=candidates_for_gpu("GH200"))
        decisions = decide_tile_precisions(a, rule, tile_size=16)
        offdiag = [p for (i, j), p in decisions.items() if i != j]
        assert all(p is Precision.FP8_E4M3 for p in offdiag)

    def test_uniform_matrix_never_dropped_when_accuracy_tight(self, rng):
        a = rng.normal(size=(48, 48))
        a = a @ a.T + 48 * np.eye(48)
        rule = AdaptivePrecisionRule(accuracy=1e-9)
        decisions = decide_tile_precisions(a, rule, tile_size=16)
        # nothing may fall below the FP32 working precision at this threshold
        assert all(p.rank >= Precision.FP32.rank for p in decisions.values())

    def test_accepts_tile_matrix(self, rng):
        a = rng.normal(size=(32, 32))
        tm = TileMatrix.from_dense(a + a.T, tile_size=8)
        decisions = decide_tile_precisions(tm)
        assert len(decisions) == 16

    def test_dense_without_tile_size_raises(self):
        with pytest.raises(ValueError):
            decide_tile_precisions(np.eye(8))


class TestHeatmap:
    def test_fractions_sum_to_one(self):
        a = _near_diagonal_matrix()
        hm = precision_heatmap(a, tile_size=16)
        assert sum(hm.fractions.values()) == pytest.approx(1.0)
        assert sum(hm.counts.values()) == 16

    def test_heatmap_matches_paper_structure(self):
        a = _near_diagonal_matrix()
        hm = precision_heatmap(a, tile_size=16)
        # 4 diagonal FP32 tiles out of 16
        assert hm.fraction(Precision.FP32) == pytest.approx(0.25)
        assert hm.fraction(Precision.FP16) == pytest.approx(0.75)

    def test_render_is_grid_of_symbols(self):
        a = _near_diagonal_matrix()
        hm = precision_heatmap(a, tile_size=16)
        lines = hm.render().splitlines()
        assert len(lines) == 4
        assert all(len(line) == 4 for line in lines)
        assert lines[0][0] == "S"   # FP32 diagonal
        assert lines[0][1] == "h"   # FP16 off-diagonal

    def test_from_decisions(self):
        decisions = {(0, 0): Precision.FP32, (0, 1): Precision.FP16,
                     (1, 0): Precision.FP16, (1, 1): Precision.FP32}
        hm = PrecisionHeatmap.from_decisions(decisions, (2, 2))
        assert hm.counts[Precision.FP16] == 2
        assert hm.grid[1, 1] is Precision.FP32


def _structured_cohort(seed=2024):
    """Ten tile rows of 16 genotypes, each row drawn at its own allele
    frequency (0.05 to 0.95): the kernel's tiles between distant rows are
    small, so the adaptive map mixes formats."""
    freq = np.repeat(np.linspace(0.05, 0.95, 10), 16)[:, None]
    rng = np.random.default_rng(seed)
    return rng.binomial(2, freq * np.ones(200)).astype(np.int8)


#: The maps of `_structured_cohort`'s Gaussian kernel (γ = 0.005, tile
#: 16), rendered one character per tile, as the Build decided them
#: before tile reads and precision conversions stopped rounding
#: float64 copies.
SEEDED_MOSAICS = {
    "GH200": (1e-2, "Shhhhhhhqq/hShhhhhhhq/hhShhhhhhh/hhhShhhhhh/hhhhShhhhh/"
                    "hhhhhShhhh/hhhhhhShhh/hhhhhhhShh/qhhhhhhhSh/qqhhhhhhhS"),
    "A100": (1e-4, "SSSSSSSShh/SSSSSSSSSh/SSSSSSSSSS/SSSSSSSSSS/SSSSSSSSSS/"
                   "SSSSSSSSSS/SSSSSSSSSS/SSSSSSSSSS/hSSSSSSSSS/hhSSSSSSSS"),
}


@pytest.mark.parametrize("gpu", sorted(SEEDED_MOSAICS))
def test_seeded_kernel_keeps_its_map(gpu):
    """The Build's map, decided on the FP64 staging tiles, and the map
    decided again on the stored FP8/FP16 mosaic, whose upper-triangle
    reads are mirrored low-precision tiles."""
    from repro.distance.build import KernelBuilder

    accuracy, want = SEEDED_MOSAICS[gpu]
    rule = AdaptivePrecisionRule(accuracy=accuracy,
                                 candidates=candidates_for_gpu(gpu))
    built = KernelBuilder(gamma=0.005, tile_size=16,
                          adaptive_rule=rule).build_training(_structured_cohort())

    def render(decisions):
        hm = PrecisionHeatmap.from_decisions(decisions, (10, 10))
        return hm.render().replace("\n", "/")

    assert render(built.precision_map) == want
    assert render(decide_tile_precisions(built.kernel, rule)) == want
