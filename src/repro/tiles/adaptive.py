"""Tile-centric adaptive precision (Higham–Mary rule).

At the start of the Associate phase the paper lowers the precision of
each off-diagonal tile of the kernel matrix to the narrowest format
whose storage perturbation stays within the application accuracy
threshold.  Diagonal tiles are kept at the working precision because
the Cholesky panel factorization (POTRF) and the regularized diagonal
dominate the conditioning.

Rule (Higham & Mary 2022, ref. [19]; also used by the ExaGeoStat
Gordon-Bell finalist [20]): store tile ``A_ij`` in the narrowest
precision ``p`` such that

    u_p * ||A_ij||_F  <=  eps * ||A||_F / nt

where ``u_p`` is the unit roundoff of ``p``, ``eps`` the requested
output accuracy (FP32-level by default, matching the paper's
"application-worthy FP32 accuracy"), and ``nt`` the number of tiles in
a row — the division spreads the global budget across tiles.

The resulting map is exactly what Fig. 4 of the paper visualizes:
FP32 on the diagonal, FP16 (A100) or FP8 (GH200) everywhere else for
the UK BioBank / msprime kernel matrices.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.precision.formats import Precision, unit_roundoff
from repro.tiles.matrix import TileMatrix


@dataclass(frozen=True)
class AdaptivePrecisionRule:
    """Configuration of the adaptive tile-precision decision.

    Parameters
    ----------
    accuracy:
        Target relative accuracy ``eps`` of the stored matrix.  The
        paper targets "application-worthy FP32 accuracy" of the GWAS
        *output* (predictions), which tolerates a much looser storage
        accuracy on the kernel operator itself; the default ``1e-3``
        reproduces the paper's mosaics (FP32 diagonal, FP16 off-diagonal
        on FP16-floor hardware) for the kernel matrices of interest
        while leaving the prediction MSPE unchanged (Fig. 5).
    candidates:
        Allowed storage formats, from narrowest to widest.  The
        hardware floor differs per GPU generation: FP16 on V100/A100,
        FP8 on GH200 — pass the appropriate candidate list (see
        :func:`candidates_for_gpu`).
    working_precision:
        Precision forced on diagonal tiles (and used as the widest
        fallback).
    keep_diagonal_wide:
        Keep diagonal tiles at ``working_precision`` regardless of the
        norm test (the paper always does).
    """

    accuracy: float = 1e-3
    candidates: tuple[Precision, ...] = (
        Precision.FP16,
        Precision.FP32,
        Precision.FP64,
    )
    working_precision: Precision = Precision.FP32
    keep_diagonal_wide: bool = True

    def decide(self, tile_norm: float, matrix_norm: float, num_tile_cols: int,
               is_diagonal: bool) -> Precision:
        """Precision for a single tile given its norm and the global norm."""
        if is_diagonal and self.keep_diagonal_wide:
            return self.working_precision
        if matrix_norm <= 0.0 or tile_norm <= 0.0:
            # zero tiles can be stored in the narrowest candidate exactly
            return Precision.narrowest(*self.candidates)
        budget = self.accuracy * matrix_norm / max(num_tile_cols, 1)
        for p in sorted(self.candidates, key=lambda q: q.rank):
            u = unit_roundoff(p)
            if u * tile_norm <= budget:
                return p
        return self.working_precision


def candidates_for_gpu(gpu: str) -> tuple[Precision, ...]:
    """Candidate storage precisions supported by a GPU generation.

    ``"V100"``/``"A100"``/``"MI250X"`` → FP16 floor;
    ``"GH200"``/``"H100"`` → FP8 floor (the paper's Fig. 4b).
    """
    gpu = gpu.upper()
    fp8_capable = {"GH200", "H100", "H200", "GB200", "B200"}
    if gpu in fp8_capable:
        return (Precision.FP8_E4M3, Precision.FP16, Precision.FP32, Precision.FP64)
    return (Precision.FP16, Precision.FP32, Precision.FP64)


def _decide_from_norms(
    matrix: TileMatrix,
    tile_norms: Mapping[tuple[int, int], float],
    rule: AdaptivePrecisionRule,
) -> dict[tuple[int, int], Precision]:
    """The adaptive map, every tile row-major, of ``matrix`` given its
    stored tiles' Frobenius norms (a missing tile is zero); under
    symmetric storage an upper tile takes its mirror's decision."""
    matrix_norm = matrix._frobenius(tile_norms)
    nt = matrix.layout.tile_cols
    decided = {(i, j): rule.decide(tile_norms.get((i, j), 0.0), matrix_norm,
                                   nt, is_diagonal=(i == j))
               for i, j in matrix._iter_stored()}
    return {(i, j): decided[(j, i) if matrix.symmetric and j > i else (i, j)]
            for i, j in matrix.layout.iter_tiles()}


def decide_tile_precisions(
    matrix: TileMatrix | np.ndarray,
    rule: AdaptivePrecisionRule | None = None,
    tile_size: int | None = None,
) -> dict[tuple[int, int], Precision]:
    """Compute the adaptive precision map for a (tiled or dense) matrix.

    Returns a mapping ``{(i, j): Precision}`` covering every tile of the
    grid (both triangles for symmetric storage, so the map can be used
    directly to build heatmaps; upper tiles mirror the lower ones).
    """
    rule = rule or AdaptivePrecisionRule()
    if isinstance(matrix, np.ndarray):
        if tile_size is None:
            raise ValueError("tile_size is required when passing a dense array")
        matrix = TileMatrix.from_dense(matrix, tile_size, Precision.FP64)
    return _decide_from_norms(matrix, matrix._tile_norms(), rule)


@dataclass
class PrecisionHeatmap:
    """Summary of a per-tile precision decision (paper Fig. 4).

    Attributes
    ----------
    grid:
        Object array of :class:`Precision` per tile.
    counts:
        Number of tiles per precision.
    fractions:
        Fraction of tiles per precision.
    """

    grid: np.ndarray
    counts: dict[Precision, int] = field(default_factory=dict)
    fractions: dict[Precision, float] = field(default_factory=dict)

    @classmethod
    def from_decisions(cls, decisions: dict[tuple[int, int], Precision],
                       grid_shape: tuple[int, int]) -> "PrecisionHeatmap":
        grid = np.empty(grid_shape, dtype=object)
        counts: dict[Precision, int] = {}
        for (i, j), p in decisions.items():
            grid[i, j] = p
            counts[p] = counts.get(p, 0) + 1
        total = max(sum(counts.values()), 1)
        fractions = {p: c / total for p, c in counts.items()}
        return cls(grid=grid, counts=counts, fractions=fractions)

    def fraction(self, precision: Precision) -> float:
        return self.fractions.get(precision, 0.0)

    def render(self) -> str:
        """ASCII rendering of the mosaic (one char per tile)."""
        symbol = {
            Precision.FP64: "D",
            Precision.FP32: "S",
            Precision.FP16: "h",
            Precision.FP8_E4M3: "q",
            Precision.INT8: "i",
            Precision.INT32: "I",
        }
        lines = []
        for i in range(self.grid.shape[0]):
            lines.append("".join(symbol.get(self.grid[i, j], "?")
                                 for j in range(self.grid.shape[1])))
        return "\n".join(lines)


def precision_heatmap(
    matrix: TileMatrix | np.ndarray,
    rule: AdaptivePrecisionRule | None = None,
    tile_size: int | None = None,
) -> PrecisionHeatmap:
    """Adaptive-precision decision rendered as a heatmap (paper Fig. 4)."""
    if isinstance(matrix, np.ndarray):
        if tile_size is None:
            raise ValueError("tile_size is required when passing a dense array")
        tiled = TileMatrix.from_dense(matrix, tile_size, Precision.FP64)
    else:
        tiled = matrix
    decisions = decide_tile_precisions(tiled, rule)
    return PrecisionHeatmap.from_decisions(decisions, tiled.layout.grid_shape)
