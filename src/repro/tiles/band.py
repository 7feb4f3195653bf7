"""Hand-tuned band ("rainbow") precision assignment.

Before the systematic adaptive rule, the state of the art (Abdulah et
al., TPDS 2021 — reference [37] of the paper) assigned precisions by
*bands*: tiles within a given distance of the diagonal stay in the
high precision, tiles further out drop to the low precision, producing
a rainbow pattern.  The band width must be tuned empirically per
dataset, which is the drawback the adaptive rule removes.

The paper's Fig. 5 sweeps band configurations keeping 100%, 80%, 60%,
40%, 20% and 10% of the off-diagonal bands in FP32 (rest FP16) and
shows the 10% configuration deteriorates the MSPE.  These helpers
reproduce that assignment.
"""

from __future__ import annotations

from repro.precision.formats import Precision
from repro.tiles.layout import TileLayout


def band_precision_map(
    layout: TileLayout,
    high_fraction: float,
    high: Precision | str = Precision.FP32,
    low: Precision | str = Precision.FP16,
    diagonal: Precision | str | None = None,
) -> dict[tuple[int, int], Precision]:
    """Assign precisions by diagonal bands.

    Parameters
    ----------
    layout:
        Tile grid of a square (symmetric) matrix.
    high_fraction:
        Fraction of the off-diagonal band distance kept in ``high``
        precision.  ``1.0`` keeps everything high (the paper's
        "100(FP32)" configuration); ``0.1`` keeps only the 10% of
        bands closest to the diagonal high.
    high, low:
        Precisions for the near-diagonal and far-from-diagonal bands.
    diagonal:
        Precision of diagonal tiles; defaults to ``high``.

    Returns
    -------
    dict
        ``{(i, j): Precision}`` for every tile in the grid.
    """
    if not layout.is_square_grid:
        raise ValueError("band precision maps require a square tile grid")
    if not 0.0 <= high_fraction <= 1.0:
        raise ValueError("high_fraction must be in [0, 1]")
    high = Precision.from_string(high)
    low = Precision.from_string(low)
    diag = Precision.from_string(diagonal) if diagonal is not None else high

    nt = layout.tile_rows
    # Band index of tile (i, j) is |i - j|; bands run 0 .. nt-1.  The
    # fraction applies to the nt-1 off-diagonal bands.
    max_band = max(nt - 1, 1)
    high_bands = int(round(high_fraction * max_band))

    pmap: dict[tuple[int, int], Precision] = {}
    for i, j in layout.iter_tiles():
        band = abs(i - j)
        if band == 0:
            pmap[(i, j)] = diag
        elif band <= high_bands:
            pmap[(i, j)] = high
        else:
            pmap[(i, j)] = low
    return pmap
