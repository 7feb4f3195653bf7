"""Level-3 BLAS drivers: a tiled SYRK and a one-call GEMM.

The ridge-regression path of the paper (Sec. V-A) computes
``X^T X`` with a mixed-precision SYRK whose tiles dispatch to the
INT8 integer GEMM when they contain only SNP data and to FP32 when
they contain confounders (Fig. 2), and ``X^T Y`` with a plain FP32
GEMM.  The SYRK reproduces that fine-grained dispatch on tiled
operands; the GEMM is one product in its input precision.
"""

from __future__ import annotations

import numpy as np

from repro.precision.formats import Precision
from repro.precision.gemm import (
    QuantizedOperand, gemm_flop_count, gemm_mixed, variant_for_input)
from repro.precision.quantize import quantize
from repro.tiles.layout import TileLayout


def _tile_precision_for_columns(col_types: np.ndarray, cols: slice) -> Precision:
    """INT8 when every column in the slice is integer-coded, else FP32.

    ``col_types`` is a boolean array marking integer (SNP) columns; a
    tile is eligible for the integer tensor-core path only when *all*
    of its columns are integer, exactly the per-tile dispatch of Fig. 2
    ("without fine-grained computations, the few FP32 tiles would
    contaminate the MxP SYRK").
    """
    if np.all(col_types[cols]):
        return Precision.INT8
    return Precision.FP32


def _column_tile_pairs(layout: TileLayout, col_types: np.ndarray):
    """Upper-triangle pairs ``(cols_j, cols_k, precision)`` of column
    tiles: a pair's product runs in INT8 only when both tiles do."""
    tiles = [(cs, _tile_precision_for_columns(col_types, cs))
             for cs in (layout.tile_slice(0, b)[1]
                        for b in range(layout.tile_cols))]
    for bj, (cs_j, pj) in enumerate(tiles):
        for cs_k, pk in tiles[bj:]:
            yield cs_j, cs_k, (pj if pj is pk else Precision.FP32)


def syrk(
    x: np.ndarray,
    tile_size: int,
    integer_columns: np.ndarray | None = None,
    output_precision: Precision | str = Precision.FP32,
    runtime=None,
    phase: str = "syrk",
) -> np.ndarray:
    """Mixed-precision ``X^T X`` via column-tile rank-k accumulation.

    Parameters
    ----------
    x:
        ``n × p`` design matrix (patients × [SNPs + confounders]).
    tile_size:
        Width of the column panels accumulated per step (the ``k``
        blocking of the SYRK).
    integer_columns:
        Boolean array of length ``p`` marking columns encoded as small
        integers (SNPs).  Panels made solely of integer columns go
        through the emulated INT8 tensor-core GEMM; panels containing
        any real-valued confounder go through FP32.  When omitted, a
        column is considered integer if all its values are integral and
        within [-128, 127].
    output_precision:
        Precision of the accumulated result.
    runtime, phase:
        With ``runtime`` the product's operation count — split into the
        INT8 and FP32 panel products ``integer_columns`` implies — is
        added to ``runtime.ledger[phase]`` (:meth:`Runtime.tally`); the
        product itself runs inline either way.

    Returns
    -------
    numpy.ndarray
        ``p × p`` symmetric matrix ``X^T X`` in float64 container
        (values on the output precision's grid).
    """
    x = np.asarray(x, dtype=np.float64)
    n, p = x.shape
    output_precision = Precision.from_string(output_precision)
    if integer_columns is None:
        integer_columns = np.array([
            bool(np.all(np.mod(x[:, j], 1) == 0) and np.all(np.abs(x[:, j]) <= 127))
            for j in range(p)
        ])
    integer_columns = np.asarray(integer_columns, dtype=bool)
    if integer_columns.shape != (p,):
        raise ValueError("integer_columns must have one entry per column of X")

    layout = TileLayout(rows=n, cols=p, tile_size=tile_size)
    pairs = list(_column_tile_pairs(layout, integer_columns))

    acc = np.zeros((p, p), dtype=np.float64)

    # accumulate over row panels of X^T X = sum_k X[k,:]^T X[k,:]
    for bi in range(layout.tile_rows):
        rs = layout.tile_slice(bi, 0)[0]
        panel = x[rs, :]
        # quantize the row panel once per input precision it is read at;
        # column-tile products below slice the shared quantized views
        qpanel: dict[Precision, QuantizedOperand] = {}

        def qcols(prec: Precision, cols: slice) -> QuantizedOperand:
            variant_input = variant_for_input(prec).input_precision
            if variant_input not in qpanel:
                qpanel[variant_input] = QuantizedOperand(panel, variant_input)
            return qpanel[variant_input][:, cols]

        # split this row panel by column tiles so integer and float
        # columns use different GEMM variants
        for cs_j, cs_k, prec in pairs:
            block = np.asarray(
                gemm_mixed(qcols(prec, cs_j), qcols(prec, cs_k),
                           variant=variant_for_input(prec), transa=True),
                dtype=np.float64,
            )
            acc[cs_j, cs_k] += block
            if cs_j != cs_k:
                acc[cs_k, cs_j] += block.T

    acc = (acc + acc.T) / 2.0  # exact symmetrization
    if runtime is not None:
        detail: dict[Precision, float] = {}
        for cs_j, cs_k, prec in pairs:
            detail[prec] = detail.get(prec, 0.0) + gemm_flop_count(
                cs_j.stop - cs_j.start, cs_k.stop - cs_k.start, n)
        runtime.tally(phase, detail)
    return np.asarray(quantize(acc, output_precision), dtype=np.float64)


def gemm(
    a: np.ndarray,
    b: np.ndarray,
    precision: Precision | str = Precision.FP32,
    transa: bool = False,
    transb: bool = False,
    runtime=None,
    phase: str = "gemm",
) -> np.ndarray:
    """Mixed-precision GEMM ``op(A) @ op(B)`` as one ``gemm_mixed`` call.

    Used for ``X^T Y`` in the RR path and ``K_test @ W`` in the Predict
    phase, both of which the paper keeps in FP32: the whole inner
    dimension accumulates in the variant's precision, as one cuBLAS
    ``sgemm`` does.

    With ``runtime`` its operation count is added to the
    ``runtime.ledger[phase]`` the solver sessions read
    (:meth:`Runtime.tally`); the product is not a task.
    """
    precision = Precision.from_string(precision)
    out = gemm_mixed(a, b, variant=variant_for_input(precision),
                     transa=transa, transb=transb)
    if runtime is not None:
        k = np.shape(a)[0 if transa else 1]
        runtime.tally(phase, {precision: gemm_flop_count(*out.shape, k)})
    return np.asarray(quantize(out, precision), dtype=np.float64)
