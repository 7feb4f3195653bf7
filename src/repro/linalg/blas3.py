"""Level-3 BLAS drivers: a tiled SYRK and a one-call GEMM.

The ridge-regression path of the paper (Sec. V-A) computes
``X^T X`` with a mixed-precision SYRK whose tiles dispatch to the
INT8 integer GEMM when they contain only SNP data and to FP32 when
they contain confounders (Fig. 2), and ``X^T Y`` with a plain FP32
GEMM.  The SYRK reproduces that fine-grained dispatch on tiled
operands; the GEMM is one product in its input precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.precision.formats import Precision
from repro.precision.gemm import QuantizedOperand, gemm_mixed, variant_for_input
from repro.precision.quantize import quantize
from repro.runtime.task import AccessMode, BodySpec, ObjectInput, TaskSpec
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


def _run_as_task(runtime, phase: str, name: str, kernel: BodySpec,
                 operands: tuple, shape: tuple[int, int],
                 precision: Precision, flops_detail: dict) -> np.ndarray:
    """Run a dense kernel of ``operands`` as one task of ``runtime``.

    The drain tallies ``flops_detail`` (operations by compute precision)
    in ``runtime.ledger[phase]``; the task's output is returned.
    """
    with runtime.dag(name) as ns:
        out_h = runtime.register_data(f"{ns}C", shape=shape,
                                      precision=precision)
        runtime.insert_task(
            name,
            (out_h, AccessMode.WRITE),
            flops=float(sum(flops_detail.values())), precision=precision,
            flops_detail=flops_detail,
            spec=TaskSpec(
                kernel, mode="aux",
                aux=tuple(ObjectInput(operand, key=f"{ns}{i}")
                          for i, operand in enumerate(operands))),
        )
        runtime.run(phase=phase)
        return out_h.payload


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
        With ``runtime`` the product runs as one inserted task (as
        :func:`gemm` does), which lands its operation count — split
        into the INT8 and FP32 panel products ``integer_columns``
        implies — in ``runtime.ledger[phase]``.

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

    if runtime is not None:
        detail: dict[Precision, float] = {}
        for cs_j, cs_k, prec in pairs:
            detail[prec] = detail.get(prec, 0.0) + (
                2.0 * n * (cs_j.stop - cs_j.start) * (cs_k.stop - cs_k.start))
        return _run_as_task(
            runtime, phase, "syrk", DenseSyrkSpec(tile_size, output_precision),
            (x, integer_columns), (p, p), output_precision, detail)

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

    With ``runtime`` the product runs as one inserted task under the
    runtime's scheduler, which lands its operation count in the
    ``runtime.ledger[phase]`` the solver sessions read.
    """
    precision = Precision.from_string(precision)
    if runtime is not None:
        ashape, bshape = np.shape(a), np.shape(b)
        m = ashape[1] if transa else ashape[0]
        n = bshape[0] if transb else bshape[1]
        k = ashape[0] if transa else ashape[1]
        return _run_as_task(
            runtime, phase, "gemm", DenseGemmSpec(precision, transa, transb),
            (a, b), (m, n), precision, {precision: 2.0 * m * n * k})
    out = gemm_mixed(a, b, variant=variant_for_input(precision),
                     transa=transa, transb=transb)
    return np.asarray(quantize(out, precision), dtype=np.float64)


@dataclass(frozen=True)
class DenseSyrkSpec(BodySpec):
    """:func:`syrk` of a dense design matrix as one task (its runtime path)."""

    tile_size: int
    output_precision: Precision

    def run(self, x: np.ndarray, integer_columns: np.ndarray) -> np.ndarray:
        return syrk(x, tile_size=self.tile_size,
                    integer_columns=integer_columns,
                    output_precision=self.output_precision)


@dataclass(frozen=True)
class DenseGemmSpec(BodySpec):
    """:func:`gemm` of two dense operands as one task (its runtime path)."""

    precision: Precision
    transa: bool
    transb: bool

    def run(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return gemm(a, b, precision=self.precision,
                    transa=self.transa, transb=self.transb)
