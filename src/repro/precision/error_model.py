"""The perturbation bound of a per-tile precision mosaic.

The mixed-precision bound of Higham & Mary (Acta Numerica 2022,
reference [19] of the paper) justifies the tile-centric adaptive
precision rule used in the Associate phase: storing tile ``A_ij`` in a
format with unit roundoff ``u_k`` perturbs the global matrix by at most
``u_k * ||A_ij||``, so a tile may be demoted whenever that perturbation
stays below the application's accuracy target ``eps * ||A||``.
"""

from __future__ import annotations

import numpy as np

from repro.precision.formats import unit_roundoff


def adaptive_perturbation_bound(tile_norms: np.ndarray,
                                tile_precisions: np.ndarray,
                                matrix_norm: float) -> float:
    """Relative perturbation induced by a per-tile precision mosaic.

    Parameters
    ----------
    tile_norms:
        Array of Frobenius norms of each tile.
    tile_precisions:
        Array (same shape) of :class:`Precision` members giving the
        storage format chosen for each tile.
    matrix_norm:
        Frobenius norm of the full matrix.

    Returns
    -------
    float
        Upper bound on ``||A_stored - A|| / ||A||`` — the quantity the
        adaptive rule keeps below the accuracy threshold ``eps``.
    """
    norms = np.asarray(tile_norms, dtype=np.float64).ravel()
    precisions = np.asarray(tile_precisions, dtype=object).ravel()
    if norms.shape != precisions.shape:
        raise ValueError("tile_norms and tile_precisions must have the same shape")
    if matrix_norm <= 0:
        return 0.0
    us = np.array([unit_roundoff(p) for p in precisions])
    # Frobenius norms of per-tile perturbations add in quadrature.
    perturbation = float(np.sqrt(np.sum((us * norms) ** 2)))
    return perturbation / float(matrix_norm)
