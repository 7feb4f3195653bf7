"""Tests for the rounding-error bound helpers."""

import numpy as np
import pytest

from repro.precision.error_model import adaptive_perturbation_bound
from repro.precision.formats import Precision, unit_roundoff


class TestAdaptivePerturbation:
    def test_uniform_tiles(self):
        norms = np.full(16, 10.0)
        precisions = np.full(16, Precision.FP16, dtype=object)
        matrix_norm = 40.0  # sqrt(16 * 100)
        bound = adaptive_perturbation_bound(norms, precisions, matrix_norm)
        assert bound == pytest.approx(unit_roundoff(Precision.FP16), rel=1e-12)

    def test_mixed_precisions(self):
        norms = np.array([10.0, 1.0])
        precisions = np.array([Precision.FP32, Precision.FP8_E4M3], dtype=object)
        bound = adaptive_perturbation_bound(norms, precisions, np.sqrt(101.0))
        # dominated by the FP8 tile: 0.0625 * 1 / ~10
        assert 0.004 < bound < 0.01

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            adaptive_perturbation_bound(np.ones(3), np.array([Precision.FP16] * 2,
                                                             dtype=object), 1.0)

    def test_zero_matrix_norm(self):
        assert adaptive_perturbation_bound(np.ones(2),
                                           np.array([Precision.FP16] * 2, dtype=object),
                                           0.0) == 0.0

