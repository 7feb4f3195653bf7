"""Tests for the Gaussian kernel function."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distance.euclidean import squared_euclidean_gemm
from repro.distance.kernels import gaussian_kernel


class TestGaussian:
    def test_unit_diagonal(self, small_genotypes):
        d = squared_euclidean_gemm(small_genotypes[:20])
        k = gaussian_kernel(d, gamma=0.05)
        np.testing.assert_allclose(np.diag(k), 1.0)

    def test_values_in_unit_interval(self, small_genotypes):
        d = squared_euclidean_gemm(small_genotypes[:20])
        k = gaussian_kernel(d, gamma=0.05)
        assert np.all(k > 0) and np.all(k <= 1)

    def test_gamma_zero_gives_all_ones(self):
        k = gaussian_kernel(np.array([[0.0, 5.0], [5.0, 0.0]]), gamma=0.0)
        np.testing.assert_array_equal(k, 1.0)

    def test_larger_gamma_smaller_offdiagonal(self, small_genotypes):
        d = squared_euclidean_gemm(small_genotypes[:20])
        k1 = gaussian_kernel(d, gamma=0.01)
        k2 = gaussian_kernel(d, gamma=0.1)
        off = ~np.eye(20, dtype=bool)
        assert np.all(k2[off] <= k1[off])

    def test_negative_gamma_raises(self):
        with pytest.raises(ValueError):
            gaussian_kernel(np.zeros((2, 2)), gamma=-1.0)

    def test_positive_semidefinite(self, small_genotypes):
        g = small_genotypes[:30]
        k = gaussian_kernel(squared_euclidean_gemm(g), gamma=0.03)
        eigenvalues = np.linalg.eigvalsh(k)
        assert eigenvalues.min() > -1e-8


class TestKernelProperties:
    @given(st.floats(min_value=0.001, max_value=1.0))
    @settings(max_examples=25, deadline=None)
    def test_gaussian_monotone_in_distance(self, gamma):
        d = np.array([[0.0, 1.0, 10.0]])
        k = gaussian_kernel(d, gamma)
        assert k[0, 0] >= k[0, 1] >= k[0, 2]
