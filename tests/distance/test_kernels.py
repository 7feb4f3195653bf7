"""Tests for the Gaussian and IBS kernel functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distance.euclidean import squared_euclidean_gemm
from repro.distance.kernels import (
    gaussian_kernel,
    gaussian_kernel_pairwise,
    ibs_kernel,
    kernel_from_distance,
)


def _ibs_kernel_gemm(g1: np.ndarray, g2: np.ndarray | None = None) -> np.ndarray:
    """Oracle: the IBS kernel computed with GEMM-friendly indicator encoding.

    ``|a - b|`` summed over SNPs can be obtained from inner products of
    the dosages and of the 0/2 genotype indicators, turning the IBS
    kernel into matrix products just like the Gaussian kernel — the
    "similarity kernels recast as distance kernels" observation of the
    paper's conclusions.
    """
    g1 = np.asarray(g1)
    g2v = g1 if g2 is None else np.asarray(g2)
    ns = g1.shape[1]
    if ns == 0:
        raise ValueError("at least one SNP is required")

    dose1 = np.clip(np.rint(np.asarray(g1, dtype=np.float64)), 0, 2)
    dose2 = np.clip(np.rint(np.asarray(g2v, dtype=np.float64)), 0, 2)
    # for values in {0,1,2}: |a-b| = (a-b)^2 - 2*I[|a-b|=2], where
    # I[|a-b|=2] = I[a=0,b=2] + I[a=2,b=0]
    sq = (
        np.einsum("ij,ij->i", dose1, dose1)[:, None]
        + np.einsum("ij,ij->i", dose2, dose2)[None, :]
        - 2.0 * dose1 @ dose2.T
    )
    a0 = (dose1 == 0).astype(np.float64)
    a2 = (dose1 == 2).astype(np.float64)
    b0 = (dose2 == 0).astype(np.float64)
    b2 = (dose2 == 2).astype(np.float64)
    extreme = a0 @ b2.T + a2 @ b0.T
    l1 = sq - 2.0 * extreme
    shared = 2.0 * ns - l1
    return shared / (2.0 * ns)


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

    def test_pairwise_end_to_end(self, small_genotypes):
        g = small_genotypes[:15]
        k = gaussian_kernel_pairwise(g, None, gamma=0.02)
        expected = np.exp(-0.02 * squared_euclidean_gemm(g))
        np.testing.assert_allclose(k, expected)

    def test_positive_semidefinite(self, small_genotypes):
        g = small_genotypes[:30]
        k = gaussian_kernel_pairwise(g, None, gamma=0.03)
        eigenvalues = np.linalg.eigvalsh(k)
        assert eigenvalues.min() > -1e-8

    def test_kernel_from_distance_dispatch(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(kernel_from_distance(d, "gaussian", 1.0),
                                   np.exp(-d))
        with pytest.raises(ValueError):
            kernel_from_distance(d, "ibs")


class TestIBS:
    def test_diagonal_is_one(self, small_genotypes):
        k = ibs_kernel(small_genotypes[:15])
        np.testing.assert_allclose(np.diag(k), 1.0)

    def test_range(self, small_genotypes):
        k = ibs_kernel(small_genotypes[:15])
        assert np.all(k >= 0) and np.all(k <= 1)

    def test_hand_computed_example(self):
        g1 = np.array([[0, 1, 2]])
        g2 = np.array([[2, 1, 2]])
        # shared alleles per SNP: 0, 2, 2 -> 4 of 6
        k = ibs_kernel(g1, g2)
        assert k[0, 0] == pytest.approx(4.0 / 6.0)

    def test_identical_individuals(self):
        g = np.array([[0, 1, 2, 1]])
        assert ibs_kernel(g, g)[0, 0] == 1.0

    def test_opposite_homozygotes(self):
        g1 = np.array([[0, 0]])
        g2 = np.array([[2, 2]])
        assert ibs_kernel(g1, g2)[0, 0] == 0.0

    def test_gemm_form_matches_direct(self, small_genotypes):
        g = small_genotypes[:25]
        np.testing.assert_allclose(_ibs_kernel_gemm(g), ibs_kernel(g), atol=1e-12)

    def test_gemm_form_cross(self, small_genotypes):
        g1 = small_genotypes[:10]
        g2 = small_genotypes[10:22]
        np.testing.assert_allclose(_ibs_kernel_gemm(g1, g2), ibs_kernel(g1, g2),
                                   atol=1e-12)

    def test_empty_snps_raises(self):
        with pytest.raises(ValueError):
            ibs_kernel(np.zeros((3, 0)))

    def test_mismatched_dimensions_raise(self):
        with pytest.raises(ValueError):
            ibs_kernel(np.zeros((2, 3)), np.zeros((2, 4)))


class TestKernelProperties:
    @given(st.integers(2, 15), st.integers(1, 20))
    @settings(max_examples=25, deadline=None)
    def test_ibs_symmetry(self, n, ns):
        rng = np.random.default_rng(n * 7 + ns)
        g = rng.integers(0, 3, size=(n, ns))
        k = ibs_kernel(g)
        np.testing.assert_allclose(k, k.T)

    @given(st.floats(min_value=0.001, max_value=1.0))
    @settings(max_examples=25, deadline=None)
    def test_gaussian_monotone_in_distance(self, gamma):
        d = np.array([[0.0, 1.0, 10.0]])
        k = gaussian_kernel(d, gamma)
        assert k[0, 0] >= k[0, 1] >= k[0, 2]
