"""Tests for the GEMM-form squared Euclidean distances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distance.euclidean import (
    squared_euclidean_direct,
    squared_euclidean_gemm,
    squared_norms,
)
from repro.precision.formats import Precision


class TestSquaredNorms:
    def test_integer_norms_exact(self):
        g = np.array([[0, 1, 2], [2, 2, 2]], dtype=np.int8)
        np.testing.assert_array_equal(squared_norms(g), [5, 12])

    def test_float_norms(self):
        x = np.array([[3.0, 4.0]])
        assert squared_norms(x, integer=False)[0] == pytest.approx(25.0)


class TestGemmTrick:
    def test_matches_direct_for_genotypes(self, small_genotypes):
        g = small_genotypes[:40]
        gemm_form = squared_euclidean_gemm(g, precision=Precision.INT8)
        direct = squared_euclidean_direct(g)
        np.testing.assert_array_equal(gemm_form, direct)

    def test_paper_three_patient_example(self):
        # the worked example of Sec. V-B1: three patients, two markers
        g = np.array([[1, 0], [2, 1], [0, 2]], dtype=np.int8)
        d = squared_euclidean_gemm(g)
        expected = np.array([
            [0, 2, 5],
            [2, 0, 5],
            [5, 5, 0],
        ], dtype=np.float64)
        np.testing.assert_array_equal(d, expected)

    def test_symmetry_and_zero_diagonal(self, small_genotypes):
        d = squared_euclidean_gemm(small_genotypes[:30])
        np.testing.assert_array_equal(d, d.T)
        np.testing.assert_array_equal(np.diag(d), 0.0)

    def test_cross_distances(self, small_genotypes):
        g1 = small_genotypes[:20]
        g2 = small_genotypes[20:35]
        d = squared_euclidean_gemm(g1, g2)
        np.testing.assert_array_equal(d, squared_euclidean_direct(g1, g2))
        assert d.shape == (20, 15)

    def test_snp_blocking_equivalent(self, small_genotypes):
        g = small_genotypes[:25]
        d1 = squared_euclidean_gemm(g, snp_block=7)
        d2 = squared_euclidean_gemm(g, snp_block=4096)
        np.testing.assert_array_equal(d1, d2)

    def test_fp32_path_for_real_data(self, rng):
        x = rng.normal(size=(20, 10))
        d = squared_euclidean_gemm(x, precision=Precision.FP32)
        np.testing.assert_allclose(d, squared_euclidean_direct(x), rtol=1e-4,
                                   atol=1e-4)

    def test_distances_non_negative(self, rng):
        x = rng.normal(size=(30, 8))
        d = squared_euclidean_gemm(x, precision=Precision.FP16)
        assert np.all(d >= 0)

    def test_mismatched_snp_dimension_raises(self, small_genotypes):
        with pytest.raises(ValueError):
            squared_euclidean_gemm(small_genotypes[:5, :10], small_genotypes[:5, :20])


class TestDistanceProperties:
    @given(st.integers(2, 25), st.integers(1, 30))
    @settings(max_examples=30, deadline=None)
    def test_gemm_equals_direct_for_any_genotype_matrix(self, n, ns):
        rng = np.random.default_rng(n * 100 + ns)
        g = rng.integers(0, 3, size=(n, ns)).astype(np.int8)
        np.testing.assert_array_equal(squared_euclidean_gemm(g),
                                      squared_euclidean_direct(g))

    @given(st.integers(2, 15), st.integers(1, 20))
    @settings(max_examples=30, deadline=None)
    def test_triangle_inequality_on_roots(self, n, ns):
        rng = np.random.default_rng(n * 31 + ns)
        g = rng.integers(0, 3, size=(n, ns)).astype(np.int8)
        d = np.sqrt(squared_euclidean_gemm(g))
        for i in range(min(n, 5)):
            for j in range(min(n, 5)):
                for k in range(min(n, 5)):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-9
