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


class TestSquaredNorms:
    def test_integer_norms_exact(self):
        g = np.array([[0, 1, 2], [2, 2, 2]], dtype=np.int8)
        np.testing.assert_array_equal(squared_norms(g), [5, 12])

    def test_float_panel_raises_rather_than_truncates(self):
        with pytest.raises(TypeError):
            squared_norms(np.array([[0.5, 1.7]]))


class TestGemmTrick:
    def test_matches_direct_for_genotypes(self, small_genotypes):
        g = small_genotypes[:40]
        gemm_form = squared_euclidean_gemm(g)
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

    @pytest.mark.parametrize("bad", [0.5, 300, -129, 128, -0.25,
                                     float("nan"), float("inf")])
    def test_values_the_int8_gram_would_change_raise(self, bad):
        g = np.zeros((3, 4), dtype=type(bad))  # float64 / int64
        g[1, 2] = bad
        with pytest.raises(ValueError, match=r"\[-128, 127\]"):
            squared_euclidean_gemm(g)
        # the cross side is checked too
        with pytest.raises(ValueError, match=r"\[-128, 127\]"):
            squared_euclidean_gemm(np.zeros((2, 4), dtype=np.int8), g)

    @pytest.mark.parametrize("dtype", [np.int16, np.int64, np.float32,
                                       np.float64])
    def test_any_dtype_of_int8_values_is_the_int8_gram(self, dtype):
        """A panel of integers in [−128, 127] is accepted in any dtype,
        the range ends included, and gives the ``int8`` panel's
        distances bitwise."""
        rng = np.random.default_rng(21)
        g8 = rng.integers(-128, 128, size=(9, 13)).astype(np.int8)
        g8[0, :2] = (-128, 127)
        d = squared_euclidean_gemm(g8.astype(dtype))
        np.testing.assert_array_equal(d, squared_euclidean_gemm(g8))
        np.testing.assert_array_equal(d, squared_euclidean_direct(g8))

    def test_distances_non_negative(self, small_genotypes):
        """The exact INT8 Gram cancels without a negative residue, even
        for far-apart extreme codes."""
        rng = np.random.default_rng(22)
        g = np.vstack([small_genotypes[:20],
                       rng.choice(np.array([-128, 127], dtype=np.int8),
                                  size=(6, small_genotypes.shape[1]))])
        d = squared_euclidean_gemm(g, snp_block=5)
        assert (d >= 0).all()
        np.testing.assert_array_equal(d, squared_euclidean_direct(g))

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
