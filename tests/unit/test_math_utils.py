"""Unit tests for repro.core.math_utils."""

import math

import numpy as np
import pytest

from repro.core.math_utils import (as_rate_vector, clip_nonnegative, g,
                                   g_inverse, inverse_permutation,
                                   is_close_vector, numpy_sum, pairs,
                                   relative_error, sorted_order, sup_norm)
from repro.errors import RateVectorError


class TestG:
    def test_zero(self):
        assert g(0.0) == 0.0

    def test_half(self):
        assert g(0.5) == pytest.approx(1.0)

    def test_known_value(self):
        assert g(0.8) == pytest.approx(4.0)

    def test_overload_is_inf(self):
        assert math.isinf(g(1.0))
        assert math.isinf(g(1.5))

    def test_vectorised(self):
        out = g(np.array([0.0, 0.5, 1.0]))
        assert out[0] == 0.0
        assert out[1] == pytest.approx(1.0)
        assert math.isinf(out[2])

    def test_scalar_in_scalar_out(self):
        assert isinstance(g(0.3), float)

    def test_negative_rejected(self):
        with pytest.raises(RateVectorError):
            g(-0.1)

    def test_strictly_increasing(self):
        xs = np.linspace(0.0, 0.99, 50)
        ys = g(xs)
        assert np.all(np.diff(ys) > 0)


class TestGInverse:
    def test_roundtrip(self):
        for x in (0.0, 0.1, 0.5, 0.9, 0.999):
            assert g_inverse(g(x)) == pytest.approx(x)

    def test_inf_maps_to_one(self):
        assert g_inverse(math.inf) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(RateVectorError):
            g_inverse(-1.0)

    def test_vectorised(self):
        q = np.array([0.0, 1.0, math.inf])
        out = g_inverse(q)
        assert out[0] == 0.0
        assert out[1] == pytest.approx(0.5)
        assert out[2] == 1.0


class TestAsRateVector:
    def test_accepts_list(self):
        vec = as_rate_vector([0.1, 0.2])
        assert vec.dtype == float
        assert vec.shape == (2,)

    def test_copies_input(self):
        src = np.array([0.1, 0.2])
        vec = as_rate_vector(src)
        vec[0] = 99.0
        assert src[0] == 0.1

    def test_length_check(self):
        with pytest.raises(RateVectorError):
            as_rate_vector([0.1, 0.2], n=3)

    def test_rejects_negative(self):
        with pytest.raises(RateVectorError):
            as_rate_vector([0.1, -0.2])

    def test_rejects_nan(self):
        with pytest.raises(RateVectorError):
            as_rate_vector([0.1, float("nan")])

    def test_rejects_inf(self):
        with pytest.raises(RateVectorError):
            as_rate_vector([0.1, float("inf")])

    def test_rejects_2d(self):
        with pytest.raises(RateVectorError):
            as_rate_vector(np.zeros((2, 2)))


class TestPermutations:
    def test_sorted_order_basic(self):
        order = sorted_order([0.3, 0.1, 0.2])
        assert list(order) == [1, 2, 0]

    def test_sorted_order_stable_on_ties(self):
        order = sorted_order([0.2, 0.1, 0.2])
        assert list(order) == [1, 0, 2]

    def test_inverse_permutation_roundtrip(self):
        rng = np.random.default_rng(0)
        perm = rng.permutation(10)
        inv = inverse_permutation(perm)
        assert np.array_equal(perm[inv], np.arange(10))
        assert np.array_equal(inv[perm], np.arange(10))


class TestNorms:
    def test_relative_error_zero_on_equal_zeros(self):
        assert relative_error(0.0, 0.0) == 0.0

    def test_relative_error_scaling(self):
        assert relative_error(1.1, 1.0) == pytest.approx(0.1)

    def test_sup_norm(self):
        assert sup_norm([1.0, 2.0], [1.5, 2.0]) == pytest.approx(0.5)

    def test_sup_norm_shape_mismatch(self):
        with pytest.raises(RateVectorError):
            sup_norm([1.0], [1.0, 2.0])

    def test_is_close_vector_true(self):
        assert is_close_vector([1.0, 2.0], [1.0, 2.0 + 1e-12])

    def test_is_close_vector_shape_mismatch_false(self):
        assert not is_close_vector([1.0], [1.0, 2.0])

    def test_clip_nonnegative(self):
        out = clip_nonnegative(np.array([-1.0, 0.0, 2.0]))
        assert np.array_equal(out, [0.0, 0.0, 2.0])

    def test_pairs(self):
        assert list(pairs([1, 2, 3])) == [(1, 2), (1, 3), (2, 3)]


class TestNumpySum:
    @pytest.mark.parametrize("n", range(0, 20))
    def test_bits_of_np_sum(self, n):
        # Below 8 terms numpy folds left to right; from 8 it keeps 8
        # pairwise accumulators, which a left-to-right fold does not
        # match.
        rng = np.random.default_rng(n)
        for _ in range(200):
            values = (rng.uniform(0, 10, n)
                      * 10.0 ** rng.uniform(-8, 8, n)).tolist()
            total = numpy_sum(values)
            assert type(total) is float
            assert total == float(np.sum(values))

    def test_short_lists_are_not_compensated(self):
        # A compensated sum (math.fsum, and Python's sum from 3.12 on)
        # keeps the two small terms that numpy's fold rounds away.
        values = [1.0, 1e-16, 1e-16]
        assert math.fsum(values) == 1.0000000000000002
        assert numpy_sum(values) == float(np.sum(values)) == 1.0
