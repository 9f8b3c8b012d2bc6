"""Unit tests for the Fair Share queue law and Table 1 decomposition."""

import math

import numpy as np
import pytest

from repro.core.fairshare import (FairShare, cumulative_loads,
                                  cumulative_loads_batch,
                                  fair_share_queues_recursive,
                                  priority_decomposition)
from repro.core.math_utils import g
from repro.errors import RateVectorError


class TestPriorityDecomposition:
    def test_table1_shape(self):
        r = np.array([0.1, 0.2, 0.3, 0.4])
        d = priority_decomposition(r)
        assert d.shape == (4, 4)

    def test_rows_sum_to_rates(self):
        r = np.array([0.3, 0.1, 0.4, 0.2])
        d = priority_decomposition(r)
        assert np.allclose(d.sum(axis=1), r)

    def test_paper_example_structure(self):
        # Sorted rates r1<r2<r3<r4: row of the largest connection is
        # (r1, r2-r1, r3-r2, r4-r3).
        r = np.array([0.1, 0.2, 0.3, 0.4])
        d = priority_decomposition(r)
        assert np.allclose(d[3], [0.1, 0.1, 0.1, 0.1])
        assert np.allclose(d[0], [0.1, 0.0, 0.0, 0.0])
        assert np.allclose(d[1], [0.1, 0.1, 0.0, 0.0])

    def test_unsorted_input(self):
        r = np.array([0.4, 0.1])
        d = priority_decomposition(r)
        assert np.allclose(d[1], [0.1, 0.0])
        assert np.allclose(d[0], [0.1, 0.3])

    def test_ties_get_zero_width_classes(self):
        r = np.array([0.2, 0.2])
        d = priority_decomposition(r)
        assert np.allclose(d[:, 0], [0.2, 0.2])
        assert np.allclose(d[:, 1], [0.0, 0.0])

    def test_zero_rate_row_is_zero(self):
        d = priority_decomposition([0.0, 0.5])
        assert np.allclose(d[0], 0.0)


class TestCumulativeLoads:
    def test_formula(self):
        # sigma_k = sum_m min(r_m, r_(k)) / mu
        r = np.array([0.1, 0.3])
        sigma = cumulative_loads(r, 1.0)
        assert sigma[0] == pytest.approx(0.2)   # min sums: 0.1+0.1
        assert sigma[1] == pytest.approx(0.4)   # 0.1+0.3

    def test_monotone(self):
        rng = np.random.default_rng(1)
        r = rng.uniform(0, 0.3, 6)
        sigma = cumulative_loads(r, 1.0)
        assert np.all(np.diff(sigma) >= -1e-15)

    def test_last_is_total_load(self):
        r = np.array([0.1, 0.2, 0.15])
        sigma = cumulative_loads(r, 2.0)
        assert sigma[-1] == pytest.approx(r.sum() / 2.0)

    def test_permutation_invariant_bitwise(self):
        # Both paths sum over the sorted rates, so permuting the input
        # changes nothing — not even the last ulp.
        rng = np.random.default_rng(13)
        vals = rng.uniform(0.01, 0.3, 3)
        r = rng.choice(vals, size=7)
        perm = rng.permutation(7)
        assert np.array_equal(cumulative_loads(r, 1.0),
                              cumulative_loads(r[perm], 1.0))

    def test_batch_matches_scalar_bitwise(self):
        rng = np.random.default_rng(14)
        batch = rng.uniform(0.0, 0.3, size=(6, 5))
        batch[2, 1] = batch[2, 3]  # inject a tie
        sigma_b = cumulative_loads_batch(batch, 1.3)
        for m in range(6):
            assert np.array_equal(sigma_b[m],
                                  cumulative_loads(batch[m], 1.3))


class TestFairShareQueues:
    def test_matches_recursion(self, fair_share):
        rng = np.random.default_rng(2)
        for _ in range(20):
            r = rng.uniform(0, 0.24, 4)
            q1 = fair_share.queue_lengths(r, 1.0)
            q2 = fair_share_queues_recursive(r, 1.0)
            assert np.allclose(q1, q2)

    def test_two_connection_closed_form(self, fair_share):
        # Q1 = g(2 r1)/2, Q2 = g(r1+r2) - g(2 r1)/2 for r1 < r2, mu=1.
        r = np.array([0.2, 0.5])
        q = fair_share.queue_lengths(r, 1.0)
        assert q[0] == pytest.approx(g(0.4) / 2)
        assert q[1] == pytest.approx(g(0.7) - g(0.4) / 2)

    def test_total_conserved(self, fair_share, rates4):
        assert fair_share.total_queue(rates4, 1.0) == \
            pytest.approx(g(rates4.sum()))

    def test_symmetric_case_equal_queues(self, fair_share):
        q = fair_share.queue_lengths([0.2, 0.2, 0.2], 1.0)
        assert np.allclose(q, q[0])
        assert q.sum() == pytest.approx(g(0.6))

    def test_small_connection_isolated_from_overload(self, fair_share):
        # Total load 1.5 >= 1, but the small connection only sees
        # sigma_1 = 2 * 0.1 = 0.2 and keeps a finite queue.
        q = fair_share.queue_lengths([0.1, 1.4], 1.0)
        assert q[0] == pytest.approx(g(0.2) / 2)
        assert math.isinf(q[1])

    def test_ordering_follows_rates(self, fair_share):
        r = np.array([0.05, 0.15, 0.3])
        q = fair_share.queue_lengths(r, 1.0)
        assert q[0] < q[1] < q[2]

    def test_zero_rate_zero_queue(self, fair_share):
        q = fair_share.queue_lengths([0.0, 0.3], 1.0)
        assert q[0] == 0.0

    def test_permutation_equivariance(self, fair_share):
        r = np.array([0.3, 0.1, 0.2])
        q = fair_share.queue_lengths(r, 1.0)
        perm = np.array([1, 2, 0])
        q_perm = fair_share.queue_lengths(r[perm], 1.0)
        assert np.allclose(q[perm], q_perm)

    def test_tied_rates_permutation_invariant_bitwise(self, fair_share):
        # FP addition is not associative, so the cumulative loads must
        # be summed in canonical (sorted) order: connections with EQUAL
        # rates then get bit-identical queues under any permutation of
        # the input vector — not merely allclose.  Checked at several
        # gateway sizes.
        rng = np.random.default_rng(11)
        for n in (6, 64, 100):
            for _ in range(25):
                vals = rng.uniform(0.01, 0.24, 3) * 6 / n
                r = rng.choice(vals, size=n)  # guaranteed ties
                perm = rng.permutation(n)
                q = fair_share.queue_lengths(r, 1.0)
                q_perm = fair_share.queue_lengths(r[perm], 1.0)
                assert np.array_equal(q[perm], q_perm), n

    @pytest.mark.parametrize("n", [64, 256])
    def test_equal_rates_get_one_queue(self, fair_share, n):
        # The symmetry axiom: equal rates give equal queues, bit for
        # bit, at every gateway size.
        q = fair_share.queue_lengths(np.full(n, 0.9 / n), 1.0)
        assert np.unique(q).size == 1
        assert q.sum() == pytest.approx(g(0.9))
        batch = fair_share.queue_lengths_batch(np.full((2, n), 0.9 / n),
                                               1.0)
        assert np.unique(batch).size == 1

    def test_tied_rates_batch_matches_scalar_bitwise(self, fair_share):
        rng = np.random.default_rng(12)
        vals = rng.uniform(0.01, 0.24, 2)
        batch = rng.choice(vals, size=(8, 5))
        q_batch = fair_share.queue_lengths_batch(batch, 1.0)
        for m in range(8):
            assert np.array_equal(
                q_batch[m], fair_share.queue_lengths(batch[m], 1.0))

    def test_triangularity_queue_independent_of_larger_rates(
            self, fair_share):
        # Q of the smallest connection must not change when a larger
        # connection's rate changes (as long as it stays larger).
        base = np.array([0.1, 0.3, 0.4])
        bumped = np.array([0.1, 0.35, 0.45])
        q0 = fair_share.queue_lengths(base, 1.0)[0]
        q0_b = fair_share.queue_lengths(bumped, 1.0)[0]
        assert q0 == pytest.approx(q0_b)

    def test_scales_with_mu(self, fair_share, rates4):
        q1 = fair_share.queue_lengths(rates4, 1.0)
        q2 = fair_share.queue_lengths(rates4 * 3, 3.0)
        assert np.allclose(q1, q2)

    def test_bad_mu(self, fair_share):
        with pytest.raises(RateVectorError):
            fair_share.queue_lengths([0.1], -1.0)

    def test_recursive_overload_tail_infinite(self):
        q = fair_share_queues_recursive([0.2, 0.5, 0.6], 1.0)
        assert np.isfinite(q[0])
        assert math.isinf(q[2])

    def test_name(self, fair_share):
        assert fair_share.name == "fair-share"
