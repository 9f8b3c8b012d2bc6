"""Unit tests for fairness predicates and max-min allocation."""

import warnings

import numpy as np
import pytest

from repro.core.fairness import (is_fair, jain_index, max_min_allocation,
                                 unfairness)
from repro.core.fifo import Fifo
from repro.core.signals import FeedbackScheme, FeedbackStyle, \
    LinearSaturating
from repro.core.topology import (parking_lot, single_gateway,
                                 two_gateway_shared)
from repro.errors import RateVectorError, TopologyError


def _scheme(net, style=FeedbackStyle.AGGREGATE):
    return FeedbackScheme(net, Fifo(), LinearSaturating(), style)


class TestIsFair:
    def test_equal_split_fair(self):
        scheme = _scheme(single_gateway(3))
        assert is_fair(scheme, np.array([0.2, 0.2, 0.2]))

    def test_unequal_split_unfair(self):
        scheme = _scheme(single_gateway(3))
        assert not is_fair(scheme, np.array([0.1, 0.2, 0.2]))

    def test_unfairness_measures_excess(self):
        scheme = _scheme(single_gateway(2))
        assert unfairness(scheme, np.array([0.1, 0.3])) == \
            pytest.approx(0.2)

    def test_unequal_rates_fair_under_individual_signals(self):
        # long/a_only bottlenecked at ga (0.25 each), b_only at gb
        # (0.75).  Under *individual* signals the long connection's
        # signal at gb is below its ga signal, so gb is not its
        # bottleneck and the allocation is fair.  Under *aggregate*
        # signals both saturated gateways emit the same value, gb
        # counts as a bottleneck of the long connection too, and the
        # literal definition flags the faster b_only — the definition
        # is signal-structure dependent, exactly as in the paper.
        net = two_gateway_shared(mu_a=1.0, mu_b=2.0)
        rates = np.array([0.25, 0.25, 0.75])
        individual = _scheme(net, FeedbackStyle.INDIVIDUAL)
        assert is_fair(individual, rates)
        aggregate = _scheme(net, FeedbackStyle.AGGREGATE)
        assert not is_fair(aggregate, rates)

    def test_idle_network_trivially_fair(self):
        scheme = _scheme(single_gateway(2))
        assert is_fair(scheme, np.zeros(2))


class TestJainIndex:
    def test_equal_rates_give_one(self):
        assert jain_index([0.3, 0.3, 0.3]) == pytest.approx(1.0)

    def test_monopoly_gives_1_over_n(self):
        assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_all_zero_defined_as_one(self):
        assert jain_index([0.0, 0.0]) == 1.0

    def test_scale_invariant(self):
        r = np.array([0.1, 0.4, 0.2])
        assert jain_index(r) == pytest.approx(jain_index(10 * r))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 12, 100, 1000])
    def test_vector_and_batch_rows_match_scalar_formula(self, n):
        # The scalar formula is the one-vector loop the batch replaced.
        def scalar(row):
            total = float(np.sum(row))
            if total == 0.0:
                return 1.0
            return total * total / (row.shape[0] * float(np.sum(row * row)))

        rng = np.random.default_rng(n)
        rows = rng.uniform(0, 10, (40, n)) * 10.0 ** rng.uniform(-8, 8,
                                                                (40, n))
        rows[0] = 0.0
        want = np.array([scalar(row) for row in rows])
        assert np.array_equal(jain_index(rows), want)
        assert np.array_equal(jain_index(np.asfortranarray(rows)), want)
        assert np.array_equal(jain_index(rows[::-1])[::-1], want)
        for row, expected in zip(rows, want):
            got = jain_index(row)
            assert type(got) is float and got == expected

    def test_tiny_and_huge_rates_score_as_their_scaled_rows(self):
        rows = np.array([[1e-200, 1e-200], [1e-200, 0.0], [5e-324, 0.0],
                         [1e200, 1e200], [1e308, 1e308], [0.3, 0.6]])
        want = [1.0, 0.5, 0.5, 1.0, 1.0, jain_index([0.3, 0.6])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert list(jain_index(rows)) == want
            assert [jain_index(row) for row in rows] == want
            # Squares in the subnormal range keep only a few digits.
            assert jain_index([1e-160, 1.234567e-161]) == pytest.approx(
                jain_index([1.0, 0.1234567]), rel=1e-12)

    def test_empty_vector_and_batch(self):
        assert jain_index([]) == 1.0
        assert jain_index(np.zeros((3, 0))).tolist() == [1.0] * 3
        assert jain_index(np.zeros((0, 4))).shape == (0,)

    @pytest.mark.parametrize("bad", [np.zeros((2, 2, 2)), [[0.1, -0.1]],
                                     [0.1, float("nan")]])
    def test_rejects_what_is_not_a_rate_vector_or_batch(self, bad):
        with pytest.raises(RateVectorError):
            jain_index(bad)


class TestMaxMinAllocation:
    def test_single_gateway(self):
        rates = max_min_allocation(single_gateway(4), {"g0": 1.0})
        assert np.allclose(rates, 0.25)

    def test_parking_lot(self):
        net = parking_lot(2, mu=1.0)
        rates = max_min_allocation(net, {g: 1.0
                                         for g in net.gateway_names})
        assert np.allclose(rates, 0.5)

    def test_bottleneck_ordering(self):
        net = two_gateway_shared()
        rates = max_min_allocation(net, {"ga": 0.4, "gb": 1.0})
        long, a_only, b_only = rates
        assert long == pytest.approx(0.2)
        assert a_only == pytest.approx(0.2)
        assert b_only == pytest.approx(0.8)

    def test_capacity_respected(self):
        net = two_gateway_shared()
        caps = {"ga": 0.3, "gb": 0.9}
        rates = max_min_allocation(net, caps)
        for g in net.gateway_names:
            used = sum(rates[i] for i in net.connections_at(g))
            assert used <= caps[g] + 1e-12

    def test_max_min_property(self):
        # No connection's rate can be raised without lowering that of a
        # connection with an equal-or-smaller rate: every connection
        # crosses a saturated gateway where it has the maximal rate.
        net = two_gateway_shared(mu_a=1.0, mu_b=3.0)
        caps = {"ga": 0.5, "gb": 1.5}
        rates = max_min_allocation(net, caps)
        for i in range(net.num_connections):
            has_tight = False
            for g in net.gamma(i):
                used = sum(rates[j] for j in net.connections_at(g))
                if used >= caps[g] - 1e-9 and \
                        rates[i] >= max(rates[j]
                                        for j in net.connections_at(g)) \
                        - 1e-9:
                    has_tight = True
            assert has_tight, f"connection {i} could be raised"

    def test_missing_capacity(self):
        with pytest.raises(TopologyError):
            max_min_allocation(single_gateway(2), {})

    def test_bad_capacity(self):
        with pytest.raises(RateVectorError):
            max_min_allocation(single_gateway(2), {"g0": 0.0})
