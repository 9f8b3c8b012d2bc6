"""Unit tests for the weighted Fair Share extension."""

import math

import numpy as np
import pytest

from repro.core.dynamics import FlowControlSystem
from repro.core.fairness import max_min_allocation
from repro.core.fairshare import FairShare
from repro.core.math_utils import g
from repro.core.ratecontrol import TargetRule
from repro.core.signals import (LinearSaturating, individual_congestion,
                                weighted_individual_congestion)
from repro.core.topology import single_gateway, two_gateway_shared
from repro.core.weighted import (WeightedFairShare,
                                 weighted_fair_share_queues_recursive,
                                 weighted_max_min_allocation,
                                 weighted_reservation_floor)
from repro.errors import RateVectorError, TopologyError


def weighted_batch(n, seed, m=6):
    """Seeded ``(rates, weights)``: weights with ties, rows with tied
    normalised rates (dyadic, so ``r / phi`` ties exactly), zero
    rates and an overloaded row."""
    rng = np.random.default_rng(seed)
    phi = rng.choice([0.5, 1.0, 2.0, 3.0, 4.0], size=n)
    rates = rng.uniform(0.0, 0.9 / n, size=(m, n))
    rates[1] = phi * rng.integers(0, 4, size=n) / (8.0 * n)
    rates[2, : n // 3 + 1] = 0.0
    rates[3] = 1.6 / n
    return rates, phi


class TestWeightedQueueLaw:
    def test_equal_weights_reduce_to_fair_share(self):
        for n in (4, 64, 100):
            rates, _ = weighted_batch(n, seed=n)
            rates[4] = 0.9 / n             # equal rates: one tie run
            wfs = WeightedFairShare(np.ones(n))
            assert np.array_equal(
                wfs.queue_lengths_batch(rates, 1.0),
                FairShare().queue_lengths_batch(rates, 1.0)), n
            for row in rates:
                assert np.array_equal(wfs.queue_lengths(row, 1.0),
                                      FairShare().queue_lengths(row, 1.0))

    def test_total_conserved(self, rates4):
        wfs = WeightedFairShare([1.0, 2.0, 0.5, 3.0])
        total = wfs.total_queue(rates4, 1.0)
        assert total == pytest.approx(g(rates4.sum()))

    def test_weight_proportional_split_at_proportional_rates(self):
        # Rates proportional to weights -> one priority class -> queues
        # split in proportion to weights.
        phi = np.array([1.0, 2.0, 3.0])
        r = 0.1 * phi
        q = WeightedFairShare(phi).queue_lengths(r, 1.0)
        assert np.allclose(q / phi, q[0] / phi[0])
        assert q.sum() == pytest.approx(g(r.sum()))

    def test_triangular_in_normalised_rates(self):
        phi = np.array([1.0, 2.0, 1.0])
        r = np.array([0.1, 0.1, 0.3])     # v = (0.1, 0.05, 0.3)
        q1 = WeightedFairShare(phi).queue_lengths(r, 1.0)
        bumped = r.copy()
        bumped[2] += 0.1                   # largest v grows
        q2 = WeightedFairShare(phi).queue_lengths(bumped, 1.0)
        assert np.allclose(q1[:2], q2[:2])

    def test_weighted_theorem5_bound(self):
        rng = np.random.default_rng(3)
        phi = np.array([1.0, 2.0, 4.0])
        big_phi = phi.sum()
        for _ in range(50):
            r = rng.uniform(0.0, 0.25, 3)
            q = WeightedFairShare(phi).queue_lengths(r, 1.0)
            denom = 1.0 - (big_phi / phi) * r
            for i in range(3):
                if denom[i] <= 0:
                    continue
                bound = r[i] / denom[i]
                assert q[i] <= bound + 1e-9

    def test_small_heavy_weight_isolated_from_overload(self):
        phi = np.array([4.0, 1.0])
        # conn 0: v = 0.025; conn 1 hogs: v = 1.2.
        q = WeightedFairShare(phi).queue_lengths([0.1, 1.2], 1.0)
        assert np.isfinite(q[0])
        assert math.isinf(q[1])

    def test_zero_rate_zero_queue(self):
        q = WeightedFairShare([1.0, 2.0]).queue_lengths([0.0, 0.3], 1.0)
        assert q[0] == 0.0

    def test_validation(self):
        with pytest.raises(RateVectorError):
            WeightedFairShare([1.0, -1.0])
        with pytest.raises(RateVectorError):
            WeightedFairShare([1.0, 2.0]).queue_lengths([0.1], 1.0)

    def test_weights_copy(self):
        wfs = WeightedFairShare([1.0, 2.0])
        w = wfs.weights
        w[0] = 99.0
        assert wfs.weights[0] == 1.0

    def test_batch_rows_equal_scalar_calls(self):
        rates, phi = weighted_batch(9, seed=5)
        wfs = WeightedFairShare(phi)
        batch = wfs.queue_lengths_batch(rates, 1.0)
        for row, want in zip(rates, batch):
            assert np.array_equal(wfs.queue_lengths(row, 1.0), want)
        with pytest.raises(RateVectorError):
            wfs.queue_lengths_batch(rates[:, :4], 1.0)


class TestWeightedKernelAgainstTheory:
    """The batch kernel against the weighted law's closed forms and
    against the plain class-by-class law, which shares no code with
    it."""

    NS = [3, 17, 64, 257]

    @pytest.mark.parametrize("n", NS)
    def test_conservation(self, n):
        rates, phi = weighted_batch(n, seed=n)
        q = WeightedFairShare(phi).queue_lengths_batch(rates, 1.0)
        for row, qm in zip(rates, q):
            rho = float(np.sum(row))
            if rho < 1.0:
                assert np.sum(qm) == pytest.approx(g(rho), rel=1e-12)
            else:
                assert np.isinf(qm).any()

    @pytest.mark.parametrize("n", NS)
    def test_weighted_theorem5_bound(self, n):
        rates, phi = weighted_batch(n, seed=n + 1)
        q = WeightedFairShare(phi).queue_lengths_batch(rates, 1.0)
        ratio = phi.sum() / phi
        checked = 0
        for row, qm in zip(rates, q):
            denom = 1.0 - ratio * row
            ok = denom > 0
            bound = row[ok] / denom[ok]
            assert np.all(qm[ok] <= bound * (1 + 1e-12) + 1e-300)
            checked += int(ok.sum())
        assert checked > 0

    @pytest.mark.parametrize("n", NS)
    def test_agrees_with_the_plain_law(self, n):
        rates, phi = weighted_batch(n, seed=n + 2)
        q = WeightedFairShare(phi).queue_lengths_batch(rates, 1.0)
        for row, qm in zip(rates, q):
            want = weighted_fair_share_queues_recursive(row, phi, 1.0)
            assert np.array_equal(np.isinf(qm), np.isinf(want))
            fin = np.isfinite(want)
            assert np.allclose(qm[fin], want[fin], rtol=1e-12, atol=0)

    def test_overflowing_normalised_rate(self):
        # r / phi overflows to inf for a subnormal weight; the top run
        # has no weight above it, so the kernel adds no inf * 0 cap.
        phi = np.array([1.0, 1e-310])
        rates = np.array([[0.1, 0.05]])
        with np.errstate(over="ignore"):
            want = weighted_fair_share_queues_recursive(rates[0], phi,
                                                        1000.0)
        assert np.all(np.isfinite(want))
        got = WeightedFairShare(phi).queue_lengths_batch(rates, 1000.0)
        assert np.allclose(got[0], want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("s", [1e-15, 1e-8, 1.0, 1e8])
    @pytest.mark.parametrize("law", ["kernel", "plain"])
    def test_time_scale_invariance(self, s, law):
        # Q(s r, s mu) = Q(r, mu).  Ties between normalised rates are
        # exact: an absolute tie tolerance merged the classes of
        # (1, 2, 1)-weighted rates (0.1, 0.2, 0.3) at s = 1e-15, and a
        # near tie at s = 1e-8.
        cases = [([1.0, 2.0, 1.0], [0.1, 0.2, 0.3]),
                 ([1.0, 1.0, 2.0], [0.1, 0.1 + 5e-8, 0.3])]
        for phi, rates in cases:
            def queues(r, mu):
                if law == "kernel":
                    return WeightedFairShare(phi).queue_lengths(r, mu)
                return weighted_fair_share_queues_recursive(r, phi, mu)
            want = queues(np.array(rates), 1.0)
            got = queues(s * np.array(rates), s)
            assert np.allclose(got, want, rtol=1e-12, atol=0), (phi, s)


class TestWeightedSystem:
    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
    def test_bad_weights_rejected_at_construction(self, bad):
        with pytest.raises(RateVectorError, match="finite and positive"):
            FlowControlSystem(single_gateway(3), WeightedFairShare(
                [1.0, 1.0, 1.0]), LinearSaturating(),
                TargetRule(eta=0.1, beta=0.5), weights=[bad, 1.0, 1.0])

    def test_wrong_weight_count_rejected(self):
        with pytest.raises(RateVectorError):
            FlowControlSystem(single_gateway(3), FairShare(),
                              LinearSaturating(),
                              TargetRule(eta=0.1, beta=0.5),
                              weights=[1.0, 1.0])


class TestWeightedCongestion:
    def test_reduces_to_unweighted(self):
        q = np.array([0.5, 1.5, 3.0])
        assert np.allclose(
            weighted_individual_congestion(q, np.ones(3)),
            individual_congestion(q))

    def test_largest_equals_aggregate(self):
        q = np.array([0.5, 1.5, 3.0])
        phi = np.array([1.0, 1.0, 1.0])
        c = weighted_individual_congestion(q, phi)
        assert c[2] == pytest.approx(q.sum())

    def test_smallest_is_weight_scaled(self):
        # C_min = Phi * Q_min / phi_min when all others are larger
        # per-weight.
        q = np.array([0.2, 5.0, 5.0])
        phi = np.array([2.0, 1.0, 1.0])
        c = weighted_individual_congestion(q, phi)
        assert c[0] == pytest.approx(phi.sum() * q[0] / phi[0])

    def test_validation(self):
        with pytest.raises(RateVectorError):
            weighted_individual_congestion([1.0, 2.0], [1.0])
        with pytest.raises(RateVectorError):
            weighted_individual_congestion([1.0], [0.0])


class TestWeightedAllocation:
    def test_single_gateway_proportional(self):
        net = single_gateway(3, mu=1.0)
        rates = weighted_max_min_allocation(net, {"g0": 0.6},
                                            [1.0, 2.0, 3.0])
        assert np.allclose(rates, [0.1, 0.2, 0.3])

    def test_equal_weights_match_unweighted(self):
        net = two_gateway_shared(mu_a=1.0, mu_b=2.0)
        caps = {"ga": 0.5, "gb": 1.0}
        weighted = weighted_max_min_allocation(net, caps, np.ones(3))
        plain = max_min_allocation(net, caps)
        assert np.allclose(weighted, plain)

    def test_multi_gateway_weighted_bottleneck(self):
        net = two_gateway_shared(mu_a=1.0, mu_b=2.0)
        # long has weight 3 at ga against a_only's 1: gets 3/4 of ga.
        rates = weighted_max_min_allocation(
            net, {"ga": 0.4, "gb": 1.0}, [3.0, 1.0, 1.0])
        assert rates[0] == pytest.approx(0.3)
        assert rates[1] == pytest.approx(0.1)
        assert rates[2] == pytest.approx(0.7)

    def test_capacity_respected(self):
        net = two_gateway_shared()
        caps = {"ga": 0.5, "gb": 0.8}
        rates = weighted_max_min_allocation(net, caps, [1.0, 5.0, 2.0])
        for gname in net.gateway_names:
            used = sum(rates[i] for i in net.connections_at(gname))
            assert used <= caps[gname] + 1e-9

    def test_missing_capacity(self):
        with pytest.raises(TopologyError):
            weighted_max_min_allocation(single_gateway(2), {}, [1.0, 1.0])

    def test_bad_weights(self):
        with pytest.raises(RateVectorError):
            weighted_max_min_allocation(single_gateway(2), {"g0": 1.0},
                                        [1.0])


class TestWeightedFloor:
    def test_single_gateway(self):
        net = single_gateway(2, mu=1.0)
        floor = weighted_reservation_floor(net, 0.5, [1.0, 3.0])
        assert floor[0] == pytest.approx(0.5 * 0.25)
        assert floor[1] == pytest.approx(0.5 * 0.75)

    def test_equal_weights_match_unweighted(self):
        from repro.core.robustness import reservation_floor
        net = two_gateway_shared(mu_a=1.0, mu_b=2.0)
        assert np.allclose(
            weighted_reservation_floor(net, 0.5, np.ones(3)),
            reservation_floor(net, 0.5))

    def test_invalid_rho(self):
        with pytest.raises(RateVectorError):
            weighted_reservation_floor(single_gateway(2), 1.2, [1.0, 1.0])
