"""Unit tests for congestion signalling."""

import math

import numpy as np
import pytest

from repro.core.fairshare import FairShare
from repro.core.fifo import Fifo
from repro.core.signals import (ExponentialSignal, FeedbackScheme,
                                FeedbackStyle, LinearSaturating,
                                PowerSaturating, SignalFunction,
                                aggregate_congestion,
                                individual_congestion,
                                individual_congestion_batch)
from repro.core.topology import single_gateway, two_gateway_shared
from repro.errors import RateVectorError


class TestSignalFunctions:
    @pytest.fixture(params=["linear", "power", "exponential"])
    def signal(self, request):
        return {"linear": LinearSaturating(),
                "power": PowerSaturating(2.0),
                "exponential": ExponentialSignal(0.7)}[request.param]

    def test_zero_maps_to_zero(self, signal):
        assert signal(0.0) == 0.0

    def test_inf_maps_to_one(self, signal):
        assert signal(math.inf) == 1.0

    def test_monotone(self, signal):
        cs = np.linspace(0, 50, 200)
        bs = [signal(c) for c in cs]
        assert all(b2 >= b1 for b1, b2 in zip(bs, bs[1:]))

    def test_range(self, signal):
        for c in (0.0, 0.3, 1.0, 10.0, 1e6):
            assert 0.0 <= signal(c) <= 1.0

    def test_inverse_roundtrip(self, signal):
        for c in (0.0, 0.4, 1.0, 7.0):
            assert signal.congestion_for(signal(c)) == pytest.approx(c)

    def test_inverse_of_one_is_inf(self, signal):
        assert math.isinf(signal.congestion_for(1.0))

    def test_negative_congestion_rejected(self, signal):
        with pytest.raises(RateVectorError):
            signal(-0.1)

    def test_bad_signal_rejected(self, signal):
        with pytest.raises(RateVectorError):
            signal.congestion_for(1.5)

    def test_apply_batch_matches_scalar_incl_inf(self, signal):
        c = np.array([0.0, 0.5, 3.0, math.inf])
        out = signal.apply_batch(c)
        assert out.shape == c.shape
        assert np.allclose(out[:3], [signal(x) for x in c[:3]],
                           atol=1e-12)
        assert out[3] == 1.0

    @pytest.mark.parametrize("fn", [LinearSaturating(),
                                    PowerSaturating(2.444),
                                    ExponentialSignal(1.3)])
    def test_scalar_is_bit_identical_to_batch(self, fn):
        # Found by the scenario fuzzer: libm pow/exp (the builtin ** and
        # math.exp) disagree with numpy's ufuncs in the last ulp, which
        # let run() and run_ensemble() drift apart under delayed-fault
        # feedback.  The scalar path must reproduce apply_batch exactly.
        cs = np.random.default_rng(3).uniform(0.0, 20.0, 500)
        batch = fn.apply_batch(cs)
        for c, expected in zip(cs, batch):
            assert fn(float(c)) == expected

    def test_apply_batch_empty(self, signal):
        out = signal.apply_batch(np.empty((0,)))
        assert out.shape == (0,)
        out2 = signal.apply_batch(np.empty((0, 3)))
        assert out2.shape == (0, 3)


class _NaiveSignal(SignalFunction):
    """A user subclass whose scalar map would emit inf/inf NaN at
    overload — the base apply_batch must shield it."""

    name = "naive"

    def __call__(self, congestion):
        return congestion / (congestion + 1.0)  # NaN at congestion=inf

    def congestion_for(self, signal):
        return signal / (1.0 - signal)


class TestBaseApplyBatch:
    def test_shields_subclass_from_inf(self):
        out = _NaiveSignal().apply_batch(
            np.array([0.0, 1.0, math.inf]))
        assert np.array_equal(out, [0.0, 0.5, 1.0])
        assert not np.any(np.isnan(out))

    def test_empty_input(self):
        assert _NaiveSignal().apply_batch(np.empty((0,))).shape == (0,)
        assert _NaiveSignal().apply_batch(
            np.empty((2, 0))).shape == (2, 0)

    def test_preserves_shape(self):
        out = _NaiveSignal().apply_batch(np.full((3, 4), 2.0))
        assert out.shape == (3, 4)
        assert np.allclose(out, 2.0 / 3.0)

    def test_overloaded_scheme_signals_stay_finite(self):
        # At rho_total >= 1 every queue is inf; the scheme must emit 1.0
        # (B(inf) = 1), never NaN, for both scalar and batch paths —
        # even with a signal function that cannot handle inf itself.
        scheme = FeedbackScheme(single_gateway(3, mu=1.0), Fifo(),
                                _NaiveSignal(), FeedbackStyle.AGGREGATE)
        rates = np.array([0.5, 0.5, 0.5])
        b = scheme.signals(rates)
        b_batch = scheme.signals_batch(rates[None, :])[0]
        assert np.array_equal(b, np.ones(3))
        assert np.array_equal(b_batch, b)


class TestSpecificForms:
    def test_linear_value(self):
        assert LinearSaturating()(1.0) == pytest.approx(0.5)

    def test_linear_steady_utilisation(self):
        # b = rho at a single gateway: rho_ss(b=0.5) = 0.5.
        assert LinearSaturating().steady_state_utilisation(0.5) == \
            pytest.approx(0.5)

    def test_power_is_rho_squared_at_gateway(self):
        # B(g(rho)) = rho^2 for the power-2 form.
        signal = PowerSaturating(2.0)
        for rho in (0.1, 0.4, 0.8):
            c = rho / (1 - rho)
            assert signal(c) == pytest.approx(rho ** 2)

    def test_power_invalid_exponent(self):
        with pytest.raises(RateVectorError):
            PowerSaturating(0.0)

    def test_exponential_value(self):
        assert ExponentialSignal(1.0)(1.0) == \
            pytest.approx(1 - math.exp(-1))

    def test_exponential_invalid_k(self):
        with pytest.raises(RateVectorError):
            ExponentialSignal(-1.0)


class TestCongestionMeasures:
    def test_aggregate_sum(self):
        assert aggregate_congestion([1.0, 2.0, 0.5]) == pytest.approx(3.5)

    def test_aggregate_inf(self):
        assert math.isinf(aggregate_congestion([1.0, math.inf]))

    def test_individual_formula(self):
        q = np.array([1.0, 3.0, 2.0])
        c = individual_congestion(q)
        assert c[0] == pytest.approx(3.0)   # 1+1+1
        assert c[1] == pytest.approx(6.0)   # 1+3+2 (aggregate)
        assert c[2] == pytest.approx(5.0)   # 1+2+2

    def test_individual_smallest_is_n_qmin(self):
        q = np.array([0.5, 2.0, 4.0])
        c = individual_congestion(q)
        assert c[0] == pytest.approx(3 * 0.5)

    def test_individual_largest_equals_aggregate(self):
        q = np.array([0.5, 2.0, 4.0])
        c = individual_congestion(q)
        assert c[2] == pytest.approx(q.sum())

    def test_individual_with_inf_queue(self):
        q = np.array([1.0, math.inf])
        c = individual_congestion(q)
        assert c[0] == pytest.approx(2.0)  # min(inf, 1) = 1
        assert math.isinf(c[1])

    @pytest.mark.parametrize("n", [64, 256])
    def test_individual_equal_queues_get_one_measure(self, n):
        # Equal queues give equal measures, bit for bit, at every
        # gateway size: here the Fair Share queues of equal rates.
        q = FairShare().queue_lengths(np.full(n, 0.9 / n), 1.0)
        c = individual_congestion(q)
        assert np.unique(c).size == 1
        assert c[0] == pytest.approx(q.sum())
        batch = individual_congestion_batch(np.full((2, n), 0.7))
        assert np.unique(batch).size == 1

    def test_individual_rejects_matrix(self):
        with pytest.raises(RateVectorError):
            individual_congestion(np.zeros((2, 2)))


class TestFeedbackScheme:
    def test_aggregate_same_signal_for_all(self, rates4):
        scheme = FeedbackScheme(single_gateway(4), Fifo(),
                                LinearSaturating(),
                                FeedbackStyle.AGGREGATE)
        b = scheme.signals(rates4)
        assert np.allclose(b, b[0])

    def test_aggregate_signal_is_utilisation(self, rates4):
        # With B(C)=C/(C+1) and C = g(rho): b = rho.
        scheme = FeedbackScheme(single_gateway(4), Fifo(),
                                LinearSaturating(),
                                FeedbackStyle.AGGREGATE)
        b = scheme.signals(rates4)
        assert b[0] == pytest.approx(rates4.sum())

    def test_individual_orders_with_rates(self, rates4):
        scheme = FeedbackScheme(single_gateway(4), FairShare(),
                                LinearSaturating(),
                                FeedbackStyle.INDIVIDUAL)
        b = scheme.signals(rates4)
        order_r = np.argsort(rates4)
        assert np.all(np.diff(b[order_r]) >= -1e-12)

    def test_individual_independent_of_discipline_for_largest(self,
                                                              rates4):
        # For the largest connection C_i equals the aggregate, which is
        # conserved across disciplines.
        big = int(np.argmax(rates4))
        b_fifo = FeedbackScheme(single_gateway(4), Fifo(),
                                LinearSaturating(),
                                FeedbackStyle.INDIVIDUAL).signals(rates4)
        b_fs = FeedbackScheme(single_gateway(4), FairShare(),
                              LinearSaturating(),
                              FeedbackStyle.INDIVIDUAL).signals(rates4)
        assert b_fifo[big] == pytest.approx(b_fs[big])

    def test_bottleneck_is_max_over_path(self):
        net = two_gateway_shared(mu_a=0.5, mu_b=5.0)
        scheme = FeedbackScheme(net, Fifo(), LinearSaturating(),
                                FeedbackStyle.AGGREGATE)
        rates = np.array([0.2, 0.2, 0.2])
        local = scheme.local_signals(rates)
        b = scheme.signals(rates)
        # 'long' (conn 0) crosses both; ga is far more loaded.
        assert b[0] == pytest.approx(float(np.max(local["ga"])))
        assert b[0] > float(local["gb"][0])

    def test_bottlenecks_reported(self):
        net = two_gateway_shared(mu_a=0.5, mu_b=5.0)
        scheme = FeedbackScheme(net, Fifo(), LinearSaturating(),
                                FeedbackStyle.AGGREGATE)
        bn = scheme.bottlenecks(np.array([0.2, 0.2, 0.2]))
        assert bn[0] == ("ga",)
        assert bn[1] == ("ga",)
        assert bn[2] == ("gb",)

    def test_zero_signal_is_no_bottleneck(self):
        scheme = FeedbackScheme(single_gateway(2), Fifo(),
                                LinearSaturating(),
                                FeedbackStyle.AGGREGATE)
        bn = scheme.bottlenecks(np.array([0.0, 0.0]))
        assert bn[0] == ()
