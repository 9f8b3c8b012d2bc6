"""Unit tests for the rate-adjustment rules and the TSI predicate."""

import math

import numpy as np
import pytest

from repro.core.ratecontrol import (BinaryAimdRule, DecbitRateRule,
                                    DecbitWindowRule,
                                    ProportionalTargetRule, RateAdjustment,
                                    RcpSourceRule, TargetRule, TcpLikeRule,
                                    tsi_target, verify_tsi)
from repro.errors import NotTimeScaleInvariantError, RateVectorError


class TestTargetRule:
    def test_sign(self):
        rule = TargetRule(eta=0.1, beta=0.5)
        assert rule.delta(1.0, 0.4, 1.0) > 0
        assert rule.delta(1.0, 0.6, 1.0) < 0
        assert rule.delta(1.0, 0.5, 1.0) == 0.0

    def test_independent_of_rate_and_delay(self):
        rule = TargetRule(eta=0.1, beta=0.5)
        assert rule.delta(0.1, 0.3, 1.0) == rule.delta(99.0, 0.3, 77.0)

    def test_apply_truncates(self):
        rule = TargetRule(eta=10.0, beta=0.1)
        assert rule.apply(0.0, 1.0, 1.0) == 0.0

    def test_validation(self):
        with pytest.raises(RateVectorError):
            TargetRule(eta=-1.0)
        with pytest.raises(RateVectorError):
            TargetRule(beta=1.0)

    def test_declared_target(self):
        assert TargetRule(beta=0.3).declared_target == 0.3


class TestProportionalTargetRule:
    def test_scales_with_rate(self):
        rule = ProportionalTargetRule(eta=0.5, beta=0.5)
        assert rule.delta(2.0, 0.4, 1.0) == \
            pytest.approx(2 * rule.delta(1.0, 0.4, 1.0))

    def test_zero_rate_absorbing(self):
        rule = ProportionalTargetRule()
        assert rule.apply(0.0, 0.1, 1.0) == 0.0


class TestDecbitRules:
    def test_window_rule_latency_sensitivity(self):
        rule = DecbitWindowRule(eta=0.1, beta=0.5)
        fast = rule.delta(0.1, 0.2, 0.5)
        slow = rule.delta(0.1, 0.2, 5.0)
        assert fast > slow  # long RTT grows more slowly

    def test_window_rule_infinite_delay(self):
        rule = DecbitWindowRule()
        assert rule.delta(1.0, 0.5, math.inf) < 0

    def test_window_rule_bad_delay(self):
        with pytest.raises(RateVectorError):
            DecbitWindowRule().delta(1.0, 0.5, 0.0)

    def test_rate_rule_steady_rate(self):
        rule = DecbitRateRule(eta=0.05, beta=0.5)
        b = 0.4
        r = rule.steady_rate(b)
        assert rule.delta(r, b, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_rate_rule_steady_rate_at_zero_signal(self):
        assert math.isinf(DecbitRateRule().steady_rate(0.0))


class TestBinaryAimd:
    def test_increase_below_threshold(self):
        rule = BinaryAimdRule(increase=0.01, decrease=0.5, threshold=0.5)
        assert rule.delta(1.0, 0.2, 1.0) == pytest.approx(0.01)

    def test_decrease_above_threshold(self):
        rule = BinaryAimdRule(increase=0.01, decrease=0.5, threshold=0.5)
        assert rule.delta(1.0, 0.9, 1.0) == pytest.approx(-0.5)

    def test_never_zero(self):
        rule = BinaryAimdRule()
        for b in (0.0, 0.49, 0.51, 1.0):
            assert rule.delta(1.0, b, 1.0) != 0.0

    def test_validation(self):
        with pytest.raises(RateVectorError):
            BinaryAimdRule(decrease=1.5)


class TestTsiPredicate:
    def test_target_rule_is_tsi(self):
        assert verify_tsi(TargetRule(eta=0.1, beta=0.5)) == \
            pytest.approx(0.5, abs=1e-6)

    def test_proportional_rule_is_tsi(self):
        assert verify_tsi(ProportionalTargetRule(beta=0.3)) == \
            pytest.approx(0.3, abs=1e-6)

    def test_decbit_rate_rule_not_tsi(self):
        # Its zero depends on r: different (r, d) give different roots.
        assert verify_tsi(DecbitRateRule()) is None

    def test_decbit_window_rule_not_tsi(self):
        assert verify_tsi(DecbitWindowRule()) is None

    def test_tsi_target_uses_declaration(self):
        assert tsi_target(TargetRule(beta=0.7)) == 0.7

    def test_tsi_target_raises_for_non_tsi(self):
        with pytest.raises(NotTimeScaleInvariantError):
            tsi_target(DecbitRateRule())

    def test_theorem1_condition2_rule_with_flat_region_rejected(self):
        # A rule vanishing on an interval of b violates condition (2).
        class Flat(TargetRule):
            declared_target = None

            def delta(self, rate, signal, delay):
                if 0.4 <= signal <= 0.6:
                    return 0.0
                return super().delta(rate, signal, delay)

        assert verify_tsi(Flat(eta=0.1, beta=0.5)) is None


class TestTcpLikeRule:
    def test_increase_scales_inversely_with_delay(self):
        rule = TcpLikeRule(increase=0.05, decrease=0.125, threshold=0.5)
        assert rule.delta(1.0, 0.2, 1.0) == pytest.approx(0.05)
        assert rule.delta(1.0, 0.2, 5.0) == pytest.approx(0.01)

    def test_decrease_is_multiplicative(self):
        rule = TcpLikeRule(increase=0.05, decrease=0.125, threshold=0.5)
        assert rule.delta(2.0, 0.9, 1.0) == pytest.approx(-0.25)
        assert rule.delta(4.0, 0.9, 1.0) == pytest.approx(-0.5)

    def test_never_zero_at_positive_rate(self):
        rule = TcpLikeRule()
        for b in (0.0, 0.49, 0.51, 1.0):
            assert rule.delta(1.0, b, 2.0) != 0.0

    def test_infinite_delay_stalls_the_increase(self):
        rule = TcpLikeRule(threshold=0.5)
        assert rule.delta(1.0, 0.2, math.inf) == 0.0

    def test_nonpositive_delay_rejected(self):
        rule = TcpLikeRule()
        with pytest.raises(RateVectorError):
            rule.delta(1.0, 0.2, 0.0)
        with pytest.raises(RateVectorError):
            rule.delta(1.0, 0.2, -1.0)

    def test_batch_matches_scalar(self):
        rule = TcpLikeRule(increase=0.03, decrease=0.2, threshold=0.45)
        r = np.array([0.5, 1.0, 2.0, 4.0])
        b = np.array([0.1, 0.44, 0.45, 0.9])
        d = np.array([0.5, 1.0, 2.0, np.inf])
        batch = rule.delta_batch(r, b, d)
        for k in range(4):
            assert batch[k] == rule.delta(float(r[k]), float(b[k]),
                                          float(d[k]))

    def test_batch_rejects_nonpositive_delay(self):
        rule = TcpLikeRule()
        with pytest.raises(RateVectorError):
            rule.delta_batch(np.ones(3), np.zeros(3),
                             np.array([1.0, 0.0, 2.0]))

    def test_validation(self):
        with pytest.raises(RateVectorError):
            TcpLikeRule(increase=0.0)
        with pytest.raises(RateVectorError):
            TcpLikeRule(decrease=1.5)
        with pytest.raises(RateVectorError):
            TcpLikeRule(threshold=1.0)

    def test_not_tsi(self):
        # f = eta/d never vanishes below the threshold, so there is no
        # rate-independent root b_ss: Theorem 1 does not apply.
        assert verify_tsi(TcpLikeRule()) is None
        with pytest.raises(NotTimeScaleInvariantError):
            tsi_target(TcpLikeRule())


class TestRcpSourceRule:
    def test_delta_is_identically_zero(self):
        rule = RcpSourceRule()
        assert rule.delta(1.0, 0.9, 2.0) == 0.0

    def test_delta_batch_broadcasts_zeros(self):
        rule = RcpSourceRule()
        out = rule.delta_batch(np.ones((2, 3)), 0.5, np.ones(3))
        assert out.shape == (2, 3)
        assert not out.any()


class TestDiscontinuousRulesNotTsi:
    """Regression: brentq's pseudo-root at a jump used to let the TSI
    verifier certify binary AIMD (and tcp-like) as TSI with the
    threshold as target."""

    def test_binary_aimd_not_tsi(self):
        assert verify_tsi(BinaryAimdRule()) is None

    def test_binary_aimd_tsi_target_raises(self):
        with pytest.raises(NotTimeScaleInvariantError):
            tsi_target(BinaryAimdRule())


class TestTsiTargetValidatesDeclaration:
    """Regression: ``tsi_target`` used to return ``declared_target``
    without checking it numerically."""

    def test_mislabelled_non_tsi_rule_rejected(self):
        class Mislabelled(BinaryAimdRule):
            declared_target = 0.5

        with pytest.raises(NotTimeScaleInvariantError):
            tsi_target(Mislabelled())

    def test_wrong_declared_value_rejected(self):
        rule = TargetRule(eta=0.1, beta=0.5)
        rule.declared_target = 0.3  # claim contradicts the dynamics
        with pytest.raises(NotTimeScaleInvariantError):
            tsi_target(rule)

    def test_honest_declaration_validated_and_returned(self):
        assert tsi_target(TargetRule(eta=0.1, beta=0.5)) == 0.5


class TestBaseDeltaBatchFallback:
    """The base (loop) ``delta_batch`` must accept exactly the input
    shapes the vectorised overrides accept."""

    class ScalarOnly(TargetRule):
        # Force the scalar-loop fallback.
        delta_batch = RateAdjustment.delta_batch

    def rule(self):
        return self.ScalarOnly(eta=0.1, beta=0.5)

    def test_broadcasts_mixed_scalar_and_vector(self):
        rule = self.rule()
        out = rule.delta_batch(np.ones(4), np.linspace(0, 1, 4), 2.0)
        expected = [rule.delta(1.0, float(b), 2.0)
                    for b in np.linspace(0, 1, 4)]
        assert np.array_equal(out, expected)

    def test_zero_dim_inputs(self):
        rule = self.rule()
        out = rule.delta_batch(np.float64(1.0), np.float64(0.3),
                               np.float64(1.0))
        assert float(out) == rule.delta(1.0, 0.3, 1.0)

    def test_empty_inputs(self):
        out = self.rule().delta_batch(np.empty(0), np.empty(0),
                                      np.empty(0))
        assert out.shape == (0,)

    def test_an_overridden_delta_reaches_the_batch_path(self):
        # A subclass overriding delta alone used to inherit its parent's
        # vectorised law on every batch path.
        class Doubled(TargetRule):
            def delta(self, rate, signal, delay):
                return 2.0 * super().delta(rate, signal, delay)

        rule = Doubled(eta=0.1, beta=0.5)
        b = np.linspace(0, 1, 4)
        assert np.array_equal(rule.delta_batch(np.ones(4), b, None),
                              [rule.delta(1.0, float(x), None) for x in b])

    def test_non_contiguous_inputs(self):
        rule = self.rule()
        r = np.arange(8.0)[::2]
        b = np.linspace(0, 1, 8)[::2]
        d = np.ones(8)[::2]
        out = rule.delta_batch(r, b, d)
        expected = [rule.delta(float(r[k]), float(b[k]), float(d[k]))
                    for k in range(4)]
        assert np.array_equal(out, expected)

    def test_matches_vectorised_override(self):
        fallback = self.rule()
        vectorised = TargetRule(eta=0.1, beta=0.5)
        b = np.linspace(0, 1, 7)
        assert np.array_equal(
            fallback.delta_batch(np.ones(7), b, np.ones(7)),
            np.broadcast_to(
                vectorised.delta_batch(np.ones(7), b, np.ones(7)), (7,)))
