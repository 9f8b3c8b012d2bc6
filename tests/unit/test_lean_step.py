"""A step costs only its arithmetic.

The runners validate their initial state once and then step validated
arrays; the observe stage computes delays only when some rule reads
them (``RateAdjustment.reads_delay``); and the merged divergence/scale
reduction in ``run`` still stops at the first NaN, ``+inf`` or
runaway rate.
"""

import math

import numpy as np
import pytest

import repro.core.math_utils as math_utils
from repro.backends import _cext, compiled
from repro.chaos import (BlasterRule, CapacityDegradation, GatewayBlackhole,
                         StructuralFaultPlan)
from repro.core.asynchronous import (AsynchronousRunner, BernoulliSchedule,
                                     run_async_ensemble)
from repro.core.delays import round_trip_delays_batch
from repro.core.dynamics import FlowControlSystem, Outcome
from repro.core.fairshare import FairShare
from repro.core.fifo import Fifo
from repro.core.ratecontrol import (BinaryAimdRule, DecbitRateRule,
                                    DecbitWindowRule, ProportionalTargetRule,
                                    RateAdjustment, RcpSourceRule,
                                    TargetRule, TcpLikeRule)
from repro.core.rcp import RcpController
from repro.core.signals import FeedbackStyle, LinearSaturating
from repro.core.topology import parking_lot, single_gateway
from repro.faults import FaultPlan, SignalLoss

SIGNAL = LinearSaturating()
IND = FeedbackStyle.INDIVIDUAL


def _mixed(net, rules):
    return FlowControlSystem(
        net, Fifo(), SIGNAL,
        [rules[i % len(rules)] for i in range(net.num_connections)],
        style=IND)


class _Recording(RateAdjustment):
    """An undeclared custom rule: it inherits ``reads_delay = True``
    and records the delays it is handed."""

    def __init__(self):
        self.seen = []

    def delta(self, rate, signal, delay):
        return 0.01 * (0.5 - signal)

    def delta_batch(self, rates, signals, delays):
        self.seen.append(np.array(delays, dtype=float))
        return 0.01 * (0.5 - np.asarray(signals, dtype=float))


class TestValidateOncePerRun:
    """``validate_rates`` runs once per runner call, not once per step."""

    @pytest.fixture
    def validations(self, monkeypatch):
        calls = []
        orig = math_utils.validate_rates

        def counting(vec):
            calls.append(np.shape(vec))
            return orig(vec)

        monkeypatch.setattr(math_utils, "validate_rates", counting)
        return calls

    def _system(self):
        return _mixed(parking_lot(3, cross_per_hop=2),
                      (TargetRule(eta=0.05, beta=0.5), TcpLikeRule()))

    @pytest.mark.parametrize("max_steps", [3, 40])
    def test_run(self, validations, max_steps):
        system = self._system()
        x0 = np.full(system.network.num_connections, 0.05)
        assert system.run(x0, max_steps=max_steps, tol=0.0).steps == \
            max_steps
        assert len(validations) == 1

    @pytest.mark.parametrize("max_steps", [3, 40])
    def test_run_with_faults_and_structural_plan(self, validations,
                                                 max_steps):
        system = self._system()
        names = system.network.gateway_names
        faults = FaultPlan((SignalLoss(rate=0.3),), seed=1)
        structural = StructuralFaultPlan(
            (CapacityDegradation(names[0], factor=0.5, start=1,
                                 duration=10),
             GatewayBlackhole(names[1], start=2, duration=3)), seed=1)
        x0 = np.full(system.network.num_connections, 0.05)
        traj = system.run(x0, max_steps=max_steps, tol=0.0, faults=faults,
                          structural=structural)
        assert traj.steps == max_steps
        assert len(validations) == 1

    @pytest.mark.parametrize("max_steps", [3, 40])
    def test_run_ensemble(self, validations, max_steps):
        system = self._system()
        x0 = np.full((4, system.network.num_connections), 0.05)
        ens = system.run_ensemble(x0, max_steps=max_steps, tol=0.0,
                                  block_size=2)
        assert list(ens.steps) == [max_steps] * 4
        assert len(validations) == 1

    @pytest.mark.parametrize("max_steps", [3, 40])
    def test_run_async_ensemble(self, validations, max_steps):
        system = self._system()
        x0 = np.full((4, system.network.num_connections), 0.05)
        ens = run_async_ensemble(system, x0,
                                 schedule=BernoulliSchedule(0.5, seed=2),
                                 signal_delay=1, max_steps=max_steps,
                                 tol=0.0)
        assert list(ens.steps) == [max_steps] * 4
        assert len(validations) == 1

    @pytest.mark.parametrize("max_steps", [3, 40])
    def test_controlled_runs(self, validations, max_steps):
        net = parking_lot(3)
        system = FlowControlSystem(
            net, Fifo(), SIGNAL, RcpSourceRule(), style=IND,
            controller=RcpController(alpha=0.5, beta=0.05))
        x0 = np.full((3, net.num_connections), 0.05)
        system.run(x0[0], max_steps=max_steps, tol=0.0)
        assert len(validations) == 1
        system.run_ensemble(x0, max_steps=max_steps, tol=0.0)
        assert len(validations) == 2


class _StepPaths:
    STEPS = 6

    def _start(self, system, m=3):
        x0 = np.full((m, system.network.num_connections), 0.05)
        x0[0, 0] = 0.0  # a zero rate would need the probe delay
        return x0

    def _exercise(self, system):
        """Every batched step path, ``STEPS`` steps each."""
        x0 = self._start(system)
        system.step(x0[0])
        system.step_batch(x0)
        system.run(x0[0], max_steps=self.STEPS, tol=0.0)
        system.run_ensemble(x0, max_steps=self.STEPS, tol=0.0)
        run_async_ensemble(system, x0, schedule=BernoulliSchedule(0.5),
                           signal_delay=1, max_steps=self.STEPS, tol=0.0)
        return 2 + 3 * self.STEPS  # steps taken over all paths


class TestDelaysOnlyWhenRead(_StepPaths):
    """Sojourns (and the zero-rate probe) are computed only when some
    rule of the system reads the delay.  Counted on the numpy loop,
    with the C tier masked."""

    @pytest.fixture
    def sojourns(self, monkeypatch):
        monkeypatch.setattr(_cext, "load", lambda: None)
        calls = []
        orig = Fifo.sojourns_batch

        def counting(self, rates, queues, mu):
            calls.append(rates.shape)
            return orig(self, rates, queues, mu)

        monkeypatch.setattr(Fifo, "sojourns_batch", counting)
        return calls

    def test_declarations(self):
        for rule in (TargetRule(), ProportionalTargetRule(),
                     DecbitRateRule(), BinaryAimdRule(), RcpSourceRule(),
                     BlasterRule()):
            assert rule.reads_delay is False, rule
        for rule in (TcpLikeRule(), DecbitWindowRule(), _Recording()):
            assert rule.reads_delay is True, rule

    def test_never_computed_when_no_rule_reads_them(self, sojourns):
        system = _mixed(parking_lot(3, cross_per_hop=2),
                        (TargetRule(eta=0.05, beta=0.5),
                         ProportionalTargetRule(eta=0.2, beta=0.5),
                         DecbitRateRule(), BinaryAimdRule(),
                         BlasterRule(cap=0.2)))
        self._exercise(system)
        assert sojourns == []

    @pytest.mark.parametrize("reader", [TcpLikeRule, DecbitWindowRule,
                                        _Recording],
                             ids=["tcp-like", "decbit-window", "custom"])
    def test_once_per_gateway_per_step_when_read(self, sojourns, reader):
        system = _mixed(parking_lot(3, cross_per_hop=2),
                        (TargetRule(eta=0.05, beta=0.5), reader()))
        steps = self._exercise(system)
        assert len(sojourns) == steps * system.network.num_gateways

    def test_custom_rule_receives_the_round_trip_delays(self):
        net = parking_lot(3, cross_per_hop=2)
        rule = _Recording()
        system = FlowControlSystem(net, FairShare(), SIGNAL, rule,
                                   style=IND)
        x0 = self._start(system, m=4)
        system.step_batch(x0)
        assert np.array_equal(rule.seen[-1],
                              round_trip_delays_batch(net, FairShare(), x0))

    def test_misdeclared_rule_fails_loudly(self):
        class Misdeclared(RateAdjustment):
            reads_delay = False

            def delta(self, rate, signal, delay):
                return 0.1 / delay

        system = FlowControlSystem(single_gateway(3), Fifo(), SIGNAL,
                                   Misdeclared(), style=IND)
        with pytest.raises(TypeError):
            system.step(np.full(3, 0.1))

    def test_asynchronous_runner_still_observes_delays(self, sojourns):
        # The per-connection reference of async-batch-equivalence keeps
        # the full observe stage.
        system = _mixed(single_gateway(3), (TargetRule(eta=0.05),))
        AsynchronousRunner(system).run(np.full(3, 0.1),
                                       max_steps=self.STEPS, tol=0.0)
        assert len(sojourns) == self.STEPS


@pytest.mark.skipif(not compiled.fs_available(),
                    reason="no compiled observe kernel in this environment")
class TestDelaysRequestedOnlyWhenRead(_StepPaths):
    """The C-path twins: one observe kernel call per step, which asks
    for the delays exactly when some rule reads them."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []
        orig = compiled.observe_batch

        def counting(rates, plan, with_delays):
            calls.append(with_delays)
            out = orig(rates, plan, with_delays)
            assert out is not None
            return out

        monkeypatch.setattr(compiled, "observe_batch", counting)
        return calls

    def test_never_requested_when_no_rule_reads_them(self, kernel_calls):
        system = _mixed(parking_lot(3, cross_per_hop=2),
                        (TargetRule(eta=0.05, beta=0.5),
                         ProportionalTargetRule(eta=0.2, beta=0.5),
                         DecbitRateRule(), BinaryAimdRule(),
                         BlasterRule(cap=0.2)))
        steps = self._exercise(system)
        assert kernel_calls == [False] * steps

    @pytest.fixture
    def loop_calls(self, monkeypatch):
        calls = []
        orig = compiled.ensemble_loop

        def counting(*args, **kwargs):
            calls.append(args[6])  # with_delays
            return orig(*args, **kwargs)

        monkeypatch.setattr(compiled, "ensemble_loop", counting)
        return calls

    @pytest.mark.parametrize("reader", [TcpLikeRule, DecbitWindowRule,
                                        _Recording],
                             ids=["tcp-like", "decbit-window", "custom"])
    def test_requested_every_step_when_read(self, kernel_calls, loop_calls,
                                            reader):
        system = _mixed(parking_lot(3, cross_per_hop=2),
                        (TargetRule(eta=0.05, beta=0.5), reader()))
        steps = self._exercise(system)
        # The built-in readers' run and ensemble legs are one compiled
        # ensemble loop call each, which asks for the delays for all
        # its steps; a custom rule's legs step through the observe
        # kernel.
        if reader is _Recording:
            assert loop_calls == []
            assert kernel_calls == [True] * steps
        else:
            assert loop_calls == [True] * 3
            assert kernel_calls == [True] * (steps - 3 * self.STEPS)

    def test_asynchronous_runner_still_requests_delays(self, kernel_calls):
        system = _mixed(single_gateway(3), (TargetRule(eta=0.05),))
        AsynchronousRunner(system).run(np.full(3, 0.1),
                                       max_steps=self.STEPS, tol=0.0)
        assert kernel_calls == [True] * self.STEPS


class _Runaway(RateAdjustment):
    """``f = r`` (the rate doubles) until the rate exceeds 8, then
    ``f = bad``."""

    reads_delay = False

    def __init__(self, bad):
        self.bad = bad

    def delta(self, rate, signal, delay):
        return self.bad if rate > 8.0 else rate


def _first_divergence(rule, x0, limit, max_steps):
    """The step at which the plain per-connection map first leaves the
    finite rates at or below ``limit``, or ``None``.  The truncation is
    ``np.maximum``, which keeps NaN, as the engine's clip does."""
    r = list(x0)
    for step in range(1, max_steps + 1):
        r = [float(np.maximum(x + rule.delta(x, 0.0, 1.0), 0.0))
             for x in r]
        if any(not math.isfinite(x) or x > limit for x in r):
            return step
    return None


class TestDivergenceStep:
    """One reduction serves the divergence test and the convergence
    scale; the step at which a run diverges is unchanged."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 2e6],
                             ids=["nan", "inf", "above-limit"])
    def test_run_diverges_at_the_first_bad_step(self, bad):
        rule = _Runaway(bad)
        system = FlowControlSystem(single_gateway(2, mu=1.0), Fifo(),
                                   SIGNAL, rule, style=IND)
        limit = system.DIVERGENCE_FACTOR * 1.0
        x0 = np.array([1.0, 0.5])
        expected = _first_divergence(rule, x0, limit, 50)
        assert expected == 5
        traj = system.run(x0, max_steps=50)
        assert traj.outcome is Outcome.DIVERGED
        assert traj.steps == expected
        ens = system.run_ensemble(x0[None, :], max_steps=50)
        assert ens.outcomes == [Outcome.DIVERGED]
        assert int(ens.steps[0]) == expected
        asy = run_async_ensemble(system, x0[None, :], max_steps=50)
        assert asy.outcomes == [Outcome.DIVERGED]
        assert int(asy.steps[0]) == expected

    def test_negative_infinity_is_truncated_not_diverged(self):
        rule = _Runaway(-math.inf)
        system = FlowControlSystem(single_gateway(2, mu=1.0), Fifo(),
                                   SIGNAL, rule, style=IND)
        traj = system.run(np.array([1.0, 0.5]), max_steps=50)
        assert traj.outcome is Outcome.CONVERGED
        assert np.array_equal(traj.final, [0.0, 0.0])
