"""Unit tests for asynchronous schedules and delayed feedback."""

import numpy as np
import pytest

from repro.core.asynchronous import (AsynchronousRunner, BernoulliSchedule,
                                     ClockSchedule, DriftingClock,
                                     RateMixClock, RoundRobinSchedule,
                                     SynchronousSchedule,
                                     run_async_ensemble)
from repro.core.dynamics import FlowControlSystem, Outcome
from repro.core.fairshare import FairShare
from repro.core.fifo import Fifo
from repro.core.ratecontrol import RcpSourceRule, TargetRule
from repro.core.rcp import RcpController
from repro.core.signals import FeedbackStyle, LinearSaturating
from repro.core.steadystate import fair_steady_state
from repro.core.topology import single_gateway
from repro.errors import RateVectorError, SweepError
from repro.observability import collect


def _aggregate(n, eta=0.3):
    net = single_gateway(n, mu=1.0)
    return FlowControlSystem(net, Fifo(), LinearSaturating(),
                             TargetRule(eta=eta, beta=0.5),
                             style=FeedbackStyle.AGGREGATE)


class TestSchedules:
    def test_synchronous_all(self):
        mask = SynchronousSchedule().participants(3, 5)
        assert mask.all() and mask.shape == (5,)

    def test_round_robin_cycles(self):
        sched = RoundRobinSchedule()
        for step in range(10):
            mask = sched.participants(step, 4)
            assert mask.sum() == 1
            assert mask[step % 4]

    def test_round_robin_sweep(self):
        assert RoundRobinSchedule().steps_per_sweep(7) == 7

    def test_bernoulli_probability(self):
        sched = BernoulliSchedule(0.5, seed=0)
        total = sum(sched.participants(k, 100).sum() for k in range(100))
        assert total == pytest.approx(5000, rel=0.1)

    def test_bernoulli_validation(self):
        with pytest.raises(RateVectorError):
            BernoulliSchedule(0.0)
        with pytest.raises(RateVectorError):
            BernoulliSchedule(1.5)


class TestAsynchronousRunner:
    def test_synchronous_schedule_matches_system_run(self):
        system = _aggregate(3, eta=0.05)
        start = np.array([0.1, 0.2, 0.3])
        sync = system.run(start, max_steps=5000, tol=1e-10)
        async_run = AsynchronousRunner(system).run(start, max_steps=5000,
                                                   tol=1e-10)
        assert async_run.outcome is Outcome.CONVERGED
        assert np.allclose(async_run.final, sync.final, atol=1e-8)

    def test_fixed_points_shared(self):
        system = _aggregate(3, eta=0.05)
        fair = fair_steady_state(single_gateway(3), 0.5)
        runner = AsynchronousRunner(system, RoundRobinSchedule())
        assert runner.is_steady_state(fair)

    def test_round_robin_stabilises_unstable_sync_case(self):
        # eta N = 3.6 > 2: synchronous diverges, sequential converges.
        system = _aggregate(12, eta=0.3)
        fair = fair_steady_state(single_gateway(12), 0.5)
        rng = np.random.default_rng(0)
        start = np.clip(fair * (1 + 1e-3 * rng.standard_normal(12)),
                        0.0, None)
        sync = system.run(start, max_steps=4000, tol=1e-10)
        assert sync.outcome is not Outcome.CONVERGED
        seq = AsynchronousRunner(system, RoundRobinSchedule()).run(
            start, max_steps=60000, tol=1e-10)
        assert seq.outcome is Outcome.CONVERGED
        assert float(seq.final.sum()) == pytest.approx(0.5, abs=1e-6)

    def test_delay_destabilises_marginal_gain(self):
        # eta N = 1.2 is fine without delay, unstable with one step of
        # delay (threshold 2 sin(pi/6) = 1.0).
        system = _aggregate(4, eta=0.3)
        fair = fair_steady_state(single_gateway(4), 0.5)
        rng = np.random.default_rng(1)
        start = np.clip(fair * (1 + 1e-3 * rng.standard_normal(4)),
                        0.0, None)
        no_delay = AsynchronousRunner(system, signal_delay=0).run(
            start, max_steps=8000)
        delayed = AsynchronousRunner(system, signal_delay=1).run(
            start, max_steps=8000)
        assert no_delay.outcome is Outcome.CONVERGED
        assert delayed.outcome is not Outcome.CONVERGED

    def test_small_gain_tolerates_delay(self):
        system = _aggregate(4, eta=0.01)
        fair = fair_steady_state(single_gateway(4), 0.5)
        start = fair * 1.05
        delayed = AsynchronousRunner(system, signal_delay=8).run(
            start, max_steps=30000)
        assert delayed.outcome is Outcome.CONVERGED

    def test_delayed_spike_not_mistaken_for_convergence(self):
        # Regression: a stale congestion spike pinning rates at zero
        # for a few steps must not be declared a fixed point.
        system = _aggregate(4, eta=0.3)
        fair = fair_steady_state(single_gateway(4), 0.5)
        rng = np.random.default_rng(1)
        start = np.clip(fair * (1 + 1e-3 * rng.standard_normal(4)),
                        0.0, None)
        traj = AsynchronousRunner(system, signal_delay=6).run(
            start, max_steps=8000)
        if traj.outcome is Outcome.CONVERGED:
            assert system.is_steady_state(traj.final, tol=1e-6)

    def test_negative_delay_rejected(self):
        with pytest.raises(RateVectorError):
            AsynchronousRunner(_aggregate(2), signal_delay=-1)

    def test_divergence_detected(self):
        class Exploder(TargetRule):
            def delta(self, rate, signal, delay):
                return rate * 10.0 + 1.0

        net = single_gateway(2, mu=1.0)
        system = FlowControlSystem(net, FairShare(), LinearSaturating(),
                                   Exploder(),
                                   style=FeedbackStyle.INDIVIDUAL)
        traj = AsynchronousRunner(system).run(np.array([0.1, 0.1]),
                                              max_steps=200)
        assert traj.outcome is Outcome.DIVERGED

    def test_a_controller_is_refused(self):
        # The runner used to run a controller-driven system as the
        # identity map and report it CONVERGED.
        system = FlowControlSystem(
            single_gateway(3), Fifo(), LinearSaturating(),
            RcpSourceRule(), controller=RcpController(alpha=0.5, beta=0.05))
        with pytest.raises(SweepError, match="controller-driven"):
            AsynchronousRunner(system).run(np.array([0.1, 0.2, 0.3]))


class TestScheduleIsChecked:
    """The ensemble takes None, an UpdateSchedule, or a list or tuple
    of them, and the runner None or one schedule; anything else is a
    SweepError naming its type, at the runner's construction and at
    the ensemble's call alike."""

    X0 = np.array([0.1, 0.2, 0.3])

    def test_a_clock_model_points_to_clock_schedule(self):
        with pytest.raises(SweepError, match="RateMixClock.*ClockSchedule"):
            run_async_ensemble(_aggregate(3), self.X0[None],
                               schedule=RateMixClock())
        with pytest.raises(SweepError, match="RateMixClock.*ClockSchedule"):
            AsynchronousRunner(_aggregate(3), RateMixClock())

    def test_a_string_is_not_a_list_of_schedules(self):
        with pytest.raises(SweepError, match="got str"):
            run_async_ensemble(_aggregate(3), self.X0[None],
                               schedule="rr")

    def test_a_false_value_is_not_the_synchronous_schedule(self):
        with pytest.raises(SweepError, match="got int"):
            AsynchronousRunner(_aggregate(3), 0)

    def test_the_runner_takes_one_schedule(self):
        with pytest.raises(SweepError, match="got list"):
            AsynchronousRunner(_aggregate(3), [SynchronousSchedule()] * 2)


class TestRunnerIsTheOneMemberEnsemble:
    """``AsynchronousRunner.run`` is ``run_async_ensemble``'s M = 1 call
    with its full history, on a clock the ensemble kernel serves and on
    one it hands to the Python loop."""

    CLOCKS = {"mix": lambda: RateMixClock(0.25, 1.0, 0.5, seed=3),
              "drifting": lambda: DriftingClock(0.5, 0.3, 16, seed=3)}

    @pytest.mark.parametrize("clock", CLOCKS)
    @pytest.mark.parametrize("tau", [0, 3])
    @pytest.mark.parametrize("budget", [0, 1, 7, 400])
    def test_bit_identical(self, clock, tau, budget):
        system = FlowControlSystem(single_gateway(4), FairShare(),
                                   LinearSaturating(),
                                   TargetRule(eta=0.2, beta=0.5),
                                   style=FeedbackStyle.INDIVIDUAL)
        x0 = np.array([0.05, 0.1, 0.15, 0.2])
        schedule = ClockSchedule(self.CLOCKS[clock]())
        traj = AsynchronousRunner(system, schedule, tau).run(
            x0, max_steps=budget)
        ens = run_async_ensemble(system, x0[None], schedule, tau,
                                 max_steps=budget, history="full")
        assert traj.history.shape == ens.histories[0].shape
        assert traj.history.tobytes() == ens.histories[0].tobytes()
        assert (traj.outcome, traj.steps, traj.period) == \
            (ens.outcomes[0], int(ens.steps[0]), ens.periods[0])

    def test_leaves_one_record(self):
        with collect() as session:
            traj = AsynchronousRunner(
                _aggregate(3), BernoulliSchedule(0.5, seed=1)).run(
                np.array([0.1, 0.2, 0.3]), max_steps=50)
        (rec,) = session.run_records
        assert rec.kind == "async_ensemble"
        assert traj.telemetry is rec


class TestBernoulliDeterminism:
    """Regression: the schedule used to advance a shared generator, so
    reusing one schedule object (or probing a mask out of band) changed
    every later mask.  Masks are now a pure function of (seed, step)."""

    def test_same_seed_same_masks(self):
        a = BernoulliSchedule(0.4, seed=9)
        b = BernoulliSchedule(0.4, seed=9)
        for step in (0, 1, 7, 1000):
            assert np.array_equal(a.participants(step, 32),
                                  b.participants(step, 32))

    def test_masks_do_not_depend_on_call_history(self):
        fresh = BernoulliSchedule(0.4, seed=9)
        probed = BernoulliSchedule(0.4, seed=9)
        for step in range(50):  # out-of-band probing
            probed.participants(step, 32)
        assert np.array_equal(fresh.participants(3, 32),
                              probed.participants(3, 32))

    def test_distinct_seeds_distinct_masks(self):
        a = BernoulliSchedule(0.4, seed=1)
        b = BernoulliSchedule(0.4, seed=2)
        assert any(
            not np.array_equal(a.participants(s, 64),
                               b.participants(s, 64))
            for s in range(8))

    def test_runner_replays_bit_identically(self):
        system = _aggregate(3, eta=0.1)
        start = np.array([0.1, 0.2, 0.3])

        def run_once():
            runner = AsynchronousRunner(
                system, BernoulliSchedule(0.5, seed=11))
            return runner.run(start, max_steps=400, tol=1e-10)

        first, second = run_once(), run_once()
        assert first.outcome is second.outcome
        assert np.array_equal(first.history, second.history)
