"""Unit tests for the batched asynchronous engine: scalar equivalence,
ring-buffer boundaries, fixed-point invariance under any schedule and
delay, and the blocked/recording contracts shared with run_ensemble."""

import numpy as np
import pytest

from repro.core.asynchronous import (AsynchronousRunner, BernoulliSchedule,
                                     BurstyClock, ClockSchedule,
                                     RateMixClock, RoundRobinSchedule,
                                     SynchronousSchedule,
                                     run_async_ensemble)
from repro.core.dynamics import FlowControlSystem, Outcome
from repro.core.fairshare import FairShare
from repro.core.fifo import Fifo
from repro.core.math_utils import clip_nonnegative
from repro.core.ratecontrol import ProportionalTargetRule, TargetRule
from repro.core.signals import FeedbackStyle, LinearSaturating
from repro.core.steadystate import fair_steady_state
from repro.core.topology import single_gateway
from repro.errors import RateVectorError, SweepError
from repro.observability.record import validate_run_record


def _individual(n, eta=0.5, mu=1.0):
    return FlowControlSystem(single_gateway(n, mu=mu), FairShare(),
                             LinearSaturating(),
                             ProportionalTargetRule(eta=eta, beta=0.5),
                             style=FeedbackStyle.INDIVIDUAL)


def _aggregate(n, eta=0.3):
    return FlowControlSystem(single_gateway(n, mu=1.0), Fifo(),
                             LinearSaturating(),
                             TargetRule(eta=eta, beta=0.5),
                             style=FeedbackStyle.AGGREGATE)


def _initials(n, m=3, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.02, 0.4 / n, size=(m, n))


SCHEDULES = [
    SynchronousSchedule(),
    RoundRobinSchedule(),
    BernoulliSchedule(0.5, seed=3),
    ClockSchedule(RateMixClock(0.25, 1.0, 0.5, seed=3)),
    ClockSchedule(BurstyClock(0.9, 0.2, 4, seed=3)),
]


class TestScalarEquivalence:
    @pytest.mark.parametrize("sched", SCHEDULES,
                             ids=lambda s: type(s).__name__)
    @pytest.mark.parametrize("tau", [0, 2])
    def test_members_reproduce_scalar_runner(self, sched, tau):
        system = _individual(4)
        initials = _initials(4)
        ens = run_async_ensemble(system, initials, schedule=sched,
                                 signal_delay=tau, max_steps=600)
        runner = AsynchronousRunner(system, sched, signal_delay=tau)
        for m in range(len(ens)):
            traj = runner.run(initials[m], max_steps=600)
            assert ens.outcomes[m] is traj.outcome
            assert int(ens.steps[m]) == traj.steps
            assert np.array_equal(ens.finals[m], traj.final)

    def test_recorded_histories_match_scalar_runner(self):
        system = _individual(3)
        initials = _initials(3, m=2)
        sched = BernoulliSchedule(0.4, seed=9)
        ens = run_async_ensemble(system, initials, schedule=sched,
                                 signal_delay=1, max_steps=300,
                                 history="full")
        runner = AsynchronousRunner(system, sched, signal_delay=1)
        for m in range(len(ens)):
            traj = runner.run(initials[m], max_steps=300)
            assert np.array_equal(ens.histories[m], traj.history)

    def test_per_member_schedules(self):
        system = _individual(3)
        initials = _initials(3, m=3)
        per_member = [SynchronousSchedule(), RoundRobinSchedule(),
                      BernoulliSchedule(0.6, seed=5)]
        ens = run_async_ensemble(system, initials, schedule=per_member,
                                 max_steps=600)
        for m, sched in enumerate(per_member):
            traj = AsynchronousRunner(system, sched).run(initials[m],
                                                         max_steps=600)
            assert ens.outcomes[m] is traj.outcome
            assert np.array_equal(ens.finals[m], traj.final)


class TestBlockedAndRecording:
    def test_blocked_equals_one_shot_bit_exactly(self):
        system = _individual(4)
        initials = _initials(4, m=5)
        sched = ClockSchedule(RateMixClock(seed=1))
        kwargs = dict(schedule=sched, signal_delay=2, max_steps=400,
                      history="full")
        blocked = run_async_ensemble(system, initials, block_size=2,
                                     **kwargs)
        oneshot = run_async_ensemble(system, initials, **kwargs)
        assert np.array_equal(blocked.finals, oneshot.finals)
        assert blocked.outcomes == oneshot.outcomes
        assert np.array_equal(blocked.steps, oneshot.steps)
        assert blocked.periods == oneshot.periods
        for m in range(len(blocked)):
            assert np.array_equal(blocked.histories[m],
                                  oneshot.histories[m])

    def test_telemetry_record_kind(self):
        system = _individual(3)
        ens = run_async_ensemble(system, _initials(3, m=2),
                                 schedule=RoundRobinSchedule(),
                                 max_steps=400, telemetry=True)
        rec = ens.telemetry
        assert rec is not None and rec.kind == "async_ensemble"
        assert validate_run_record(rec.to_dict()) == []

    def test_empty_ensemble(self):
        system = _individual(3)
        ens = run_async_ensemble(system, np.empty((0, 3)))
        assert len(ens) == 0
        assert ens.finals.shape == (0, 3)


class TestValidation:
    def test_negative_delay_rejected(self):
        with pytest.raises(RateVectorError):
            run_async_ensemble(_individual(2), _initials(2),
                               signal_delay=-1)

    def test_schedule_list_length_mismatch(self):
        with pytest.raises(SweepError, match="one schedule per member"):
            run_async_ensemble(_individual(2), _initials(2, m=3),
                               schedule=[RoundRobinSchedule()])

    def test_schedule_list_type_checked(self):
        with pytest.raises(SweepError, match="UpdateSchedule"):
            run_async_ensemble(_individual(2), _initials(2, m=2),
                               schedule=["round-robin", "sync"])

    def test_controlled_system_rejected(self):
        from repro.scenarios import (ConnectionSpec, ControllerSpec,
                                     GatewaySpec, RuleSpec, ScenarioSpec,
                                     SignalSpec)
        spec = ScenarioSpec(
            name="rcp", gateways=(GatewaySpec("g0", 1.0),),
            connections=(ConnectionSpec("c0", ("g0",)),
                         ConnectionSpec("c1", ("g0",))),
            discipline="fifo", signal=SignalSpec(), style="individual",
            rules=(RuleSpec("rcp-source"),) * 2,
            initial_rates=(0.1, 0.2), max_steps=500, seed=1,
            controller=ControllerSpec("rcp", {"alpha": 0.5,
                                              "beta": 0.05,
                                              "fill": 0.4}))
        with pytest.raises(SweepError, match="gateways"):
            run_async_ensemble(spec.build(), _initials(2))


class TestRingBufferBoundaries:
    """The (tau + 1, M, N) delayed-signal ring buffer at its edges."""

    def _hand_rolled(self, system, r0, steps, tau, sched):
        """Reference loop with an explicit list instead of a ring:
        step t reads the state from t - 1 - tau (clamped to r_0)."""
        states = [np.asarray(r0, dtype=float)]
        hist = [states[0].copy()]
        for step in range(1, steps + 1):
            stale = states[max(0, step - 1 - tau)]
            b = system.signals(stale)
            d = system.delays(stale)
            mask = sched.participants(step - 1, len(r0))
            r = states[-1].copy()
            for i in np.nonzero(mask)[0]:
                r[i] = system.rules[i].apply(float(states[-1][i]),
                                             float(b[i]), float(d[i]))
            r = clip_nonnegative(r)
            states.append(r)
            hist.append(r.copy())
        return np.stack(hist)

    def test_tau_zero_is_the_undelayed_path_bit_exactly(self):
        system = _individual(3)
        r0 = np.array([0.1, 0.2, 0.05])
        steps = 40
        expected = self._hand_rolled(system, r0, steps, 0,
                                     SynchronousSchedule())
        ens = run_async_ensemble(system, r0[np.newaxis],
                                 signal_delay=0, max_steps=steps,
                                 settle=steps + 1, history="full")
        got = ens.histories[0]
        assert np.array_equal(got[:steps + 1], expected[:got.shape[0]])

    def test_warm_up_steps_before_the_buffer_fills(self):
        # With delay tau, steps 1 .. tau + 1 all act on r_0's signals;
        # step tau + 2 is the first to see r_1.
        system = _individual(3, eta=0.4)
        r0 = np.array([0.08, 0.2, 0.12])
        tau = 3
        expected = self._hand_rolled(system, r0, tau + 3, tau,
                                     SynchronousSchedule())
        ens = run_async_ensemble(system, r0[np.newaxis],
                                 signal_delay=tau, max_steps=tau + 3,
                                 settle=tau + 4, history="full")
        assert np.array_equal(ens.histories[0], expected)
        # The warm-up really is constant-signal: recompute step 2 from
        # r_1 instead of r_0 and check it would have differed.
        b0, b1 = system.signals(r0), system.signals(expected[1])
        assert not np.array_equal(b0, b1)

    def test_tau_longer_than_the_trajectory(self):
        # The buffer never fills: every step acts on r_0's signals.
        system = _individual(3, eta=0.4)
        r0 = np.array([0.08, 0.2, 0.12])
        steps, tau = 12, 50
        expected = self._hand_rolled(system, r0, steps, tau,
                                     SynchronousSchedule())
        ens = run_async_ensemble(system, r0[np.newaxis],
                                 signal_delay=tau, max_steps=steps,
                                 history="full")
        assert ens.outcomes[0] is Outcome.UNDECIDED
        assert np.array_equal(ens.histories[0], expected)
        # And the scalar runner agrees bit-exactly.
        traj = AsynchronousRunner(system, signal_delay=tau).run(
            r0, max_steps=steps)
        assert np.array_equal(traj.history, expected)


class TestFixedPointInvariance:
    """Differential contract: a fixed point of the synchronous map is a
    fixed point of every schedule x delay combination."""

    @pytest.mark.parametrize("sched", SCHEDULES,
                             ids=lambda s: type(s).__name__)
    @pytest.mark.parametrize("tau", [0, 1, 4])
    def test_sync_fixed_point_invariant(self, sched, tau):
        system = _individual(4)
        sync = system.run(np.full(4, 0.1), max_steps=5000, tol=1e-12)
        assert sync.outcome is Outcome.CONVERGED
        ens = run_async_ensemble(system, sync.final[np.newaxis],
                                 schedule=sched, signal_delay=tau,
                                 max_steps=800, tol=1e-12)
        assert ens.outcomes[0] is Outcome.CONVERGED
        assert float(np.max(np.abs(ens.finals[0] - sync.final))) <= 1e-9

    def test_aggregate_overshoot_pinned_regression(self):
        # eta * N = 3.6 > 2: the synchronous aggregate map overshoots
        # and cannot converge, while the same map under a round-robin
        # schedule is a convergent Gauss-Seidel sweep — and both share
        # the fair fixed point.
        system = _aggregate(12, eta=0.3)
        fair = fair_steady_state(single_gateway(12), 0.5)
        rng = np.random.default_rng(0)
        start = np.clip(fair * (1 + 1e-3 * rng.standard_normal(12)),
                        0.0, None)
        sync = run_async_ensemble(system, start[np.newaxis],
                                  schedule=SynchronousSchedule(),
                                  max_steps=4000)
        assert sync.outcomes[0] is not Outcome.CONVERGED
        seq = run_async_ensemble(system, start[np.newaxis],
                                 schedule=RoundRobinSchedule(),
                                 max_steps=60000)
        assert seq.outcomes[0] is Outcome.CONVERGED
        assert float(seq.finals[0].sum()) == pytest.approx(0.5,
                                                           abs=1e-6)
        # The shared fixed point is exactly preserved when started on.
        held = run_async_ensemble(system, fair[np.newaxis],
                                  schedule=RoundRobinSchedule(),
                                  max_steps=200)
        assert held.outcomes[0] is Outcome.CONVERGED
        assert float(np.max(np.abs(held.finals[0] - fair))) <= 1e-9
