"""One ensemble loop serves both ensemble runners.

The synchronous map is the asynchronous one with no clock gate and no
feedback delay, so ``run_async_ensemble(schedule=None, signal_delay=0)``
must reproduce ``run_ensemble`` bit for bit, members that converge,
oscillate and diverge alike, one-shot or blocked.  Every runner also
rejects the same out-of-range loop parameters with the same error.
"""

import math

import numpy as np
import pytest

from repro.core.asynchronous import (AsynchronousRunner, SynchronousSchedule,
                                     run_async_ensemble)
from repro.core.dynamics import FlowControlSystem, Outcome
from repro.core.fairshare import FairShare
from repro.core.fifo import Fifo
from repro.core.ratecontrol import (ProportionalTargetRule, RateAdjustment,
                                    TargetRule, TcpLikeRule)
from repro.core.signals import FeedbackStyle, LinearSaturating
from repro.core.steadystate import fair_steady_state
from repro.core.topology import parking_lot, single_gateway
from repro.errors import RateVectorError, SweepError

SIGNAL = LinearSaturating()
IND = FeedbackStyle.INDIVIDUAL


class _Runaway(RateAdjustment):
    """``f = r`` (the rate doubles) until the rate exceeds 8, then a
    NaN; a member started at zero stays there and converges."""

    reads_delay = False

    def delta(self, rate, signal, delay):
        return math.nan if rate > 8.0 else rate


def _aggregate_overshoot():
    # The aggregate example with eta * N = 3.6 > 2: the synchronous map
    # overshoots the fair point, so perturbed starts oscillate; the fair
    # point itself is a fixed point.
    system = FlowControlSystem(single_gateway(12, mu=1.0), Fifo(), SIGNAL,
                               TargetRule(eta=0.3, beta=0.5),
                               style=FeedbackStyle.AGGREGATE)
    fair = fair_steady_state(single_gateway(12), 0.5)
    rng = np.random.default_rng(0)
    kicked = np.clip(fair * (1 + 1e-3 * rng.standard_normal((2, 12))),
                     0.0, None)
    return system, np.vstack([fair, kicked, np.full(12, 0.01)])


def _fair_share():
    system = FlowControlSystem(single_gateway(4, mu=1.0), FairShare(),
                               SIGNAL,
                               ProportionalTargetRule(eta=0.5, beta=0.5),
                               style=IND)
    rng = np.random.default_rng(1)
    return system, rng.uniform(0.02, 0.3, size=(5, 4))


def _tcp_mixed():
    # Two rule objects, one of which reads delays: the observe stage
    # computes d, and the decide stage runs per rule group.
    net = parking_lot(3, cross_per_hop=2)
    rules = (TargetRule(eta=0.05, beta=0.5), TcpLikeRule())
    system = FlowControlSystem(
        net, Fifo(), SIGNAL,
        [rules[i % 2] for i in range(net.num_connections)], style=IND)
    rng = np.random.default_rng(2)
    return system, rng.uniform(0.02, 0.2, size=(4, net.num_connections))


def _runaway():
    system = FlowControlSystem(single_gateway(2, mu=1.0), Fifo(), SIGNAL,
                               _Runaway(), style=IND)
    return system, np.array([[1.0, 0.5], [0.0, 0.0], [0.5, 2.0]])


CASES = {
    "fifo-aggregate": _aggregate_overshoot,
    "fair-share": _fair_share,
    "tcp-mixed": _tcp_mixed,
    "runaway": _runaway,
}

# Not the asynchronous default (2 * 1 + 0 + 3 = 5 quiet steps for the
# synchronous schedule at tau = 0), so a wrapper that dropped an
# explicit settle would show.
SETTLE = 3
STEPS = 300


def _assert_same(a, b):
    assert np.array_equal(a.finals, b.finals, equal_nan=True)
    assert a.outcomes == b.outcomes
    assert np.array_equal(a.steps, b.steps)
    assert a.periods == b.periods
    assert len(a.histories) == len(b.histories)
    for ha, hb in zip(a.histories, b.histories):
        assert np.array_equal(ha, hb, equal_nan=True)
    ra, rb = a.telemetry, b.telemetry
    assert ra.mask_events == rb.mask_events
    assert ra.residuals == rb.residuals
    assert ra.active_members == rb.active_members


class TestSynchronousIsUngatedAsync:
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("block_size", [None, 2])
    def test_async_at_tau_zero_equals_run_ensemble(self, case, block_size):
        system, initials = CASES[case]()
        kwargs = dict(max_steps=STEPS, settle=SETTLE, history="full",
                      block_size=block_size, telemetry=True)
        sync = system.run_ensemble(initials, **kwargs)
        shared = run_async_ensemble(system, initials, schedule=None,
                                    signal_delay=0, **kwargs)
        per_member = run_async_ensemble(
            system, initials,
            schedule=[SynchronousSchedule()] * len(initials),
            signal_delay=0, **kwargs)
        _assert_same(shared, sync)
        _assert_same(per_member, shared)

    def test_cases_cover_every_outcome(self):
        seen = set()
        for build in CASES.values():
            system, initials = build()
            seen.update(system.run_ensemble(initials, max_steps=STEPS,
                                            settle=SETTLE).outcomes)
        assert {Outcome.CONVERGED, Outcome.OSCILLATING,
                Outcome.DIVERGED} <= seen


def _system():
    return FlowControlSystem(single_gateway(4, mu=1.0), FairShare(),
                             SIGNAL, TargetRule(eta=0.1, beta=0.5),
                             style=IND)


X0 = np.array([0.05, 0.1, 0.15, 0.2])

RUNNERS = {
    "run": lambda system, **kw: system.run(X0, **kw),
    "run_ensemble": lambda system, **kw: system.run_ensemble(X0[None], **kw),
    "run_async_ensemble":
        lambda system, **kw: run_async_ensemble(system, X0[None], **kw),
    "AsynchronousRunner.run":
        lambda system, **kw: AsynchronousRunner(system).run(X0, **kw),
}

BAD = [("settle", 0), ("settle", -1), ("settle", 1.5), ("settle", True),
       ("settle", np.array([0])), ("settle", 2**64),
       ("max_steps", -1), ("max_steps", 2.0), ("max_steps", np.int64(-1)),
       ("max_period", 0), ("max_period", np.True_),
       ("tol", math.nan), ("tol", -1.0), ("tol", math.inf)]


class TestLoopParameters:
    @pytest.mark.parametrize("runner", RUNNERS)
    @pytest.mark.parametrize("name,value", BAD,
                             ids=[f"{n}={v!r}" for n, v in BAD])
    def test_every_runner_rejects_the_same_values(self, runner, name,
                                                  value):
        with pytest.raises(SweepError, match=name):
            RUNNERS[runner](_system(), **{name: value})

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_zero_tol_is_valid(self, runner):
        RUNNERS[runner](_system(), tol=0.0, max_steps=20)

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_numpy_ints_are_valid(self, runner):
        RUNNERS[runner](_system(), max_steps=np.int64(20),
                        settle=np.uint8(3), max_period=np.int32(4))

    @pytest.mark.parametrize("delay", [1.5, -1, "1"])
    def test_delay_must_be_a_nonnegative_int(self, delay):
        with pytest.raises(RateVectorError, match="signal delay"):
            run_async_ensemble(_system(), X0[None], signal_delay=delay)
        with pytest.raises(RateVectorError, match="signal delay"):
            AsynchronousRunner(_system(), signal_delay=delay)

    def test_settle_one_agrees_across_runners(self):
        system = _system()
        traj = system.run(X0, settle=1)
        ens = system.run_ensemble(X0[None], settle=1)
        asy = run_async_ensemble(system, X0[None], schedule=None,
                                 signal_delay=0, settle=1)
        assert traj.outcome is Outcome.CONVERGED
        assert traj.steps > 1
        assert ens.outcomes == asy.outcomes == [traj.outcome]
        assert int(ens.steps[0]) == int(asy.steps[0]) == traj.steps

    def test_zero_step_budget_and_period_one_run(self):
        system = _system()
        for result in (system.run_ensemble(X0[None], max_steps=0),
                       run_async_ensemble(system, X0[None], max_steps=0,
                                          max_period=1)):
            assert result.outcomes == [Outcome.UNDECIDED]
            assert np.array_equal(result.finals[0], X0)
