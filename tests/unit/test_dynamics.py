"""Unit tests for the synchronous dynamics."""

import numpy as np
import pytest

from repro.core.dynamics import FlowControlSystem, Outcome, Trajectory
from repro.core.fairshare import FairShare
from repro.core.fifo import Fifo
from repro.core.ratecontrol import BinaryAimdRule, TargetRule
from repro.core.signals import FeedbackStyle, LinearSaturating
from repro.core.topology import single_gateway
from repro.errors import ConvergenceError, RateVectorError


def _system(n=3, eta=0.1, beta=0.5, style=FeedbackStyle.INDIVIDUAL,
            discipline=None, rules=None):
    net = single_gateway(n, mu=1.0)
    return FlowControlSystem(net, discipline or FairShare(),
                             LinearSaturating(),
                             rules or TargetRule(eta=eta, beta=beta),
                             style=style)


class TestConstruction:
    def test_single_rule_broadcast(self):
        system = _system(n=4)
        assert len(system.rules) == 4
        assert system.homogeneous

    def test_rule_list_length_checked(self):
        net = single_gateway(3)
        with pytest.raises(RateVectorError):
            FlowControlSystem(net, Fifo(), LinearSaturating(),
                              [TargetRule(), TargetRule()])

    def test_heterogeneous_flag(self):
        net = single_gateway(2)
        system = FlowControlSystem(
            net, Fifo(), LinearSaturating(),
            [TargetRule(beta=0.4), TargetRule(beta=0.6)],
            style=FeedbackStyle.AGGREGATE)
        assert not system.homogeneous


class TestStep:
    def test_step_truncates_at_zero(self):
        system = _system(rules=TargetRule(eta=50.0, beta=0.01))
        out = system.step(np.array([0.9, 0.9, 0.9]))
        assert np.all(out >= 0.0)

    def test_step_moves_toward_target(self):
        system = _system()
        r = np.array([0.01, 0.01, 0.01])
        out = system.step(r)
        assert np.all(out > r)  # far below target: everyone increases

    def test_residual_zero_at_fixed_point(self):
        system = _system()
        fixed = system.solve(np.array([0.05, 0.1, 0.2]))
        assert np.allclose(system.residual(fixed), 0.0, atol=1e-8)

    def test_is_steady_state(self):
        system = _system()
        fixed = system.solve(np.array([0.05, 0.1, 0.2]))
        assert system.is_steady_state(fixed, tol=1e-6)
        assert not system.is_steady_state(np.array([0.01, 0.01, 0.01]))

    def test_wrong_length_rejected(self):
        with pytest.raises(RateVectorError):
            _system(n=3).step(np.array([0.1, 0.1]))


class TestRun:
    def test_converges_and_records_history(self):
        system = _system()
        traj = system.run(np.array([0.05, 0.1, 0.2]))
        assert traj.outcome is Outcome.CONVERGED
        assert traj.history.shape[1] == 3
        assert traj.history.shape[0] == traj.steps + 1
        assert np.array_equal(traj.initial, [0.05, 0.1, 0.2])

    def test_period_one_on_convergence(self):
        traj = _system().run(np.array([0.05, 0.1, 0.2]))
        assert traj.period == 1

    def test_oscillation_detected(self):
        # AIMD never has f = 0: a limit cycle must be reported.
        system = _system(rules=BinaryAimdRule(increase=0.05, decrease=0.5,
                                              threshold=0.5),
                         style=FeedbackStyle.AGGREGATE,
                         discipline=Fifo())
        traj = system.run(np.array([0.1, 0.1, 0.1]), max_steps=500)
        assert traj.outcome is Outcome.OSCILLATING
        assert traj.period is not None and traj.period >= 2

    def test_tail(self):
        traj = _system().run(np.array([0.05, 0.1, 0.2]))
        assert traj.tail(4).shape == (4, 3)
        with pytest.raises(RateVectorError):
            traj.tail(0)

    def test_solve_raises_on_oscillation(self):
        system = _system(rules=BinaryAimdRule(),
                         style=FeedbackStyle.AGGREGATE, discipline=Fifo())
        with pytest.raises(ConvergenceError):
            system.solve(np.array([0.1, 0.1, 0.1]), max_steps=400)

    def test_zero_start_grows(self):
        # TargetRule has f > 0 at b=0, so zero rates take off.
        system = _system()
        traj = system.run(np.zeros(3))
        assert traj.outcome is Outcome.CONVERGED
        assert np.all(traj.final > 0)


class TestObservables:
    def test_signals_shape(self):
        system = _system(n=4)
        assert system.signals(np.full(4, 0.1)).shape == (4,)

    def test_delays_shape(self):
        system = _system(n=4)
        assert system.delays(np.full(4, 0.1)).shape == (4,)

    def test_style_property(self):
        assert _system(style=FeedbackStyle.AGGREGATE).style is \
            FeedbackStyle.AGGREGATE


def _scan_periods(history, max_period, tol, total_len=None):
    """The plain lag-by-lag search ``_detect_period`` must agree with."""
    steps = history.shape[0] if total_len is None else total_len
    for p in range(2, max_period + 1):
        if steps < 4 * p:
            return None
        recent, lagged = history[-3 * p:], history[-4 * p:-p]
        scale = max(1.0, float(np.max(np.abs(recent))))
        if np.max(np.abs(recent - lagged)) <= 1e3 * tol * scale:
            return p
    return None


class TestPeriodSearch:
    def _histories(self, seed=0, count=600):
        rng = np.random.default_rng(seed)
        for trial in range(count):
            rows, n = int(rng.integers(1, 200)), int(rng.integers(1, 5))
            if trial % 4 == 0:
                h = rng.uniform(0.0, 2.0, (rows, n))
            else:
                p = int(rng.integers(1, 30))
                h = np.tile(rng.uniform(0.0, 3.0, (p, n)),
                            (rows // p + 1, 1))[:rows]
                if trial % 4 == 2:
                    h = h + rng.normal(0.0, 1e-9, h.shape)
                elif trial % 8 == 3:
                    h[int(rng.integers(rows))] += 1e-3
                elif trial % 8 == 7:
                    h[-1, 0] = np.nan
            yield h

    def test_agrees_with_the_lag_by_lag_scan(self):
        from repro.core.dynamics import _detect_period
        found = 0
        for h in self._histories():
            for max_period in (1, 2, 5, 64):
                for tol in (0.0, 1e-10, 1e-6):
                    want = _scan_periods(h, max_period, tol)
                    assert _detect_period(h, max_period, tol) == want
                    found += want is not None
        assert found > 100

    def test_reads_a_rolling_tail_in_place(self):
        # A tail ring whose oldest state sits at row ``start``, as the
        # ensemble loop keeps it, with the true history longer.
        from repro.core.dynamics import _detect_periods
        rng = np.random.default_rng(1)
        for trial in range(300):
            max_period = int(rng.integers(1, 12))
            rows, n = 4 * max_period, int(rng.integers(1, 4))
            p = int(rng.integers(1, 20))
            h = np.tile(rng.uniform(0.0, 3.0, (p, n)),
                        (rows // p + 1, 1))[:rows]
            if trial % 3 == 0:
                h = rng.uniform(0.0, 2.0, (rows, n))
            start = int(rng.integers(rows))
            ring = np.roll(h, start, axis=0)
            total = rows + int(rng.integers(0, 40))
            for tol in (0.0, 1e-6):
                got = _detect_periods(ring[None], max_period, tol,
                                      total_len=total, start=start)
                assert got == [_scan_periods(h, max_period, tol, total)]
