"""The router-side controller in the ensemble kernel.

``run_ensemble`` runs a controlled member block in one C call,
``compiled.ensemble_loop``, and ``run`` is its one-member call, when
the controller, its bank and every source rule are exactly
``RcpController``, ``RcpBank`` and ``RcpSourceRule``: each member
carries its own advertised rates, and a step is ``RcpBank.update``
followed by ``advertised`` and the clip at zero, transcribed operation
for operation.  It must give the Python loop's bits — finals, steps,
outcomes, periods, retained histories and every run record field bar
the timings — against the loop with ``compiled.ensemble_loop``
unavailable.
"""

import dataclasses

import numpy as np
import pytest

from repro.backends import compiled
from repro.core.dynamics import FlowControlSystem, Outcome
from repro.core.fifo import Fifo
from repro.core.ratecontrol import RcpSourceRule
from repro.core.rcp import RcpBank, RcpController
from repro.core.signals import FeedbackStyle, LinearSaturating
from repro.core.topology import (Connection, Gateway, Network, parking_lot,
                                 single_gateway)

pytestmark = pytest.mark.skipif(
    compiled.tier() != "cext",
    reason="no compiled ensemble loop in this environment")

LOT = parking_lot(3, cross_per_hop=2)
N = LOT.num_connections
#: g2 carries no connection: its load is 0 and its rate climbs to mu.
IDLE = Network([Gateway("g0", 1.0), Gateway("g1", 2.0), Gateway("g2", 0.5)],
               [Connection("c0", ("g0",)), Connection("c1", ("g0", "g1")),
                Connection("c2", ("g1",))])


def _system(network=LOT, source=RcpSourceRule, **gains):
    ctl = RcpController(**{"alpha": 0.5, "beta": 0.05, **gains})
    return FlowControlSystem(network, Fifo(), LinearSaturating(), source(),
                             style=FeedbackStyle.INDIVIDUAL, controller=ctl)


def _starts(n, m=5, seed=3):
    """Interior starts, one with a zero rate, one all zero and one
    overloaded (past every gateway's capacity)."""
    rates = np.random.default_rng([seed, n]).uniform(0.02, 0.2, size=(m, n))
    rates[min(1, m - 1), 0] = 0.0
    if m > 3:
        rates[2] = 0.0
        rates[3] = 3.0
    return rates


def _record(rec):
    """Every run record field but the timings (phase names kept)."""
    if rec is None:
        return None
    fields = dataclasses.asdict(rec)
    for timing in ("wall_seconds", "_started"):
        del fields[timing]
    fields["phase_seconds"] = list(fields["phase_seconds"])
    return fields


def _fingerprint(res):
    """Everything an ensemble or a run returns, bar the timings."""
    if hasattr(res, "finals"):
        histories = (None if res.histories is None
                     else [(h.tobytes(), h.shape) for h in res.histories])
        return (res.finals.tobytes(), res.finals.shape, res.outcomes,
                res.periods, res.steps.tolist(), histories,
                _record(res.telemetry), res.history_policy, res.block_size)
    return (res.history.tobytes(), res.history.shape, res.outcome,
            res.period, res.steps, _record(res.telemetry))


@pytest.fixture
def loop_calls(monkeypatch):
    """What each ``compiled.ensemble_loop`` call returned."""
    calls = []
    orig = compiled.ensemble_loop

    def spy(*args, **kwargs):
        calls.append(orig(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(compiled, "ensemble_loop", spy)
    return calls


def _identical(monkeypatch, run, served=True):
    """``run()`` on the kernel and with ``compiled.ensemble_loop``
    unavailable: the same bits; and the kernel served every block (or,
    with ``served`` False, was never called: no block, or M = 0)."""
    calls = []
    orig = compiled.ensemble_loop

    def spy(*args, **kwargs):
        calls.append(orig(*args, **kwargs))
        return calls[-1]

    with monkeypatch.context() as m:
        m.setattr(compiled, "ensemble_loop", spy)
        fast = run()
    assert (bool(calls) and None not in calls) if served else calls == []
    with monkeypatch.context() as m:
        m.setattr(compiled, "ensemble_loop", lambda *args, **kw: None)
        python = run()
    assert _fingerprint(fast) == _fingerprint(python)
    return fast


def _ensemble(system, x0, **kwargs):
    args = dict(max_steps=150, tol=1e-10, history="full", telemetry=True)
    args.update(kwargs)
    return lambda: system.run_ensemble(x0, **args)


class TestBitIdentical:
    @pytest.mark.parametrize("beta", [0.0, 0.05, 0.4])
    @pytest.mark.parametrize("history", ["full", "tail", "none"])
    @pytest.mark.parametrize("telemetry", [False, True],
                             ids=["plain", "telemetry"])
    def test_gains_and_histories(self, monkeypatch, beta, history,
                                 telemetry):
        system = _system(alpha=0.6, beta=beta)
        _identical(monkeypatch, _ensemble(system, _starts(N),
                                          history=history,
                                          telemetry=telemetry))

    def test_a_saturated_gateway(self, monkeypatch):
        # Loads of exactly mu leave spare = 0, and overloads a negative
        # spare: the queue term takes its 1e12 branch.
        system = _system(single_gateway(2), beta=0.3)
        x0 = np.array([[0.5, 0.5], [0.25, 0.75], [3.0, 2.0],
                       [0.5, 0.5 - 1e-13]])
        _identical(monkeypatch, _ensemble(system, x0, max_steps=60))
        state = system.bank.initial_state()
        assert np.all(1.0 - x0.sum(axis=1) <= 1e-12)
        assert np.all(system.bank.update_batch(x0, np.tile(state, (4, 1)))
                      == 0.5 * state)

    def test_the_factor_clamped_at_both_ends(self, monkeypatch):
        # Overloaded starts halve every rate (factor 0.5); at alpha =
        # 1.5 idle gateways double it (1 + gain > 2).
        system = _system(alpha=1.5, beta=0.0)
        x0 = np.vstack([np.full(N, 3.0), np.full(N, 1e-9)])
        _identical(monkeypatch, _ensemble(system, x0, max_steps=40))
        state = system.bank.initial_state()
        first = np.array([system.bank.update(r, state) for r in x0])
        assert np.array_equal(first[0], 0.5 * state)
        assert np.array_equal(first[1], 2.0 * state)

    def test_the_state_clamped_at_the_floor_and_at_mu(self, monkeypatch):
        # fill = 1e-7 starts below the floor of 1e-6 mu; at alpha = 1.5
        # a lone connection's rate overshoots mu and is cut back to it.
        low = _system(fill=1e-7)
        x0 = _starts(N)
        res = _identical(monkeypatch, _ensemble(low, x0, max_steps=80))
        floor = low.bank._floor
        assert np.all(low.bank.initial_state() < floor)
        assert set(res.histories[0][1]) <= set(floor)
        lone = _system(single_gateway(1, mu=2.0), alpha=1.5, beta=0.0)
        res = _identical(monkeypatch, _ensemble(lone, np.full((2, 1), 0.1),
                                                max_steps=80))
        assert res.finals.tolist() == [[2.0], [2.0]]

    def test_a_gateway_no_connection_crosses(self, monkeypatch):
        # Its load is 0, so its advertised rate climbs to its mu; no
        # route reads it.
        system = _system(IDLE)
        x0 = np.array([[1e-9, 1e-9, 1e-9], [0.2, 0.3, 0.4]])
        _identical(monkeypatch, _ensemble(system, x0, max_steps=80))
        state = system.bank.initial_state()
        for _ in range(40):
            state = system.bank.update(x0[1], state)
        assert state[2] == 0.5

    def test_every_outcome(self, monkeypatch):
        # Converging, a period-2 cycle (alpha = 2.2, beta = 0: the
        # logistic map past its first doubling; fill = 0.45 keeps the
        # clipped first step off the fixed point), and a spent budget.
        cases = [(_system(), {}, Outcome.CONVERGED),
                 (_system(single_gateway(2), alpha=2.2, beta=0.0,
                          fill=0.45),
                  {"max_steps": 600}, Outcome.OSCILLATING),
                 (_system(), {"max_steps": 8, "tol": 0.0},
                  Outcome.UNDECIDED)]
        for system, kwargs, want in cases:
            n = system.network.num_connections
            x0 = np.full((2, n), 0.1)
            for history in ("full", "tail"):
                res = _identical(monkeypatch, _ensemble(
                    system, x0, history=history, **kwargs))
                assert res.outcomes == [want, want]

    @pytest.mark.parametrize("m", [0, 1, 64])
    @pytest.mark.parametrize("block_size", [None, 10])
    def test_ensemble_sizes(self, monkeypatch, m, block_size):
        if block_size is not None and m < block_size:
            block_size = None
        x0 = np.random.default_rng(m).uniform(0.0, 0.3, size=(m, N))
        _identical(monkeypatch, _ensemble(_system(), x0, max_steps=200,
                                          block_size=block_size),
                   served=m > 0)

    def test_blocked_equals_one_shot(self, monkeypatch):
        x0 = _starts(N, m=7)
        one = _identical(monkeypatch, _ensemble(_system(), x0))
        blocked = _identical(monkeypatch, _ensemble(_system(), x0,
                                                    block_size=3))
        assert one.finals.tobytes() == blocked.finals.tobytes()
        assert [h.tobytes() for h in one.histories] \
            == [h.tobytes() for h in blocked.histories]

    def test_run_is_the_one_member_call(self, monkeypatch):
        system = _system(IDLE, beta=0.2)
        x0 = np.array([[0.05, 0.3, 0.2], [2.0, 2.0, 2.0], [0.0, 0.0, 0.0]])
        ens = _identical(monkeypatch, _ensemble(system, x0, max_steps=400))
        for m in range(len(x0)):
            for telemetry in (False, True):
                traj = _identical(monkeypatch, lambda: system.run(
                    x0[m], max_steps=400, tol=1e-10, telemetry=telemetry))
                assert traj.history.tobytes() == ens.histories[m].tobytes()
                assert (traj.outcome, traj.period) == (ens.outcomes[m],
                                                       ens.periods[m])

    @pytest.mark.parametrize("max_steps", [0, 1, 2])
    def test_tiny_budgets(self, monkeypatch, max_steps):
        system = _system()
        x0 = _starts(N)
        _identical(monkeypatch, _ensemble(system, x0, max_steps=max_steps))
        _identical(monkeypatch, lambda: system.run(
            x0[0], max_steps=max_steps, telemetry=True))


class TestParametersAreReadPerCall:
    @pytest.mark.parametrize("attr,value", [("alpha", 0.9), ("beta", 0.3),
                                            ("fill", 0.2)])
    def test_a_changed_gain_reaches_the_kernel(self, monkeypatch, attr,
                                               value):
        system = _system()
        x0 = _starts(N, m=2)

        def run():
            return system.run_ensemble(x0, max_steps=120, tol=0.0)

        before = run()
        setattr(system.controller, attr, value)
        after = _identical(monkeypatch, run)
        assert after.finals.tobytes() != before.finals.tobytes()


class _Controller(RcpController):
    """A controller subclass: the Python loop runs it."""


class _Bank(RcpBank):
    """A bank subclass keeps its overrides: not the C transcription."""

    def _advance(self, y, state):
        return super()._advance(0.5 * y, state)


class _Source(RcpSourceRule):
    """A source-rule subclass: the Python loop runs it."""


class TestDispatch:
    def test_served(self, loop_calls):
        system = _system()
        system.run(_starts(N)[0], max_steps=50)
        system.run_ensemble(_starts(N), max_steps=50, block_size=2)
        assert len(loop_calls) == 4 and None not in loop_calls

    def test_the_python_controller_is_not_called(self, monkeypatch):
        for name in ("update", "update_batch", "advertised",
                     "advertised_batch"):
            monkeypatch.setattr(RcpBank, name, None)
        system = _system()
        system.run(_starts(N)[0], max_steps=50)
        system.run_ensemble(_starts(N), max_steps=50)

    def test_no_observe_plan_is_needed(self, loop_calls):
        from repro.core.signals import PowerSaturating

        class Power(PowerSaturating):
            """A signal-function subclass: no observe plan."""

        ctl = RcpController()
        system = FlowControlSystem(LOT, Fifo(), Power(p=2.0),
                                   RcpSourceRule(), controller=ctl)
        assert system.scheme._plan is None
        system.run_ensemble(_starts(N), max_steps=50)
        assert len(loop_calls) == 1 and loop_calls[0] is not None

    @pytest.mark.parametrize("case", ["controller", "bank", "source"])
    def test_subclasses_stay_on_the_python_loop(self, monkeypatch,
                                                loop_calls, case):
        x0 = _starts(N)
        want = _system().run_ensemble(x0, max_steps=60, tol=0.0)
        loop_calls.clear()
        if case == "bank":
            monkeypatch.setattr(RcpController, "bind",
                                lambda self, network: _Bank(network, self))
        system = FlowControlSystem(
            LOT, Fifo(), LinearSaturating(),
            _Source() if case == "source" else RcpSourceRule(),
            controller=(_Controller if case == "controller"
                        else RcpController)())
        got = system.run_ensemble(x0, max_steps=60, tol=0.0)
        system.run(x0[0], max_steps=60)
        assert loop_calls == []
        assert (got.finals.tobytes() != want.finals.tobytes()) \
            == (case == "bank")

    def test_async_with_a_controller_stays_rejected(self):
        from repro.core.asynchronous import run_async_ensemble
        from repro.errors import SweepError
        with pytest.raises(SweepError, match="controller"):
            run_async_ensemble(_system(), _starts(N), max_steps=10)


class TestWrapper:
    def test_rejects_a_batch_of_the_wrong_width(self):
        from repro.core.rcp import _loop_control
        system = _system()
        control = _loop_control(system.bank, system.rules)
        assert control.n == N
        with pytest.raises(ValueError):
            compiled.ensemble_loop(np.zeros((2, N + 1)), 5, 0.0, 5, 1e6,
                                   None, False, None, None,
                                   control=control)
        done = compiled.ensemble_loop(np.full((2, N), 0.1), 5, 0.0, 5, 1e6,
                                      None, False, None, None,
                                      control=control)
        assert done[1].tolist() == [5, 5]

    def test_control_checks_its_arrays(self):
        bank = _system().bank
        for state in (np.ones(bank.num_gateways + 1),
                      np.ones((1, bank.num_gateways))):
            with pytest.raises(ValueError, match="state"):
                compiled.Control(bank._loop_arrays, state, 0.5, 0.05,
                                 0.5, 2.0)
