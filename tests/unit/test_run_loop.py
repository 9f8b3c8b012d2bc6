"""``run`` as the ensemble kernel's ``M = 1`` call.

``FlowControlSystem.run`` runs its whole step loop in one C call,
``compiled.ensemble_loop`` on a one-member block whose full history is
``run``'s history buffer, when the scheme has an observe plan (FIFO,
Fair Share or weighted Fair Share under ``LinearSaturating``), every
rule is one of the six built-in rule types and every fault and
structural injector is a built-in type, or when an exact
``RcpController`` drives the system.  It must give
the Python loop's bits — the history, outcome, period, step count and
run record — against ``run`` with ``compiled.ensemble_loop``
unavailable and against ``run`` with the whole C tier masked.  Every
other run takes the Python loop.  ``test_compiled_ensemble_loop.py``
holds the ensemble runners to the same contract.
"""

import dataclasses

import numpy as np
import pytest

from repro.backends import _cext, compiled
from repro.chaos import CapacityDegradation, StructuralFaultPlan
from repro.core.asynchronous import AsynchronousRunner, run_async_ensemble
from repro.core.dynamics import FlowControlSystem, Outcome
from repro.core.fairshare import FairShare
from repro.core.fifo import Fifo
from repro.core.ratecontrol import (BinaryAimdRule, DecbitRateRule,
                                    DecbitWindowRule, ProportionalTargetRule,
                                    RateAdjustment, RcpSourceRule,
                                    TargetRule, TcpLikeRule)
from repro.core.rcp import RcpController
from repro.core.signals import (FeedbackStyle, LinearSaturating,
                                PowerSaturating)
from repro.core.steadystate import fair_steady_state
from repro.core.topology import parking_lot, single_gateway
from repro.core.weighted import WeightedFairShare
from repro.errors import RateVectorError
from repro.chaos.structural import StructuralFaultState
from repro.faults import FaultPlan, FaultState, SignalLoss

pytestmark = pytest.mark.skipif(
    not compiled.fs_available(),
    reason="no compiled run loop in this environment")

SIGNAL = LinearSaturating()
AGG, IND = FeedbackStyle.AGGREGATE, FeedbackStyle.INDIVIDUAL
LOT = parking_lot(3, cross_per_hop=2)
PHI = np.array([1.0, 2.0, 0.5, 3.0, 1.5, 1.0])

# Gains that are not powers of two, so a reassociated product or a
# reordered sum moves the last bit.
RULES = {
    "target": lambda: TargetRule(eta=0.1, beta=0.45),
    "proportional-target": lambda: ProportionalTargetRule(eta=0.3,
                                                          beta=0.45),
    "decbit-rate": lambda: DecbitRateRule(eta=0.05, beta=0.3),
    "decbit-window": lambda: DecbitWindowRule(eta=0.05, beta=0.3),
    "binary-aimd": lambda: BinaryAimdRule(increase=0.01, decrease=0.15,
                                          threshold=0.45),
    "tcp-like": lambda: TcpLikeRule(increase=0.05, decrease=0.15,
                                    threshold=0.45),
}


def _mix(n):
    """One of each rule, repeated over ``n`` connections."""
    rules = [make() for make in RULES.values()]
    return [rules[i % len(rules)] for i in range(n)]


def _systems():
    n = LOT.num_connections
    for name, make in RULES.items():
        yield name, FlowControlSystem(LOT, Fifo(), SIGNAL, make(),
                                      style=IND)
    for disc in (Fifo(), FairShare()):
        for style in (AGG, IND):
            yield (f"{type(disc).__name__}-{style.value}-mix",
                   FlowControlSystem(LOT, disc, SIGNAL, _mix(n),
                                     style=style))
    for style, weights in ((AGG, None), (IND, None), (IND, PHI)):
        label = "weighted" if weights is not None else style.value
        yield (f"WeightedFairShare-{label}-mix",
               FlowControlSystem(single_gateway(6), WeightedFairShare(PHI),
                                 SIGNAL, _mix(6), style=style,
                                 weights=weights))


SYSTEMS = dict(_systems())


def _start(kind, n):
    rates = np.random.default_rng([3, n]).uniform(0.02, 0.2, size=n)
    if kind == "zero-rate":
        rates[0] = 0.0
    elif kind == "all-zero":
        rates[:] = 0.0
    elif kind == "overloaded":
        rates[:] = 3.0
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


def _fingerprint(traj):
    return (traj.history.tobytes(), traj.history.shape, traj.outcome,
            traj.period, traj.steps, _record(traj.telemetry),
            traj.fault_events, traj.structural_events)


def _legs(monkeypatch, system, x0, **kwargs):
    """``run`` on the C loop, with ``compiled.ensemble_loop``
    unavailable, and with the whole C tier masked."""
    fast = system.run(x0, **kwargs)
    with monkeypatch.context() as m:
        m.setattr(compiled, "ensemble_loop", lambda *args, **kw: None)
        python = system.run(x0, **kwargs)
        m.setattr(_cext, "load", lambda: None)
        numpy_only = system.run(x0, **kwargs)
    return fast, python, numpy_only


def _assert_identical(monkeypatch, system, x0, **kwargs):
    fast, python, numpy_only = _legs(monkeypatch, system, x0, **kwargs)
    assert _fingerprint(fast) == _fingerprint(python)
    assert _fingerprint(fast) == _fingerprint(numpy_only)
    return fast


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


class TestBitIdentical:
    @pytest.mark.parametrize("start", ["interior", "zero-rate", "all-zero",
                                       "overloaded"])
    @pytest.mark.parametrize("name", SYSTEMS)
    @pytest.mark.parametrize("telemetry", [False, True],
                             ids=["plain", "telemetry"])
    def test_systems_and_starts(self, monkeypatch, loop_calls, name, start,
                                telemetry):
        system = SYSTEMS[name]
        x0 = _start(start, system.network.num_connections)
        _assert_identical(monkeypatch, system, x0, max_steps=400,
                          telemetry=telemetry)
        assert loop_calls and loop_calls[0] is not None

    @pytest.mark.parametrize("max_steps", [0, 1, 2])
    @pytest.mark.parametrize("settle", [1, 3, 5])
    def test_budget_and_settle(self, monkeypatch, max_steps, settle):
        system = SYSTEMS["FairShare-individual-mix"]
        x0 = _start("interior", system.network.num_connections)
        for tol in (0.0, 1e-10, 1.0):
            traj = _assert_identical(monkeypatch, system, x0,
                                     max_steps=max_steps, settle=settle,
                                     tol=tol, telemetry=True)
            assert traj.history.shape[0] <= max_steps + 1

    def test_settle_one_converges_on_a_fixed_point(self, monkeypatch):
        system = FlowControlSystem(single_gateway(4), Fifo(), SIGNAL,
                                   TargetRule(eta=0.1, beta=0.5), style=IND)
        fair = fair_steady_state(single_gateway(4), 0.5)
        traj = _assert_identical(monkeypatch, system, fair, settle=1,
                                 telemetry=True)
        assert traj.outcome is Outcome.CONVERGED and traj.steps == 1

    def test_every_outcome(self, monkeypatch):
        one = single_gateway(12)
        fair = fair_steady_state(one, 0.5)
        kicked = fair * (1 + 1e-3 * np.random.default_rng(1)
                         .standard_normal(12))
        cases = [
            (FlowControlSystem(one, Fifo(), SIGNAL,
                               TargetRule(eta=0.05, beta=0.5), style=IND),
             kicked, {}, Outcome.CONVERGED),
            (FlowControlSystem(one, Fifo(), SIGNAL,
                               TargetRule(eta=1e9, beta=0.5), style=IND),
             kicked, {}, Outcome.DIVERGED),
            (FlowControlSystem(one, Fifo(), SIGNAL,
                               TargetRule(eta=0.3, beta=0.5), style=AGG),
             kicked, {"max_steps": 400}, Outcome.OSCILLATING),
            (SYSTEMS["tcp-like"], _start("interior", LOT.num_connections),
             {"max_steps": 300, "tol": 0.0}, Outcome.UNDECIDED),
            # Zero rates are a fixed point of the proportional rule: a
            # change of exactly 0 is quiet even at tol = 0.
            (SYSTEMS["proportional-target"], np.zeros(LOT.num_connections),
             {"tol": 0.0}, Outcome.CONVERGED),
        ]
        for system, x0, kwargs, want in cases:
            for telemetry in (False, True):
                traj = _assert_identical(monkeypatch, system, x0,
                                         telemetry=telemetry, **kwargs)
                assert traj.outcome is want

    def test_divergence_after_the_first_step(self, monkeypatch):
        # From an overloaded start the huge gain cuts every rate to 0;
        # from 0 it jumps past the limit at step 2.
        system = FlowControlSystem(single_gateway(2), Fifo(), SIGNAL,
                                   TargetRule(eta=1e7, beta=0.5),
                                   style=IND)
        traj = _assert_identical(monkeypatch, system, np.full(2, 3.0),
                                 telemetry=True)
        assert traj.outcome is Outcome.DIVERGED and traj.steps == 2

    def test_large_gateway(self, monkeypatch):
        n = 70
        system = FlowControlSystem(single_gateway(n), FairShare(), SIGNAL,
                                   _mix(n), style=IND)
        _assert_identical(monkeypatch, system, _start("zero-rate", n),
                          max_steps=300, telemetry=True)


class TestDispatch:
    def _system(self, rules=None, **kwargs):
        n = LOT.num_connections
        return FlowControlSystem(LOT, kwargs.pop("discipline", Fifo()),
                                 kwargs.pop("signal", SIGNAL),
                                 rules or _mix(n), style=IND, **kwargs)

    def _x0(self):
        return _start("interior", LOT.num_connections)

    def test_empty_plans_are_served(self, loop_calls):
        system = self._system()
        system.run(self._x0(), max_steps=50, faults=FaultPlan(),
                   structural=StructuralFaultPlan())
        assert len(loop_calls) == 1 and loop_calls[0] is not None

    class _Custom(RateAdjustment):
        reads_delay = False

        def delta(self, rate, signal, delay):
            return 0.01 * (0.5 - signal)

    class _Target(TargetRule):
        """A subclass keeps its overrides: not the C transcription."""

        def delta_batch(self, rates, signals, delays):
            return 2.0 * super().delta_batch(rates, signals, delays)

    class _Loss(SignalLoss):
        """An injector subclass: the Python stages apply it."""

    class _Degradation(CapacityDegradation):
        """A structural-injector subclass: the Python stages apply it."""

    def _plan(self, case):
        """The fault or structural plan of a dispatch ``case``."""
        if case.startswith("fault"):
            loss = self._Loss if case == "fault-subclass" else SignalLoss
            return {"faults": FaultPlan((loss(rate=0.3),), seed=1)}
        cut = (self._Degradation if case == "structural-subclass"
               else CapacityDegradation)
        return {"structural": StructuralFaultPlan(
            (cut(LOT.gateway_names[0], factor=0.5, start=5, duration=10),),
            seed=1)}

    @pytest.mark.parametrize("case", ["faults", "structural"])
    def test_plans_are_served(self, monkeypatch, loop_calls, case):
        # The kernel runs the perturb stages: no Python stage is called.
        for cls, name in ((FaultState, "apply"),
                          (StructuralFaultState, "resolve")):
            monkeypatch.setattr(cls, name, None)
        self._system().run(self._x0(), max_steps=50, **self._plan(case))
        assert len(loop_calls) == 1 and loop_calls[0] is not None

    def test_controller_is_served(self, loop_calls):
        # The kernel runs the bank: test_controlled_kernel.py holds it
        # to the Python loop.
        system = self._system([RcpSourceRule()] * LOT.num_connections,
                              controller=RcpController(alpha=0.5,
                                                       beta=0.05))
        system.run(self._x0(), max_steps=30)
        assert len(loop_calls) == 1 and loop_calls[0] is not None

    @pytest.mark.parametrize("case", [
        "fault-subclass", "structural-subclass", "power-signal",
        "custom-rule", "target-subclass"])
    def test_not_served(self, loop_calls, case):
        n = LOT.num_connections
        kwargs = {}
        if case == "power-signal":
            system = self._system(signal=PowerSaturating(p=2.0))
        elif case == "custom-rule":
            system = self._system(_mix(n - 1) + [self._Custom()])
        elif case == "target-subclass":
            system = self._system([self._Target()] * n)
        else:
            system = self._system()
            kwargs = self._plan(case)
        system.run(self._x0(), max_steps=30, **kwargs)
        assert loop_calls == []

    def test_other_runners_do_not_use_it(self, loop_calls):
        # The steppers; the ensemble runners and the asynchronous
        # runner, their M = 1 call, are the kernel's other callers.
        system = self._system()
        x0 = self._x0()
        system.step(x0)
        system.step_batch(x0[None])
        assert loop_calls == []
        system.run_ensemble(x0[None], max_steps=20)
        run_async_ensemble(system, x0[None], max_steps=20)
        AsynchronousRunner(system).run(x0, max_steps=20)
        assert len(loop_calls) == 3 and None not in loop_calls

    def test_delay_domain_hands_back_to_the_python_loop(self, loop_calls):
        # At mu = 1e30 a rate of 1e-300 has a load that underflows to
        # zero, so its queue, its sojourn and (with no latency) its
        # delay are 0: the window rule raises, on the Python loop the
        # kernel hands the run back to.
        net = single_gateway(2, mu=1e30)
        system = FlowControlSystem(net, Fifo(), SIGNAL, DecbitWindowRule(),
                                   style=IND)
        with pytest.raises(RateVectorError, match="delays must be positive"):
            system.run(np.array([1e-300, 1e-300]), max_steps=10)
        assert loop_calls == [None]


class TestParametersAreReadPerRun:
    @pytest.mark.parametrize("name,attr,value", [
        ("target", "eta", 0.3), ("proportional-target", "beta", 0.4),
        ("decbit-rate", "eta", 0.1), ("decbit-window", "beta", 0.25),
        ("binary-aimd", "threshold", 0.3), ("tcp-like", "increase", 0.01)])
    def test_a_changed_parameter_reaches_the_loop(self, monkeypatch, name,
                                                  attr, value):
        rule = RULES[name]()
        system = FlowControlSystem(LOT, Fifo(), SIGNAL, rule, style=IND)
        x0 = _start("interior", LOT.num_connections)
        before = system.run(x0, max_steps=200)
        setattr(rule, attr, value)
        after = _assert_identical(monkeypatch, system, x0, max_steps=200)
        assert after.history.tobytes() != before.history.tobytes()


class TestWrapper:
    def _args(self, n):
        system = SYSTEMS["target"]
        return (system.scheme._plan, False, np.zeros(n, dtype=np.int64),
                np.zeros((n, 3)))

    def test_rejects_mismatched_buffers(self):
        n = LOT.num_connections
        plan, delays, codes, params = self._args(n)
        x0 = np.full((2, n), 0.1)
        bad = [
            dict(initials=np.zeros((2, n + 1))),
            dict(codes=codes.astype(np.int32)),
            dict(params=np.zeros((n, 2))),
            dict(full=np.zeros((2, 5, n))),
            dict(full=np.zeros((2, 6, n), dtype=np.float32)),
            dict(tail=np.zeros((2, n, 4)).transpose(0, 2, 1)),
            dict(tail=np.zeros((1, 4, n))),
            dict(agg=np.zeros(4)),
        ]
        for case in bad:
            args = dict(initials=x0, codes=codes, params=params)
            args.update(case)
            with pytest.raises(ValueError):
                compiled.ensemble_loop(
                    args.pop("initials"), 5, 0.0, 5, 1e6, plan, delays,
                    args.pop("codes"), args.pop("params"), **args)

    def test_unavailable_without_the_c_tier(self, monkeypatch):
        n = LOT.num_connections
        monkeypatch.setattr(_cext, "load", lambda: None)
        assert compiled.ensemble_loop(np.zeros((1, n)), 5, 0.0, 5, 1e6,
                                      *self._args(n)) is None
