"""The compiled ensemble loop.

Each block of the ensemble loop that ``run_ensemble`` and
``run_async_ensemble`` share is one C call, ``compiled.ensemble_loop``,
when the scheme has an observe plan, every rule is one of the six
built-in rule types or the three adversaries, every fault and
structural injector is a built-in type, and the clock gate is none,
round-robin or one of the coin schedules the kernel transcribes, or
when an exact ``RcpController`` drives the system
(``test_perturbed_kernel.py`` and ``test_controlled_kernel.py`` hold
the plans and the controller to this contract).  It
must give the Python loop's bits — finals, outcomes, steps, periods,
retained histories and every run record field bar the timings —
against the loop with
``compiled.ensemble_loop`` unavailable and with the whole C tier
masked.  ``test_run_loop.py`` holds ``run``, its ``M = 1`` call, to the
same contract.  ``TestHeldToReferenceRun`` holds the three runners
under the non-linear signals and the adversaries to ``reference_run``
on both tiers.
"""

import dataclasses

import numpy as np
import pytest

from repro.backends import _cext, compiled
from repro.chaos import (BlasterRule, CapacityDegradation, PinnedRateRule,
                         SawtoothRule, StructuralFaultPlan)
from repro.core import asynchronous
from repro.core.asynchronous import (BernoulliSchedule, BurstyClock,
                                     ClockSchedule, DriftingClock,
                                     RateMixClock, RoundRobinSchedule,
                                     SynchronousSchedule, UniformClock,
                                     UpdateSchedule, run_async_ensemble)
from repro.core.dynamics import FlowControlSystem, Outcome
from repro.core.fairshare import FairShare
from repro.core.fifo import Fifo
from repro.core.ratecontrol import (BinaryAimdRule, DecbitRateRule,
                                    DecbitWindowRule, ProportionalTargetRule,
                                    RateAdjustment, RcpSourceRule,
                                    TargetRule, TcpLikeRule)
from repro.core.rcp import RcpController
from repro.core.signals import (ExponentialSignal, FeedbackStyle,
                                LinearSaturating, PowerSaturating)
from repro.core.steadystate import fair_steady_state
from repro.core.topology import parking_lot, single_gateway
from repro.core.weighted import WeightedFairShare
from repro.errors import RateVectorError
from repro.chaos.structural import StructuralFaultState
from repro.faults import FaultPlan, FaultState, SignalLoss
from repro.scenarios.oracles import reference_run

pytestmark = pytest.mark.skipif(
    compiled.tier() != "cext",
    reason="no compiled ensemble loop in this environment")

SIGNAL = LinearSaturating()
POWER, EXP = PowerSaturating(2.202), ExponentialSignal(1.3)
AGG, IND = FeedbackStyle.AGGREGATE, FeedbackStyle.INDIVIDUAL
LOT = parking_lot(3, cross_per_hop=2)
N = LOT.num_connections
PHI = np.array([1.0, 2.0, 0.5, 3.0, 1.5, 1.0])

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
    # The adversaries: _starts draws rates on both sides of the cap
    # and of high, and its overloaded row starts above both.
    "blaster": lambda: BlasterRule(increment=0.03, cap=0.1),
    "pinned": lambda: PinnedRateRule(rate=0.07),
    "sawtooth": lambda: SawtoothRule(low=0.03, high=0.1, increase=0.02),
}


def _mix(n):
    """The rules in turn over ``n`` connections (the first ``n`` of
    them when ``n`` is smaller: the parking lot's seven connections
    run the six built-in rules and a blaster)."""
    rules = [make() for make in RULES.values()]
    return [rules[i % len(rules)] for i in range(n)]


def _systems():
    for name, make in RULES.items():
        yield name, FlowControlSystem(LOT, Fifo(), SIGNAL, make(),
                                      style=IND)
    for disc in (Fifo(), FairShare()):
        for style in (AGG, IND):
            yield (f"{type(disc).__name__}-{style.value}-mix",
                   FlowControlSystem(LOT, disc, SIGNAL, _mix(N),
                                     style=style))
    for style, weights in ((AGG, None), (IND, PHI)):
        label = "weighted" if weights is not None else style.value
        yield (f"WeightedFairShare-{label}-mix",
               FlowControlSystem(single_gateway(6), WeightedFairShare(PHI),
                                 SIGNAL, _mix(6), style=style,
                                 weights=weights))
    # The non-linear signals, which the kernel evaluates with libm.
    for signal, disc, style in ((POWER, FairShare(), IND),
                                (EXP, Fifo(), AGG)):
        yield (f"{type(signal).__name__}-{type(disc).__name__}-"
               f"{style.value}-mix",
               FlowControlSystem(LOT, disc, signal, _mix(N), style=style))


SYSTEMS = dict(_systems())
MIXED = SYSTEMS["FairShare-individual-mix"]


def _starts(n, m=5, seed=3):
    """Interior starts, one with a zero rate, one all zero and one
    overloaded."""
    rates = np.random.default_rng([seed, n]).uniform(0.02, 0.2, size=(m, n))
    rates[min(1, m - 1), 0] = 0.0
    if m > 3:
        rates[2] = 0.0
        rates[3] = 3.0
    return rates


def _schedules():
    """name -> a fresh shared schedule, every gate kind and the
    drifting clock the kernel leaves to the Python loop."""
    return {
        "synchronous": lambda: SynchronousSchedule(),
        "round-robin": lambda: RoundRobinSchedule(),
        "bernoulli": lambda: BernoulliSchedule(0.6, seed=4),
        "uniform": lambda: ClockSchedule(UniformClock(0.7, seed=2**33 + 1)),
        "mix": lambda: ClockSchedule(RateMixClock(0.25, 1.0, 0.5, seed=5)),
        "bursty": lambda: ClockSchedule(BurstyClock(0.9, 0.2, 8, seed=6)),
        "drifting": lambda: ClockSchedule(DriftingClock(seed=7)),
    }


SCHEDULES = _schedules()


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
    histories = (None if res.histories is None
                 else [(h.tobytes(), h.shape) for h in res.histories])
    return (res.finals.tobytes(), res.finals.shape, res.outcomes,
            res.periods, res.steps.tolist(), histories, _record(res.telemetry),
            res.history_policy, res.block_size)


def _identical(monkeypatch, run):
    """``run()`` on the kernel, with ``compiled.ensemble_loop``
    unavailable and with the whole C tier masked: the same bits."""
    fast = run()
    with monkeypatch.context() as m:
        m.setattr(compiled, "ensemble_loop", lambda *args, **kw: None)
        python = run()
        m.setattr(_cext, "load", lambda: None)
        numpy_only = run()
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
    @pytest.mark.parametrize("tau,block_size", [(0, None), (1, 2),
                                                (4, 5)])
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_gates_and_delays(self, monkeypatch, schedule, tau,
                              block_size):
        x0 = _starts(N)
        for settle in (4, np.array([3, 5, 7, 5, 2])):
            _identical(monkeypatch, lambda: run_async_ensemble(
                MIXED, x0, schedule=SCHEDULES[schedule](),
                signal_delay=tau, max_steps=100, tol=1e-9, settle=settle,
                block_size=block_size, history="full", telemetry=True))

    @pytest.mark.parametrize("history", ["full", "tail", "none"])
    @pytest.mark.parametrize("name", SYSTEMS)
    def test_systems(self, monkeypatch, name, history):
        system = SYSTEMS[name]
        x0 = _starts(system.network.num_connections)
        blocks = (None, 1, len(x0)) if history == "full" else (None,)
        for block_size in blocks:
            _identical(monkeypatch, lambda: system.run_ensemble(
                x0, max_steps=120, history=history, telemetry=True,
                block_size=block_size))

    @pytest.mark.parametrize("m", [0, 1, 7])
    def test_ensemble_sizes(self, monkeypatch, m):
        x0 = _starts(N, m=max(m, 1))[:m]
        for history in ("full", "tail", "none"):
            _identical(monkeypatch, lambda: MIXED.run_ensemble(
                x0, max_steps=150, history=history, telemetry=True))
            _identical(monkeypatch, lambda: run_async_ensemble(
                MIXED, x0, schedule=SCHEDULES["mix"](), signal_delay=2,
                max_steps=150, history=history, telemetry=True))

    @pytest.mark.parametrize("max_steps", [0, 1, 2])
    def test_budget_and_settle(self, monkeypatch, max_steps):
        x0 = _starts(N)
        for settle in (1, 3, np.array([1, 2, 3, 1, 2])):
            for tol in (0.0, 1e-10, 1.0):
                res = _identical(monkeypatch, lambda: MIXED.run_ensemble(
                    x0, max_steps=max_steps, settle=settle, tol=tol,
                    history="full", telemetry=True))
                assert int(res.steps.max()) <= max_steps

    def test_every_outcome(self, monkeypatch):
        # Members that converge, cycle (found on the tail after the
        # budget) or, with no tail kept, stay undecided; then members
        # that diverge, and members that spend the budget off a cycle.
        one = single_gateway(12)
        fair = fair_steady_state(one, 0.5)
        kicked = fair * (1 + 1e-3 * np.random.default_rng(1)
                         .standard_normal(12))
        aggregate = FlowControlSystem(one, Fifo(), SIGNAL,
                                      TargetRule(eta=0.3, beta=0.5),
                                      style=AGG)
        x0 = np.vstack([kicked, np.full(12, 3.0), fair,
                        np.full(12, 0.01)])
        for history in ("full", "tail", "none"):
            for block_size in (None, 1, 3):
                res = _identical(monkeypatch, lambda: aggregate.run_ensemble(
                    x0, max_steps=300, history=history, telemetry=True,
                    block_size=block_size))
        assert set(res.outcomes) == {Outcome.UNDECIDED, Outcome.CONVERGED}
        res = _identical(monkeypatch, lambda: aggregate.run_ensemble(
            x0, max_steps=300, telemetry=True))
        assert Outcome.OSCILLATING in res.outcomes
        diverging = FlowControlSystem(one, Fifo(), SIGNAL,
                                      TargetRule(eta=1e7, beta=0.5),
                                      style=IND)
        res = _identical(monkeypatch, lambda: diverging.run_ensemble(
            np.vstack([np.full(12, 3.0), fair]), telemetry=True))
        assert Outcome.DIVERGED in res.outcomes
        tcp = SYSTEMS["tcp-like"]
        res = _identical(monkeypatch, lambda: tcp.run_ensemble(
            _starts(N, m=2), max_steps=300, tol=0.0, telemetry=True))
        assert res.outcomes == [Outcome.UNDECIDED] * 2

    def test_delay_readers_under_clocks(self, monkeypatch):
        net = parking_lot(3, cross_per_hop=2)
        rules = (TargetRule(eta=0.05, beta=0.5), DecbitWindowRule(),
                 TcpLikeRule())
        system = FlowControlSystem(net, FairShare(), SIGNAL,
                                   [rules[i % 3] for i in range(N)],
                                   style=IND)
        x0 = _starts(N, m=4)[:2]
        for schedule in ("bursty", "round-robin"):
            _identical(monkeypatch, lambda: run_async_ensemble(
                system, x0, schedule=SCHEDULES[schedule](),
                signal_delay=3, max_steps=200, history="full",
                telemetry=True))

    def test_large_gateway(self, monkeypatch):
        # Rows on both sides of the radix threshold.
        n = 130
        system = FlowControlSystem(single_gateway(n), FairShare(), SIGNAL,
                                   _mix(n), style=IND)
        x0 = np.random.default_rng(9).uniform(0.0, 1.0 / n, size=(2, n))
        x0[0, :70] = 0.5 / n
        _identical(monkeypatch, lambda: run_async_ensemble(
            system, x0, schedule=SCHEDULES["mix"](), signal_delay=1,
            max_steps=100, telemetry=True))


class TestCoins:
    """The clock gate the kernel draws: its seed words, and its masks
    read off the kernel's own runs."""

    @staticmethod
    def _words(seed):
        return asynchronous._coin_gate(seed, np.ones(1)).seed

    def test_seed_words(self):
        assert self._words(0).tolist() == [0]
        assert self._words(2**32).tolist() == [0, 1]
        assert self._words(2**64 + 7).tolist() == [7, 0, 1]
        assert asynchronous._coin_gate(2**256, np.ones(1)) is None
        assert asynchronous._coin_gate(-1, np.ones(1)) is None

    @staticmethod
    def _masks_equal_participants(loop_calls, sched, n):
        # Blasters step up by an exact 2**-10 at every tick and ignore
        # the signal, so a source ticked at step t exactly when its rate
        # changed: the kernel's 300 masks, from schedule step 0.
        system = FlowControlSystem(single_gateway(n), Fifo(), SIGNAL,
                                   BlasterRule(increment=2**-10, cap=10.0),
                                   style=AGG)
        res = run_async_ensemble(system, np.zeros((1, n)), schedule=sched,
                                 max_steps=300, tol=0.0, settle=301,
                                 history="full")
        assert loop_calls and None not in loop_calls
        history = res.histories[0]
        assert history.shape == (301, n)
        got = history[1:] != history[:-1]
        want = np.array([sched.participants(t, n) for t in range(300)])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [1, 5, 33])
    @pytest.mark.parametrize("schedule", [k for k in SCHEDULES
                                          if k != "drifting"])
    def test_masks_equal_participants(self, loop_calls, schedule, n):
        self._masks_equal_participants(loop_calls, SCHEDULES[schedule](), n)

    @pytest.mark.parametrize("seed", [2**64 + 7, 2**100 + 3, 2**255 + 1],
                             ids=["3-words", "4-words", "8-words"])
    def test_wide_seeds(self, loop_calls, seed):
        # Three, four and eight seed words: with the step's word the
        # seed sequence takes in four words or more, and past the
        # fourth it runs its extra mixing loop.
        self._masks_equal_participants(
            loop_calls, ClockSchedule(UniformClock(0.6, seed=seed)), 7)


class _CustomSchedule(UpdateSchedule):
    def participants(self, step, n):
        return np.arange(n) % 2 == step % 2


class _RoundRobin(RoundRobinSchedule):
    """A subclass keeps its overrides: not the C transcription."""

    def participants(self, step, n):
        return ~super().participants(step, n)


class _Uniform(UniformClock):
    def tick_rates(self, step, n):
        return np.full(n, self.rate / 2)


class _Custom(RateAdjustment):
    reads_delay = False

    def delta(self, rate, signal, delay):
        return 0.01 * (0.5 - signal)


class _Loss(SignalLoss):
    """An injector subclass: the Python stages apply it."""


class _Power(PowerSaturating):
    """A signal-function subclass: the observe kernel has no plan for
    it."""


class _Degradation(CapacityDegradation):
    """A structural-injector subclass: the Python stages apply it."""


def _plan(case):
    """The fault or structural plan of a dispatch ``case``."""
    if case.startswith("fault"):
        loss = _Loss if case == "fault-subclass" else SignalLoss
        return {"faults": FaultPlan((loss(rate=0.3),), seed=1)}
    cut = (_Degradation if case == "structural-subclass"
           else CapacityDegradation)
    return {"structural": StructuralFaultPlan(
        (cut(LOT.gateway_names[0], factor=0.5, start=5, duration=10),),
        seed=1)}


class TestDispatch:
    @pytest.fixture
    def participants(self, monkeypatch):
        """Every built-in schedule's ``participants`` calls."""
        calls = []
        for cls in (SynchronousSchedule, RoundRobinSchedule,
                    BernoulliSchedule, ClockSchedule):
            orig = cls.participants

            def counting(self, step, n, orig=orig):
                calls.append(step)
                return orig(self, step, n)

            monkeypatch.setattr(cls, "participants", counting)
        return calls

    @pytest.mark.parametrize("schedule", [k for k in SCHEDULES
                                          if k != "drifting"])
    def test_served(self, loop_calls, participants, schedule):
        x0 = _starts(N)
        run_async_ensemble(MIXED, x0, schedule=SCHEDULES[schedule](),
                           signal_delay=2, max_steps=60, block_size=2)
        assert len(loop_calls) == 3 and None not in loop_calls
        assert participants == []

    def test_synchronous_ensemble_is_served(self, loop_calls):
        MIXED.run_ensemble(_starts(N), max_steps=60, faults=FaultPlan(),
                           structural=StructuralFaultPlan())
        assert len(loop_calls) == 1 and loop_calls[0] is not None

    @pytest.mark.parametrize("case", ["faults", "structural"])
    def test_plans_are_served(self, monkeypatch, loop_calls, case):
        # The kernel runs the perturb stages: no Python stage is called.
        for cls, name in ((FaultState, "apply"),
                          (StructuralFaultState, "resolve")):
            monkeypatch.setattr(cls, name, None)
        MIXED.run_ensemble(_starts(N, m=3), max_steps=60, block_size=2,
                           **_plan(case))
        assert len(loop_calls) == 2 and None not in loop_calls

    def test_controller_is_served(self, loop_calls):
        # The kernel runs the bank: test_controlled_kernel.py holds it
        # to the Python loop.
        system = FlowControlSystem(
            LOT, Fifo(), SIGNAL, RcpSourceRule(), style=IND,
            controller=RcpController(alpha=0.5, beta=0.05))
        system.run_ensemble(_starts(N, m=3), max_steps=30, block_size=2)
        assert len(loop_calls) == 2 and None not in loop_calls

    @pytest.mark.parametrize("case", [
        "fault-subclass", "structural-subclass", "power-signal",
        "custom-rule", "target-subclass", "per-member", "drifting",
        "custom-schedule", "schedule-subclass", "clock-subclass"])
    def test_not_served(self, loop_calls, case):
        x0 = _starts(N, m=2)
        system, kwargs, schedule = MIXED, {}, None
        if case in ("fault-subclass", "structural-subclass"):
            kwargs = _plan(case)
        elif case == "power-signal":
            system = FlowControlSystem(LOT, Fifo(), _Power(p=2.0),
                                       _mix(N), style=IND)
        elif case == "custom-rule":
            system = FlowControlSystem(LOT, Fifo(), SIGNAL,
                                       _mix(N - 1) + [_Custom()], style=IND)
        elif case == "target-subclass":
            class _Target(TargetRule):
                def delta_batch(self, rates, signals, delays):
                    return 2.0 * super().delta_batch(rates, signals, delays)

            system = FlowControlSystem(LOT, Fifo(), SIGNAL, _Target(),
                                       style=IND)
        elif case == "per-member":
            schedule = [RoundRobinSchedule(), BernoulliSchedule(0.5)]
        elif case == "drifting":
            schedule = SCHEDULES["drifting"]()
        elif case == "custom-schedule":
            schedule = _CustomSchedule()
        elif case == "schedule-subclass":
            schedule = _RoundRobin()
        else:
            schedule = ClockSchedule(_Uniform(0.6))
        if schedule is None:
            system.run_ensemble(x0, max_steps=30, **kwargs)
        else:
            run_async_ensemble(system, x0, schedule=schedule,
                               max_steps=30)
        assert loop_calls == []

    def test_unavailable_without_the_c_tier(self, monkeypatch, loop_calls):
        monkeypatch.setattr(_cext, "load", lambda: None)
        MIXED.run_ensemble(_starts(N), max_steps=30)
        assert loop_calls == [None]

    def test_domain_hands_back_to_the_python_loop(self, loop_calls):
        # At mu = 1e30 a rate of 1e-300 has a load that underflows to
        # zero, so its delay is 0: the window rule raises, on the
        # Python loop the kernel hands the block back to.
        net = single_gateway(2, mu=1e30)
        system = FlowControlSystem(net, Fifo(), SIGNAL, DecbitWindowRule(),
                                   style=IND)
        x0 = np.array([[0.1, 0.1], [1e-300, 1e-300]])
        with pytest.raises(RateVectorError, match="delays must be positive"):
            system.run_ensemble(x0, max_steps=10)
        assert loop_calls == [None]

    def test_nothing_the_kernel_wrote_survives_a_hand_back(
            self, monkeypatch):
        # A kernel that scribbles over every buffer it was given and
        # then hands the block back: the Python loop's result, exactly.
        orig = compiled.ensemble_loop

        def scribbling(*args, tail=None, full=None, agg=None, **kwargs):
            orig(*args, tail=tail, full=full, agg=agg, **kwargs)
            for buf in (tail, full, agg):
                if buf is not None:
                    buf[...] = np.nan
            return None

        x0 = _starts(N)
        runs = [lambda: MIXED.run_ensemble(
                    x0, max_steps=200, history=history, telemetry=True,
                    block_size=2)
                for history in ("full", "tail")]
        runs.append(lambda: run_async_ensemble(
            MIXED, x0, schedule=SCHEDULES["bursty"](), signal_delay=2,
            max_steps=200, telemetry=True))
        for run in runs:
            with monkeypatch.context() as m:
                m.setattr(compiled, "ensemble_loop",
                          lambda *a, **k: None)
                want = run()
            monkeypatch.setattr(compiled, "ensemble_loop", scribbling)
            got = run()
            monkeypatch.setattr(compiled, "ensemble_loop", orig)
            assert _fingerprint(got) == _fingerprint(want)


class TestParametersAreReadPerCall:
    @pytest.mark.parametrize("schedule,target,attr,value", [
        ("bernoulli", "schedule", "p", 0.3),
        ("bernoulli", "schedule", "seed", 11),
        ("uniform", "clock", "rate", 0.4),
        ("mix", "clock", "slow_fraction", 0.9),
        ("bursty", "clock", "burst_len", 3),
        ("bursty", "clock", "off_rate", 0.6),
    ])
    def test_a_changed_schedule_parameter_reaches_the_kernel(
            self, monkeypatch, schedule, target, attr, value):
        sched = SCHEDULES[schedule]()
        x0 = _starts(N, m=2)

        def run():
            return run_async_ensemble(MIXED, x0, schedule=sched,
                                      max_steps=120, tol=0.0)

        before = run()
        setattr(sched if target == "schedule" else sched.clock, attr, value)
        after = _identical(monkeypatch, run)
        assert after.finals.tobytes() != before.finals.tobytes()

    def test_a_changed_rule_parameter_reaches_the_kernel(self, monkeypatch):
        rule = TargetRule(eta=0.1, beta=0.45)
        system = FlowControlSystem(LOT, Fifo(), SIGNAL, rule, style=IND)
        x0 = _starts(N, m=2)

        def run():
            return run_async_ensemble(system, x0,
                                      schedule=SCHEDULES["mix"](),
                                      max_steps=120, tol=0.0)

        before = run()
        rule.eta = 0.3
        after = _identical(monkeypatch, run)
        assert after.finals.tobytes() != before.finals.tobytes()

    @pytest.mark.parametrize("make,attr,value", [
        (lambda: PowerSaturating(2.202), "p", 1.5),
        (lambda: ExponentialSignal(1.3), "k", 0.6)],
        ids=["power-p", "exponential-k"])
    def test_a_changed_signal_parameter_reaches_the_kernel(
            self, monkeypatch, loop_calls, make, attr, value):
        signal = make()
        system = FlowControlSystem(LOT, Fifo(), signal,
                                   TargetRule(eta=0.1, beta=0.45), style=IND)
        x0 = _starts(N, m=2)

        def run():
            return system.run_ensemble(x0, max_steps=120, tol=0.0)

        before = run()
        setattr(signal, attr, value)
        after = _identical(monkeypatch, run)
        assert after.finals.tobytes() != before.finals.tobytes()
        assert len(loop_calls) == 2 and None not in loop_calls


def _adversary_mix(n):
    """The three adversaries among honest rules over ``n``
    connections."""
    names = ("target", "blaster", "decbit-window", "pinned", "tcp-like",
             "sawtooth", "proportional-target")
    return [RULES[names[i % len(names)]]() for i in range(n)]


def _same_run(traj, ref):
    """``traj`` equals ``reference_run``'s ``ref`` bit for bit."""
    return ((traj.history.tobytes(), traj.history.shape, traj.outcome,
             traj.steps, traj.period)
            == (ref.history.tobytes(), ref.history.shape, ref.outcome,
                ref.steps, ref.period))


class TestHeldToReferenceRun:
    """``run``, ``run_ensemble`` and ``run_async_ensemble`` under the
    non-linear signals and under an adversary mix, on the kernel and
    again with the whole C tier masked, against ``reference_run``: the
    plain per-connection loop, which shares no code with either tier's
    loop.  Each run must equal it bit for bit (history, outcome, steps,
    period, and a run's fault and structural events)."""

    STEPS = 100

    @pytest.fixture(params=["cext", "numpy"])
    def tier(self, request, monkeypatch):
        if request.param == "numpy":
            monkeypatch.setattr(_cext, "load", lambda: None)
        return request.param

    @staticmethod
    def _system(case, disc, style):
        if case == "adversaries":
            return FlowControlSystem(LOT, disc, SIGNAL, _adversary_mix(N),
                                     style=style)
        signal = POWER if case == "power" else EXP
        return FlowControlSystem(LOT, disc, signal, _mix(N), style=style)

    @staticmethod
    def _x0():
        # Row 0 puts the blaster at its cap and the sawtooth at its
        # high, row 1 above both; row 3 overloads every gateway.
        x0 = _starts(N, m=4)
        x0[0, [1, 5]] = 0.1
        x0[1, [1, 5]] = 0.25
        return x0

    @pytest.mark.parametrize("disc,style", [(Fifo(), AGG),
                                            (FairShare(), IND)],
                             ids=["fifo-aggregate", "fair-share-individual"])
    @pytest.mark.parametrize("case", ["power", "exponential",
                                      "adversaries"])
    def test_the_runners(self, tier, loop_calls, case, disc, style):
        system, x0 = self._system(case, disc, style), self._x0()
        for plan in (None, "faults", "structural"):
            kwargs = {} if plan is None else _plan(plan)
            ref = reference_run(system, x0[0], max_steps=self.STEPS,
                                **({} if plan is None else _plan(plan)))
            traj = system.run(x0[0], max_steps=self.STEPS, **kwargs)
            assert _same_run(traj, ref), plan
            assert traj.fault_events == ref.fault_events, plan
            assert traj.structural_events == ref.structural_events, plan
            ens = system.run_ensemble(
                x0, max_steps=self.STEPS, history="full",
                **({} if plan is None else _plan(plan)))
            # reference_run starts a plan as member 0's.
            for m in range(len(x0) if plan is None else 1):
                want = ref if m == 0 else reference_run(
                    system, x0[m], max_steps=self.STEPS)
                assert _same_run(ens.trajectory(m), want), (plan, m)
        schedule = SCHEDULES["bursty"]()
        ens = run_async_ensemble(system, x0, schedule=schedule,
                                 signal_delay=2, max_steps=self.STEPS,
                                 history="full")
        for m in range(len(x0)):
            want = reference_run(system, x0[m], schedule, 2,
                                 max_steps=self.STEPS)
            assert _same_run(ens.trajectory(m), want), m
        assert loop_calls
        assert all((out is None) == (tier == "numpy") for out in loop_calls)
