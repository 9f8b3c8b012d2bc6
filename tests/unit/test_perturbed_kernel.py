"""Fault and structural plans in the ensemble kernel.

``run_ensemble`` runs a member block under a fault plan, a structural
plan or both in one C call, ``compiled.ensemble_loop``, and ``run`` is
its one-member call, when every injector is one of the built-in types:
the kernel transcribes the structural view (each gateway's ``mu``
times its open degradations' factors, ``b = 1`` behind a blackhole)
and ``FaultState.apply`` (all six injectors in stage order, each
member with its own history, delivered vector and PCG64 stream).  It
must give the Python loop's bits — finals, steps, outcomes, periods,
full histories, fault and structural events and every run record
field bar the timings — against the loop with ``compiled.ensemble_loop``
unavailable.  (That loop observes in C as the kernel does;
``test_observe_stage.py`` holds the C observe stage to the numpy one.)
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.backends import compiled
from repro.core import dynamics
from repro.chaos import (CapacityDegradation, GatewayBlackhole,
                         StructuralFaultPlan)
from repro.core.dynamics import FlowControlSystem, Outcome
from repro.core.fairshare import FairShare
from repro.core.fifo import Fifo
from repro.core.ratecontrol import (BinaryAimdRule, DecbitRateRule,
                                    DecbitWindowRule, ProportionalTargetRule,
                                    TargetRule, TcpLikeRule)
from repro.core.signals import FeedbackStyle, LinearSaturating
from repro.core.topology import parking_lot, single_gateway
from repro.errors import FaultError, RateVectorError
from repro.faults import (ClockSkew, ExtraDelay, FaultPlan, GatewayOutage,
                          SignalLoss, SignalNoise, SignalQuantisation)

pytestmark = pytest.mark.skipif(
    not compiled.fs_available(),
    reason="no compiled ensemble loop in this environment")

SIGNAL = LinearSaturating()
AGG, IND = FeedbackStyle.AGGREGATE, FeedbackStyle.INDIVIDUAL
LOT = parking_lot(3, cross_per_hop=2)
N = LOT.num_connections
G = LOT.gateway_names


def _mix(n):
    """All six built-in rules, repeated over ``n`` connections."""
    rules = [TargetRule(eta=0.1, beta=0.45),
             ProportionalTargetRule(eta=0.3, beta=0.45),
             DecbitRateRule(eta=0.05, beta=0.3),
             DecbitWindowRule(eta=0.05, beta=0.3),
             BinaryAimdRule(increase=0.01, decrease=0.15, threshold=0.45),
             TcpLikeRule(increase=0.05, decrease=0.15, threshold=0.45)]
    return [rules[i % len(rules)] for i in range(n)]


FIFO = FlowControlSystem(LOT, Fifo(), SIGNAL, _mix(N), style=IND)
FAIR = FlowControlSystem(LOT, FairShare(), SIGNAL, _mix(N), style=AGG)

INJECTORS = {
    "skew": ClockSkew(min_lag=1, max_lag=6),
    "delay": ExtraDelay(delay=2, jitter=3),
    "outage": GatewayOutage(start=3, duration=4, period=9, gateway=G[1]),
    "loss": SignalLoss(rate=0.3),
    "noise": SignalNoise(rate=0.5, amplitude=0.2),
    "quantise": SignalQuantisation(levels=5),
}

DAMAGE = StructuralFaultPlan((
    CapacityDegradation(G[0], factor=0.6, start=4, duration=20, period=30,
                        jitter=3),
    CapacityDegradation(G[0], factor=0.7, start=10, duration=15, jitter=2),
    CapacityDegradation(G[1], factor=0.55, start=2, duration=5, period=12),
    GatewayBlackhole(G[2], start=25, duration=6, period=40, jitter=4),
), seed=5)


def _starts(n, m=5, seed=3):
    """Interior starts, one with a zero rate, one all zero and one
    overloaded."""
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
        return (res.finals.tobytes(), res.outcomes, res.periods,
                res.steps.tolist(), histories, _record(res.telemetry),
                res.fault_events, res.structural_events, res.block_size)
    return (res.history.tobytes(), res.history.shape, res.outcome,
            res.period, res.steps, _record(res.telemetry),
            res.fault_events, res.structural_events)


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


def _identical(monkeypatch, run):
    """``run()`` on the kernel and with ``compiled.ensemble_loop``
    unavailable: the same bits; and the kernel served it."""
    calls = []
    orig = compiled.ensemble_loop

    def spy(*args, **kwargs):
        calls.append(orig(*args, **kwargs))
        return calls[-1]

    with monkeypatch.context() as m:
        m.setattr(compiled, "ensemble_loop", spy)
        fast = run()
    assert calls and None not in calls
    with monkeypatch.context() as m:
        m.setattr(compiled, "ensemble_loop", lambda *args, **kw: None)
        python = run()
    assert _fingerprint(fast) == _fingerprint(python)
    return fast


def _ensemble(system, faults=None, structural=None, x0=None, **kwargs):
    x0 = _starts(N) if x0 is None else x0
    args = dict(max_steps=120, tol=1e-9, history="full", telemetry=True,
                faults=faults, structural=structural)
    args.update(kwargs)
    return lambda: system.run_ensemble(x0, **args)


class TestBitIdentical:
    @pytest.mark.parametrize("name", INJECTORS)
    def test_each_injector_alone(self, monkeypatch, name):
        plan = FaultPlan((INJECTORS[name],), seed=11)
        for system in (FIFO, FAIR):
            res = _identical(monkeypatch, _ensemble(system, plan))
            assert res.fault_events

    @pytest.mark.parametrize("block_size", [None, 2])
    def test_all_six_together(self, monkeypatch, block_size):
        # Listed out of stage order: the stable stage sort decides.
        plan = FaultPlan(tuple(reversed(INJECTORS.values())), seed=2)
        for system in (FIFO, FAIR):
            res = _identical(monkeypatch, _ensemble(
                system, plan, DAMAGE, block_size=block_size))
            assert {e.kind for e in res.fault_events} == {
                "clock_skew", "delay", "outage", "loss", "corrupt",
                "quantise"}
            assert {e.kind for e in res.structural_events} == {
                "degrade", "blackhole", "restore"}

    def test_loss_on_a_subset_with_a_repeated_index(self, monkeypatch):
        plan = FaultPlan((SignalLoss(rate=0.5, connections=(4, 0, 2, 2)),),
                         seed=3)
        res = _identical(monkeypatch, _ensemble(FIFO, plan))
        assert {e.connection for e in res.fault_events} == {0, 2, 4}
        # A lost repeated connection is recorded once per listing.
        twice = [e for e in res.fault_events if e.connection == 2]
        assert twice and twice[0::2] == twice[1::2]

    @pytest.mark.parametrize("outage", [
        GatewayOutage(start=2, duration=5),
        GatewayOutage(start=1, duration=3, period=7),
        GatewayOutage(start=4, duration=2, period=2, gateway=G[0]),
        GatewayOutage(start=0, duration=3, gateway=G[2]),
    ], ids=["all-once", "all-periodic", "gateway-always", "gateway-once"])
    def test_outages(self, monkeypatch, outage):
        res = _identical(monkeypatch, _ensemble(
            FIFO, FaultPlan((outage,), seed=4)))
        assert res.fault_events

    def test_skew_and_delay_clamped_to_early_history(self, monkeypatch):
        # Lags past the history recorded so far read its oldest row;
        # lags and windows past the step budget act as the budget.
        plans = [FaultPlan((ClockSkew(min_lag=4, max_lag=9),
                            ExtraDelay(delay=6, jitter=5)), seed=6),
                 FaultPlan((ClockSkew(min_lag=10**12,
                                      max_lag=10**12 + 3),
                            ExtraDelay(delay=10**15, jitter=2),
                            GatewayOutage(start=10**14, duration=10**15)),
                           seed=6),
                 FaultPlan((GatewayOutage(start=3, duration=10**15,
                                          period=10**16),), seed=6)]
        for plan in plans:
            res = _identical(monkeypatch, _ensemble(FIFO, plan,
                                                    max_steps=40))
            lags = [e.detail for e in res.fault_events
                    if e.step == 1 and e.kind != "outage"]
            assert lags == [] or plan is plans[0]

    def test_noise_clipped_at_both_ends(self, monkeypatch):
        plan = FaultPlan((SignalNoise(rate=1.0, amplitude=1.0),), seed=8)
        res = _identical(monkeypatch, _ensemble(FIFO, plan))
        state = plan.start(network=LOT)
        out = [state.apply(k, np.full(N, b)) for k, b in
               enumerate((0.05, 0.95) * 20, start=1)]
        assert min(map(min, out)) == 0.0 and max(map(max, out)) == 1.0
        assert res.fault_events

    def test_quantisation_ties_round_half_to_even(self, monkeypatch):
        # FIFO aggregate feedback at mu = 1: rates (0.25, 0.25) give
        # b = 0.5 and (0.375, 0.375) give b = 0.75, exactly, so two and
        # three levels put the first step on a tie.
        system = FlowControlSystem(single_gateway(2), Fifo(), SIGNAL,
                                   TargetRule(eta=0.1, beta=0.5), style=AGG)
        x0 = np.array([[0.25, 0.25], [0.375, 0.375]])
        for levels, member, detail in ((2, 0, -0.5), (3, 1, 0.25)):
            plan = FaultPlan((SignalQuantisation(levels=levels),), seed=0)
            res = _identical(monkeypatch, _ensemble(system, plan, x0=x0))
            first = [e.detail for e in res.fault_events
                     if e.step == 1 and e.member == member]
            assert first == [detail, detail]

    def test_stacked_degradations_and_a_blackhole_with_faults(
            self, monkeypatch):
        plan = FaultPlan((INJECTORS["loss"], INJECTORS["delay"]), seed=9)
        for system in (FIFO, FAIR):
            res = _identical(monkeypatch, _ensemble(system, plan, DAMAGE))
            assert res.structural_events
            alone = _identical(monkeypatch, _ensemble(system,
                                                      structural=DAMAGE))
            assert alone.fault_events is None

    def test_jitter_blocks_and_diverging_members(self, monkeypatch):
        one = single_gateway(12)
        diverging = FlowControlSystem(one, Fifo(), SIGNAL,
                                      TargetRule(eta=1e7, beta=0.5),
                                      style=IND)
        plan = FaultPlan((ExtraDelay(delay=1, jitter=2),
                          SignalLoss(rate=0.4)), seed=1)
        damage = StructuralFaultPlan((
            CapacityDegradation("g0", factor=0.5, start=1, duration=3,
                                jitter=2),), seed=2)
        x0 = np.vstack([np.full(12, 3.0), np.full(12, 0.01),
                        np.full(12, 0.05)])
        for block_size in (None, 2):
            res = _identical(monkeypatch, _ensemble(
                diverging, plan, damage, x0=x0, block_size=block_size))
            assert Outcome.DIVERGED in res.outcomes
        for history in ("tail", "none"):
            _identical(monkeypatch, _ensemble(FIFO, plan, DAMAGE,
                                              block_size=2, tol=0.0,
                                              history=history))

    def test_run_matches_its_ensemble_member(self, monkeypatch):
        plan = FaultPlan(tuple(INJECTORS.values()), seed=12)
        x0 = _starts(N)
        ens = _identical(monkeypatch, _ensemble(FIFO, plan, DAMAGE, x0=x0))
        for m in range(len(x0)):
            traj = _identical(monkeypatch, lambda: FIFO.run(
                x0[m], max_steps=120, tol=1e-9, telemetry=True,
                faults=plan, structural=DAMAGE, fault_member=m))
            assert traj.history.tobytes() == ens.histories[m].tobytes()
            assert traj.fault_events == [e for e in ens.fault_events
                                         if e.member == m]
            assert traj.structural_events == [
                e for e in ens.structural_events if e.member == m]

    def test_runs_that_converge_and_spend_the_budget(self, monkeypatch):
        plan = FaultPlan((GatewayOutage(start=2, duration=3),), seed=1)
        x0 = _starts(N)[0]
        for max_steps, tol in ((0, 1e-9), (1, 1e-9), (300, 1e-6),
                               (50, 0.0)):
            _identical(monkeypatch, lambda: FIFO.run(
                x0, max_steps=max_steps, tol=tol, telemetry=True,
                faults=plan, structural=DAMAGE, fault_member=3))

    def test_an_out_of_range_loss_connection_raises(self, monkeypatch,
                                                    loop_calls):
        plan = FaultPlan((SignalLoss(rate=0.5, connections=(1, N)),), seed=1)
        for run in (lambda: FIFO.run(_starts(N)[0], faults=plan),
                    lambda: FIFO.run_ensemble(_starts(N), faults=plan)):
            with pytest.raises(FaultError, match=f"connection {N} but"):
                run()
        assert loop_calls == []

    def test_a_domain_hand_back_under_a_fault_plan(self, loop_calls):
        # At mu = 1e30 a rate of 1e-300 has a zero delay: the kernel
        # hands the block back and the window rule raises on the
        # Python loop.
        net = single_gateway(2, mu=1e30)
        system = FlowControlSystem(net, Fifo(), SIGNAL, DecbitWindowRule(),
                                   style=IND)
        plan = FaultPlan((SignalLoss(rate=0.5),), seed=1)
        x0 = np.array([[0.1, 0.1], [1e-300, 1e-300]])
        with pytest.raises(RateVectorError, match="delays must be positive"):
            system.run_ensemble(x0, max_steps=10, faults=plan)
        assert loop_calls == [None]

    def test_a_hand_back_leaves_the_states_untouched(self, monkeypatch):
        # A kernel that runs the whole block and then hands it back:
        # the Python loop starts from states the kernel never advanced.
        orig = compiled.ensemble_loop
        plan = FaultPlan(tuple(INJECTORS.values()), seed=13)
        runs = [_ensemble(FIFO, plan, DAMAGE, block_size=2),
                lambda: FIFO.run(_starts(N)[1], max_steps=80,
                                 telemetry=True, faults=plan,
                                 structural=DAMAGE)]
        for run in runs:
            with monkeypatch.context() as m:
                m.setattr(compiled, "ensemble_loop",
                          lambda *a, **k: None)
                want = run()

            def spent(*args, **kwargs):
                assert orig(*args, **kwargs) is not None
                return None

            with monkeypatch.context() as m:
                m.setattr(compiled, "ensemble_loop", spent)
                got = run()
            assert _fingerprint(got) == _fingerprint(want)


class TestEventsBuiltOnRead:
    """A kernel run keeps its event logs as arrays; the first read of
    ``fault_events`` or ``structural_events`` builds the list the
    Python loop returns."""

    PLAN = FaultPlan((INJECTORS["loss"], INJECTORS["outage"]), seed=7)

    @pytest.fixture
    def builds(self, monkeypatch):
        """Every ``_logged_events`` call: one per built block log."""
        calls = []
        orig = dynamics._logged_events

        def counting(*args):
            calls.append(args[0])
            return orig(*args)

        monkeypatch.setattr(dynamics, "_logged_events", counting)
        return calls

    def _runs(self, block_size=None):
        x0 = _starts(N)
        kwargs = dict(max_steps=120, tol=1e-9, faults=self.PLAN,
                      structural=DAMAGE)
        return (lambda: FIFO.run_ensemble(x0, block_size=block_size,
                                          **kwargs),
                lambda: FIFO.run(x0[1], fault_member=1, **kwargs))

    @pytest.mark.parametrize("block_size", [None, 2])
    def test_the_first_read_is_the_python_loops_list(
            self, monkeypatch, builds, block_size):
        for run in self._runs(block_size):
            got = run()
            assert builds == []
            with monkeypatch.context() as m:
                m.setattr(compiled, "ensemble_loop", lambda *a, **k: None)
                want = run()
            for name in ("fault_events", "structural_events"):
                events = getattr(got, name)
                assert type(events) is list and events
                assert events == getattr(want, name)
                assert len(events) == len(getattr(want, name))
                assert getattr(got, name) is events  # built once
            assert len(builds) == (2 if block_size is None or
                                   not hasattr(got, "finals") else 6)
            builds.clear()

    def test_unread_events_are_never_built(self, builds):
        for run in self._runs(2):
            run()
        assert builds == []

    def test_a_pending_list_pickles(self):
        # Results cross process boundaries (sweep workers) unread.
        for run in self._runs(2):
            got = run()
            copy = pickle.loads(pickle.dumps(got))
            assert copy.fault_events == got.fault_events
            assert copy.structural_events == got.structural_events

    def test_runs_without_plans_read_none(self, builds):
        x0 = _starts(N)
        res = FIFO.run_ensemble(x0, max_steps=50, faults=FaultPlan(),
                                structural=StructuralFaultPlan())
        traj = FIFO.run(x0[0], max_steps=50)
        for got in (res, traj):
            assert got.fault_events is None
            assert got.structural_events is None
        assert builds == []

    def test_telemetry_records_every_event(self, builds):
        # The record reads every event at once, and the result keeps
        # the list it built.
        x0 = _starts(N)
        res = FIFO.run_ensemble(x0, max_steps=120, tol=1e-9,
                                faults=self.PLAN, telemetry=True)
        traj = FIFO.run(x0[0], max_steps=120, faults=self.PLAN,
                        telemetry=True)
        assert len(builds) == 2
        for got in (res, traj):
            assert got.telemetry.fault_events == [
                tuple(e) for e in got.fault_events] != []
        assert len(builds) == 2


class TestStream:
    def test_draws_equal_numpy_interleaved(self):
        # numpy's bounded integers below 2**32 draw 32-bit halves and
        # keep the spare half in the generator across calls, random()
        # calls included; the kernel's stream must carry it too.
        picks = np.random.default_rng(0)
        for case in range(300):
            rng = np.random.default_rng([case, 1])
            rng.integers(0, 3, size=int(picks.integers(0, 3)))
            n = int(picks.integers(1, 9))
            amp = float(picks.uniform(0.05, 1.0))
            ops = picks.choice([0, -1, 1, 2, 3, 7],
                               size=int(picks.integers(1, 7))).tolist()
            words = compiled.stream_words(rng.bit_generator.state)
            got = compiled.stream_draws(words, ops, n, amp)
            want = [rng.random(n) if op == 0
                    else rng.uniform(-amp, amp, n) if op == -1
                    else rng.integers(0, op + 1, n) for op in ops]
            assert np.array_equal(got, np.array(want, dtype=float)), case
            assert np.array_equal(
                words, compiled.stream_words(rng.bit_generator.state))

    def test_rejects_ops_outside_its_domain(self):
        words = compiled.stream_words(np.random.default_rng(1)
                                      .bit_generator.state)
        for op in (-2, 2**32 - 1):
            with pytest.raises(ValueError):
                compiled.stream_draws(words, [op], 3)
