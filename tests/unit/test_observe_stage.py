"""The observe stage: ``FeedbackScheme.observe_batch`` evaluates each
gateway's queue law once per step and derives both the signals and the
delays from it.

It must equal the two separate public paths bit for bit, on every
discipline and feedback style; every step path (scalar, batched,
structural, asynchronous) must go through it with exactly one
queue-law call per non-empty gateway on the numpy loop, and exactly one
C kernel call per step and structural view group where the C tier
serves it; and a one-row batch must be bit-identical to the same row
of a larger batch.
"""

import numpy as np
import pytest

from repro.backends import _cext, compiled
from repro.chaos import (CapacityDegradation, GatewayBlackhole,
                         StructuralFaultPlan)
from repro.core.asynchronous import BernoulliSchedule, run_async_ensemble
from repro.core.delays import round_trip_delays_batch
from repro.core.dynamics import FlowControlSystem
from repro.core.fairshare import FairShare
from repro.core.fifo import Fifo
from repro.core.math_utils import row_sums
from repro.core.ratecontrol import ProportionalTargetRule, TargetRule
from repro.core.service import PreemptivePriority
from repro.core.signals import (FeedbackScheme, FeedbackStyle,
                                LinearSaturating, aggregate_congestion,
                                weighted_individual_congestion,
                                weighted_individual_congestion_batch)
from repro.core.topology import parking_lot, random_network, single_gateway
from repro.core.weighted import WeightedFairShare
from repro.scenarios.oracles import reference_run

SIGNAL = LinearSaturating()
AGG, IND = FeedbackStyle.AGGREGATE, FeedbackStyle.INDIVIDUAL


def _rates(n, rng, m=8, scale=0.3):
    """Interior rows plus a zero-rate connection and an overload row."""
    batch = rng.uniform(0.01, scale, size=(m, n))
    batch[1, 0] = 0.0           # probe branch
    batch[2] = 2.0 / n * 3      # overloaded everywhere
    return batch


def _cases():
    phi = np.array([1.0, 2.0, 0.5, 3.0, 1.5, 1.0])
    big = 70
    yield "fifo-ind", parking_lot(3, cross_per_hop=3), Fifo(), IND, None
    yield "fifo-agg", parking_lot(3, cross_per_hop=3), Fifo(), AGG, None
    yield "fs-small-ind", random_network(3, 20, 4), FairShare(), IND, None
    yield "fs-small-agg", random_network(3, 20, 4), FairShare(), AGG, None
    yield "fs-large-ind", single_gateway(big), FairShare(), IND, None
    yield "fs-large-agg", single_gateway(big), FairShare(), AGG, None
    yield ("wfs-weighted", single_gateway(6), WeightedFairShare(phi), IND,
           phi)
    yield ("priority-ind", single_gateway(5),
           PreemptivePriority([2, 0, 4, 1, 3]), IND, None)
    yield ("priority-agg", single_gateway(5),
           PreemptivePriority([2, 0, 4, 1, 3]), AGG, None)


CASES = list(_cases())


class TestObserveMatchesSeparatePaths:
    @pytest.mark.parametrize("name,net,disc,style,weights", CASES,
                             ids=[c[0] for c in CASES])
    def test_bit_identical(self, name, net, disc, style, weights):
        scheme = FeedbackScheme(net, disc, SIGNAL, style, weights=weights)
        r = _rates(net.num_connections, np.random.default_rng(1))
        b, d = scheme.observe_batch(r)
        assert np.array_equal(b, scheme.signals_batch(r))
        assert np.array_equal(d, round_trip_delays_batch(net, disc, r))

    def test_zero_rate_connection_gets_the_probe_delay(self):
        net = single_gateway(4)
        scheme = FeedbackScheme(net, Fifo(), SIGNAL, IND)
        r = np.array([[0.0, 0.1, 0.2, 0.1]])
        _, d = scheme.observe_batch(r)
        probe = Fifo().delays_batch(r, 1.0)
        assert np.array_equal(d, probe)
        assert np.isfinite(d[0, 0]) and d[0, 0] > 0

    def test_overloaded_gateway_saturates(self):
        net = single_gateway(4)
        scheme = FeedbackScheme(net, Fifo(), SIGNAL, IND)
        b, d = scheme.observe_batch(np.full((2, 4), 0.5))
        assert np.all(b == 1.0)
        assert np.all(np.isinf(d))

    def test_structural_view_with_degradation_and_blackhole(self):
        net = parking_lot(3, cross_per_hop=2)
        g = net.gateway_names
        system = FlowControlSystem(net, Fifo(), SIGNAL,
                                   TargetRule(eta=0.1, beta=0.5), style=IND)
        plan = StructuralFaultPlan((
            CapacityDegradation(g[0], factor=0.5, start=0, duration=5),
            GatewayBlackhole(g[2], start=0, duration=5)), seed=3)
        state = plan.start(system)
        view = state.resolve(1)
        assert view.blackholed.size and view.network is not net
        r = np.random.default_rng(2).uniform(0.01, 0.2,
                                             size=(4, net.num_connections))
        b, d = view.scheme.observe_batch(r)
        assert np.array_equal(b, view.scheme.signals_batch(r))
        assert np.array_equal(
            d, round_trip_delays_batch(view.network, Fifo(), r))
        b[:, view.blackholed] = 1.0
        expected = np.maximum(
            system.rules[0].apply_batch(r, b, d), 0.0)
        got = system.step_batch(r, structural=[state] * 4)
        assert np.array_equal(got, expected)
        for m in range(4):
            assert np.array_equal(
                system.step(r[m], structural=state), expected[m])


class TestOneRowBatchIsARow:
    """numpy's axis sums pick their order from the array layout, so the
    queue-law and congestion sums fold strictly per row: a scalar step
    (a one-row batch) equals that row of any batch exactly."""

    @pytest.mark.parametrize("disc", [Fifo(), FairShare()],
                             ids=["fifo", "fair-share"])
    @pytest.mark.parametrize("style", [IND, AGG], ids=["ind", "agg"])
    def test_step_rows_bit_identical(self, disc, style):
        net = random_network(4, 24, 2)
        system = FlowControlSystem(net, disc, SIGNAL,
                                   TargetRule(eta=0.1, beta=0.5),
                                   style=style)
        r = np.random.default_rng(2).uniform(
            0.005, 0.06, size=(32, net.num_connections))
        batch = system.step_batch(r)
        for m in range(r.shape[0]):
            assert np.array_equal(batch[m], system.step(r[m]))
            assert np.array_equal(batch[m], system.step_batch(r[m:m + 1])[0])

    @pytest.mark.parametrize("n", [3, 8, 9, 16, 64, 100])
    def test_scalar_laws_are_one_row_batches(self, n):
        # np.sum turns pairwise at n >= 8; the scalar FIFO law and the
        # scalar measures fold like their batch forms.
        rng = np.random.default_rng(n)
        rates = rng.uniform(0.0, 1.2 / n, size=(20, n))
        rates[0] = 2.0 / n
        queues = Fifo().queue_lengths_batch(rates, 1.0)
        phi = rng.choice([0.5, 1.0, 2.0, 3.0], size=n)
        sums = row_sums(queues)
        weighted = weighted_individual_congestion_batch(queues, phi)
        for m in range(rates.shape[0]):
            assert np.array_equal(Fifo().queue_lengths(rates[m], 1.0),
                                  queues[m])
            assert aggregate_congestion(queues[m]) == sums[m]
            assert np.array_equal(
                weighted_individual_congestion(queues[m], phi),
                weighted[m])


def _observe_calls(monkeypatch):
    """Record ``(rows, delays requested)`` of every C observe kernel
    call."""
    calls = []
    orig = compiled.observe_batch

    def counting(rates, plan, with_delays):
        calls.append((rates.shape[0], with_delays))
        out = orig(rates, plan, with_delays)
        assert out is not None
        return out

    monkeypatch.setattr(compiled, "observe_batch", counting)
    return calls


needs_observe_kernel = pytest.mark.skipif(
    not compiled.fs_available(),
    reason="no compiled observe kernel in this environment")


class TestOneQueueLawCallPerGateway:
    """Every step path evaluates each non-empty gateway's queue law
    exactly once per step (signals and delays share it).  Counted on
    the numpy loop, with the C tier masked."""

    STEPS = 5

    @pytest.fixture
    def counted(self, monkeypatch):
        monkeypatch.setattr(_cext, "load", lambda: None)
        calls = []
        orig = Fifo.queue_lengths_batch

        def counting(self, rates, mu):
            calls.append(rates.shape)
            return orig(self, rates, mu)

        monkeypatch.setattr(Fifo, "queue_lengths_batch", counting)
        return calls

    def _system(self):
        net = parking_lot(3, cross_per_hop=2)
        groups = (TargetRule(eta=0.05, beta=0.5),
                  ProportionalTargetRule(eta=0.2, beta=0.5))
        return FlowControlSystem(
            net, Fifo(), SIGNAL,
            [groups[i % 2] for i in range(net.num_connections)], style=IND)

    def _start(self, system, m=1):
        # Strictly positive rates: no zero-rate probe evaluations.
        return np.full((m, system.network.num_connections), 0.05)

    def test_step(self, counted):
        system = self._system()
        system.step(self._start(system)[0])
        assert len(counted) == system.network.num_gateways

    def test_step_batch(self, counted):
        system = self._system()
        system.step_batch(self._start(system, m=6))
        assert len(counted) == system.network.num_gateways
        assert all(shape[0] == 6 for shape in counted)

    def test_asynchronous_runner(self, counted):
        # The per-connection reference of the asynchronous runner.
        system = self._system()
        traj = reference_run(system, self._start(system)[0],
                             BernoulliSchedule(0.5, seed=1), 1,
                             max_steps=self.STEPS, tol=0.0)
        assert traj.steps == self.STEPS
        assert len(counted) == self.STEPS * system.network.num_gateways

    def test_run_async_ensemble(self, counted):
        system = self._system()
        ens = run_async_ensemble(system, self._start(system, m=3),
                                 schedule=BernoulliSchedule(0.5, seed=1),
                                 signal_delay=1, max_steps=self.STEPS,
                                 tol=0.0)
        assert list(ens.steps) == [self.STEPS] * 3
        assert len(counted) == self.STEPS * system.network.num_gateways


@needs_observe_kernel
class TestOneObserveKernelCallPerStep(TestOneQueueLawCallPerGateway):
    """The C-path twins: every step path makes exactly one observe
    kernel call per step and structural view group, for the whole
    batch, asking for no delays when no rule reads them."""

    @pytest.fixture
    def counted(self, monkeypatch):
        return _observe_calls(monkeypatch)

    def test_step(self, counted):
        system = self._system()
        system.step(self._start(system)[0])
        assert counted == [(1, False)]

    def test_step_batch(self, counted):
        system = self._system()
        system.step_batch(self._start(system, m=6))
        assert counted == [(6, False)]

    def test_asynchronous_runner(self, counted):
        system = self._system()
        traj = reference_run(system, self._start(system)[0],
                             BernoulliSchedule(0.5, seed=1), 1,
                             max_steps=self.STEPS, tol=0.0)
        assert traj.steps == self.STEPS
        # The per-connection reference always observes the delays.
        assert counted == [(1, True)] * self.STEPS

    def test_run_async_ensemble(self, counted, monkeypatch):
        # The ensemble's Python loop, the compiled ensemble loop (which
        # observes in C without this wrapper) unavailable.
        monkeypatch.setattr(compiled, "ensemble_loop",
                            lambda *args, **kwargs: None)
        system = self._system()
        ens = run_async_ensemble(system, self._start(system, m=3),
                                 schedule=BernoulliSchedule(0.5, seed=1),
                                 signal_delay=1, max_steps=self.STEPS,
                                 tol=0.0)
        assert list(ens.steps) == [self.STEPS] * 3
        assert counted == [(3, False)] * self.STEPS

    def test_one_call_per_structural_view_group(self, counted):
        system = self._system()
        names = system.network.gateway_names
        damaged, clean = (
            StructuralFaultPlan((CapacityDegradation(
                names[0], factor=0.5, start=start, duration=5),),
                seed=3).start(system)
            for start in (0, 10))
        states = [damaged, clean, damaged, damaged]
        system.step_batch(self._start(system, m=4), structural=states)
        assert sorted(counted) == [(1, False), (3, False)]
