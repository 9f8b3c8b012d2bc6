"""Unit tests for the baseline algorithms."""

import math
import re

import numpy as np
import pytest

from repro.baselines.chiu_jain import run_chiu_jain
from repro.baselines.decbit import run_decbit_windows
from repro.baselines.jacobson import run_tahoe
from repro.baselines.reservation import (reservation_delays,
                                         reservation_rates)
from repro.core.delays import round_trip_delays
from repro.core.fairness import jain_index
from repro.core.fairshare import FairShare
from repro.core.fifo import Fifo
from repro.core.topology import (Connection, Gateway, Network,
                                 random_network, single_gateway,
                                 two_gateway_shared)
from repro.errors import RateVectorError
from repro.experiments.exp_f11_real_algorithms import \
    _unequal_latency_network


class TestChiuJain:
    def test_history_shape(self):
        res = run_chiu_jain([0.1, 0.2], goal=1.0, steps=100)
        assert res.rates.shape == (101, 2)
        assert res.feedback.shape == (100,)

    def test_fairness_monotone_nondecreasing(self):
        res = run_chiu_jain([0.05, 0.6], goal=1.0, steps=600)
        traj = res.fairness_trajectory
        assert np.all(np.diff(traj) >= -1e-9)

    def test_fairness_converges_to_one(self):
        res = run_chiu_jain([0.05, 0.6], goal=1.0, steps=800)
        assert res.fairness_trajectory[-1] > 0.999

    def test_oscillates_around_goal(self):
        res = run_chiu_jain([0.4, 0.4], goal=1.0, steps=600)
        totals = res.rates[-100:].sum(axis=1)
        assert totals.min() < 1.0 < totals.max()
        assert res.amplitude(100) > 0.0

    def test_mean_total_near_goal(self):
        res = run_chiu_jain([0.4, 0.4], goal=1.0, steps=800)
        assert res.mean_total(200) == pytest.approx(1.0, rel=0.15)

    def test_validation(self):
        with pytest.raises(RateVectorError):
            run_chiu_jain([0.1], goal=-1.0)
        with pytest.raises(RateVectorError):
            run_chiu_jain([0.1], goal=1.0, multiplicative=1.5)


class TestTahoe:
    def test_synchronized_sawtooth(self):
        res = run_tahoe([1.0, 1.0], pipe=30.0, steps=500)
        assert res.loss_epochs.size >= 2
        periods = res.sawtooth_periods
        # After the first cycle the period is constant (synchronized).
        assert np.all(periods[1:] == periods[1])

    def test_period_grows_with_pipe(self):
        small = run_tahoe([1.0, 1.0], pipe=20.0, steps=800)
        large = run_tahoe([1.0, 1.0], pipe=80.0, steps=800)
        assert np.mean(large.sawtooth_periods[1:]) > \
            np.mean(small.sawtooth_periods[1:])

    def test_reno_halves_instead_of_reset(self):
        tahoe = run_tahoe([8.0, 8.0], pipe=17.0, steps=2)
        reno = run_tahoe([8.0, 8.0], pipe=17.0, steps=2, reno=True)
        # windows were forced over pipe at step 1? sum=16 < 17, grow,
        # then lose: tahoe resets to 1, reno halves.
        assert tahoe.windows[-1][0] <= reno.windows[-1][0]

    def test_validation(self):
        with pytest.raises(RateVectorError):
            run_tahoe([0.0], pipe=10.0)
        with pytest.raises(RateVectorError):
            run_tahoe([1.0], pipe=0.0)


class TestDecbit:
    def test_equal_latency_fair_on_average(self):
        net = single_gateway(2, mu=1.0)
        res = run_decbit_windows(net, [1.0, 1.0], steps=200)
        means = res.mean_rates(50)
        assert means[0] == pytest.approx(means[1], rel=1e-6)

    def test_windows_stay_positive(self):
        net = single_gateway(2, mu=1.0)
        res = run_decbit_windows(net, [1.0, 1.0], steps=200)
        assert np.all(res.windows > 0)

    def test_oscillation_present(self):
        net = single_gateway(2, mu=1.0)
        res = run_decbit_windows(net, [1.0, 1.0], steps=300)
        tail = res.rates[-100:, 0]
        assert tail.max() - tail.min() > 1e-3

    def test_validation(self):
        net = single_gateway(2, mu=1.0)
        with pytest.raises(RateVectorError):
            run_decbit_windows(net, [0.0, 1.0])

    def test_mean_rates_tail_check(self):
        net = single_gateway(2, mu=1.0)
        res = run_decbit_windows(net, [1.0, 1.0], steps=50)
        with pytest.raises(RateVectorError):
            res.mean_rates(0)


class TestReservation:
    def test_rates_equal_floor(self):
        net = single_gateway(4, mu=2.0)
        rates = reservation_rates(net, 0.5)
        assert np.allclose(rates, 0.25)

    def test_delays_formula(self):
        net = single_gateway(4, mu=1.0)
        d = reservation_delays(net, 0.5)
        # slice = 0.25, rate = 0.125: delay = 1/(0.25 - 0.125) = 8.
        assert np.allclose(d, 8.0)

    def test_multi_gateway_path_sum(self):
        net = two_gateway_shared(mu_a=1.0, mu_b=1.0)
        d = reservation_delays(net, 0.5)
        # long reserves 0.5 slices at both gateways, rate 0.25:
        # delay = 2 * 1/(0.5 - 0.25) = 8.
        long = net.connection_index("long")
        assert d[long] == pytest.approx(8.0)


# ----------------------------------------------------------------------
# The per-step numpy loops the baselines replaced, transcribed: the
# float loops and the one-queue-law-per-gateway DECbit loop must give
# their bits.
# ----------------------------------------------------------------------
def _stepwise_tahoe(initial, pipe, steps, reno):
    w = np.array(initial, dtype=float)
    ssthresh = np.full(w.shape[0], pipe / 2.0)
    history = [w.copy()]
    losses = []
    for _ in range(steps):
        if float(np.sum(w)) > pipe:
            ssthresh = np.maximum(w / 2.0, 1.0)
            w = w / 2.0 if reno else np.ones_like(w)
            losses.append(1.0)
        else:
            in_slow_start = w < ssthresh
            w = np.where(in_slow_start, np.minimum(2.0 * w, ssthresh),
                         w + 1.0)
            losses.append(0.0)
        history.append(w.copy())
    return np.asarray(history), np.asarray(losses)


def _stepwise_chiu_jain(initial, goal, steps, additive, multiplicative):
    r = np.array(initial, dtype=float)
    history = [r.copy()]
    feedback = []
    for _ in range(steps):
        overloaded = float(np.sum(r)) > goal
        if overloaded:
            r = r * multiplicative
        else:
            r = r + additive
        history.append(r.copy())
        feedback.append(1.0 if overloaded else 0.0)
    return np.asarray(history), np.asarray(feedback)


def _stepwise_decbit(network, initial, steps, discipline,
                     queue_threshold=1.0, decrease=0.875, increase=1.0,
                     min_window=0.1):
    w = np.array(initial, dtype=float)
    n = network.num_connections
    rates = np.array([
        min(network.mu(g) for g in network.gamma(i)) * 0.01
        for i in range(n)])
    windows_hist = [w.copy()]
    rates_hist = [rates.copy()]
    bits_hist = []
    for _ in range(steps):
        d = round_trip_delays(network, discipline, rates)
        d = np.where(np.isfinite(d), d, np.max(d[np.isfinite(d)])
                     if np.any(np.isfinite(d)) else 1.0)
        d = np.maximum(d, 1e-9)
        rates = w / d
        for gname in network.gateway_names:
            local = list(network.connections_at(gname))
            load = float(np.sum(rates[local]))
            cap = 0.98 * network.mu(gname)
            if load > cap:
                rates[local] *= cap / load
        bits = np.zeros(n)
        for i in range(n):
            congested = any(
                float(np.sum(discipline.queue_lengths(
                    network.local_rates(g, rates), network.mu(g))))
                >= queue_threshold
                for g in network.gamma(i))
            bits[i] = 1.0 if congested else 0.0
        w = np.where(bits > 0.5, np.maximum(w * decrease, min_window),
                     w + increase)
        windows_hist.append(w.copy())
        rates_hist.append(rates.copy())
        bits_hist.append(bits.copy())
    return (np.asarray(windows_hist), np.asarray(rates_hist),
            np.asarray(bits_hist))


def _wan_parking_lot():
    """The network of ``examples/wan_parking_lot.py``."""
    gateways = [Gateway("hop0", mu=1.0, latency=0.5),
                Gateway("hop1", mu=0.8, latency=2.0),
                Gateway("hop2", mu=1.5, latency=0.2),
                Gateway("hop3", mu=1.2, latency=0.4)]
    connections = [Connection("long", tuple(g.name for g in gateways))] + [
        Connection(f"cross{k}", (gateways[k].name,)) for k in range(4)]
    return Network(gateways, connections)


class TestFloatLoopsMatchStepwise:
    # numpy adds fewer than 8 terms left to right and 8 or more
    # pairwise, so N runs past 8.
    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("reno", [False, True])
    def test_tahoe(self, n, reno):
        rng = np.random.default_rng(100 + n)
        initial = rng.uniform(0.5, 6.0, n)
        pipe = float(rng.uniform(5.0, 80.0))
        res = run_tahoe(initial, pipe=pipe, steps=600, reno=reno)
        windows, losses = _stepwise_tahoe(initial, pipe, 600, reno)
        assert np.array_equal(res.windows, windows)
        assert np.array_equal(res.losses, losses)
        assert res.losses.any()

    @pytest.mark.parametrize("n", range(1, 13))
    def test_chiu_jain_and_fairness(self, n):
        rng = np.random.default_rng(200 + n)
        initial = rng.uniform(0.0, 0.5, n)
        goal = float(rng.uniform(0.5, 3.0))
        additive = float(rng.uniform(0.001, 0.05))
        multiplicative = float(rng.uniform(0.5, 0.95))
        res = run_chiu_jain(initial, goal=goal, steps=500,
                            additive=additive,
                            multiplicative=multiplicative)
        rates, feedback = _stepwise_chiu_jain(initial, goal, 500, additive,
                                              multiplicative)
        assert np.array_equal(res.rates, rates)
        assert np.array_equal(res.feedback, feedback)
        want = np.array([jain_index(row) for row in rates])
        assert np.array_equal(res.fairness_trajectory, want)

    def test_float32_parameters_keep_float64_arithmetic(self):
        initial = [0.3, 0.45, 0.6]
        res = run_tahoe(initial, pipe=np.float32(30.3), steps=300)
        windows, _ = _stepwise_tahoe(initial, np.float32(30.3), 300, False)
        assert np.array_equal(res.windows, windows)
        kw = dict(goal=np.float32(1.3), additive=np.float32(0.011),
                  multiplicative=np.float32(0.85))
        res = run_chiu_jain(initial, steps=300, **kw)
        rates, _ = _stepwise_chiu_jain(initial, kw["goal"], 300,
                                       kw["additive"], kw["multiplicative"])
        assert np.array_equal(res.rates, rates)

    def test_fairness_of_all_zero_rows_is_one(self):
        res = run_chiu_jain([0.0, 0.0, 0.0], goal=1.0, steps=3)
        res.rates[0] = 0.0
        assert res.fairness_trajectory[0] == 1.0 == jain_index([0.0] * 3)

    def test_fairness_rejects_what_jain_index_rejects(self):
        res = run_chiu_jain([0.1, 0.2], goal=1.0, steps=3)
        res.rates[2, 1] = -1.0
        with pytest.raises(RateVectorError, match="nonnegative"):
            res.fairness_trajectory


class TestDecbitMatchesStepwise:
    NETWORKS = {
        "f11": _unequal_latency_network,
        "wan": _wan_parking_lot,
        "random-4x12": lambda: random_network(4, 12, seed=5),
        "random-3x7": lambda: random_network(3, 7, seed=11),
    }

    @pytest.mark.parametrize("discipline", [Fifo, FairShare])
    @pytest.mark.parametrize("name", sorted(NETWORKS))
    def test_bit_identical(self, name, discipline):
        network = self.NETWORKS[name]()
        rng = np.random.default_rng(len(name))
        initial = rng.uniform(0.2, 4.0, network.num_connections)
        res = run_decbit_windows(network, initial, steps=150,
                                 discipline=discipline())
        windows, rates, bits = _stepwise_decbit(network, initial, 150,
                                                discipline())
        assert np.array_equal(res.windows, windows)
        assert np.array_equal(res.rates, rates)
        assert np.array_equal(res.bits, bits)
        assert res.bits.any() and not res.bits.all()

    def test_parameters_and_zero_steps(self):
        network = _wan_parking_lot()
        initial = np.linspace(0.5, 2.0, network.num_connections)
        kw = dict(queue_threshold=0.5, decrease=0.7, increase=0.25,
                  min_window=0.3)
        res = run_decbit_windows(network, initial, steps=80, **kw)
        want = _stepwise_decbit(network, initial, 80, Fifo(), **kw)
        for got, ref in zip((res.windows, res.rates, res.bits), want):
            assert np.array_equal(got, ref)
        empty = run_decbit_windows(network, initial, steps=0)
        want = _stepwise_decbit(network, initial, 0, Fifo())
        for got, ref in zip((empty.windows, empty.rates, empty.bits), want):
            assert got.shape == ref.shape and np.array_equal(got, ref)

    def test_one_queue_law_per_gateway_per_step(self, monkeypatch):
        calls = []
        law = Fifo.queue_lengths_batch

        def counted(self, rates, mu):
            calls.append(mu)
            return law(self, rates, mu)

        monkeypatch.setattr(Fifo, "queue_lengths_batch", counted)
        network = _unequal_latency_network()
        run_decbit_windows(network, [1.0, 1.0], steps=40)
        # one bootstrap evaluation, then one per step, per gateway
        assert len(calls) == 2 * 41


class TestScalarParametersValidated:
    """NaN, inf or out-of-range scalars used to run on silently."""

    @pytest.mark.parametrize("pipe", [math.nan, math.inf, -1.0])
    def test_tahoe_pipe(self, pipe):
        with pytest.raises(RateVectorError,
                           match=f"pipe .*{re.escape(repr(pipe))}"):
            run_tahoe([1.0, 1.0], pipe=pipe, steps=50)

    @pytest.mark.parametrize("kw", [dict(goal=math.nan),
                                    dict(goal=math.inf),
                                    dict(additive=math.nan),
                                    dict(additive=math.inf),
                                    dict(additive=0.0),
                                    dict(multiplicative=math.nan)])
    def test_chiu_jain(self, kw):
        args = dict(goal=1.0)
        args.update(kw)
        (value,) = kw.values()
        with pytest.raises(RateVectorError, match=re.escape(repr(value))):
            run_chiu_jain([0.1, 0.2], steps=50, **args)

    def test_chiu_jain_additive_message_names_value(self):
        with pytest.raises(RateVectorError,
                           match=r"additive step .* got -0\.5"):
            run_chiu_jain([0.1], goal=1.0, additive=-0.5)

    @pytest.mark.parametrize("kw", [dict(decrease=1.5),
                                    dict(decrease=math.nan),
                                    dict(decrease=0.0),
                                    dict(queue_threshold=math.nan),
                                    dict(queue_threshold=-1.0),
                                    dict(min_window=math.nan),
                                    dict(min_window=0.0),
                                    dict(increase=-5.0),
                                    dict(increase=math.inf)])
    def test_decbit(self, kw):
        ((name, value),) = kw.items()
        with pytest.raises(RateVectorError,
                           match=f"{name} .*{re.escape(repr(value))}"):
            run_decbit_windows(single_gateway(2, mu=1.0), [1.0, 1.0],
                               steps=50, **kw)
