"""Unit tests for repro.backends: the C Fair Share kernels and their
loop twins against the numpy sorted pipeline, the C observe kernel
against the numpy observe loop, and the compiled tier's timers."""

import pickle

import numpy as np
import pytest

from repro import backends
from repro.backends import _cext, _fs_python, compiled
from repro.core.asynchronous import BernoulliSchedule, run_async_ensemble
from repro.core.dynamics import FlowControlSystem
from repro.core.fairshare import (FairShare, _sorted_loads, _sorted_queues,
                                  cumulative_loads,
                                  fair_share_queues_recursive)
from repro.core.fifo import Fifo
from repro.core.math_utils import SPARSE_MIN_N, pick_kernel
from repro.core.ratecontrol import TargetRule, TcpLikeRule
from repro.core.service import PreemptivePriority
from repro.core.signals import (FeedbackScheme, FeedbackStyle,
                                LinearSaturating, PowerSaturating,
                                _individual_sorted,
                                individual_congestion,
                                individual_congestion_batch)
from repro.core.topology import parking_lot, random_network, single_gateway
from repro.core.weighted import WeightedFairShare
from repro.errors import RateVectorError

needs_compiled_fs = pytest.mark.skipif(
    not compiled.fs_available(),
    reason="no compiled Fair Share tier in this environment")
needs_fifo_lib = pytest.mark.skipif(
    compiled.fifo_lib() is None,
    reason="no C compiler: FIFO event loop runs pure python")


def fuzz_batches(seed, count=2000):
    """Seeded ``(rates, sorted_rates, queues, weights, weighted_rates)``
    batches, ``N`` from 1 to 130: tied rates, zeros and ``-0.0``,
    overloaded rows, rows of equal rates, and queue rows with infinite,
    tied and signed-zero entries.

    ``weights`` (with ties) and ``weighted_rates`` feed the weighted
    queue law.  ``weighted_rates`` is ``rates``, plus on every third
    trial appended rows that tie in ``r / phi`` exactly (dyadic weights
    times dyadic normalised rates).  They draw from their own stream,
    so the unweighted batches do not depend on them."""
    rng = np.random.default_rng(seed)
    wrng = np.random.default_rng([seed, 1])
    for trial in range(count):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 131))
        rates = rng.uniform(0.0, 1.8 / n, size=(m, n))
        if trial % 2 == 0:
            pool = np.array([0.0, -0.0, 0.2 / n, 0.4 / n, 0.9 / n])
            k = n // 2 + 1
            rates[:, :k] = rng.choice(pool, size=(m, k))
        if trial % 5 == 0:
            rates[0] = 2.0 / n
        if trial % 11 == 0:
            rates[-1] = 0.9 / n
        queues = _sorted_queues(rates, 1.0)
        if trial % 3 == 0:
            queues[:, : n // 3 + 1] = queues[:, :1]
        if trial % 7 == 0:
            queues[:, -1] = -0.0
        weights = wrng.choice([0.25, 0.5, 1.0, 1.0, 2.0, 3.0], size=n)
        weighted_rates = rates
        if trial % 3 == 1:
            weights = wrng.uniform(0.1, 4.0, size=n)
        if trial % 3 == 2:
            weights = wrng.choice([0.5, 1.0, 2.0], size=n)
            tied = weights * wrng.integers(0, 5, size=(m, n)) / (8.0 * n)
            weighted_rates = np.vstack([rates, tied])
        yield (rates, np.sort(rates, axis=1, kind="stable"), queues,
               weights, weighted_rates)


class TestPythonTwins:
    """The loop twins diff against the numpy pipeline."""

    def test_fs_queue_twin_matches_sorted_pipeline(self):
        rng = np.random.default_rng(11)
        for m, n in ((1, 5), (3, 17), (2, 80)):
            rates = rng.uniform(0.0, 2.0 / n, size=(m, n))
            rates[0, 0] = 0.0
            want = _sorted_queues(rates, 1.0)
            out = _fs_python.fs_queue_batch(rates, 1.0,
                                            np.empty_like(rates))
            assert np.array_equal(out, want)

    def test_fs_queue_twin_overload_rows(self):
        rates = np.full((2, 70), 0.5)
        want = _sorted_queues(rates, 1.0)
        out = _fs_python.fs_queue_batch(rates, 1.0,
                                        np.empty_like(rates))
        assert np.array_equal(out, want)

    def test_ind_congestion_twin_matches_sorted_pipeline(self):
        rng = np.random.default_rng(12)
        queues = rng.uniform(0.0, 5.0, size=(3, 90))
        queues[0, 7] = np.inf
        want = _individual_sorted(queues)
        out = _fs_python.ind_congestion_batch(queues,
                                              np.empty_like(queues))
        assert np.array_equal(out, want)

    def test_loads_twin_matches_sorted_pipeline(self):
        rng = np.random.default_rng(13)
        rates = np.sort(rng.uniform(0.0, 0.01, size=(2, 75)), axis=1)
        want = _sorted_loads(rates, 1.0)
        out = _fs_python.fs_loads_batch(rates, 1.0,
                                        np.empty_like(rates))
        assert np.array_equal(out, want)

    def test_twins_match_pipeline_on_fuzz(self):
        for trial, (rates, srt, queues, _, _) in enumerate(
                fuzz_batches(41)):
            assert np.array_equal(
                _fs_python.fs_queue_batch(rates, 1.0,
                                          np.empty_like(rates)),
                _sorted_queues(rates, 1.0)), trial
            assert np.array_equal(
                _fs_python.fs_loads_batch(srt, 1.0, np.empty_like(srt)),
                _sorted_loads(srt, 1.0)), trial
            assert np.array_equal(
                _fs_python.ind_congestion_batch(queues,
                                                np.empty_like(queues)),
                _individual_sorted(queues)), trial


@needs_compiled_fs
class TestCompiledFairShare:
    def test_queue_law_fuzz_bit_identity(self):
        # C kernels against the numpy sorted pipeline, all three laws,
        # the queue law unweighted and weighted.
        for trial, (rates, srt, queues, weights, wrates) in enumerate(
                fuzz_batches(21)):
            got = compiled.fs_queue_batch(rates, 1.0)
            assert got is not None
            assert np.array_equal(got, _sorted_queues(rates, 1.0)), trial
            assert np.array_equal(
                compiled.fs_queue_batch(wrates, 1.0, weights),
                _sorted_queues(wrates, 1.0, weights=weights)), trial
            assert np.array_equal(compiled.fs_loads_batch(srt, 1.0),
                                  _sorted_loads(srt, 1.0)), trial
            assert np.array_equal(compiled.ind_congestion_batch(queues),
                                  _individual_sorted(queues)), trial

    def test_queue_law_signed_zero_ties(self):
        # -0.0 and +0.0 are one tie class under IEEE comparison; the
        # radix key transform must keep them so.
        row = np.array([0.3, 0.0, -0.0, 0.1, 0.0, 0.2] * 20)[None, :]
        want = _sorted_queues(row, 1.0)
        got = compiled.fs_queue_batch(row, 1.0)
        assert np.array_equal(got, want)

    def test_ind_congestion_with_inf(self):
        rng = np.random.default_rng(22)
        queues = rng.uniform(0.0, 4.0, size=(3, 150))
        queues[0, 3] = np.inf
        queues[2, :] = np.inf
        want = _individual_sorted(queues)
        got = compiled.ind_congestion_batch(queues)
        assert np.array_equal(got, want)

    def test_scalar_entry_points_run_the_c_kernel(self):
        rng = np.random.default_rng(23)
        for n in (4, 130):
            rates = rng.uniform(0.0, 1.0 / n, size=n)
            assert np.array_equal(
                FairShare().queue_lengths(rates, mu=1.0),
                compiled.fs_queue_batch(rates[None, :], 1.0)[0])
            assert np.array_equal(
                cumulative_loads(rates, mu=1.0),
                _sorted_loads(np.sort(rates)[None, :], 1.0)[0])
            queues = rng.uniform(0.0, 3.0, size=n)
            assert np.array_equal(
                individual_congestion(queues),
                compiled.ind_congestion_batch(queues[None, :])[0])

    def test_out_of_domain_input_takes_the_numpy_pipeline(self):
        bad = np.array([[0.1, np.nan, 0.2], [0.1, -0.2, 0.3],
                        [0.1, np.inf, 0.2]])
        phi = np.array([1.0, 2.0, 1.0])
        for row in bad:
            assert compiled.fs_queue_batch(row[None, :], 1.0) is None
            assert compiled.fs_queue_batch(row[None, :], 1.0, phi) is None
            assert compiled.fs_loads_batch(row[None, :], 1.0) is None
        good = np.array([[0.1, 0.2, 0.3]])
        for weight in (0.0, -1.0, np.nan, np.inf):
            assert compiled.fs_queue_batch(
                good, 1.0, np.array([1.0, weight, 1.0])) is None
        with pytest.raises(ValueError):
            compiled.fs_queue_batch(good, 1.0, np.ones(2))
        assert compiled.ind_congestion_batch(bad[:2]) is None
        assert compiled.ind_congestion_batch(bad[2:]) is not None
        with pytest.raises(RateVectorError):
            FairShare().queue_lengths_batch(bad[1:2], 1.0)
        with pytest.raises(RateVectorError):
            WeightedFairShare(phi).queue_lengths_batch(bad[1:2], 1.0)
        assert np.array_equal(
            WeightedFairShare(phi).queue_lengths_batch(bad[:1], 1.0),
            _sorted_queues(bad[:1], 1.0, weights=phi), equal_nan=True)
        assert np.isnan(
            individual_congestion_batch(bad[:1])[0]).any()

    def test_masked_c_tier_gives_the_same_bits(self, monkeypatch):
        # The engine's results do not depend on whether C has built,
        # under Fair Share and under weighted Fair Share.
        # The observe stage runs in one C call whenever it serves the
        # scheme, so FIFO and a delay-reading rule are covered too, and
        # every runner: run, run_ensemble and run_async_ensemble.
        def runs():
            out = []
            for n in (4, 70):
                phi = np.random.default_rng(n).choice([1.0, 2.0, 3.0], n)
                for discipline, weights, style, rule in (
                        (FairShare(), None, FeedbackStyle.INDIVIDUAL,
                         TargetRule(eta=0.3, beta=0.5)),
                        (WeightedFairShare(phi), phi,
                         FeedbackStyle.INDIVIDUAL,
                         TargetRule(eta=0.3, beta=0.5)),
                        (Fifo(), None, FeedbackStyle.AGGREGATE,
                         TcpLikeRule())):
                    system = FlowControlSystem(
                        single_gateway(n, mu=1.0), discipline,
                        LinearSaturating(), rule, style=style,
                        weights=weights)
                    starts = np.random.default_rng(n).uniform(
                        0.0, 1.5 / n, size=(3, n))
                    starts[0] = 0.9 / n
                    starts[2, 0] = 0.0
                    ens = system.run_ensemble(starts, max_steps=300)
                    traj = system.run(starts[1], max_steps=300)
                    asy = run_async_ensemble(
                        system, starts,
                        schedule=BernoulliSchedule(0.5, seed=n),
                        signal_delay=1, max_steps=300)
                    out.append((ens.finals, ens.steps, traj.history,
                                asy.finals, asy.steps))
            return out

        with_c = runs()
        monkeypatch.setattr(_cext, "load", lambda: None)
        assert compiled.fs_queue_batch(np.ones((1, 2)), 4.0) is None
        assert compiled.observe_batch(np.ones((1, 2)), None, False) is None
        assert compiled.tier() == "python"
        without_c = runs()
        for got, want in zip(without_c, with_c):
            for a, b in zip(got, want):
                assert np.array_equal(a, b)


def _bits(a):
    return None if a is None else a.tobytes()


def observe_cases(seed, count):
    """Seeded ``(scheme, rates)`` pairs over every configuration the C
    observe kernel serves: the FIFO, Fair Share and weighted Fair Share
    laws under aggregate, individual and weighted individual feedback,
    on single gateways with ``N`` from 1 to 257 (across
    ``RADIX_MIN_N``), parking lots, random multi-gateway networks and
    capacity-degraded views of them.  ``M`` runs from 1 to 8; the rows
    hold zero rates, ``-0.0`` rows, rows mixing ``0.0`` and ``-0.0``,
    tied rates (and tied weights) and overloaded rows."""
    rng = np.random.default_rng(seed)
    styles = (FeedbackStyle.AGGREGATE, FeedbackStyle.INDIVIDUAL)
    for trial in range(count):
        shape = trial % 3
        if shape == 0:
            net = single_gateway(int(rng.integers(1, 258)),
                                 mu=float(rng.uniform(0.5, 2.0)))
        elif shape == 1:
            net = parking_lot(int(rng.integers(1, 5)),
                              cross_per_hop=int(rng.integers(1, 4)),
                              mu=float(rng.uniform(0.5, 2.0)),
                              latency=0.25)
        else:
            net = random_network(int(rng.integers(1, 6)),
                                 int(rng.integers(2, 60)), seed=trial)
        if trial % 4 == 3:
            names = net.gateway_names
            net = net.with_mu_factors(
                {names[int(rng.integers(len(names)))]: 0.5})
        n = net.num_connections
        sizes = {net.csr.members(a).size
                 for a in range(len(net.gateway_names))} - {0}
        width = max(sizes)
        laws = [Fifo(), FairShare()]
        if len(sizes) == 1:
            laws.append(WeightedFairShare(
                rng.choice([0.5, 1.0, 1.0, 2.0, 3.0], size=width)))
        law = laws[trial % len(laws)]
        style = styles[(trial // 3) % 2]
        weights = (rng.choice([0.5, 1.0, 2.0], size=n)
                   if style is FeedbackStyle.INDIVIDUAL and trial % 5 < 2
                   else None)
        scheme = FeedbackScheme(net, law, LinearSaturating(), style,
                                weights=weights)
        m = int(rng.integers(1, 9))
        rates = rng.uniform(0.0, 1.8 / width, size=(m, n))
        if trial % 2 == 0:
            pool = np.array([0.0, -0.0, 0.2, 0.4, 0.9]) / width
            k = n // 2 + 1
            rates[:, :k] = rng.choice(pool, size=(m, k))
        rates[0, int(rng.integers(n))] = 0.0
        if trial % 5 == 0:
            rates[-1] = 2.0 / width
        if trial % 7 == 0:
            rates[m // 2] = -0.0
        if trial % 3 == 0:
            rates[(m - 1) // 2] = 0.9 / width
        if trial % 4 == 1:
            rates[-1, ::3], rates[-1, 1::3] = -0.0, 0.0
        yield scheme, rates


@needs_compiled_fs
class TestCompiledObserveStage:
    """The C observe kernel against the numpy loop, bit for bit (NaN
    payloads and signed zeros included): the loop runs with the C tier
    masked, so it is numpy from the queue law on."""

    def test_kernel_matches_the_numpy_loop_on_fuzz(self, monkeypatch):
        cases = list(observe_cases(5, 480))
        served = set()
        kernel = []
        for scheme, rates in cases:
            plan = scheme._plan
            assert plan is not None
            law, law_weights, measure = plan.args[4:7]
            served.add((law, law_weights is not None, measure))
            for with_delays in (False, True):
                out = compiled.observe_batch(rates, plan, with_delays)
                assert out is not None
                kernel.append(out)
        # The FIFO, Fair Share and weighted Fair Share laws under each
        # measure.
        assert len(served) == 9, served
        monkeypatch.setattr(_cext, "load", lambda: None)
        loop = [scheme._observe(rates, with_delays)
                for scheme, rates in cases for with_delays in (False, True)]
        for trial, ((b, d), (want_b, want_d)) in enumerate(
                zip(kernel, loop)):
            assert _bits(b) == _bits(want_b), trial
            assert _bits(d) == _bits(want_d), trial

    def test_out_of_domain_input_takes_the_numpy_loop(self):
        def outcome(scheme, r):
            try:
                return _bits(scheme.observe_batch(r)[0])
            except RateVectorError as exc:
                return str(exc)

        net = single_gateway(3)
        for discipline in (Fifo(), FairShare()):
            for style in FeedbackStyle:
                scheme = FeedbackScheme(net, discipline, LinearSaturating(),
                                        style)
                plan = scheme._plan
                for row in ([0.1, np.nan, 0.2], [0.1, -0.2, 0.3],
                            [0.1, np.inf, 0.2]):
                    r = np.array([row])
                    assert compiled.observe_batch(r, plan, True) is None
                    got = outcome(scheme, r)
                    scheme._plan = None
                    assert got == outcome(scheme, r), (discipline, row)
                    scheme._plan = plan
        # A weight ratio that overflows makes the weighted measure NaN
        # (inf * 0 for the idle connection), which the numpy loop
        # rejects.
        weighted = FeedbackScheme(single_gateway(2), Fifo(),
                                  LinearSaturating(),
                                  FeedbackStyle.INDIVIDUAL,
                                  weights=[1e300, 1e-300])
        r = np.array([[0.1, 0.0]])
        assert compiled.observe_batch(r, weighted._plan, False) is None
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(RateVectorError):
            weighted.signals_batch(r)

    def test_rates_must_match_the_plan(self):
        scheme = FeedbackScheme(single_gateway(3), Fifo(),
                                LinearSaturating(),
                                FeedbackStyle.INDIVIDUAL)
        for bad in (np.ones((2, 2)), np.ones((2, 4)), np.ones(3)):
            with pytest.raises(ValueError):
                compiled.observe_batch(bad, scheme._plan, False)

    def test_a_pickled_scheme_takes_its_own_pointers(self):
        # Process pools pickle systems: a copy must not read the
        # original's arrays through stale addresses.
        net = parking_lot(3, cross_per_hop=2)
        system = FlowControlSystem(net, Fifo(), LinearSaturating(),
                                   TcpLikeRule(),
                                   style=FeedbackStyle.INDIVIDUAL)
        x0 = np.full(net.num_connections, 0.05)
        want = system.run(x0, max_steps=200).history
        copy = pickle.loads(pickle.dumps(system))
        assert copy.scheme._plan.args != system.scheme._plan.args
        del system
        assert np.array_equal(copy.run(x0, max_steps=200).history, want)

    def test_unserved_schemes_have_no_plan(self):
        net = single_gateway(4)
        ind = FeedbackStyle.INDIVIDUAL

        class SlowFifo(Fifo):
            pass

        class Linear(LinearSaturating):
            pass

        for discipline, signal in (
                (Fifo(), PowerSaturating(p=1.5)),
                (PreemptivePriority([1, 0, 3, 2]), LinearSaturating()),
                (SlowFifo(), LinearSaturating()),
                (Fifo(), Linear())):
            scheme = FeedbackScheme(net, discipline, signal, ind)
            assert scheme._plan is None, (discipline, signal)
        assert FeedbackScheme(net, Fifo(), LinearSaturating(),
                              ind)._plan is not None


class TestPickKernelBoundary:
    """The route-walk switch of ``FeedbackScheme.signals`` and
    ``round_trip_delays`` flips at exactly SPARSE_MIN_N whether or not
    the C tier has built; the Fair Share laws have no switch and give
    the same bits on both sides of it."""

    def test_boundary_names_default_backend(self):
        assert pick_kernel("auto", SPARSE_MIN_N - 1) == "dense"
        assert pick_kernel("auto", SPARSE_MIN_N) == "sparse"
        assert pick_kernel("auto", SPARSE_MIN_N + 1) == "sparse"

    def test_boundary_names_compiled_backend(self, monkeypatch):
        # The switch does not consult the compiled tier: masking the C
        # library leaves it where it was.
        monkeypatch.setattr(_cext, "load", lambda: None)
        assert compiled.tier() == "python"
        assert pick_kernel("auto", SPARSE_MIN_N - 1) == "dense"
        assert pick_kernel("auto", SPARSE_MIN_N) == "sparse"
        assert pick_kernel("auto", SPARSE_MIN_N + 1) == "sparse"

    def test_unknown_method_lists_the_choices(self):
        with pytest.raises(RateVectorError) as exc:
            pick_kernel("compiled", 10)
        assert "'dense'" in str(exc.value)
        assert "'sparse'" in str(exc.value)

    @pytest.mark.parametrize("n", [SPARSE_MIN_N - 1, SPARSE_MIN_N,
                                   SPARSE_MIN_N + 1])
    def test_bit_identity_across_the_switch(self, n, monkeypatch):
        # Dyadic rates (k/32n with dyadic n-scaling is exact in
        # binary64) make any kernel discrepancy a hard bit flip
        # rather than harmless noise.  The contract pinned here: on
        # either side of the route-walk switch the scalar law is the
        # one-row numpy sorted pipeline bit for bit, with the C tier
        # and without it, and within float tolerance of the recursion.
        rng = np.random.default_rng(31)
        rates = rng.integers(0, 32, size=n) / (32.0 * n)
        want = _sorted_queues(rates[None, :], 1.0)[0]
        assert np.array_equal(FairShare().queue_lengths(rates, mu=1.0),
                              want)
        with monkeypatch.context() as masked:
            masked.setattr(_cext, "load", lambda: None)
            assert np.array_equal(
                FairShare().queue_lengths(rates, mu=1.0), want)
        assert np.allclose(want, fair_share_queues_recursive(rates, 1.0),
                           rtol=1e-12, atol=1e-12)


class TestObservability:
    def test_warmup_reports_tier(self):
        assert compiled.warmup() in ("cext", "python")
        # The repository benchmark records both as provenance.
        assert backends.active().name == "numpy"

    @needs_fifo_lib
    def test_fifo_runs_are_timed(self):
        from repro.simulation.network_sim import NetworkSimulation
        timer = compiled.metrics().timer("run.fifo")
        before = timer.count
        sim = NetworkSimulation(single_gateway(3, mu=1.0),
                                discipline_kind="fifo", seed=2,
                                initial_rates=[0.2, 0.1, 0.15],
                                engine="compiled")
        sim.run_for(50.0)
        assert timer.count > before
        assert timer.total_seconds >= 0.0

    def test_snapshot_shape(self):
        snap = compiled.metrics().snapshot()
        assert set(snap) == {"counters", "timers"}
