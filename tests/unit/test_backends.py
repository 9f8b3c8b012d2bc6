"""Unit tests for repro.backends: the Fair Share laws of both tiers
against the exact laws of ``tests/exact_fair_share.py``, the C Fair
Share kernels against the numpy sorted pipeline, the C observe kernel
against the numpy observe loop, and the compiled tier's timers."""

import ast
import functools
import inspect
import math
import pickle
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from repro import backends
from repro.backends import _cext, compiled
from repro.core.asynchronous import BernoulliSchedule, run_async_ensemble
from repro.core.dynamics import FlowControlSystem
from repro.core.fairshare import (FairShare, _sorted_loads, _sorted_queues,
                                  cumulative_loads, cumulative_loads_batch,
                                  fair_share_queues_recursive)
from repro.core.fifo import Fifo
from repro.core.ratecontrol import TargetRule, TcpLikeRule
from repro.core.service import PreemptivePriority
from repro.core.signals import (ExponentialSignal, FeedbackScheme,
                                FeedbackStyle, LinearSaturating,
                                PowerSaturating,
                                _individual_sorted,
                                individual_congestion,
                                individual_congestion_batch)
from repro.core.topology import parking_lot, random_network, single_gateway
from repro.core.weighted import WeightedFairShare
from repro.errors import RateVectorError
from tests import exact_fair_share as exact

needs_compiled_fs = pytest.mark.skipif(
    compiled.tier() != "cext",
    reason="no compiled Fair Share tier in this environment")


def fuzz_batches(seed, count=2000):
    """Seeded ``(rates, queues, weights, weighted_rates)`` batches,
    ``N`` from 1 to 130: tied rates, zeros and ``-0.0``, overloaded
    rows, rows of equal rates, and queue rows with infinite, tied and
    signed-zero entries.

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
        yield rates, queues, weights, weighted_rates


def queue_ulps(n, load):
    """How far, in units in the last place, the float Fair Share law
    may lie from the exact one for a connection of an ``n``-connection
    gateway whose class carries ``load``.

    ``g``'s condition number grows like ``1 / (1 - load)``, and a
    queue sums up to ``n`` class shares.  Over 3,000 seeded rows (N =
    2-39, total loads 0.3-0.97, weighted or not) the worst reading was
    1.7 n / (1 - load), and at most 97 ulps, on either tier; the bound
    leaves a margin of 3 / 1.7.  The linear signal of the individual
    measure of those queues stays within 0.6 n / (1 - load) of the
    exact one."""
    return 3.0 * n / (1.0 - load)


def exact_rows(seed, count=100):
    """Seeded ``(rates, weights)`` rows of one gateway at ``mu = 1``.

    ``N`` runs from 2 to 39 at total loads 0.3-0.97.  Every fourth row
    ties its first third of rates, every fifth sets its first rate to
    ``-0.0`` (every tenth its last to ``0.0`` too), and every sixth is
    overloaded (total load 1.2-2.5).  Odd rows carry dyadic weights, so ``r / phi`` ties
    exactly where rates and weights do, and the others uniform ones.
    The last row, of 130 connections, crosses the C sort's radix
    threshold (``RADIX_MIN_N = 112``)."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(2, 40)) if k < count - 1 else 130
        load = rng.uniform(1.2, 2.5) if k % 6 == 5 else rng.uniform(0.3,
                                                                  0.97)
        shape = rng.uniform(0.2, 1.0, n)
        rates = shape / shape.sum() * load
        if k % 4 == 1:
            rates[: n // 3 + 1] = rates[0]
        if k % 5 == 2:
            rates[0] = -0.0
            if k % 10 == 2:
                rates[-1] = 0.0
        weights = (rng.choice([0.5, 1.0, 2.0, 4.0], n) if k % 2
                   else rng.uniform(0.2, 3.0, n))
        yield rates, weights


@functools.lru_cache(maxsize=None)
def exact_cases():
    """``(rates, weights, queues, loads, signals)`` per row of
    :func:`exact_rows`, unweighted (weights None) and weighted: the
    exact queues, class loads and linear signals of the individual
    measure (None past 39 connections, where the exact measure of the
    exact queues costs seconds).  A row is left out, weighted and
    unweighted, when a class load comes within 1% of 1: there the float
    load can round to the other side of 1, where the law jumps to
    ``inf``."""
    cases = []
    for rates, weights in exact_rows(41):
        row = []
        for phi in (None, weights):
            loads = exact.class_loads(rates, 1.0, phi)
            queues = exact.queues(rates, 1.0, phi)
            signals = None if len(rates) > 39 else [
                exact.linear_signal(c)
                for c in exact.individual_measure(queues)]
            row.append((rates, phi, queues, loads, signals))
        if all(abs(x - 1) > 0.01 for case in row for x in case[3]):
            cases.extend(row)
    return cases


def on_tier(kernel, c_kernel, numpy_pipeline):
    """``kernel`` ``"numpy"`` runs the numpy pipeline; ``"live"`` runs
    the C kernel when the C tier has built (it must serve), else the
    numpy pipeline."""
    if kernel == "live" and compiled.tier() == "cext":
        out = c_kernel()
        assert out is not None
        return out
    return numpy_pipeline()


def assert_ties_share_bits(got, keys):
    """Entries with equal ``keys`` hold one bit pattern in ``got``."""
    seen = {}
    for value, key in zip(got.tolist(), keys):
        assert seen.setdefault(key, value) == value, key


class TestExactFairShare:
    """The Fair Share laws of both tiers against the exact laws of
    ``tests/exact_fair_share.py``: exact where the law is exact (zero
    rates, overloaded classes, ties), within a measured ulp bound
    elsewhere.  ``numpy`` runs the numpy sorted pipelines (and the
    observe stage's numpy loop, whose laws are the live tier's);
    ``live`` the C kernels where the C tier has built and the numpy
    pipelines where it has not, so nothing skips without a
    compiler."""

    def test_the_reference_is_the_paper_law(self):
        # The recursion Q_(i) = [g(sigma_i) - sum_{m<i} Q_(m)] / (N - i
        # + 1) by hand for the rates 0.1, 0.2, 0.05 (as floats), and
        # conservation
        # sum_i Q_i = g(sum_i r_i / mu) exactly on every stable row,
        # weighted or not; equal weights give the unweighted law.
        r = [Fraction(x) for x in (0.1, 0.2, 0.05)]
        loads = (3 * r[2], r[2] + 2 * r[0], sum(r))   # in rate order
        g = [x / (1 - x) for x in loads]
        smallest = g[0] / 3
        middle = (g[1] - smallest) / 2
        largest = g[2] - smallest - middle
        assert exact.queues([0.1, 0.2, 0.05], 1.0) == [middle, largest,
                                                        smallest]
        for rates, phi, queues, _, _ in exact_cases():
            total = sum(Fraction(r) for r in rates)
            if total < 1:
                assert sum(queues) == total / (1 - total)
            if phi is not None and len(rates) < 12:
                assert exact.queues(rates, 1.0, np.ones(len(rates))) == \
                    exact.queues(rates, 1.0)

    @pytest.mark.parametrize("kernel", ["numpy", "live"])
    def test_queue_law(self, kernel):
        for rates, phi, want, loads, _ in exact_cases():
            r = rates[None, :]
            got = on_tier(kernel,
                          lambda: compiled.fs_queue_batch(r, 1.0, phi),
                          lambda: _sorted_queues(r, 1.0, weights=phi))[0]
            n = len(rates)
            for i in range(n):
                if want[i] == 0:    # a zero rate, -0.0 too, gives +0.0
                    assert got[i] == 0.0 and not np.signbit(got[i]), i
                elif want[i] == math.inf:
                    assert got[i] == math.inf, i
                else:
                    ulps = exact.ulps(got[i], want[i])
                    assert ulps <= queue_ulps(n, loads[i]), (n, i, ulps)
            assert_ties_share_bits(got, zip(rates.tolist(), (
                [1.0] * n if phi is None else phi.tolist())))

    @pytest.mark.parametrize("kernel", ["numpy", "live"])
    def test_individual_measure(self, kernel):
        # A sum of n nonnegative terms and one product: within n + 1
        # ulps whatever the load (the standard summation bound), exact
        # at inf and 0 (ulps() requires both), one value per tied queue.
        for rates, phi, _, _, _ in exact_cases():
            q = _sorted_queues(rates[None, :], 1.0, weights=phi)
            got = on_tier(kernel, lambda: compiled.ind_congestion_batch(q),
                          lambda: _individual_sorted(q))[0]
            want = exact.individual_measure(q[0])
            for i, w in enumerate(want):
                assert exact.ulps(got[i], w) <= len(rates) + 1, i
            assert_ties_share_bits(got, q[0].tolist())

    def test_cumulative_loads(self):
        # n additions, one product and one quotient: within n + 2 ulps,
        # one load per run of tied rates.
        for rates, phi, _, _, _ in exact_cases():
            if phi is not None:
                continue
            srt = np.sort(rates)[None, :]
            got = _sorted_loads(srt, 1.0)[0]
            assert np.array_equal(
                got, cumulative_loads_batch(rates[None, :], 1.0)[0])
            want = exact.cumulative_loads(rates, 1.0)
            for k, w in enumerate(want):
                assert exact.ulps(got[k], w) <= len(rates) + 2, k
            assert_ties_share_bits(got, srt[0].tolist())

    @pytest.mark.parametrize("kernel", ["numpy", "live"])
    def test_observe_signals(self, kernel):
        # The observe stage on one gateway under Fair Share (weighted
        # or not) and the individual measure: b = C / (C + 1) of the
        # exact queues, 1 exactly behind an overloaded class.
        for rates, phi, _, loads, want in exact_cases():
            if want is None:
                continue
            n = len(rates)
            law = FairShare() if phi is None else WeightedFairShare(phi)
            scheme = FeedbackScheme(single_gateway(n), law,
                                    LinearSaturating(),
                                    FeedbackStyle.INDIVIDUAL)
            r = rates[None, :]
            plan, scheme._plan = scheme._plan, None
            numpy_b = scheme._observe(r, False)[0]
            scheme._plan = plan
            got = on_tier(kernel,
                          lambda: compiled.observe_batch(r, plan, False),
                          lambda: (numpy_b,))[0][0]
            top = max((x for x in loads if x < 1), default=0.0)
            for i, w in enumerate(want):
                assert exact.ulps(got[i], w) <= queue_ulps(n, top), i


@needs_compiled_fs
class TestCompiledFairShare:
    def test_queue_law_fuzz_bit_identity(self):
        # C kernels against the numpy sorted pipeline, both laws, the
        # queue law unweighted and weighted.
        for trial, (rates, queues, weights, wrates) in enumerate(
                fuzz_batches(21)):
            got = compiled.fs_queue_batch(rates, 1.0)
            assert got is not None
            assert np.array_equal(got, _sorted_queues(rates, 1.0)), trial
            assert np.array_equal(
                compiled.fs_queue_batch(wrates, 1.0, weights),
                _sorted_queues(wrates, 1.0, weights=weights)), trial
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

    def test_a_signal_parameter_out_of_domain_takes_the_numpy_loop(self):
        # Signal functions are mutable: the plan reads p or k at each
        # call, and the kernel serves only a finite positive one.
        for signal, attr in ((PowerSaturating(p=2.0), "p"),
                             (ExponentialSignal(k=1.3), "k")):
            scheme = FeedbackScheme(single_gateway(3), Fifo(), signal,
                                    FeedbackStyle.INDIVIDUAL)
            r = np.array([[0.1, 0.2, 0.3]])
            for value, served in ((0.5, True), (0.0, False),
                                  (-1.0, False), (np.nan, False),
                                  (np.inf, False)):
                setattr(signal, attr, value)
                out = compiled.observe_batch(r, scheme._plan, False)
                assert (out is not None) is served, (signal, value)

    def test_the_two_planes_do_not_alias(self):
        # b and d share one block: writing one leaves the other.
        net = parking_lot(3)
        scheme = FeedbackScheme(net, FairShare(), LinearSaturating(),
                                FeedbackStyle.INDIVIDUAL)
        r = np.random.default_rng(3).uniform(
            0.01, 0.2, size=(4, net.num_connections))
        b, d = compiled.observe_batch(r, scheme._plan, True)
        want_b, want_d = b.copy(), d.copy()
        b[:] = -1.0
        assert _bits(d) == _bits(want_d)
        b[:], d[:] = want_b, -1.0
        assert _bits(b) == _bits(want_b)
        alone, none = compiled.observe_batch(r, scheme._plan, False)
        assert none is None and _bits(alone) == _bits(want_b)

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

        class Power(PowerSaturating):
            pass

        for discipline, signal in (
                (Fifo(), Power(p=1.5)),
                (PreemptivePriority([1, 0, 3, 2]), LinearSaturating()),
                (SlowFifo(), LinearSaturating()),
                (Fifo(), Linear())):
            scheme = FeedbackScheme(net, discipline, signal, ind)
            assert scheme._plan is None, (discipline, signal)
        # The three shipped signal functions, matched by exact type.
        for signal in (LinearSaturating(), PowerSaturating(p=1.5),
                       ExponentialSignal(k=0.7)):
            assert FeedbackScheme(net, Fifo(), signal,
                                  ind)._plan is not None, signal


class TestPickKernelBoundary:
    """The route walks of ``FeedbackScheme.signals`` and
    ``round_trip_delays`` once switched kernels at 64 connections; no
    law switches there now, and the Fair Share law gives the same bits
    on both sides of that size, with the C tier and without it."""

    @pytest.mark.parametrize("n", [63, 64, 65])
    def test_bit_identity_across_the_switch(self, n, monkeypatch):
        # Dyadic rates (k/32n with dyadic n-scaling is exact in
        # binary64) make any kernel discrepancy a hard bit flip
        # rather than harmless noise.  The contract pinned here: on
        # either side of that size the scalar law is the one-row numpy
        # sorted pipeline bit for bit, with the C tier and without it,
        # and within float tolerance of the recursion.
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


_ROOT = Path(__file__).resolve().parents[2]


def _lib_reads(path) -> set:
    """The attributes a source file reads off a ``lib`` or ``_lib``
    object: the C entry points it calls (or hands on)."""
    tree = ast.parse(path.read_text())
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and ast.unparse(node.value).split(".")[-1] in ("lib", "_lib")}


def _compiled_reads(path) -> set:
    """The names a source file takes from :mod:`repro.backends.compiled`:
    imported from it, or read as attributes of the module under any
    name it was imported as."""
    tree = ast.parse(path.read_text())
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = (node.module or "").split(".")[-1]
            for alias in node.names:
                if package == "compiled":
                    names.add(alias.name)
                elif package == "backends" and alias.name == "compiled":
                    modules.add(alias.asname or alias.name)
    names.update(node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name)
                 and node.value.id in modules)
    return names


class TestNoTestOnlyEntryPoints:
    """Every C entry point the library binds is called from the engine,
    and every public name of :mod:`repro.backends.compiled` has a
    caller outside ``tests/``: a kernel only the tests reach is test
    code in ``src/``."""

    def test_every_bound_entry_point_is_called(self):
        configure = ast.parse(textwrap.dedent(
            inspect.getsource(_cext._configure)))
        bound = {node.value.attr for node in ast.walk(configure)
                 if isinstance(node, ast.Attribute)
                 and node.attr == "argtypes"
                 and isinstance(node.value, ast.Attribute)}
        assert {"fs_queue_batch", "observe_batch", "ensemble_loop",
                "packet_run"} <= bound
        called = set()
        for path in ("src/repro/backends/compiled.py",
                     "src/repro/simulation/kernel_compiled.py"):
            called |= _lib_reads(_ROOT / path)
        assert sorted(bound - called) == []

    def test_every_public_wrapper_has_a_caller_outside_the_tests(self):
        callers = set()
        for folder in ("src", "benchmarks", "examples"):
            for path in (_ROOT / folder).rglob("*.py"):
                if path.name != "compiled.py":
                    callers |= _compiled_reads(path)
        assert sorted(set(compiled.__all__) - callers) == []


class TestAddresses:
    """The address the C entry points take equals numpy's own."""

    def test_addr_equals_ctypes_data(self):
        base = np.arange(12.0)
        read_only = np.arange(4.0)
        read_only.flags.writeable = False
        arrays = [np.zeros(5), np.zeros((2, 3), dtype=np.int64),
                  np.zeros(3, dtype=np.uint32), np.zeros(4, dtype=np.bool_),
                  base[3:], base[::2], read_only, np.zeros(0),
                  np.zeros((0, 3))]
        for a in arrays:
            assert compiled._addr(a) == a.ctypes.data, a
        assert compiled._addr(None) is None


class TestObservability:
    def test_warmup_reports_tier(self):
        assert compiled.warmup() in ("cext", "python")
        # The repository benchmark records both as provenance.
        assert backends.active().name == "numpy"

    def test_snapshot_shape(self):
        snap = compiled.metrics().snapshot()
        assert set(snap) == {"counters", "timers"}
