"""Unit tests for repro.backends: the C Fair Share kernels and their
loop twins against the numpy sorted pipeline, and the compiled tier's
timers."""

import numpy as np
import pytest

from repro import backends
from repro.backends import _cext, _fs_python, compiled
from repro.core.dynamics import FlowControlSystem
from repro.core.fairshare import (FairShare, _sorted_loads, _sorted_queues,
                                  cumulative_loads,
                                  fair_share_queues_recursive)
from repro.core.math_utils import SPARSE_MIN_N, pick_kernel
from repro.core.ratecontrol import TargetRule
from repro.core.signals import (FeedbackStyle, LinearSaturating,
                                _individual_sorted,
                                individual_congestion,
                                individual_congestion_batch)
from repro.core.topology import single_gateway
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
        def runs():
            out = []
            for n in (4, 70):
                phi = np.random.default_rng(n).choice([1.0, 2.0, 3.0], n)
                for discipline, weights in ((FairShare(), None),
                                            (WeightedFairShare(phi), phi)):
                    system = FlowControlSystem(
                        single_gateway(n, mu=1.0), discipline,
                        LinearSaturating(), TargetRule(eta=0.3, beta=0.5),
                        style=FeedbackStyle.INDIVIDUAL, weights=weights)
                    starts = np.random.default_rng(n).uniform(
                        0.0, 1.5 / n, size=(3, n))
                    starts[0] = 0.9 / n
                    ens = system.run_ensemble(starts, max_steps=300)
                    traj = system.run(starts[1], max_steps=300)
                    out.append((ens.finals, ens.steps, traj.history))
            return out

        with_c = runs()
        monkeypatch.setattr(_cext, "load", lambda: None)
        assert compiled.fs_queue_batch(np.ones((1, 2)), 4.0) is None
        assert compiled.tier() == "python"
        without_c = runs()
        for got, want in zip(without_c, with_c):
            for a, b in zip(got, want):
                assert np.array_equal(a, b)


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
