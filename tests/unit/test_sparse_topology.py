"""Unit tests for the sparse topology layer and the large-N kernels.

The CSR index arrays (:class:`~repro.core.topology.TopologyCSR`) are a
*layout* change, not a semantic one: every lookup they answer must be
bit-identical to the historical ``gamma(i)``/``Gamma(a)`` scans.  The
Fair Share law and the congestion measure run one sorted O(n log n)
kernel at every size; it may differ from the plain, dense O(n^2) laws
only in floating-point summation order (<= 1e-12 relative).
``signals`` and ``round_trip_delays`` are one-row calls of their batch
forms at every N, and both are held to the dense per-gateway reference
:func:`~repro.scenarios.oracles.reference_observe`.
"""

import math

import numpy as np
import pytest

from repro.core.delays import round_trip_delays, round_trip_delays_batch
from repro.core.fairshare import (FairShare, cumulative_loads,
                                  cumulative_loads_batch,
                                  fair_share_queues_recursive)
from repro.core.fifo import Fifo
from repro.core.signals import (FeedbackScheme, FeedbackStyle,
                                LinearSaturating, individual_congestion,
                                individual_congestion_batch)
from repro.core.topology import (TopologyCSR, parking_lot, random_network,
                                 single_gateway)
from repro.scenarios.oracles import reference_observe

NETWORKS = [
    ("single-gateway", single_gateway(5, mu=1.0)),
    ("parking-lot", parking_lot(3, mu=1.2, latency=0.3)),
    ("random", random_network(6, 40, seed=13)),
]


class TestCSRLayout:
    @pytest.mark.parametrize("label,net", NETWORKS,
                             ids=[l for l, _ in NETWORKS])
    def test_members_match_connections_at(self, label, net):
        csr = net.csr
        assert isinstance(csr, TopologyCSR)
        for a, gname in enumerate(csr.gateway_names):
            assert list(csr.members(a)) == \
                list(net.connections_at(gname))

    @pytest.mark.parametrize("label,net", NETWORKS,
                             ids=[l for l, _ in NETWORKS])
    def test_routes_match_gamma_in_path_order(self, label, net):
        csr = net.csr
        for i in range(net.num_connections):
            names = [csr.gateway_names[a] for a in csr.route(i)]
            assert tuple(names) == net.gamma(i)

    @pytest.mark.parametrize("label,net", NETWORKS,
                             ids=[l for l, _ in NETWORKS])
    def test_positions_match_index_scans(self, label, net):
        # positions(i) precomputes what the historical code found with
        # list(Gamma(a)).index(i) — they must agree everywhere.
        csr = net.csr
        for i in range(net.num_connections):
            for a, pos in zip(csr.route(i), csr.positions(i)):
                gname = csr.gateway_names[a]
                assert list(net.connections_at(gname)).index(i) == pos

    @pytest.mark.parametrize("label,net", NETWORKS,
                             ids=[l for l, _ in NETWORKS])
    def test_path_latency_vector_bit_identical(self, label, net):
        csr = net.csr
        expected = np.array([net.path_latency(i)
                             for i in range(net.num_connections)])
        assert np.array_equal(csr.path_latency, expected)

    def test_csr_is_cached(self):
        net = single_gateway(4)
        assert net.csr is net.csr


def dense_loads(rates, mu):
    """The plain O(n^2) law ``sigma_k = sum_m min(r_m, r_(k)) / mu``."""
    srt = np.sort(rates)
    return np.minimum(srt[None, :], srt[:, None]).sum(axis=1) / mu


def dense_congestion(queues):
    """The plain O(n^2) min-broadcast ``C_i = sum_k min(Q_k, Q_i)``."""
    return np.minimum(queues[None, :], queues[:, None]).sum(axis=1)


class TestSortedKernels:
    @pytest.mark.parametrize("n", [3, 17, 64, 257])
    def test_cumulative_loads_dense_vs_sorted(self, n):
        rng = np.random.default_rng(n)
        rates = rng.uniform(0.0, 0.4, size=n)
        rates[: n // 4] = rates[0]  # ties
        rates[-1] = 0.0             # idle connection
        fast = cumulative_loads(rates, mu=1.1)
        np.testing.assert_allclose(fast, dense_loads(rates, 1.1),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", [3, 17, 64, 257])
    def test_cumulative_loads_batch_dense_vs_sorted(self, n):
        rng = np.random.default_rng(100 + n)
        rates = rng.uniform(0.0, 0.4, size=(5, n))
        fast = cumulative_loads_batch(rates, mu=0.9)
        for m in range(rates.shape[0]):
            np.testing.assert_allclose(fast[m], dense_loads(rates[m], 0.9),
                                       rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", [3, 17, 64, 257])
    def test_individual_congestion_dense_vs_sorted(self, n):
        rng = np.random.default_rng(200 + n)
        queues = rng.uniform(0.0, 5.0, size=n)
        queues[: n // 5] = queues[0]
        fast = individual_congestion(queues)
        np.testing.assert_allclose(fast, dense_congestion(queues),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", [3, 17, 64, 257])
    def test_queue_law_matches_recursion(self, n):
        # The engine's law against the paper's recursion, with ties,
        # an idle connection and an overloaded tail.
        rng = np.random.default_rng(400 + n)
        rates = rng.uniform(0.0, 1.6 / n, size=(6, n))
        rates[:, : n // 4] = rates[:, :1]
        rates[:, -1] = 0.0
        batch = FairShare().queue_lengths_batch(rates, mu=1.0)
        for m in range(rates.shape[0]):
            want = fair_share_queues_recursive(rates[m], 1.0)
            assert np.array_equal(np.isinf(batch[m]), np.isinf(want))
            finite = np.isfinite(want)
            np.testing.assert_allclose(batch[m][finite], want[finite],
                                       rtol=1e-12, atol=0.0)
            assert np.array_equal(
                FairShare().queue_lengths(rates[m], 1.0), batch[m])

    def test_individual_congestion_sorted_handles_inf(self):
        # Overloaded entries: the connection's own infinite queue makes
        # its measure inf, while finite-queue connections cap every
        # larger queue at their own length — no inf leakage, no NaN
        # from the inf * 0 corner of the prefix formulation.
        queues = np.array([0.5, math.inf, 1.5, math.inf, 0.0])
        dense = dense_congestion(queues)
        fast = individual_congestion(queues)
        assert np.array_equal(np.isinf(dense), np.isinf(fast))
        finite = np.isfinite(dense)
        np.testing.assert_allclose(fast[finite], dense[finite],
                                   rtol=1e-12, atol=1e-12)
        batch = individual_congestion_batch(queues[None, :])[0]
        assert np.array_equal(batch, fast)

    @pytest.mark.parametrize("n", [63, 64, 65])
    def test_fair_share_scalar_batch_identity_across_threshold(self, n):
        # The scalar law is a one-row batch at every n, so the
        # bit-identity contract holds around the size where the route
        # walks once switched kernels.
        rng = np.random.default_rng(300 + n)
        rates = rng.uniform(0.0, 1.5 / n, size=n)
        fs = FairShare()
        scalar = fs.queue_lengths(rates, mu=1.0)
        batch = fs.queue_lengths_batch(rates[None, :], mu=1.0)[0]
        assert np.array_equal(scalar, batch)


def _assert_reference(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestSparseAddressing:
    """``signals``, ``signals_batch``, ``round_trip_delays`` and
    ``round_trip_delays_batch`` against the dense per-gateway reference
    :func:`~repro.scenarios.oracles.reference_observe`."""

    @pytest.mark.parametrize("style", [FeedbackStyle.INDIVIDUAL,
                                       FeedbackStyle.AGGREGATE])
    def test_signals_dense_vs_sparse(self, style):
        net = random_network(6, 40, seed=13)
        rng = np.random.default_rng(17)
        rates = rng.uniform(0.0, 0.05, size=net.num_connections)
        for discipline in (Fifo(), FairShare()):
            scheme = FeedbackScheme(net, discipline, LinearSaturating(),
                                    style)
            got = scheme.signals(rates)
            _assert_reference(got, reference_observe(scheme, rates)[0])
            # The one-row call is that row of the batch, bit for bit.
            assert np.array_equal(got, scheme.signals_batch(
                rates[None, :])[0]), discipline

    def test_signals_batch_rows_match_dense(self):
        net = random_network(5, 24, seed=3)
        rng = np.random.default_rng(23)
        batch = rng.uniform(0.0, 0.06, size=(4, net.num_connections))
        for discipline in (Fifo(), FairShare()):
            scheme = FeedbackScheme(net, discipline, LinearSaturating(),
                                    FeedbackStyle.INDIVIDUAL)
            out = scheme.signals_batch(batch)
            for m in range(batch.shape[0]):
                _assert_reference(out[m],
                                  reference_observe(scheme, batch[m])[0])

    def test_delays_dense_vs_sparse(self):
        net = random_network(6, 40, seed=13)
        rng = np.random.default_rng(29)
        rates = rng.uniform(0.0, 0.05, size=net.num_connections)
        scheme = FeedbackScheme(net, Fifo(), LinearSaturating(),
                                FeedbackStyle.INDIVIDUAL)
        got = round_trip_delays(net, Fifo(), rates)
        _assert_reference(got, reference_observe(scheme, rates)[1])
        assert np.array_equal(got, round_trip_delays_batch(
            net, Fifo(), rates[None, :])[0])

    def test_delays_batch_rows_match_dense(self):
        net = parking_lot(3, mu=1.2, latency=0.3)
        rng = np.random.default_rng(31)
        batch = rng.uniform(0.0, 0.2, size=(5, net.num_connections))
        scheme = FeedbackScheme(net, FairShare(), LinearSaturating(),
                                FeedbackStyle.INDIVIDUAL)
        out = round_trip_delays_batch(net, FairShare(), batch)
        for m in range(batch.shape[0]):
            _assert_reference(out[m], reference_observe(scheme, batch[m])[1])

    def test_large_n_auto_path_matches_dense_reference(self):
        n = 128
        net = single_gateway(n, mu=float(n))
        scheme = FeedbackScheme(net, FairShare(), LinearSaturating(),
                                FeedbackStyle.INDIVIDUAL)
        rng = np.random.default_rng(37)
        rates = rng.uniform(0.0, 0.5, size=n)
        _assert_reference(scheme.signals(rates),
                          reference_observe(scheme, rates)[0])
