"""Unit tests for the simulator primitives: the event calendar, the
packet pool, random streams, the gateway monitors, and the order in
which the FIFO and fixed-priority queues serve (on the packet kernel's
Python loops and its C loop, with scripted arrivals and services)."""

import heapq

import numpy as np
import pytest

from repro.core.topology import single_gateway
from repro.errors import SimulationError
from repro.simulation.events import EventCalendar
from repro.simulation.network_sim import NetworkSimulation
from repro.simulation.packet import PacketPool
from repro.simulation.rng import RandomStreams, VariateBuffer, VariateRows
from tests.scripted_gateway import ENGINES, scripted_run, scripted_sim


def _pop(cal):
    """The next event as ``(time, kind, a, b)``, or None: popped from
    the heap as the kernel's loop pops it."""
    if not cal._heap:
        return None
    time, _, kind, a, b = heapq.heappop(cal._heap)
    return time, kind, a, b


class TestEventCalendar:
    def test_pops_in_time_order(self):
        cal = EventCalendar()
        cal.push(2.0, 1, a=20)
        cal.push(1.0, 0, a=10)
        cal.push(3.0, 2, a=30)
        popped = [_pop(cal) for _ in range(3)]
        assert [p[0] for p in popped] == [1.0, 2.0, 3.0]
        assert [p[1] for p in popped] == [0, 1, 2]
        assert [p[2] for p in popped] == [10, 20, 30]
        assert _pop(cal) is None

    def test_ties_break_by_insertion_order(self):
        cal = EventCalendar()
        for k in range(5):
            cal.push(1.0, 0, a=k)
        assert [_pop(cal)[2] for k in range(5)] == [0, 1, 2, 3, 4]

    def test_nonfinite_time_rejected(self):
        with pytest.raises(SimulationError):
            EventCalendar().push(float("nan"), 0, 0)

    def test_operands_roundtrip(self):
        cal = EventCalendar()
        cal.push(1.0, 5, a=-3, b=2 ** 40)
        assert _pop(cal) == (1.0, 5, -3, 2 ** 40)


class TestPacketPool:
    def test_alloc_initialises_fields(self):
        pool = PacketPool()
        pid = pool.alloc(3, 2.5)
        assert pool.conn[pid] == 3
        assert pool.created[pid] == 2.5
        assert pool.hop[pid] == 0
        assert pool.remaining[pid] == 0.0
        assert pool.klass[pid] == 0

    def test_free_recycles_slot(self):
        pool = PacketPool()
        pid = pool.alloc(0, 0.0)
        pool.hop[pid] = 2
        pool.remaining[pid] = 1.5
        pool.free(pid)
        again = pool.alloc(1, 1.0)
        assert again == pid
        # Recycled slots come back fully reset.
        assert pool.hop[again] == 0
        assert pool.remaining[again] == 0.0
        assert pool.capacity == 1

    def test_capacity_and_in_flight(self):
        pool = PacketPool()
        pids = [pool.alloc(0, 0.0) for k in range(4)]
        assert pool.capacity == 4
        assert pool.in_flight == 4
        pool.free(pids[1])
        pool.free(pids[2])
        assert pool.capacity == 4
        assert pool.in_flight == 2


class TestVariateBuffer:
    def test_buffered_exponentials_match_scalar_draws(self):
        buffered = RandomStreams(7)
        scalar = RandomStreams(7)
        buf = buffered.buffer("service:g0", block=8)
        got = [buf.next_exponential(2.0) for _ in range(20)]
        want = [scalar.stream("service:g0").exponential(2.0)
                for _ in range(20)]
        assert got == want  # bit-identical across the block refills

    def test_buffered_uniforms_match_scalar_draws(self):
        buf = RandomStreams(3).buffer("thinning:g0", block=4)
        scalar = RandomStreams(3)
        got = [buf.next_uniform() for _ in range(10)]
        want = [scalar.stream("thinning:g0").random() for _ in range(10)]
        assert got == want

    def test_mixing_draw_kinds_raises(self):
        buf = RandomStreams(0).buffer("s")
        buf.next_exponential(1.0)
        with pytest.raises(SimulationError):
            buf.next_uniform()

    def test_block_size_validated(self):
        gen = np.random.default_rng(0)
        with pytest.raises(SimulationError):
            VariateBuffer(gen, block=0)


class TestVariateRows:
    def test_rows_refilled_in_place_match_scalar_draws(self):
        streams = RandomStreams(7)
        rows = VariateRows([streams.stream("service:g0"),
                            streams.stream("thinning:g0")],
                           [True, False])
        values = rows.values
        n = 3 * values.shape[1]
        got_e, got_u = [], []
        for _ in range(3):
            got_e += values[0].tolist()
            got_u += values[1].tolist()
            rows.refill(0)
            rows.refill(1)
        assert rows.values is values  # the same buffer, refilled
        assert rows.index.tolist() == [0, 0]
        scalar = RandomStreams(7)
        assert got_e == [scalar.stream("service:g0").exponential(1.0)
                         for _ in range(n)]
        assert got_u == [scalar.stream("thinning:g0").random()
                         for _ in range(n)]


class TestRandomStreams:
    def test_deterministic(self):
        a = RandomStreams(7).stream("x").random(5)
        b = RandomStreams(7).stream("x").random(5)
        assert np.array_equal(a, b)

    def test_streams_independent_of_creation_order(self):
        s1 = RandomStreams(7)
        first = s1.stream("a").random(3)
        s2 = RandomStreams(7)
        s2.stream("b")  # create b first
        second = s2.stream("a").random(3)
        assert np.array_equal(first, second)

    def test_distinct_names_distinct_streams(self):
        s = RandomStreams(7)
        a = s.stream("arrival:c1").random(4)
        b = s.stream("arrival:c2").random(4)
        assert not np.array_equal(a, b)

    def test_stream_lookup_is_cached(self):
        s = RandomStreams(0)
        assert s.stream("a") is s.stream("a")
        assert s.buffer("a", 64) is s.buffer("a", 64)

    def test_caching_does_not_change_the_draws(self):
        # Drawing through a cached handle continues the one bitstream.
        s = RandomStreams(9)
        first = s.stream("x").random(3)
        second = s.stream("x").random(3)
        fresh = RandomStreams(9).stream("x").random(6)
        assert np.array_equal(np.concatenate([first, second]), fresh)


class TestMonitors:
    """A gateway's monitor (``NetworkSimulation.monitors``) and the
    end-to-end tallies (``NetworkSimulation.e2e``), driven by hand on a
    silent simulation."""

    @staticmethod
    def _sim(n=1):
        return NetworkSimulation(single_gateway(n, mu=1.0), "fifo")

    def test_time_weighted_average(self):
        m = self._sim().monitors["g0"]
        m.on_arrival(0, 1.0)    # occupancy 1 from t=1
        m.on_departure(0, 3.0)  # occupancy 0 from t=3
        assert m.mean_queue_lengths(4.0)[0] == pytest.approx(0.5)

    def test_reset_discards_history(self):
        m = self._sim().monitors["g0"]
        m.on_arrival(0, 0.0)
        m.on_departure(0, 2.0)
        m.reset_statistics(2.0)
        assert m.mean_queue_lengths(4.0)[0] == 0.0

    def test_occupancy_preserved_across_reset(self):
        m = self._sim().monitors["g0"]
        m.on_arrival(0, 0.0)
        m.reset_statistics(1.0)
        # still in system: from t=1 to t=2 occupancy is 1.
        assert m.mean_queue_lengths(2.0)[0] == pytest.approx(1.0)

    def test_underflow_detected(self):
        m = self._sim().monitors["g0"]
        with pytest.raises(SimulationError):
            m.on_departure(0, 1.0)

    def test_time_reversal_detected(self):
        m = self._sim().monitors["g0"]
        m.on_arrival(0, 5.0)
        with pytest.raises(SimulationError):
            m.on_arrival(0, 1.0)

    def test_arrival_rates(self):
        m = self._sim(2).monitors["g0"]
        for t in (1.0, 2.0, 3.0, 4.0):
            m.on_arrival(0, t)
        assert m.arrival_rates(4.0)[0] == pytest.approx(1.0)
        assert m.arrival_rates(4.0)[1] == 0.0

    def test_end_to_end_monitor(self):
        m = self._sim(2).e2e
        m.on_delivery(0, created=1.0, now=3.0)
        m.on_delivery(0, created=2.0, now=3.0)
        assert m.throughput(4.0)[0] == pytest.approx(0.5)
        assert m.mean_delays()[0] == pytest.approx(1.5)
        assert np.isnan(m.mean_delays()[1])
        assert m.delivered[0] == 2


class TestFifoQueue:
    def test_fifo_order(self, monkeypatch):
        # Connections 2, 1 and 0 arrive at t = 1, 1.5 and 2 and are
        # served in that order, not by position: connection 2's 3-unit
        # packet leaves at t = 4, connection 1's at 5, connection 0's
        # at 6.
        for engine in ENGINES:
            with monkeypatch.context() as patch:
                sim = scripted_run(patch, engine, "fifo",
                                   [[2.0], [1.5], [1.0]],
                                   services=[3.0, 1.0, 1.0])
                assert list(sim.mean_delays()) == [4.0, 3.5, 3.0]


class TestFixedPriorityQueue:
    # Fixed priority ranks connections by position, connection 0 first.

    def test_higher_class_first(self, monkeypatch):
        # Connection 0's 3-unit packet serves from t = 1 to 4 while
        # connection 2's packet (t = 1.5) and then connection 1's (t = 2)
        # wait: at t = 4 connection 1, the higher class, goes first.
        for engine in ENGINES:
            with monkeypatch.context() as patch:
                sim = scripted_run(patch, engine, "fixed-priority",
                                   [[1.0], [2.0], [1.5]],
                                   services=[3.0, 1.0, 1.0])
                assert list(sim.mean_delays()) == [3.0, 3.0, 4.5]

    def test_preemption_decision(self, monkeypatch):
        # A 3-unit packet serves from t = 1 and a 1-unit packet arrives
        # at t = 2: connection 0's preempts connection 1's and leaves at
        # t = 3, while connection 1's waits for connection 0's to leave
        # at t = 4.
        for engine in ENGINES:
            with monkeypatch.context() as patch:
                sim = scripted_sim(patch, engine, "fixed-priority",
                                   [[2.0], [1.0]], services=[3.0, 1.0])
                sim.run_for(3.5)
                assert list(sim.e2e.delivered) == [1, 0]
            with monkeypatch.context() as patch:
                sim = scripted_sim(patch, engine, "fixed-priority",
                                   [[1.0], [2.0]], services=[3.0, 1.0])
                sim.run_for(3.5)
                assert list(sim.e2e.delivered) == [0, 0]
                assert sim.servers["g0"].in_system == 2
                sim.run_for(6.5)
                assert list(sim.mean_delays()) == [3.0, 3.0]
