"""Unit tests for the simulator primitives: events, rng, queues,
monitors."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.simulation.events import EventCalendar, Scheduler
from repro.simulation.monitors import EndToEndMonitor, GatewayMonitor
from repro.simulation.packet import Packet, PacketPool
from repro.simulation.queues import (FairQueueingQueue, FairShareQueue,
                                     FifoQueue, FixedPriorityQueue,
                                     make_discipline)
from repro.simulation.rng import RandomStreams, VariateBuffer, VariateRows


class TestScheduler:
    def test_runs_in_time_order(self):
        sched = Scheduler()
        seen = []
        sched.schedule(2.0, lambda: seen.append("b"))
        sched.schedule(1.0, lambda: seen.append("a"))
        sched.run_until(3.0)
        assert seen == ["a", "b"]
        assert sched.now == 3.0

    def test_fifo_tie_break(self):
        sched = Scheduler()
        seen = []
        sched.schedule(1.0, lambda: seen.append(1))
        sched.schedule(1.0, lambda: seen.append(2))
        sched.run_until(1.0)
        assert seen == [1, 2]

    def test_cancellation(self):
        sched = Scheduler()
        seen = []
        handle = sched.schedule(1.0, lambda: seen.append("x"))
        handle.cancel()
        sched.run_until(2.0)
        assert seen == []

    def test_schedule_in_past_rejected(self):
        sched = Scheduler()
        sched.run_until(5.0)
        with pytest.raises(SimulationError):
            sched.schedule(1.0, lambda: None)

    def test_events_can_schedule_events(self):
        sched = Scheduler()
        seen = []

        def first():
            sched.schedule_after(1.0, lambda: seen.append("second"))
        sched.schedule(1.0, first)
        sched.run_until(3.0)
        assert seen == ["second"]

    def test_events_beyond_horizon_kept(self):
        sched = Scheduler()
        seen = []
        sched.schedule(10.0, lambda: seen.append("late"))
        sched.run_until(5.0)
        assert seen == []
        sched.run_until(11.0)
        assert seen == ["late"]

    def test_peek_time_skips_cancelled(self):
        sched = Scheduler()
        h = sched.schedule(1.0, lambda: None)
        sched.schedule(2.0, lambda: None)
        h.cancel()
        assert sched.peek_time() == 2.0

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Scheduler().schedule_after(-1.0, lambda: None)

    def test_nonfinite_time_rejected(self):
        with pytest.raises(SimulationError):
            Scheduler().schedule(float("inf"), lambda: None)


class TestEventCalendar:
    def test_pops_in_time_order(self):
        cal = EventCalendar()
        cal.push(2.0, 1, a=20)
        cal.push(1.0, 0, a=10)
        cal.push(3.0, 2, a=30)
        popped = [cal.pop() for _ in range(3)]
        assert [p[0] for p in popped] == [1.0, 2.0, 3.0]
        assert [p[1] for p in popped] == [0, 1, 2]
        assert [p[2] for p in popped] == [10, 20, 30]
        assert cal.pop() is None

    def test_ties_break_by_insertion_order(self):
        cal = EventCalendar()
        for k in range(5):
            cal.push(1.0, 0, a=k)
        assert [cal.pop()[2] for k in range(5)] == [0, 1, 2, 3, 4]

    def test_nonfinite_time_rejected(self):
        with pytest.raises(SimulationError):
            EventCalendar().push(float("nan"), 0, 0)

    def test_operands_roundtrip(self):
        cal = EventCalendar()
        cal.push(1.0, 5, a=-3, b=2 ** 40)
        assert cal.pop() == (1.0, 5, -3, 2 ** 40)


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
        want = [scalar.exponential("service:g0", 0.5) for _ in range(20)]
        assert got == want  # bit-identical across the block refills

    def test_buffered_uniforms_match_scalar_draws(self):
        buf = RandomStreams(3).buffer("thinning:g0", block=4)
        scalar = RandomStreams(3)
        got = [buf.next_uniform() for _ in range(10)]
        want = [scalar.uniform("thinning:g0") for _ in range(10)]
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
        assert got_e == [scalar.exponential("service:g0", 1.0)
                         for _ in range(n)]
        assert got_u == [scalar.uniform("thinning:g0") for _ in range(n)]


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

    def test_exponential_positive(self):
        s = RandomStreams(0)
        assert s.exponential("e", 2.0) > 0

    def test_uniform_range(self):
        s = RandomStreams(0)
        assert 0.0 <= s.uniform("u") <= 1.0

    def test_nonpositive_rate_rejected(self):
        s = RandomStreams(0)
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(SimulationError):
                s.exponential("e", bad)
            with pytest.raises(SimulationError):
                s.exponentials("e", bad, 4)

    def test_bad_draw_count_rejected(self):
        s = RandomStreams(0)
        with pytest.raises(SimulationError):
            s.exponentials("e", 1.0, -1)
        with pytest.raises(SimulationError):
            s.uniforms("u", 2.5)

    def test_batched_draws_match_scalar_draws(self):
        batched = RandomStreams(11).exponentials("e", 4.0, 16)
        scalar = RandomStreams(11)
        want = [scalar.exponential("e", 4.0) for _ in range(16)]
        assert batched.tolist() == want
        scalar_u = RandomStreams(5)
        assert RandomStreams(5).uniforms("u", 8).tolist() == \
            [scalar_u.uniform("u") for _ in range(8)]

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


def _pkt(conn=0, seq=0, service=1.0):
    p = Packet(conn=conn, seq=seq, created=0.0)
    p.service_time = service
    p.remaining = service
    return p


class TestFifoQueue:
    def test_fifo_order(self):
        q = FifoQueue()
        q.push(_pkt(seq=1), 0.0)
        q.push(_pkt(seq=2), 0.0)
        assert q.pop(0.0).seq == 1
        assert q.pop(0.0).seq == 2
        assert q.pop(0.0) is None

    def test_requeue_front(self):
        q = FifoQueue()
        q.push(_pkt(seq=1), 0.0)
        p2 = _pkt(seq=2)
        q.requeue_front(p2)
        assert q.pop(0.0).seq == 2

    def test_len(self):
        q = FifoQueue()
        assert len(q) == 0
        q.push(_pkt(), 0.0)
        assert len(q) == 1

    def test_never_preempts(self):
        q = FifoQueue()
        assert not q.would_preempt(_pkt(), _pkt())


class TestFixedPriorityQueue:
    def test_higher_class_first(self):
        q = FixedPriorityQueue({0: 1, 1: 0})
        q.push(_pkt(conn=0, seq=1), 0.0)
        q.push(_pkt(conn=1, seq=2), 0.0)
        assert q.pop(0.0).conn == 1

    def test_preemption_decision(self):
        q = FixedPriorityQueue({0: 1, 1: 0})
        low = _pkt(conn=0)
        q.push(low, 0.0)
        low = q.pop(0.0)
        high = _pkt(conn=1)
        q.push(high, 0.0)
        high = q.pop(0.0)
        assert q.would_preempt(low, high)
        assert not q.would_preempt(high, low)

    def test_unknown_conn_rejected(self):
        q = FixedPriorityQueue({0: 0})
        with pytest.raises(SimulationError):
            q.push(_pkt(conn=5), 0.0)


class TestFairShareQueue:
    def _bound(self, rates):
        q = FairShareQueue()
        q.bind(list(range(len(rates))),
               rate_provider=lambda: np.asarray(rates),
               rng=np.random.default_rng(0))
        return q

    def test_smallest_connection_always_top_class(self):
        q = self._bound([0.1, 0.5, 0.9])
        for _ in range(20):
            q.push(_pkt(conn=0), 0.0)
        # All of connection 0's packets are in class 0.
        classes = set()
        while True:
            pkt = q.pop(0.0)
            if pkt is None:
                break
            classes.add(pkt.priority_class)
        assert classes == {0}

    def test_largest_connection_spreads_over_classes(self):
        q = self._bound([0.1, 0.5, 0.9])
        seen = set()
        for _ in range(300):
            pkt = _pkt(conn=2)
            q.push(pkt, 0.0)
            seen.add(pkt.priority_class)
        assert seen == {0, 1, 2}

    def test_thinning_probabilities(self):
        # widths for conn with rate 0.9 given rates (0.1, 0.5, 0.9):
        # (0.1, 0.4, 0.4)/0.9.
        q = self._bound([0.1, 0.5, 0.9])
        counts = np.zeros(3)
        trials = 6000
        for _ in range(trials):
            pkt = _pkt(conn=2)
            q.push(pkt, 0.0)
            counts[pkt.priority_class] += 1
        freq = counts / trials
        assert freq[0] == pytest.approx(0.1 / 0.9, abs=0.03)
        assert freq[1] == pytest.approx(0.4 / 0.9, abs=0.03)

    def test_unbound_raises(self):
        q = FairShareQueue()
        with pytest.raises(SimulationError):
            q.push(_pkt(), 0.0)

    def test_zero_rate_defaults_to_top_class(self):
        q = self._bound([0.0, 0.5])
        pkt = _pkt(conn=0)
        q.push(pkt, 0.0)
        assert pkt.priority_class == 0


class TestFairQueueingQueue:
    def test_interleaves_flows(self):
        q = FairQueueingQueue()
        # Flow 0 dumps a burst; flow 1 sends one packet: flow 1's
        # packet must not wait behind the whole burst.
        for k in range(5):
            q.push(_pkt(conn=0, seq=k, service=1.0), 0.0)
        q.push(_pkt(conn=1, seq=0, service=1.0), 0.0)
        order = []
        while True:
            pkt = q.pop(0.0)
            if pkt is None:
                break
            order.append((pkt.conn, pkt.seq))
        pos = order.index((1, 0))
        assert pos <= 1

    def test_non_preemptive(self):
        q = FairQueueingQueue()
        with pytest.raises(SimulationError):
            q.requeue_front(_pkt())

    def test_len_tracks(self):
        q = FairQueueingQueue()
        q.push(_pkt(), 0.0)
        assert len(q) == 1
        q.pop(0.0)
        assert len(q) == 0


class TestMakeDiscipline:
    def test_known_kinds(self):
        assert isinstance(make_discipline("fifo"), FifoQueue)
        assert isinstance(make_discipline("fair-share"), FairShareQueue)

    def test_unknown_kind(self):
        with pytest.raises(SimulationError):
            make_discipline("lifo")


class TestMonitors:
    def test_time_weighted_average(self):
        m = GatewayMonitor([0])
        m.on_arrival(0, 1.0)    # occupancy 1 from t=1
        m.on_departure(0, 3.0)  # occupancy 0 from t=3
        assert m.mean_queue_lengths(4.0)[0] == pytest.approx(0.5)

    def test_reset_discards_history(self):
        m = GatewayMonitor([0])
        m.on_arrival(0, 0.0)
        m.on_departure(0, 2.0)
        m.reset_statistics(2.0)
        assert m.mean_queue_lengths(4.0)[0] == 0.0

    def test_occupancy_preserved_across_reset(self):
        m = GatewayMonitor([0])
        m.on_arrival(0, 0.0)
        m.reset_statistics(1.0)
        # still in system: from t=1 to t=2 occupancy is 1.
        assert m.mean_queue_lengths(2.0)[0] == pytest.approx(1.0)

    def test_underflow_detected(self):
        m = GatewayMonitor([0])
        with pytest.raises(SimulationError):
            m.on_departure(0, 1.0)

    def test_time_reversal_detected(self):
        m = GatewayMonitor([0])
        m.on_arrival(0, 5.0)
        with pytest.raises(SimulationError):
            m.on_arrival(0, 1.0)

    def test_arrival_rates(self):
        m = GatewayMonitor([0, 1])
        for t in (1.0, 2.0, 3.0, 4.0):
            m.on_arrival(0, t)
        assert m.arrival_rates(4.0)[0] == pytest.approx(1.0)
        assert m.arrival_rates(4.0)[1] == 0.0

    def test_end_to_end_monitor(self):
        m = EndToEndMonitor(2)
        m.on_delivery(0, created=1.0, now=3.0)
        m.on_delivery(0, created=2.0, now=3.0)
        assert m.throughput(4.0)[0] == pytest.approx(0.5)
        assert m.mean_delays()[0] == pytest.approx(1.5)
        assert np.isnan(m.mean_delays()[1])
        assert m.delivered[0] == 2
