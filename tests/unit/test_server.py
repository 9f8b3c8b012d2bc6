"""Unit tests for the gateway server: preemption, buffers, eviction."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.simulation.events import Scheduler
from repro.simulation.monitors import GatewayMonitor
from repro.simulation.packet import Packet
from repro.simulation.queues import FifoQueue, FixedPriorityQueue
from repro.simulation.server import GatewayServer


class _FixedServiceRng:
    """Deterministic 'exponential' draws for exact schedule tests."""

    def __init__(self, values):
        self._values = list(values)

    def exponential(self, scale):
        return self._values.pop(0)


def _server(discipline, mu=1.0, service_times=(1.0,) * 50,
            buffer_size=None, drop_policy="tail", conns=(0, 1)):
    sched = Scheduler()
    monitor = GatewayMonitor(conns)
    delivered = []
    server = GatewayServer(
        name="g", mu=mu, discipline=discipline, scheduler=sched,
        service_rng=_FixedServiceRng(service_times), monitor=monitor,
        forward=delivered.append, buffer_size=buffer_size,
        drop_policy=drop_policy)
    return sched, server, monitor, delivered


def _pkt(conn, seq=0):
    return Packet(conn=conn, seq=seq, created=0.0)


class TestBasicService:
    def test_serves_in_order_and_forwards(self):
        sched, server, _, delivered = _server(FifoQueue())
        server.arrive(_pkt(0, 1))
        server.arrive(_pkt(1, 2))
        sched.run_until(2.5)
        assert [p.seq for p in delivered] == [1, 2]
        assert not server.busy

    def test_in_system_counts_serving(self):
        sched, server, _, _ = _server(FifoQueue())
        server.arrive(_pkt(0))
        assert server.in_system == 1
        server.arrive(_pkt(1))
        assert server.in_system == 2

    def test_bad_mu_rejected(self):
        with pytest.raises(SimulationError):
            _server(FifoQueue(), mu=0.0)


class TestPreemption:
    def test_high_priority_preempts_and_low_resumes(self):
        # conn 1 is high priority; service times: low=3.0, high=1.0.
        disc = FixedPriorityQueue({0: 1, 1: 0})
        sched, server, _, delivered = _server(
            disc, service_times=[3.0, 1.0])
        server.arrive(_pkt(0, seq=10))      # starts service at t=0
        sched.run_until(1.0)                # 1s of the 3s served
        server.arrive(_pkt(1, seq=20))      # preempts
        sched.run_until(2.0)                # high finishes at t=2
        assert [p.seq for p in delivered] == [20]
        sched.run_until(4.1)                # low resumes its 2s remainder
        assert [p.seq for p in delivered] == [20, 10]

    def test_preemptive_resume_exact_remainder(self):
        disc = FixedPriorityQueue({0: 1, 1: 0})
        sched, server, _, delivered = _server(
            disc, service_times=[3.0, 1.0])
        server.arrive(_pkt(0, seq=10))
        sched.run_until(1.0)
        server.arrive(_pkt(1, seq=20))
        sched.run_until(4.0)  # 2.0 (high done) + 2.0 remaining
        assert [p.seq for p in delivered] == [20, 10]

    def test_equal_priority_does_not_preempt(self):
        disc = FixedPriorityQueue({0: 0, 1: 0})
        sched, server, _, delivered = _server(
            disc, service_times=[3.0, 1.0])
        server.arrive(_pkt(0, seq=10))
        sched.run_until(1.0)
        server.arrive(_pkt(1, seq=20))
        sched.run_until(3.0)
        assert [p.seq for p in delivered] == [10]


class TestFiniteBuffer:
    def test_tail_drop_refuses_newcomer(self):
        sched, server, monitor, _ = _server(FifoQueue(), buffer_size=2)
        server.arrive(_pkt(0, 1))
        server.arrive(_pkt(0, 2))
        server.arrive(_pkt(1, 3))  # full: dropped
        assert server.in_system == 2
        assert monitor.drops[1] == 1
        assert monitor.drops[0] == 0

    def test_longest_drop_evicts_hog(self):
        sched, server, monitor, _ = _server(FifoQueue(), buffer_size=3,
                                            drop_policy="longest")
        server.arrive(_pkt(0, 1))  # serving
        server.arrive(_pkt(0, 2))
        server.arrive(_pkt(0, 3))
        server.arrive(_pkt(1, 4))  # full: conn 0's newest is evicted
        assert server.in_system == 3
        assert monitor.drops[0] == 1
        assert monitor.drops[1] == 0

    def test_longest_drop_tie_goes_to_lowest_position(self):
        # Connections 2 and 3 tie at two packets each when connection
        # 0's packet overflows the buffer: the tie goes to the lower
        # local position, so connection 2 loses its newest packet.
        sched, server, monitor, _ = _server(FifoQueue(), buffer_size=4,
                                            drop_policy="longest",
                                            conns=(0, 1, 2, 3))
        for seq, conn in enumerate((2, 3, 2, 3, 0)):
            server.arrive(_pkt(conn, seq))
        assert list(monitor.drops) == [0, 0, 1, 0]
        assert list(monitor.occupancy()) == [1, 0, 1, 2]

    def test_longest_falls_back_to_tail_when_hog_unevictable(self):
        # Only the in-service packet occupies the gateway: nothing can
        # be evicted, so the arrival is refused instead.
        sched, server, monitor, _ = _server(FifoQueue(), buffer_size=1,
                                            drop_policy="longest")
        server.arrive(_pkt(0, 1))  # in service, buffer now full
        server.arrive(_pkt(1, 2))
        assert monitor.drops[1] == 1
        assert server.in_system == 1

    def test_buffer_validation(self):
        with pytest.raises(SimulationError):
            _server(FifoQueue(), buffer_size=0)
        with pytest.raises(SimulationError):
            _server(FifoQueue(), buffer_size=5, drop_policy="coinflip")

    def test_offered_accounting_consistent_after_eviction(self):
        sched, server, monitor, _ = _server(FifoQueue(), buffer_size=2,
                                            drop_policy="longest")
        server.arrive(_pkt(0, 1))
        server.arrive(_pkt(0, 2))
        server.arrive(_pkt(1, 3))  # evicts conn 0's packet 2
        # Offered = 3 packets total; accounting must agree.
        offered = (monitor._arrivals + monitor._drops)
        assert int(offered.sum()) == 3
