"""Unit tests for the gateway's service: packets leave in arrival order,
and a higher class preempts the packet in service, which later resumes
its exact unserved remainder.  Each test runs the packet kernel's
Python loops and its C loop on scripted arrivals and service times."""

from tests.scripted_gateway import ENGINES, scripted_sim


class TestBasicService:
    def test_serves_in_order_and_forwards(self, monkeypatch):
        # Connection 0's packet arrives at t = 1 and leaves for its sink
        # at t = 2; connection 1's arrives at t = 1.5, waits, and leaves
        # at t = 3.
        for engine in ENGINES:
            with monkeypatch.context() as patch:
                sim = scripted_sim(patch, engine, "fifo", [[1.0], [1.5]],
                                   services=[1.0, 1.0])
                sim.run_for(2.5)
                assert list(sim.e2e.delivered) == [1, 0]
                sim.run_for(7.5)
                assert list(sim.e2e.delivered) == [1, 1]
                assert list(sim.mean_delays()) == [1.0, 1.5]
                assert not sim.servers["g0"].busy


class TestPreemption:
    # Fixed priority ranks connection 0 first.  Connection 1's 3-unit
    # packet starts at t = 1; connection 0's 1-unit packet preempts it
    # at t = 2 and leaves at t = 3; the victim then serves its 2-unit
    # remainder and leaves at t = 5.
    TIMES = [[2.0], [1.0]]
    SERVICES = [3.0, 1.0]

    def test_high_priority_preempts_and_low_resumes(self, monkeypatch):
        for engine in ENGINES:
            with monkeypatch.context() as patch:
                sim = scripted_sim(patch, engine, "fixed-priority",
                                   self.TIMES, services=self.SERVICES)
                sim.run_for(2.5)
                assert sim.servers["g0"].in_system == 2
                assert list(sim.e2e.delivered) == [0, 0]
                sim.run_for(1.0)
                assert list(sim.e2e.delivered) == [1, 0]
                assert sim.servers["g0"].busy
                sim.run_for(6.5)
                assert list(sim.e2e.delivered) == [1, 1]

    def test_preemptive_resume_exact_remainder(self, monkeypatch):
        # A remainder of 0 would release the victim at t = 3, a restart
        # at t = 6; only the 2 units it still owes release it at t = 5.
        for engine in ENGINES:
            with monkeypatch.context() as patch:
                sim = scripted_sim(patch, engine, "fixed-priority",
                                   self.TIMES, services=self.SERVICES)
                sim.run_for(10.0)
                assert list(sim.mean_delays()) == [1.0, 4.0]
