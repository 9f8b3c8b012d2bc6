"""Integration tests: the packet kernel's C event loop is bit-identical
to its Python loops, and both keep the gateway's service rules.

Configurations of every discipline and drop policy are run on the two
loops with the same seed and compared field by field — mean queue
lengths, measured arrival rates, drop fractions, throughput, delays,
*and* the processed event count (so the loops agree on the event
schedule itself, not just on aggregate statistics).  What the two loops
share answers to scripted runs (the service, preemption, thinning, Fair
Queueing and eviction rules) here and in ``tests/unit/test_server.py``
and ``test_sim_primitives.py``, and to queueing theory in
``test_queue_laws.py``.
"""

import numpy as np
import pytest

import repro.backends._cext
from repro.core.ratecontrol import BinaryAimdRule, TargetRule
from repro.core.signals import FeedbackStyle, LinearSaturating
from repro.core.topology import (Connection, Gateway, Network, parking_lot,
                                 single_gateway)
from repro.errors import SimulationError
from repro.observability import collect, validate_run_record
from repro.simulation.closed_loop import run_closed_loop
from repro.simulation.kernel import fair_share_table
from repro.simulation.network_sim import NetworkSimulation
from repro.simulation.validation import validate_single_gateway
from tests.scripted_gateway import C_ENGINE, scripted_run, scripted_sim

RATES4 = [0.2, 0.2, 0.25, 0.15]
RATE_SEQ = [np.array([0.3, 0.1, 0.2, 0.2]), np.array([0.15, 0.25, 0.2, 0.1])]
#: Offered load 1.7 on mu = 1: finite buffers overflow often.
HEAVY4 = [0.5, 0.5, 0.4, 0.3]
HEAVY_SEQ = [np.array([0.6, 0.3, 0.5, 0.3]), np.array([0.3, 0.6, 0.4, 0.5])]
#: Every discipline, and drop-from-longest eviction under the three that
#: can evict: (discipline, buffer sizes, drop policy).
LOOPS = [pytest.param("fifo", None, "tail", id="fifo"),
         pytest.param("fair-share", None, "tail", id="fair-share"),
         pytest.param("fixed-priority", None, "tail", id="fixed-priority"),
         pytest.param("fair-queueing", None, "tail", id="fair-queueing"),
         pytest.param("fifo", 3, "longest", id="fifo-longest"),
         pytest.param("fair-share", 3, "longest", id="fair-share-longest"),
         pytest.param("fixed-priority", 3, "longest",
                      id="fixed-priority-longest")]


def _net4():
    return single_gateway(4, mu=1.0)


def _net4_latency():
    return single_gateway(4, mu=1.0).with_latencies({"g0": 0.5})


def _tandem(latency=0.5):
    return Network(gateways=[Gateway("g0", mu=1.0, latency=latency),
                             Gateway("g1", mu=1.2, latency=latency)],
                   connections=[Connection("c0", ("g0", "g1")),
                                Connection("c1", ("g0", "g1")),
                                Connection("c2", ("g1",)),
                                Connection("c3", ("g0",))])


def _parking_lot():
    """Three hops, one long connection and two cross connections per
    hop: seven connections."""
    return parking_lot(3, latency=0.5, cross_per_hop=2)


def _run(engine, disc, net, rates, horizon=400.0, seed=7, steps=0,
         buffer_sizes=None, drop_policy="tail", rate_mode="oracle",
         refresh=False, rate_seq=None):
    """One warmup + measurement run; returns every public statistic."""
    sim = NetworkSimulation(net, discipline_kind=disc, seed=seed,
                            initial_rates=rates, rate_mode=rate_mode,
                            buffer_sizes=buffer_sizes,
                            drop_policy=drop_policy, engine=engine)
    sim.run_for(horizon / 4)
    sim.reset_statistics()
    for k in range(max(1, steps)):
        sim.run_for(horizon / max(1, steps))
        if refresh:
            sim.refresh_measured_rates()
        if rate_seq is not None and k < len(rate_seq):
            sim.set_rates(rate_seq[k])
    return {"mql": sim.mean_queue_lengths(),
            "arr": sim.measured_arrival_rates(),
            "drop": sim.drop_fractions(),
            "thr": sim.throughput(),
            "delay": sim.mean_delays(),
            "events": sim.events_processed,
            "engine": sim.engine}


def _assert_compiled_matches_fast(**kw):
    """The C loop ("auto") against the Python loops ("fast"); returns
    the fast engine's statistics."""
    a = _run("fast", **kw)
    b = _run("auto", **kw)
    assert a["engine"] == "fast" and b["engine"] == C_ENGINE
    for key in ("mql", "arr", "drop"):
        for g in a[key]:
            assert np.array_equal(a[key][g], b[key][g]), \
                f"{key}[{g}]: {a[key][g]} vs {b[key][g]}"
    assert np.array_equal(a["thr"], b["thr"])
    assert np.array_equal(a["delay"], b["delay"], equal_nan=True)
    assert a["events"] == b["events"]
    return a


def _assert_compiled_matches_fast_dropping(**kw):
    """As :func:`_assert_compiled_matches_fast`, on a run that did
    overflow."""
    out = _assert_compiled_matches_fast(**kw)
    assert any(d.sum() > 0 for d in out["drop"].values())


class TestBitIdentity:
    """Configurations ``TestCompiledEngine`` does not cover: the C loop
    against the Python loops."""

    def test_fair_share_longest_drop(self):
        _assert_compiled_matches_fast_dropping(
            disc="fair-share", net=_net4_latency(), rates=HEAVY4,
            buffer_sizes=4, drop_policy="longest")

    def test_parking_lot_fifo_longest_drop(self):
        _assert_compiled_matches_fast_dropping(
            disc="fifo", net=_parking_lot(), rates=[0.2] * 7, buffer_sizes=4,
            drop_policy="longest", steps=2,
            rate_seq=[np.full(7, 0.25), np.full(7, 0.15)])

    def test_measured_estimates_are_sane(self):
        out = _run("fast", disc="fair-share", net=_net4_latency(),
                   rates=RATES4, rate_mode="measured", steps=3,
                   refresh=True, horizon=2000.0)
        for g, est in out["arr"].items():
            assert np.all(np.isfinite(est))
            assert np.all(est >= 0.0)


class TestCompiledEngine:
    """The C event loop (what engine="auto" runs whenever the C tier
    has built) against the kernel's Python loops, which it transcribes:
    the same statistics and event counts, bit for bit.  These run with
    or without a C compiler — when no library could be built "auto"
    runs the Python loop, and the contract must hold either way."""

    def test_fifo_zero_latency(self):
        _assert_compiled_matches_fast(disc="fifo", net=_net4(),
                                      rates=RATES4)

    def test_fifo_with_latency_uses_burst_path(self):
        _assert_compiled_matches_fast(disc="fifo", net=_net4_latency(),
                                      rates=RATES4)

    def test_fifo_finite_buffer_tail_drop(self):
        _assert_compiled_matches_fast(disc="fifo", net=_net4_latency(),
                                      rates=[0.5, 0.5, 0.4, 0.3],
                                      buffer_sizes=4)

    def test_tandem_fifo_with_rate_updates(self):
        _assert_compiled_matches_fast(disc="fifo", net=_tandem(),
                                      rates=RATES4, steps=2,
                                      rate_seq=RATE_SEQ)

    def test_measured_rate_mode_with_refresh(self):
        _assert_compiled_matches_fast(disc="fifo", net=_net4_latency(),
                                      rates=RATES4,
                                      rate_mode="measured", steps=3,
                                      refresh=True)

    @pytest.mark.parametrize("disc", ["fair-share", "fixed-priority"])
    def test_class_discipline_zero_latency(self, disc):
        _assert_compiled_matches_fast(disc=disc, net=_net4(), rates=RATES4)

    @pytest.mark.parametrize("disc", ["fair-share", "fixed-priority"])
    def test_class_discipline_with_latency_and_rate_updates(self, disc):
        _assert_compiled_matches_fast(disc=disc, net=_net4_latency(),
                                      rates=RATES4, steps=2,
                                      rate_seq=RATE_SEQ)

    @pytest.mark.parametrize("disc", ["fair-share", "fixed-priority"])
    def test_tandem_class_discipline_with_rate_updates(self, disc):
        _assert_compiled_matches_fast(disc=disc, net=_tandem(),
                                      rates=RATES4, steps=2,
                                      rate_seq=RATE_SEQ)

    @pytest.mark.parametrize("disc", ["fair-share", "fixed-priority"])
    def test_parking_lot_class_discipline_with_rate_updates(self, disc):
        _assert_compiled_matches_fast(
            disc=disc, net=_parking_lot(), rates=[0.12] * 7, steps=2,
            rate_seq=[np.full(7, 0.08), np.linspace(0.05, 0.2, 7)])

    @pytest.mark.parametrize("disc", ["fair-share", "fixed-priority"])
    def test_class_discipline_finite_buffer_tail_drop(self, disc):
        out = _assert_compiled_matches_fast(
            disc=disc, net=_net4_latency(), rates=HEAVY4, buffer_sizes=4,
            steps=2, rate_seq=HEAVY_SEQ)
        assert any(d.sum() > 0 for d in out["drop"].values())

    def test_fair_share_measured_with_refresh(self):
        _assert_compiled_matches_fast(disc="fair-share",
                                      net=_net4_latency(), rates=RATES4,
                                      rate_mode="measured", steps=3,
                                      refresh=True)

    def test_fair_share_measured_tandem_drops_with_refresh(self):
        _assert_compiled_matches_fast(disc="fair-share", net=_tandem(),
                                      rates=HEAVY4, buffer_sizes=3,
                                      rate_mode="measured", steps=3,
                                      refresh=True, rate_seq=HEAVY_SEQ)

    def test_fair_share_thinning_ties_go_to_the_lower_class(
            self, monkeypatch):
        # Every thinning uniform is 0.5 and the rates are dyadic, so
        # connection 1's draw u = 0.5 * 0.25 lands exactly on its first
        # cumulative width 0.125: the walk's ``u <= acc`` puts it in
        # class 0 (``u < acc`` would give class 2), so connection 0's
        # class-0 packet waits behind it instead of preempting it.
        rates = [0.125, 0.25, 0.125, 0.25]
        widths, total, _ = fair_share_table(rates)[1]
        assert 0.5 * total == widths[0]
        for engine in ("fast", "auto"):
            sim = scripted_run(monkeypatch, engine, "fair-share",
                               [[2.0], [1.0], [], []], services=[3.0, 1.0],
                               thinning=[], rates=rates)
            assert list(sim.mean_delays()[:2]) == [3.0, 3.0]

    def test_fixed_priority_heavy_load_preempts(self):
        # Offered load 1.7: higher classes keep arriving at a busy
        # server, so the run preempts, banks remainders and skips the
        # stale completions.
        kw = dict(disc="fixed-priority", net=_net4_latency(), rates=HEAVY4,
                  steps=2, rate_seq=HEAVY_SEQ, horizon=200.0)
        _assert_compiled_matches_fast(**kw)
        sim = NetworkSimulation(_net4_latency(), "fixed-priority", seed=7,
                                initial_rates=HEAVY4, engine="fast")
        sim.run_for(200.0)
        assert sim._engine.comp_epoch[0] >= 20  # preemptions

    def test_fair_queueing_with_latency(self):
        _assert_compiled_matches_fast(disc="fair-queueing",
                                      net=_net4_latency(), rates=RATES4)

    def test_tandem_fair_queueing_with_rate_updates(self):
        _assert_compiled_matches_fast(disc="fair-queueing", net=_tandem(),
                                      rates=RATES4, steps=2,
                                      rate_seq=RATE_SEQ)

    def test_parking_lot_fair_queueing(self):
        _assert_compiled_matches_fast(
            disc="fair-queueing", net=_parking_lot(), rates=[0.12] * 7,
            steps=2, rate_seq=[np.full(7, 0.08), np.linspace(0.05, 0.2, 7)])

    def test_fair_queueing_finite_buffer_tail_drop(self):
        _assert_compiled_matches_fast_dropping(
            disc="fair-queueing", net=_net4_latency(), rates=HEAVY4,
            buffer_sizes=4, steps=2, rate_seq=HEAVY_SEQ)

    def test_fifo_longest_drop(self):
        _assert_compiled_matches_fast_dropping(
            disc="fifo", net=_net4_latency(), rates=HEAVY4, buffer_sizes=4,
            drop_policy="longest", steps=2, rate_seq=HEAVY_SEQ)

    def test_fair_share_longest_drop_measured_with_refresh(self):
        _assert_compiled_matches_fast_dropping(
            disc="fair-share", net=_tandem(), rates=HEAVY4, buffer_sizes=3,
            drop_policy="longest", rate_mode="measured", steps=3,
            refresh=True, rate_seq=HEAVY_SEQ)

    def test_fixed_priority_longest_drop_preempts(self):
        kw = dict(disc="fixed-priority", net=_net4_latency(), rates=HEAVY4,
                  buffer_sizes=4, drop_policy="longest", steps=2,
                  rate_seq=HEAVY_SEQ, horizon=200.0)
        _assert_compiled_matches_fast_dropping(**kw)
        sim = NetworkSimulation(_net4_latency(), "fixed-priority", seed=7,
                                initial_rates=HEAVY4, buffer_sizes=4,
                                drop_policy="longest", engine="fast")
        sim.run_for(200.0)
        assert sim._engine.comp_epoch[0] >= 20  # preemptions

    @pytest.mark.parametrize("disc", ["fifo", "fair-share",
                                      "fixed-priority", "fair-queueing"])
    def test_closed_loop_trajectories_identical(self, disc):
        kw = dict(style=FeedbackStyle.INDIVIDUAL, discipline_kind=disc,
                  control_interval=150.0, n_steps=6, seed=3)
        self._closed_loops_agree(TargetRule(eta=0.1, beta=0.4), **kw)

    @pytest.mark.parametrize("disc", ["fifo", "fair-share",
                                      "fixed-priority"])
    def test_closed_loop_longest_drop_signal_identical(self, disc):
        # Drop-based feedback through evicting gateways.
        self._closed_loops_agree(
            BinaryAimdRule(increase=0.02, decrease=0.5, threshold=0.02),
            style=FeedbackStyle.INDIVIDUAL, discipline_kind=disc,
            initial_rates=HEAVY4, signal_source="drops", buffer_sizes=4,
            drop_policy="longest", control_interval=150.0, n_steps=6,
            seed=3)

    @staticmethod
    def _closed_loops_agree(rule, **kw):
        net = _net4_latency()
        fast = run_closed_loop(net, rule, LinearSaturating(),
                               engine="fast", **kw)
        comp = run_closed_loop(net, rule, LinearSaturating(),
                               engine="auto", **kw)
        assert np.array_equal(fast.rate_history, comp.rate_history)
        assert np.array_equal(fast.signal_history, comp.signal_history)
        assert np.array_equal(fast.final_throughput,
                              comp.final_throughput)
        assert np.array_equal(fast.final_delays, comp.final_delays,
                              equal_nan=True)

    @pytest.mark.parametrize("disc, buffers, drop_policy", LOOPS)
    def test_event_cap_stops_both_loops_alike(self, disc, buffers,
                                              drop_policy):
        stopped = []
        for engine in ("fast", "auto"):
            sim = NetworkSimulation(_net4_latency(), disc, seed=5,
                                    initial_rates=HEAVY4,
                                    buffer_sizes=buffers,
                                    drop_policy=drop_policy, engine=engine)
            with pytest.raises(SimulationError, match="exceeded 100"):
                sim._engine.run_until(500.0, max_events=100)
            stopped.append((sim.events_processed, sim.now))
        assert stopped[0] == stopped[1]
        assert stopped[0][0] > 100

    def test_fifo_longest_drop_runs_the_c_loop(self):
        # The C loop evicts: such a configuration runs it under "auto"
        # and "compiled", with the Python loop's bits.
        _assert_compiled_matches_fast_dropping(
            disc="fifo", net=_tandem(), rates=HEAVY4, buffer_sizes=3,
            drop_policy="longest", steps=2, rate_seq=HEAVY_SEQ)
        for engine in ("auto", "compiled"):
            sim = NetworkSimulation(_net4(), discipline_kind="fifo",
                                    initial_rates=HEAVY4, buffer_sizes=4,
                                    drop_policy="longest", engine=engine)
            assert sim.engine == C_ENGINE

    @pytest.mark.parametrize("disc, buffers, drop_policy", LOOPS)
    def test_masked_c_tier_runs_the_python_loop(self, disc, buffers,
                                                drop_policy, monkeypatch):
        evicting = drop_policy == "longest"
        kw = dict(disc=disc, net=_tandem(),
                  rates=HEAVY4 if evicting else RATES4, steps=2,
                  rate_seq=HEAVY_SEQ if evicting else RATE_SEQ,
                  buffer_sizes=buffers, drop_policy=drop_policy)
        served = _run("auto", **kw)
        monkeypatch.setattr(repro.backends._cext, "load", lambda: None)
        masked = _run("auto", **kw)
        assert served["engine"] == C_ENGINE and masked["engine"] == "fast"
        for key in ("mql", "arr", "drop"):
            for g in served[key]:
                assert np.array_equal(served[key][g], masked[key][g])
        assert np.array_equal(served["thr"], masked["thr"])
        assert np.array_equal(served["delay"], masked["delay"],
                              equal_nan=True)
        assert served["events"] == masked["events"]


class TestEngineSelection:
    def test_auto_picks_compiled_for_supported_disciplines(self):
        # NetworkSimulation picks its loop without reading the
        # configuration: every discipline, buffer and drop policy runs
        # the C loop under "auto" and its synonym "compiled".
        configs = [(disc, buffers, "tail")
                   for disc in ("fifo", "fair-share", "fixed-priority",
                                "fair-queueing")
                   for buffers in (None, 4)]
        configs += [(disc, 4, "longest")
                    for disc in ("fifo", "fair-share", "fixed-priority")]
        configs.append(("fifo", {"g0": None}, "longest"))
        for engine in ("auto", "compiled"):
            for disc, buffers, drop_policy in configs:
                sim = NetworkSimulation(_net4(), discipline_kind=disc,
                                        initial_rates=RATES4,
                                        buffer_sizes=buffers,
                                        drop_policy=drop_policy,
                                        engine=engine)
                assert sim.engine == C_ENGINE, (engine, disc, buffers,
                                                drop_policy)

    @pytest.mark.parametrize("engine", ["auto", "fast", "compiled"])
    def test_fair_queueing_eviction_rejected_at_construction(self, engine):
        # Fair Queueing cannot evict: the configuration fails before
        # any event runs, on every engine.
        with pytest.raises(SimulationError,
                           match="'fair-queueing'.*'longest'"):
            NetworkSimulation(single_gateway(2, mu=1.0), "fair-queueing",
                              buffer_sizes=4, drop_policy="longest",
                              engine=engine)

    def test_closed_loop_rejects_fair_queueing_eviction(self):
        with pytest.raises(SimulationError,
                           match="'fair-queueing'.*'longest'"):
            run_closed_loop(_net4(), TargetRule(eta=0.1, beta=0.4),
                            LinearSaturating(),
                            discipline_kind="fair-queueing",
                            buffer_sizes={"g0": 4}, drop_policy="longest",
                            control_interval=10.0, n_steps=2)

    def test_fair_queueing_longest_drop_with_infinite_buffers(self):
        # Without a finite buffer nothing is ever evicted.
        _assert_compiled_matches_fast(disc="fair-queueing", net=_net4(),
                                      rates=RATES4, drop_policy="longest")

    def test_unknown_discipline_rejected(self):
        for engine in ("auto", "fast"):
            with pytest.raises(SimulationError, match="lifo"):
                NetworkSimulation(_net4(), "lifo", initial_rates=RATES4,
                                  engine=engine)

    def test_unknown_engine_rejected(self):
        for engine in ("turbo", "legacy"):
            with pytest.raises(SimulationError, match=engine):
                NetworkSimulation(_net4(), initial_rates=RATES4,
                                  engine=engine)


class TestNonFiniteHorizons:
    """A NaN or infinite duration would never reach the loop's
    ``time > t_end`` exit; it is refused before any event runs."""

    @pytest.mark.parametrize("engine", ["fast", "compiled"])
    @pytest.mark.parametrize("duration", [float("nan"), float("inf")])
    def test_run_for_rejects_non_finite_duration(self, engine, duration):
        sim = NetworkSimulation(_net4(), discipline_kind="fair-share",
                                initial_rates=RATES4, engine=engine)
        sim.run_for(5.0)
        before = sim.events_processed
        with pytest.raises(SimulationError, match="finite.*(nan|inf)"):
            sim.run_for(duration)
        assert sim.events_processed == before
        assert sim.now == 5.0

    def test_closed_loop_and_validation_reach_the_check(self):
        with pytest.raises(SimulationError, match="finite"):
            run_closed_loop(_net4(), TargetRule(eta=0.1, beta=0.4),
                            LinearSaturating(),
                            control_interval=float("nan"), n_steps=2)
        with pytest.raises(SimulationError, match="finite"):
            validate_single_gateway(RATES4, 1.0, "fifo",
                                    horizon=float("nan"), warmup=10.0)


class TestNonFiniteEventTimes:
    """A positive rate whose reciprocal overflows schedules an arrival
    at ``inf``; both loops refuse it with the same message."""

    @pytest.mark.parametrize("disc, buffers, drop_policy", LOOPS)
    def test_every_engine_words_the_refusal_alike(self, disc, buffers,
                                                  drop_policy):
        messages = set()
        for engine in ("fast", C_ENGINE):
            sim = NetworkSimulation(_net4(), discipline_kind=disc,
                                    initial_rates=RATES4,
                                    buffer_sizes=buffers,
                                    drop_policy=drop_policy, engine=engine)
            sim.run_for(5.0)
            with pytest.raises(SimulationError) as err:
                sim.set_rates([0.2, 5e-324, 0.25, 0.15])
            messages.add(str(err.value))
        assert messages == {"event time must be finite, got inf"}


@pytest.mark.parametrize("engine", ["fast", "auto"])
def test_fair_queueing_finish_tag_ties_go_to_the_earlier_push(
        monkeypatch, engine):
    # Connection 0 serves 2 units from t = 1; connections 1 and 2 each
    # push a 1-unit packet at t = 1.5, when V = 0.5, so both carry the
    # finish tag 1.5.  The earlier push (connection 1) is served first.
    sim = scripted_run(monkeypatch, engine, "fair-queueing",
                       [[1.0], [1.5], [1.5]], services=[2.0, 1.0, 1.0])
    assert list(sim.mean_delays()) == [2.0, 2.5, 3.5]


class TestServiceRules:
    """The gateway's service rules on the kernel's Python and C loops,
    with scripted arrivals and service times."""

    @pytest.fixture(params=["fast", "auto"])
    def engine(self, request):
        return request.param

    def test_in_system_counts_the_packet_in_service(self, monkeypatch,
                                                     engine):
        sim = scripted_sim(monkeypatch, engine, "fifo", [[1.0], [2.0]])
        sim.run_for(1.5)
        assert sim.servers["g0"].busy
        assert sim.servers["g0"].in_system == 1
        sim.run_for(1.0)
        assert sim.servers["g0"].in_system == 2
        assert list(sim.monitors["g0"].occupancy()) == [1, 1]

    def test_equal_class_does_not_preempt(self, monkeypatch, engine):
        # Fair Share at equal rates puts every packet in the top class:
        # connection 1's short packet waits for connection 0's long one.
        sim = scripted_run(monkeypatch, engine, "fair-share",
                           [[1.0], [2.0]], services=[3.0, 1.0])
        assert list(sim.mean_delays()) == [3.0, 3.0]

    def test_fair_share_table_widths(self):
        # Connection 2 at 0.9 among (0.1, 0.5, 0.9): substreams of
        # widths 0.1, 0.4 and 0.4, one per class.
        widths, total, fallback = fair_share_table([0.1, 0.5, 0.9])[2]
        assert widths == pytest.approx([0.1, 0.4, 0.4])
        assert total == pytest.approx(0.9) and fallback == 2

    def test_fair_share_smallest_connection_takes_the_top_class(
            self, monkeypatch, engine):
        # At rates (0.125, 0.25, 0.5) the uniform 0.999 puts connection
        # 2's packet in class 2 (widths 0.125, 0.125, 0.25); on the same
        # uniform connection 0's packet takes class 0 and preempts it.
        sim = scripted_run(monkeypatch, engine, "fair-share",
                           [[2.0], [], [1.0]], services=[3.0, 1.0],
                           thinning=[0.999, 0.999],
                           rates=[0.125, 0.25, 0.5])
        delays = sim.mean_delays()
        assert delays[0] == 1.0 and delays[2] == 4.0

    def test_fair_share_zero_rate_connection_takes_the_top_class(
            self, monkeypatch, engine):
        # Measured rates: connection 0 sends nothing before the refresh
        # at t = 5, so it measures 0 and its packets take class 0, while
        # connection 1's join class 1 (widths 0 and 0.2).  Connection
        # 0's packet at t = 7 preempts connection 1's from t = 6.
        sim = scripted_sim(monkeypatch, engine, "fair-share",
                           [[7.0], [1.0, 6.0]], services=[0.5, 3.0, 1.0],
                           rate_mode="measured")
        sim.run_for(5.0)
        sim.refresh_measured_rates()
        sim.run_for(10.0)
        assert list(sim.mean_delays()) == [1.0, 2.25]

    def test_fair_queueing_interleaves_flows_by_finish_tag(self, monkeypatch,
                                                           engine):
        # Connection 0 dumps five 1-unit packets at t = 1 (finish tags 1
        # to 5); connection 1's packet at t = 1.5 carries the tag 1.5,
        # so it is served second, not behind the whole burst.
        sim = scripted_run(monkeypatch, engine, "fair-queueing",
                           [[1.0] * 5, [1.5]], services=[1.0] * 6)
        assert sim.mean_delays()[1] == 1.5

    def test_fair_queueing_never_preempts(self, monkeypatch, engine):
        # Connection 1's packet at t = 2 carries the smaller finish tag
        # (2 against 4), yet waits for connection 0's packet in service.
        sim = scripted_run(monkeypatch, engine, "fair-queueing",
                           [[1.0], [2.0]], services=[4.0, 1.0])
        assert list(sim.mean_delays()) == [4.0, 4.0]


class TestEvictionRules:
    """The drop-from-longest rules on the kernel's Python and C loops,
    with scripted arrivals; every service takes 1e9, so nothing
    departs."""

    @pytest.fixture(params=["fast", "auto"])
    def engine(self, request):
        return request.param

    @staticmethod
    def _run(monkeypatch, engine, disc, buffer_size, times):
        sim = scripted_run(monkeypatch, engine, disc, times,
                           buffer_sizes=buffer_size, drop_policy="longest")
        return sim, sim.monitors["g0"]

    @pytest.mark.parametrize("disc", ["fifo", "fixed-priority"])
    def test_tie_goes_to_lowest_position(self, monkeypatch, engine, disc):
        # Connections 2 and 3 hold two packets each when connection 0's
        # packet overflows the buffer of 4: the tie goes to the lower
        # local position, so connection 2 loses its newest packet.
        _, monitor = self._run(monkeypatch, engine, disc, 4,
                               [[5.0], [], [1.0, 3.0], [2.0, 4.0]])
        assert list(monitor.drops) == [0, 0, 1, 0]
        assert list(monitor.occupancy()) == [1, 0, 1, 2]

    @pytest.mark.parametrize("disc", ["fifo", "fixed-priority"])
    def test_hog_in_service_is_skipped(self, monkeypatch, engine, disc):
        # Connections 0 and 1 tie at one packet each; connection 0's is
        # in service, so connection 1 loses its waiting packet.
        _, monitor = self._run(monkeypatch, engine, disc, 2,
                               [[1.0], [2.0], [3.0]])
        assert list(monitor.drops) == [0, 1, 0]
        assert list(monitor.occupancy()) == [1, 0, 1]

    @pytest.mark.parametrize("disc", ["fifo", "fixed-priority"])
    def test_arrival_refused_when_nothing_waits(self, monkeypatch, engine,
                                                disc):
        # Only the packet in service occupies the gateway: nothing can
        # be evicted, so the arrival is refused.
        sim, monitor = self._run(monkeypatch, engine, disc, 1,
                                 [[1.0], [2.0]])
        assert list(monitor.drops) == [0, 1]
        assert sim.servers["g0"].in_system == 1

    @pytest.mark.parametrize("disc", ["fifo", "fixed-priority"])
    def test_offered_accounting_holds_after_eviction(self, monkeypatch,
                                                     engine, disc):
        # Connection 1's packet evicts connection 0's second: three
        # packets offered, one dropped, and connection 0 offered two.
        sim, monitor = self._run(monkeypatch, engine, disc, 2,
                                 [[1.0, 2.0], [3.0]])
        assert list(monitor.drops) == [1, 0]
        assert np.array_equal(sim.measured_arrival_rates()["g0"] * 10.0,
                              [2.0, 1.0])
        assert monitor.aggregate_drop_fraction() == 1.0 / 3.0
        assert list(monitor.drop_fractions()) == [0.5, 0.0]


class TestBufferSizes:
    """``NetworkSimulation`` validates ``buffer_sizes`` once, for either
    engine: each size is None or a whole number >= 1, kept as an int."""

    ENGINES = ["fast", "auto"]

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("sizes, named", [
        ({"g0": 2.5}, r"'g0'.*2\.5"),
        ({"g0": float("nan")}, "'g0'.*nan"),
        ({"g0": float("inf")}, "'g0'.*inf"),
        ({"g0": True}, "'g0'.*True"),
        ({"g0": 0}, "'g0'.*0"),
        ({"gX": 4}, "'gX'.*4"),
        (2.7, r"'g0'.*2\.7"),
    ], ids=["fractional", "nan", "inf", "bool", "zero", "unknown-gateway",
            "fractional-scalar"])
    def test_invalid_sizes_are_refused(self, engine, sizes, named):
        with pytest.raises(SimulationError, match=named):
            NetworkSimulation(single_gateway(2, mu=1.0), "fifo", seed=3,
                              initial_rates=[0.6, 0.6],
                              buffer_sizes=sizes, engine=engine)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_whole_sizes_are_kept_as_ints(self, engine):
        for sizes in ({"g0": 2}, {"g0": 2.0}, 2, np.int64(2),
                      np.float64(2.0)):
            sim = NetworkSimulation(single_gateway(2, mu=1.0), "fifo",
                                    seed=3, initial_rates=[0.6, 0.6],
                                    buffer_sizes=sizes, engine=engine)
            size = sim.servers["g0"].buffer_size
            assert size == 2 and type(size) is int
            sim.run_for(2000.0)
            assert sim.events_processed == 5191
        # A size past the C loop's int64 fills no sooner than infinity.
        events = []
        for sizes in (2 ** 70, None):
            sim = NetworkSimulation(single_gateway(2, mu=1.0), "fifo",
                                    seed=3, initial_rates=[0.6, 0.6],
                                    buffer_sizes=sizes, engine=engine)
            sim.run_for(2000.0)
            events.append(sim.events_processed)
        assert events[0] == events[1]


class TestFuzzGeneratedConfigs:
    """The C loop keeps the Python loops' bits on configurations drawn
    from the scenario fuzzer (fixed seed), not just the hand-picked ones
    above — topology, rates, and discipline come straight from the
    generator."""

    @pytest.fixture(scope="class")
    def fuzz_specs(self):
        from repro.scenarios import generate
        specs = [s for s in generate(7, 30)
                 if s.discipline in ("fifo", "fair-share")]
        assert len(specs) >= 2
        return specs

    def test_fuzz_fifo_config_bit_identical(self, fuzz_specs):
        spec = next(s for s in fuzz_specs if s.discipline == "fifo")
        _assert_compiled_matches_fast(disc="fifo", net=spec.network(),
                                      rates=list(spec.initial_rates))

    def test_fuzz_fair_share_config_bit_identical(self, fuzz_specs):
        spec = next(s for s in fuzz_specs
                    if s.discipline == "fair-share")
        rates = np.asarray(spec.initial_rates)
        _assert_compiled_matches_fast(disc="fair-share", net=spec.network(),
                                      rates=list(rates), steps=2,
                                      rate_seq=[0.8 * rates, 1.1 * rates])

    def test_fuzz_multi_gateway_config_bit_identical(self, fuzz_specs):
        spec = next(s for s in fuzz_specs if len(s.gateways) > 1)
        _assert_compiled_matches_fast(disc=spec.discipline,
                                      net=spec.network(),
                                      rates=list(spec.initial_rates))

    def test_fuzz_multi_gateway_fair_queueing(self, fuzz_specs):
        spec = next(s for s in fuzz_specs if len(s.gateways) > 1)
        _assert_compiled_matches_fast(disc="fair-queueing",
                                      net=spec.network(),
                                      rates=list(spec.initial_rates))

    def test_fuzz_multi_gateway_longest_drop(self, fuzz_specs):
        spec = next(s for s in fuzz_specs if len(s.gateways) > 1)
        _assert_compiled_matches_fast_dropping(
            disc="fifo", net=spec.network(),
            rates=list(2.0 * np.asarray(spec.initial_rates)),
            buffer_sizes=3, drop_policy="longest")


class TestClosedLoopEngines:
    KW = dict(style=FeedbackStyle.INDIVIDUAL, discipline_kind="fair-share",
              control_interval=150.0, n_steps=6, seed=3)

    def _loop(self, engine):
        net = _net4_latency()
        return run_closed_loop(net, TargetRule(eta=0.1, beta=0.4),
                               LinearSaturating(), engine=engine,
                               **self.KW)

    def test_run_record_phases_emitted(self):
        with collect() as session:
            self._loop("auto")
        (rec,) = session.run_records
        assert validate_run_record(rec.to_dict()) == []
        assert rec.kind == "run"
        for phase in ("simulate", "signals", "rules"):
            assert rec.phase_seconds[phase] > 0.0
        assert rec.outcome_counts == {"completed": 1}
