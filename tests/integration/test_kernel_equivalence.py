"""Integration tests: the fast struct-of-arrays kernel is bit-identical
to the legacy object engine, and its C event loop to its Python loops.

Configurations of every discipline and drop policy are run on the
engines with the same seed and compared field by field — mean queue
lengths, measured arrival rates, drop fractions, throughput, delays,
*and* the processed event count (so the engines agree on the event
schedule itself, not just on aggregate statistics).
"""

import numpy as np
import pytest

import repro.backends._cext
from repro.backends import compiled
from repro.core.ratecontrol import TargetRule
from repro.core.signals import FeedbackStyle, LinearSaturating
from repro.core.topology import (Connection, Gateway, Network, parking_lot,
                                 single_gateway)
from repro.errors import SimulationError
from repro.observability import collect, validate_run_record
from repro.simulation.closed_loop import run_closed_loop
from repro.simulation.kernel import fair_share_table
from repro.simulation.network_sim import NetworkSimulation
from repro.simulation.rng import RandomStreams
from repro.simulation.validation import validate_single_gateway

RATES4 = [0.2, 0.2, 0.25, 0.15]
RATE_SEQ = [np.array([0.3, 0.1, 0.2, 0.2]), np.array([0.15, 0.25, 0.2, 0.1])]
#: Offered load 1.7 on mu = 1: finite buffers overflow often.
HEAVY4 = [0.5, 0.5, 0.4, 0.3]
HEAVY_SEQ = [np.array([0.6, 0.3, 0.5, 0.3]), np.array([0.3, 0.6, 0.4, 0.5])]
#: The engine "auto" picks where the C loop serves the configuration.
C_ENGINE = "compiled" if compiled.packet_lib() is not None else "fast"


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


def _assert_engines_agree(**kw):
    a = _run("legacy", **kw)
    b = _run("fast", **kw)
    assert a["engine"] == "legacy" and b["engine"] == "fast"
    for key in ("mql", "arr", "drop"):
        for g in a[key]:
            assert np.array_equal(a[key][g], b[key][g]), \
                f"{key}[{g}]: {a[key][g]} vs {b[key][g]}"
    assert np.array_equal(a["thr"], b["thr"])
    assert np.array_equal(a["delay"], b["delay"], equal_nan=True)
    assert a["events"] == b["events"]
    return a


def _assert_engines_agree_dropping(**kw):
    """As :func:`_assert_engines_agree`, on a run that did overflow."""
    out = _assert_engines_agree(**kw)
    assert any(d.sum() > 0 for d in out["drop"].values())


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


class TestBitIdentity:
    def test_fifo_zero_latency(self):
        _assert_engines_agree(disc="fifo", net=_net4(), rates=RATES4)

    def test_fifo_with_latency_uses_burst_path(self):
        _assert_engines_agree(disc="fifo", net=_net4_latency(),
                              rates=RATES4)

    def test_fair_share_with_rate_updates(self):
        _assert_engines_agree(disc="fair-share", net=_net4_latency(),
                              rates=RATES4, steps=2, rate_seq=RATE_SEQ)

    def test_fixed_priority(self):
        _assert_engines_agree(disc="fixed-priority", net=_net4_latency(),
                              rates=RATES4)

    def test_fifo_finite_buffer_tail_drop(self):
        _assert_engines_agree(disc="fifo", net=_net4_latency(),
                              rates=[0.5, 0.5, 0.4, 0.3], buffer_sizes=4)

    def test_tandem_fifo(self):
        _assert_engines_agree(disc="fifo", net=_tandem(), rates=RATES4,
                              steps=2, rate_seq=RATE_SEQ)

    def test_tandem_fair_share(self):
        _assert_engines_agree(disc="fair-share", net=_tandem(),
                              rates=RATES4, steps=2, rate_seq=RATE_SEQ)

    def test_measured_rate_mode_with_refresh(self):
        # Satellite: the windowed arrival-rate estimator feeds Fair
        # Share thinning identically under either engine.
        _assert_engines_agree(disc="fair-share", net=_net4_latency(),
                              rates=RATES4, rate_mode="measured",
                              steps=3, refresh=True)

    def test_fair_queueing_with_latency(self):
        _assert_engines_agree(disc="fair-queueing", net=_net4_latency(),
                              rates=RATES4)

    def test_tandem_fair_queueing_with_rate_updates(self):
        _assert_engines_agree(disc="fair-queueing", net=_tandem(),
                              rates=RATES4, steps=2, rate_seq=RATE_SEQ)

    def test_fair_queueing_finite_buffer_tail_drop(self):
        _assert_engines_agree_dropping(disc="fair-queueing",
                                       net=_net4_latency(), rates=HEAVY4,
                                       buffer_sizes=4)

    def test_parking_lot_fair_queueing(self):
        _assert_engines_agree(disc="fair-queueing", net=_parking_lot(),
                              rates=[0.12] * 7, steps=2,
                              rate_seq=[np.full(7, 0.08), np.full(7, 0.15)])

    def test_fifo_longest_drop(self):
        _assert_engines_agree_dropping(disc="fifo", net=_net4_latency(),
                                       rates=HEAVY4, buffer_sizes=4,
                                       drop_policy="longest")

    def test_tandem_fifo_longest_drop_with_rate_updates(self):
        _assert_engines_agree_dropping(disc="fifo", net=_tandem(),
                                       rates=HEAVY4, buffer_sizes=3,
                                       drop_policy="longest", steps=2,
                                       rate_seq=HEAVY_SEQ)

    def test_fair_share_longest_drop(self):
        _assert_engines_agree_dropping(disc="fair-share",
                                       net=_net4_latency(), rates=HEAVY4,
                                       buffer_sizes=4,
                                       drop_policy="longest")

    def test_fair_share_longest_drop_measured_with_refresh(self):
        _assert_engines_agree_dropping(disc="fair-share",
                                       net=_net4_latency(), rates=HEAVY4,
                                       buffer_sizes=4,
                                       drop_policy="longest",
                                       rate_mode="measured", steps=3,
                                       refresh=True)

    def test_fixed_priority_longest_drop(self):
        _assert_engines_agree_dropping(disc="fixed-priority",
                                       net=_net4_latency(), rates=HEAVY4,
                                       buffer_sizes=4,
                                       drop_policy="longest")

    def test_parking_lot_fifo_longest_drop(self):
        _assert_engines_agree_dropping(disc="fifo", net=_parking_lot(),
                                       rates=[0.2] * 7, buffer_sizes=4,
                                       drop_policy="longest", steps=2,
                                       rate_seq=[np.full(7, 0.25),
                                                 np.full(7, 0.15)])

    def test_measured_estimates_are_sane(self):
        out = _run("fast", disc="fair-share", net=_net4_latency(),
                   rates=RATES4, rate_mode="measured", steps=3,
                   refresh=True, horizon=2000.0)
        for g, est in out["arr"].items():
            assert np.all(np.isfinite(est))
            assert np.all(est >= 0.0)


class TestCompiledEngine:
    """The C event loop (what engine="auto" runs where it serves the
    configuration) against the fast kernel's Python loops: the same
    bit-identity contract the fast engine keeps against legacy.  These
    run with or without a C compiler — when no library could be built
    "auto" runs the Python loop, and the contract must hold either
    way."""

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
        # Every thinning uniform is exactly 0.5 and the rates are
        # dyadic, so a 0.25 connection's draw u = 0.5 * 0.25 lands
        # exactly on the first cumulative width 0.125: the walk's
        # ``u <= acc`` puts it in class 0 on every engine.
        original = RandomStreams.stream

        class Halves:
            def random(self, size=None, out=None):
                if out is not None:
                    out[:] = 0.5
                    return out
                return 0.5 if size is None else np.full(size, 0.5)

        def stream(self, name):
            if name.startswith("thinning:"):
                return Halves()
            return original(self, name)

        monkeypatch.setattr(RandomStreams, "stream", stream)
        rates = [0.125, 0.25, 0.125, 0.25]
        widths, total, _ = fair_share_table(rates)[1]
        assert 0.5 * total == widths[0]
        legacy = _run("legacy", disc="fair-share", net=_net4_latency(),
                      rates=rates)
        out = _assert_compiled_matches_fast(disc="fair-share",
                                            net=_net4_latency(),
                                            rates=rates)
        for key in ("mql", "arr"):
            assert np.array_equal(legacy[key]["g0"], out[key]["g0"])
        assert legacy["events"] == out["events"]

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

    @pytest.mark.parametrize("disc", ["fifo", "fair-share",
                                      "fixed-priority"])
    def test_closed_loop_trajectories_identical(self, disc):
        kw = dict(style=FeedbackStyle.INDIVIDUAL, discipline_kind=disc,
                  control_interval=150.0, n_steps=6, seed=3)
        net = _net4_latency()
        fast = run_closed_loop(net, TargetRule(eta=0.1, beta=0.4),
                               LinearSaturating(), engine="fast", **kw)
        comp = run_closed_loop(net, TargetRule(eta=0.1, beta=0.4),
                               LinearSaturating(), engine="auto", **kw)
        assert np.array_equal(fast.rate_history, comp.rate_history)
        assert np.array_equal(fast.signal_history, comp.signal_history)
        assert np.array_equal(fast.final_throughput,
                              comp.final_throughput)
        assert np.array_equal(fast.final_delays, comp.final_delays,
                              equal_nan=True)

    @pytest.mark.parametrize("disc", ["fifo", "fair-share",
                                      "fixed-priority"])
    def test_event_cap_stops_both_loops_alike(self, disc):
        stopped = []
        for engine in ("fast", "auto"):
            sim = NetworkSimulation(_net4_latency(), disc, seed=5,
                                    initial_rates=HEAVY4, engine=engine)
            with pytest.raises(SimulationError, match="exceeded 100"):
                sim._engine.run_until(500.0, max_events=100)
            stopped.append((sim.events_processed, sim.now))
        assert stopped[0] == stopped[1]
        assert stopped[0][0] > 100

    def test_fifo_longest_drop_runs_the_python_loop(self):
        # The C loop has no eviction: such a configuration runs the
        # Python loop on every engine but legacy.
        _assert_engines_agree_dropping(disc="fifo", net=_tandem(),
                                       rates=HEAVY4, buffer_sizes=3,
                                       drop_policy="longest", steps=2,
                                       rate_seq=HEAVY_SEQ)
        for engine in ("auto", "compiled"):
            sim = NetworkSimulation(_net4(), discipline_kind="fifo",
                                    initial_rates=HEAVY4, buffer_sizes=4,
                                    drop_policy="longest", engine=engine)
            assert sim.engine == "fast"

    def test_compiled_engine_is_selectable(self):
        sim = NetworkSimulation(_net4(), discipline_kind="fifo",
                                initial_rates=RATES4,
                                engine="compiled")
        assert sim.engine == C_ENGINE

    def test_forced_compiled_on_unsupported_raises(self):
        with pytest.raises(SimulationError, match="fair-queueing"):
            NetworkSimulation(_net4(), discipline_kind="fair-queueing",
                              initial_rates=RATES4, buffer_sizes=4,
                              drop_policy="longest", engine="compiled")

    @pytest.mark.parametrize("disc", ["fifo", "fair-share",
                                      "fixed-priority"])
    def test_masked_c_tier_runs_the_python_loop(self, disc, monkeypatch):
        kw = dict(disc=disc, net=_tandem(), rates=RATES4, steps=2,
                  rate_seq=RATE_SEQ)
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
        for disc in ("fifo", "fair-share", "fixed-priority"):
            for buffers in (None, 4):
                sim = NetworkSimulation(_net4(), discipline_kind=disc,
                                        initial_rates=RATES4,
                                        buffer_sizes=buffers)
                assert sim.engine == C_ENGINE

    def test_auto_is_fast_for_fair_queueing(self):
        sim = NetworkSimulation(_net4(), discipline_kind="fair-queueing",
                                initial_rates=RATES4, buffer_sizes=4)
        assert sim.engine == "fast"

    def test_auto_is_fast_for_longest_drop(self):
        for disc in ("fifo", "fair-share", "fixed-priority"):
            sim = NetworkSimulation(_net4(), discipline_kind=disc,
                                    initial_rates=RATES4, buffer_sizes=4,
                                    drop_policy="longest")
            assert sim.engine == "fast"

    def test_longest_drop_with_infinite_buffers_runs_compiled(self):
        # The eviction policy only matters when some buffer is finite.
        sim = NetworkSimulation(_net4(), discipline_kind="fifo",
                                initial_rates=RATES4,
                                drop_policy="longest",
                                buffer_sizes={"g0": None})
        assert sim.engine == C_ENGINE

    def test_fast_and_legacy_are_kept(self):
        for engine in ("fast", "legacy"):
            sim = NetworkSimulation(_net4(), discipline_kind="fair-share",
                                    initial_rates=RATES4, engine=engine)
            assert sim.engine == engine

    def test_forced_fast_on_unsupported_raises(self):
        with pytest.raises(SimulationError, match="fair-queueing"):
            NetworkSimulation(_net4(), discipline_kind="fair-queueing",
                              initial_rates=RATES4, buffer_sizes=4,
                              drop_policy="longest", engine="fast")

    @pytest.mark.parametrize("engine", ["auto", "legacy"])
    def test_fair_queueing_eviction_rejected_at_construction(self, engine):
        # Fair Queueing cannot evict: the configuration fails before
        # any event runs, on every engine, not mid-run on legacy.
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
        _assert_engines_agree(disc="fair-queueing", net=_net4(),
                              rates=RATES4, drop_policy="longest")

    def test_unknown_engine_rejected(self):
        with pytest.raises(SimulationError):
            NetworkSimulation(_net4(), initial_rates=RATES4,
                              engine="turbo")


class TestNonFiniteHorizons:
    """A NaN or infinite duration would never reach the loop's
    ``time > t_end`` exit; it is refused before any event runs."""

    @pytest.mark.parametrize("engine", ["fast", "compiled", "legacy"])
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
    at ``inf``; every engine refuses it with the same message."""

    @pytest.mark.parametrize("disc", ["fifo", "fair-share",
                                      "fixed-priority"])
    def test_every_engine_words_the_refusal_alike(self, disc):
        messages = set()
        for engine in ("fast", C_ENGINE, "legacy"):
            sim = NetworkSimulation(_net4(), discipline_kind=disc,
                                    initial_rates=RATES4, engine=engine)
            sim.run_for(5.0)
            with pytest.raises(SimulationError) as err:
                sim.set_rates([0.2, 5e-324, 0.25, 0.15])
            messages.add(str(err.value))
        assert messages == {"event time must be finite, got inf"}


class TestFuzzGeneratedConfigs:
    """The bit-identity contract holds on configurations drawn from the
    scenario fuzzer (fixed seed), not just the hand-picked ones above —
    topology, rates, and discipline come straight from the generator."""

    @pytest.fixture(scope="class")
    def fuzz_specs(self):
        from repro.scenarios import generate
        specs = [s for s in generate(7, 30)
                 if s.discipline in ("fifo", "fair-share")]
        assert len(specs) >= 2
        return specs

    def test_fuzz_fifo_config_bit_identical(self, fuzz_specs):
        spec = next(s for s in fuzz_specs if s.discipline == "fifo")
        _assert_engines_agree(disc="fifo", net=spec.network(),
                              rates=list(spec.initial_rates))

    def test_fuzz_fair_share_config_bit_identical(self, fuzz_specs):
        spec = next(s for s in fuzz_specs
                    if s.discipline == "fair-share")
        _assert_engines_agree(disc="fair-share", net=spec.network(),
                              rates=list(spec.initial_rates), steps=2,
                              rate_seq=[0.8 * np.asarray(spec.initial_rates),
                                        1.1 * np.asarray(spec.initial_rates)])

    def test_fuzz_multi_gateway_config_bit_identical(self, fuzz_specs):
        spec = next(s for s in fuzz_specs if len(s.gateways) > 1)
        _assert_engines_agree(disc=spec.discipline, net=spec.network(),
                              rates=list(spec.initial_rates))

    def test_fuzz_multi_gateway_fair_queueing(self, fuzz_specs):
        spec = next(s for s in fuzz_specs if len(s.gateways) > 1)
        _assert_engines_agree(disc="fair-queueing", net=spec.network(),
                              rates=list(spec.initial_rates))

    def test_fuzz_multi_gateway_longest_drop(self, fuzz_specs):
        spec = next(s for s in fuzz_specs if len(s.gateways) > 1)
        _assert_engines_agree_dropping(
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

    def test_trajectories_identical_across_engines(self):
        legacy = self._loop("legacy")
        fast = self._loop("fast")
        assert np.array_equal(legacy.rate_history, fast.rate_history)
        assert np.array_equal(legacy.signal_history, fast.signal_history)
        assert np.array_equal(legacy.final_throughput,
                              fast.final_throughput)
        assert np.array_equal(legacy.final_delays, fast.final_delays,
                              equal_nan=True)

    def test_run_record_phases_emitted(self):
        with collect() as session:
            self._loop("auto")
        (rec,) = session.run_records
        assert validate_run_record(rec.to_dict()) == []
        assert rec.kind == "run"
        for phase in ("simulate", "signals", "rules"):
            assert rec.phase_seconds[phase] > 0.0
        assert rec.outcome_counts == {"completed": 1}
