"""Integration tests: the fast struct-of-arrays kernel is bit-identical
to the legacy object engine.

Configurations of every discipline and drop policy are run on both
engines with the same seed and compared field by field — mean queue
lengths, measured arrival rates, drop fractions, throughput, delays,
*and* the processed event count (so the engines agree on the event
schedule itself, not just on aggregate statistics).
"""

import numpy as np
import pytest

from repro.core.ratecontrol import TargetRule
from repro.core.signals import FeedbackStyle, LinearSaturating
from repro.core.topology import (Connection, Gateway, Network, parking_lot,
                                 single_gateway)
from repro.errors import SimulationError
from repro.observability import collect, validate_run_record
from repro.simulation.closed_loop import run_closed_loop
from repro.simulation.network_sim import NetworkSimulation

RATES4 = [0.2, 0.2, 0.25, 0.15]
RATE_SEQ = [np.array([0.3, 0.1, 0.2, 0.2]), np.array([0.15, 0.25, 0.2, 0.1])]
#: Offered load 1.7 on mu = 1: finite buffers overflow often.
HEAVY4 = [0.5, 0.5, 0.4, 0.3]
HEAVY_SEQ = [np.array([0.6, 0.3, 0.5, 0.3]), np.array([0.3, 0.6, 0.4, 0.5])]


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
    a = _run("fast", **kw)
    b = _run("compiled", **kw)
    assert a["engine"] == "fast" and b["engine"] == "compiled"
    for key in ("mql", "arr", "drop"):
        for g in a[key]:
            assert np.array_equal(a[key][g], b[key][g]), \
                f"{key}[{g}]: {a[key][g]} vs {b[key][g]}"
    assert np.array_equal(a["thr"], b["thr"])
    assert np.array_equal(a["delay"], b["delay"], equal_nan=True)
    assert a["events"] == b["events"]


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
    """engine="compiled" (the runtime-built C event loop) against the
    fast kernel: the same bit-identity contract the fast engine keeps
    against legacy.  These run with or without a C compiler — when no
    library could be built the compiled engine transparently executes
    the python loop, and the contract must hold either way."""

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

    def test_closed_loop_trajectories_identical(self):
        kw = dict(style=FeedbackStyle.INDIVIDUAL,
                  discipline_kind="fifo", control_interval=150.0,
                  n_steps=6, seed=3)
        net = _net4_latency()
        fast = run_closed_loop(net, TargetRule(eta=0.1, beta=0.4),
                               LinearSaturating(), engine="fast", **kw)
        comp = run_closed_loop(net, TargetRule(eta=0.1, beta=0.4),
                               LinearSaturating(), engine="compiled",
                               **kw)
        assert np.array_equal(fast.rate_history, comp.rate_history)
        assert np.array_equal(fast.signal_history, comp.signal_history)
        assert np.array_equal(fast.final_throughput,
                              comp.final_throughput)
        assert np.array_equal(fast.final_delays, comp.final_delays,
                              equal_nan=True)

    def test_fifo_longest_drop_runs_the_python_loop(self):
        # The C loop has no eviction: each run falls back, and the
        # results stay those of the fast engine.
        _assert_compiled_matches_fast(disc="fifo", net=_tandem(),
                                      rates=HEAVY4, buffer_sizes=3,
                                      drop_policy="longest", steps=2,
                                      rate_seq=HEAVY_SEQ)
        sim = NetworkSimulation(_net4(), discipline_kind="fifo",
                                initial_rates=HEAVY4, buffer_sizes=4,
                                drop_policy="longest", engine="compiled")
        sim.run_for(50.0)
        sim.run_for(50.0)
        assert sim._engine.fifo_fallbacks == 2

    def test_compiled_engine_is_selectable(self):
        sim = NetworkSimulation(_net4(), discipline_kind="fifo",
                                initial_rates=RATES4,
                                engine="compiled")
        assert sim.engine == "compiled"

    def test_forced_compiled_on_unsupported_raises(self):
        with pytest.raises(SimulationError, match="fair-queueing"):
            NetworkSimulation(_net4(), discipline_kind="fair-queueing",
                              initial_rates=RATES4, buffer_sizes=4,
                              drop_policy="longest", engine="compiled")


class TestEngineSelection:
    def test_auto_picks_fast_for_supported_disciplines(self):
        for disc in ("fifo", "fair-share", "fixed-priority"):
            sim = NetworkSimulation(_net4(), discipline_kind=disc,
                                    initial_rates=RATES4)
            assert sim.engine == "fast"

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

    def test_longest_drop_with_infinite_buffers_stays_fast(self):
        # The eviction policy only matters when some buffer is finite.
        sim = NetworkSimulation(_net4(), discipline_kind="fifo",
                                initial_rates=RATES4,
                                drop_policy="longest")
        assert sim.engine == "fast"

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
