"""Unit tests for the heterogeneous clock models, their schedule
adapter, the clock-skew fault injector, and the ClockSpec grammar."""

import dataclasses

import numpy as np
import pytest

from repro.core.asynchronous import (CLOCK_KINDS, BernoulliSchedule,
                                     BurstyClock, ClockSchedule,
                                     DriftingClock, RateMixClock,
                                     SynchronousSchedule, UniformClock,
                                     clock_model, run_async_ensemble)
from repro.core.dynamics import FlowControlSystem
from repro.core.fairshare import FairShare
from repro.core.ratecontrol import TargetRule
from repro.core.signals import FeedbackStyle, LinearSaturating
from repro.core.topology import single_gateway
from repro.errors import FaultError, RateVectorError, ScenarioError
from repro.faults import ClockSkew, FaultPlan, parse_fault_spec
from repro.scenarios import (ClockSpec, ConnectionSpec, ControllerSpec,
                             GatewaySpec, RuleSpec, ScenarioSpec,
                             SignalSpec, generate)
from repro.scenarios.oracles import reference_run

ALL_MODELS = [
    UniformClock(rate=0.6, seed=3),
    RateMixClock(slow_rate=0.2, fast_rate=0.9, slow_fraction=0.5, seed=3),
    DriftingClock(base_rate=0.5, amplitude=0.3, period=32, seed=3),
    BurstyClock(on_rate=0.9, off_rate=0.15, burst_len=8, seed=3),
]


class TestClockModels:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    def test_tick_rates_stay_in_unit_interval(self, model):
        for step in (0, 1, 17, 1000):
            rates = model.tick_rates(step, 6)
            assert rates.shape == (6,)
            assert np.all(rates > 0.0) and np.all(rates <= 1.0)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    def test_two_instances_agree(self, model):
        clone = clock_model(model.kind, **{
            k: v for k, v in vars(model).items()
            if not k.startswith("_")})
        for step in (0, 5, 99):
            assert np.array_equal(model.tick_rates(step, 8),
                                  clone.tick_rates(step, 8))

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    def test_source_clocks_independent_of_population_size(self, model):
        # default_rng([seed, i]) per source: adding sources must never
        # reshuffle an existing source's clock.
        small = model.tick_rates(7, 3)
        large = model.tick_rates(7, 9)
        assert np.array_equal(small, large[:3])

    def test_mix_assigns_both_rates(self):
        clock = RateMixClock(slow_rate=0.2, fast_rate=0.9,
                             slow_fraction=0.5, seed=0)
        rates = clock.tick_rates(0, 64)
        assert set(np.unique(rates)) == {0.2, 0.9}
        # The assignment is static: every step sees the same split.
        assert np.array_equal(rates, clock.tick_rates(123, 64))

    def test_drifting_oscillates_per_source(self):
        clock = DriftingClock(base_rate=0.5, amplitude=0.4, period=16,
                              seed=1)
        series = np.stack([clock.tick_rates(s, 4) for s in range(16)])
        assert np.all(series.max(axis=0) > 0.5)
        assert np.all(series.min(axis=0) < 0.5)
        assert np.all(series > 0.0) and np.all(series <= 1.0)

    def test_bursty_alternates_phases(self):
        clock = BurstyClock(on_rate=1.0, off_rate=0.1, burst_len=4,
                            seed=2)
        series = np.stack([clock.tick_rates(s, 6) for s in range(16)])
        for i in range(6):
            assert set(np.unique(series[:, i])) == {0.1, 1.0}

    def test_heterogeneity_ratios(self):
        assert UniformClock(rate=0.4).heterogeneity == 1.0
        assert RateMixClock(0.25, 1.0).heterogeneity == pytest.approx(4.0)
        assert BurstyClock(1.0, 0.1).heterogeneity == pytest.approx(10.0)
        assert DriftingClock(0.5, 0.25).heterogeneity == pytest.approx(3.0)
        assert DriftingClock(0.5, 0.0).heterogeneity == 1.0

    def test_fairness_index_uniform_is_one(self):
        assert UniformClock(rate=0.3).fairness_index(8) == 1.0

    def test_fairness_index_drops_with_heterogeneity(self):
        mild = RateMixClock(0.8, 1.0, 0.5, seed=0)
        harsh = RateMixClock(0.05, 1.0, 0.5, seed=0)
        assert harsh.fairness_index(64) < mild.fairness_index(64) < 1.0

    def test_validation(self):
        with pytest.raises(RateVectorError):
            UniformClock(rate=0.0)
        with pytest.raises(RateVectorError):
            UniformClock(rate=1.5)
        with pytest.raises(RateVectorError):
            RateMixClock(slow_rate=0.9, fast_rate=0.5)
        with pytest.raises(RateVectorError):
            RateMixClock(slow_fraction=1.5)
        with pytest.raises(RateVectorError):
            DriftingClock(base_rate=0.5, amplitude=0.5)
        with pytest.raises(RateVectorError):
            DriftingClock(base_rate=0.9, amplitude=0.2)
        with pytest.raises(RateVectorError):
            DriftingClock(period=0)
        with pytest.raises(RateVectorError):
            BurstyClock(on_rate=0.2, off_rate=0.5)
        with pytest.raises(RateVectorError):
            BurstyClock(burst_len=0)

    @pytest.mark.parametrize("seed", [-1, -3, 2.5, 2.0, True, False,
                                      None, "7", np.float64(3.0)])
    def test_seeds_must_be_nonnegative_ints(self, seed):
        # default_rng takes no other seed: a bad one must fail at
        # construction, not at the first mask in the middle of a run,
        # and floats and bools must not pass as ints.
        with pytest.raises(RateVectorError, match="seed"):
            BernoulliSchedule(0.5, seed=seed)
        for kind in CLOCK_KINDS:
            with pytest.raises(RateVectorError, match="seed"):
                clock_model(kind, seed=seed)
        with pytest.raises(ScenarioError, match="seed"):
            ClockSpec("mix", {"seed": seed}).build()

    def test_integer_seeds_are_kept(self):
        for seed in (0, 7, np.int64(9), 2**64 + 7):
            assert BernoulliSchedule(0.5, seed=seed).seed == seed
            assert type(RateMixClock(seed=seed).seed) is int

    @pytest.mark.parametrize("make", [
        lambda seed: RateMixClock(0.25, 1.0, 0.5, seed=seed),
        lambda seed: DriftingClock(0.5, 0.3, 32, seed=seed),
        lambda seed: BurstyClock(0.9, 0.15, 8, seed=seed),
    ], ids=["mix", "drifting", "bursty"])
    def test_a_changed_seed_redraws_the_source_clocks(self, make):
        clock = make(1)
        clock.tick_rates(0, 12)
        clock.seed = 2
        for step in (0, 5, 17):
            assert np.array_equal(clock.tick_rates(step, 12),
                                  make(2).tick_rates(step, 12))

    @pytest.mark.parametrize("runner", ["scalar", "ensemble"])
    def test_a_changed_seed_reaches_the_runners(self, runner):
        # The per-connection reference_run and the ensemble loop,
        # whose compiled gate reads the clock's per-source rates.
        system = FlowControlSystem(single_gateway(12), FairShare(),
                                   LinearSaturating(),
                                   TargetRule(eta=0.1, beta=0.5),
                                   style=FeedbackStyle.INDIVIDUAL)
        x0 = np.linspace(0.01, 0.07, 12)

        def run(clock):
            schedule = ClockSchedule(clock)
            if runner == "scalar":
                return reference_run(system, x0, schedule, max_steps=150,
                                     tol=0.0).final
            return run_async_ensemble(system, x0[None], schedule=schedule,
                                      max_steps=150, tol=0.0).finals[0]

        clock = RateMixClock(0.25, 1.0, 0.5, seed=1)
        first = run(clock)
        clock.seed = 2
        again = run(clock)
        assert np.array_equal(again,
                              run(RateMixClock(0.25, 1.0, 0.5, seed=2)))
        assert not np.array_equal(again, first)

    def test_factory_kinds(self):
        assert set(CLOCK_KINDS) == {"uniform", "mix", "drifting",
                                    "bursty"}
        for kind in CLOCK_KINDS:
            assert clock_model(kind).kind == kind
        with pytest.raises(RateVectorError, match="unknown clock kind"):
            clock_model("sundial")


class TestClockSchedule:
    def test_full_rate_clock_is_synchronous(self):
        sched = ClockSchedule(UniformClock(rate=1.0))
        sync = SynchronousSchedule()
        for step in range(10):
            assert np.array_equal(sched.participants(step, 5),
                                  sync.participants(step, 5))
        assert sched.steps_per_sweep(5) == 1

    def test_masks_are_pure_functions_of_step(self):
        a = ClockSchedule(RateMixClock(seed=7))
        b = ClockSchedule(RateMixClock(seed=7))
        for step in range(30):  # out-of-band probing on b only
            b.participants(step, 16)
        for step in (0, 3, 29, 500):
            assert np.array_equal(a.participants(step, 16),
                                  b.participants(step, 16))

    def test_steps_per_sweep_inverts_mean_rate(self):
        sched = ClockSchedule(UniformClock(rate=0.25))
        assert sched.steps_per_sweep(4) == 4
        mix = ClockSchedule(RateMixClock(0.2, 1.0, 0.5, seed=0))
        mean = float(np.mean(mix.clock.nominal_rates(64)))
        assert mix.steps_per_sweep(64) == max(1, int(round(1.0 / mean)))

    def test_rejects_non_clock(self):
        with pytest.raises(RateVectorError):
            ClockSchedule(0.5)


class TestClockSkewInjector:
    def test_validation(self):
        with pytest.raises(FaultError):
            ClockSkew(min_lag=-1, max_lag=2)
        with pytest.raises(FaultError):
            ClockSkew(min_lag=3, max_lag=2)
        with pytest.raises(FaultError, match="injects nothing"):
            ClockSkew(min_lag=0, max_lag=0)

    def test_parse_fault_spec(self):
        plan = parse_fault_spec("skew=3,seed=9")
        assert plan.seed == 9
        assert plan.injectors == (ClockSkew(min_lag=0, max_lag=3),)
        plan = parse_fault_spec("skew=4:2")
        assert plan.injectors == (ClockSkew(min_lag=2, max_lag=4),)
        with pytest.raises(FaultError, match="skew"):
            parse_fault_spec("skew=1:2:3")

    def test_lags_constant_per_source(self):
        plan = FaultPlan((ClockSkew(min_lag=1, max_lag=4),), seed=5)
        state = plan.start(n_connections=4)
        rng = np.random.default_rng(0)
        for step in range(20):
            state.apply(step, rng.random(4))
        per_conn = {}
        for ev in state.events:
            if ev.step >= 5:  # past the history warm-up
                per_conn.setdefault(ev.connection, set()).add(ev.detail)
        assert per_conn, "skew with min_lag >= 1 must record events"
        for lags in per_conn.values():
            assert len(lags) == 1

    def test_delivers_the_lagged_signal(self):
        plan = FaultPlan((ClockSkew(min_lag=2, max_lag=2),), seed=0)
        state = plan.start(n_connections=2)
        signals = [np.array([0.1 * s, 0.5 + 0.01 * s])
                   for s in range(6)]
        outs = [state.apply(s, signals[s]) for s in range(6)]
        # From step 2 on the full lag is available: observed = true
        # signal from two steps earlier.
        for s in range(2, 6):
            assert np.array_equal(outs[s], signals[s - 2])
        # Warm-up clamps to the oldest retained signal.
        assert np.array_equal(outs[0], signals[0])
        assert np.array_equal(outs[1], signals[0])

    def test_replays_bit_identically(self):
        plan = FaultPlan((ClockSkew(min_lag=0, max_lag=3),), seed=11)

        def run_once():
            state = plan.start(n_connections=3)
            rng = np.random.default_rng(1)
            outs = [state.apply(s, rng.random(3)) for s in range(15)]
            return np.stack(outs), list(state.events)

        first, second = run_once(), run_once()
        assert np.array_equal(first[0], second[0])
        assert first[1] == second[1]


class TestClockSpec:
    def spec_of(self, clock=None, controller=None, rules=None):
        n = 3
        rules = rules or (RuleSpec("proportional-target",
                                   {"eta": 0.5, "beta": 0.5}),) * n
        return ScenarioSpec(
            name="clocked",
            gateways=(GatewaySpec("g0", 1.0),),
            connections=tuple(ConnectionSpec(f"c{i}", ("g0",))
                              for i in range(n)),
            discipline="fair-share",
            signal=SignalSpec(),
            style="individual",
            rules=rules,
            initial_rates=(0.1, 0.15, 0.2),
            max_steps=1000,
            seed=5,
            controller=controller,
            clock=clock,
        )

    def test_round_trip(self):
        clock = ClockSpec("bursty", {"on_rate": 0.9, "off_rate": 0.2,
                                     "burst_len": 8, "seed": 3},
                          signal_delay=2)
        spec = self.spec_of(clock=clock)
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.clock.signal_delay == 2

    def test_clockless_dicts_stay_loadable(self):
        # Backward compatibility: archived specs predate the clock key.
        data = self.spec_of().to_dict()
        del data["clock"]
        assert ScenarioSpec.from_dict(data).clock is None

    def test_build_and_schedule(self):
        clock = ClockSpec("mix", {"slow_rate": 0.25, "seed": 1})
        model = clock.build()
        assert model.kind == "mix" and model.slow_rate == 0.25
        sched = clock.schedule()
        assert isinstance(sched, ClockSchedule)
        assert sched.participants(0, 4).shape == (4,)

    def test_validation(self):
        with pytest.raises(ScenarioError, match="clock kind"):
            ClockSpec("sundial")
        with pytest.raises(ScenarioError):
            ClockSpec("uniform", {"bogus": 1.0})
        with pytest.raises(ScenarioError, match="signal_delay"):
            ClockSpec("uniform", signal_delay=-1)
        with pytest.raises(ScenarioError, match="signal_delay"):
            ClockSpec("uniform", signal_delay=True)
        # A kind-valid but value-invalid param surfaces as ScenarioError
        # at build time.
        with pytest.raises(ScenarioError):
            ClockSpec("uniform", {"rate": 2.0}).build()

    def test_controller_excludes_clock(self):
        with pytest.raises(ScenarioError, match="clock"):
            self.spec_of(
                clock=ClockSpec("uniform"),
                controller=ControllerSpec("rcp", {"alpha": 0.5,
                                                  "beta": 0.05,
                                                  "fill": 0.4}),
                rules=(RuleSpec("rcp-source"),) * 3)

    def test_generator_draws_clocks(self):
        specs = generate(42, 80)
        clocked = [s for s in specs if s.clock is not None]
        assert clocked, "the generator must draw some clocked scenarios"
        for s in clocked:
            assert s.controller is None
            assert s.clock.kind in CLOCK_KINDS
            assert 0 <= s.clock.signal_delay <= 2
            s.clock.build()  # every drawn clock is constructible
        assert generate(42, 80) == specs
