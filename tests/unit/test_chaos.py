"""Unit tests for the structural chaos layer.

Covers the three chaos surfaces and the contracts they promise:
structural fault plans (window semantics, degradation/blackhole views,
the empty-plan bit-identity, scalar/batch replay), the adversary zoo
and the Theorem 5 floor monitor, the scenario-grammar chaos dimensions
and the adversarial-floor oracle, the controller-exclusion guards, and
the sweep's seeded retry backoff.
"""

import numpy as np
import pytest

import repro.parallel as parallel_mod
from repro.chaos import (BlasterRule, CapacityDegradation,
                         GatewayBlackhole, PinnedRateRule, SawtoothRule,
                         StructuralFaultPlan, check_robustness_floor,
                         honest_indices, is_adversary)
from repro.core.dynamics import FlowControlSystem, Outcome
from repro.core.fairshare import FairShare
from repro.core.fifo import Fifo
from repro.core.ratecontrol import RcpSourceRule, TargetRule
from repro.core.rcp import RcpController
from repro.core.signals import FeedbackStyle, LinearSaturating
from repro.core.topology import single_gateway
from repro.errors import ChaosError, ScenarioError, SweepError
from repro.faults import FaultPlan, SignalLoss
from repro.parallel import _retry_backoff, sweep
from repro.scenarios import (AdversarySpec, ConnectionSpec, GatewaySpec,
                             RuleSpec, ScenarioSpec, SignalSpec,
                             StructuralInjectorSpec, StructuralPlanSpec)
from repro.scenarios.oracles import ScenarioContext, run_oracle


def fs_system(n=4, mu=1.0, eta=0.1, beta=0.5, discipline=None):
    net = single_gateway(n, mu=mu)
    return FlowControlSystem(net, discipline or FairShare(),
                             LinearSaturating(),
                             TargetRule(eta=eta, beta=beta),
                             style=FeedbackStyle.INDIVIDUAL)


def demo_plan(seed=3):
    return StructuralFaultPlan(injectors=(
        CapacityDegradation("g0", factor=0.5, start=30, duration=30),
        GatewayBlackhole("g0", start=70, duration=20)), seed=seed)


R0 = np.array([0.05, 0.1, 0.3, 0.55])


class TestStructuralValidation:
    @pytest.mark.parametrize("factor", [0.0, 1.0, -0.5, 1.5,
                                        float("nan")])
    def test_degradation_factor_strictly_inside_unit_interval(
            self, factor):
        with pytest.raises(ChaosError, match="strictly in"):
            CapacityDegradation("g0", factor=factor, duration=5)

    def test_degradation_needs_gateway_name(self):
        with pytest.raises(ChaosError, match="nonempty"):
            CapacityDegradation("", factor=0.5, duration=5)

    @pytest.mark.parametrize("kwargs,match", [
        ({"start": -1}, "start"),
        ({"duration": 0}, "duration"),
        ({"duration": 5, "period": 3}, "period"),
        ({"jitter": -1}, "jitter"),
    ])
    def test_bad_windows_raise(self, kwargs, match):
        base = dict(gateway="g0", start=0, duration=1)
        base.update(kwargs)
        with pytest.raises(ChaosError, match=match):
            GatewayBlackhole(**base)

    def test_plan_rejects_non_injectors(self):
        with pytest.raises(ChaosError, match="structural injectors"):
            StructuralFaultPlan(injectors=("loss=0.3",))

    def test_plan_rejects_bad_seed(self):
        with pytest.raises(ChaosError, match="seed"):
            StructuralFaultPlan(
                injectors=(GatewayBlackhole("g0", duration=1),), seed=-1)

    def test_start_rejects_unknown_gateway(self):
        plan = StructuralFaultPlan(
            injectors=(GatewayBlackhole("gX", duration=5),))
        with pytest.raises(ChaosError, match="unknown gateway"):
            fs_system().run(R0, max_steps=50, structural=plan)


class TestStructuralSemantics:
    def test_empty_plan_is_bit_identical_scalar(self):
        system = fs_system()
        clean = system.run(R0, max_steps=400)
        chaos = system.run(R0, max_steps=400,
                           structural=StructuralFaultPlan())
        assert np.array_equal(clean.history, chaos.history)
        assert clean.outcome is chaos.outcome
        assert chaos.structural_events is None

    def test_empty_plan_is_bit_identical_batch(self):
        system = fs_system()
        starts = np.random.default_rng(1).uniform(0.05, 0.5, (6, 4))
        clean = system.run_ensemble(starts, max_steps=300)
        chaos = system.run_ensemble(starts, max_steps=300,
                                    structural=StructuralFaultPlan())
        assert np.array_equal(clean.finals, chaos.finals)
        assert clean.outcomes == chaos.outcomes
        assert chaos.structural_events is None

    def test_degradation_scales_mu_inside_the_window_only(self):
        plan = StructuralFaultPlan(injectors=(
            CapacityDegradation("g0", factor=0.5, start=10,
                                duration=5),))
        system = fs_system(mu=2.0)
        state = plan.start(system)
        assert state.resolve(9).network.mu("g0") == 2.0
        assert state.resolve(10).network.mu("g0") == 1.0
        assert state.resolve(14).network.mu("g0") == 1.0
        assert state.resolve(15).network.mu("g0") == 2.0

    def test_blackhole_marks_routed_connections(self):
        plan = StructuralFaultPlan(injectors=(
            GatewayBlackhole("g0", start=5, duration=3),))
        system = fs_system()
        state = plan.start(system)
        assert state.resolve(4).blackholed.size == 0
        assert list(state.resolve(5).blackholed) == [0, 1, 2, 3]

    def test_transitions_are_recorded_in_step_order(self):
        # short blackhole: rates must stay positive, else the zero
        # fixed point converges the run before the restore fires
        plan = StructuralFaultPlan(injectors=(
            CapacityDegradation("g0", factor=0.5, start=30,
                                duration=30),
            GatewayBlackhole("g0", start=70, duration=2)), seed=3)
        system = fs_system()
        traj = system.run(R0, max_steps=800, tol=0.0, structural=plan)
        kinds = [(e.step, e.kind, e.detail)
                 for e in traj.structural_events]
        assert kinds == [(30, "degrade", 0.5), (60, "restore", 1.0),
                         (70, "blackhole", 0.0), (72, "restore", 1.0)]

    def test_periodic_window_repeats(self):
        plan = StructuralFaultPlan(injectors=(
            CapacityDegradation("g0", factor=0.6, start=10, duration=5,
                                period=40),))
        system = fs_system()
        traj = system.run(R0, max_steps=100, tol=0.0, structural=plan)
        opens = [e.step for e in traj.structural_events
                 if e.kind == "degrade"]
        assert opens == [10, 50, 90]

    def test_blackhole_drives_rates_down_then_restores(self):
        plan = StructuralFaultPlan(injectors=(
            GatewayBlackhole("g0", start=100, duration=2),))
        system = fs_system()
        traj = system.run(R0, max_steps=800, tol=0.0, structural=plan)
        pre = traj.history[95].sum()
        during = traj.history[100:104].sum(axis=1).min()
        assert during < 0.3 * pre
        assert traj.final.sum() > 0.8 * pre

    def test_replay_is_bit_identical(self):
        system = fs_system()
        a = system.run(R0, max_steps=800, structural=demo_plan())
        b = system.run(R0, max_steps=800, structural=demo_plan())
        assert np.array_equal(a.history, b.history)
        assert a.structural_events == b.structural_events

    def test_ensemble_member_matches_scalar_replay(self):
        plan = StructuralFaultPlan(injectors=(
            CapacityDegradation("g0", factor=0.5, start=20, duration=15,
                                jitter=4),), seed=11)
        system = fs_system()
        starts = np.random.default_rng(2).uniform(0.05, 0.5, (5, 4))
        ens = system.run_ensemble(starts, max_steps=600,
                                  structural=plan)
        for m in range(5):
            traj = system.run(starts[m], max_steps=600, structural=plan,
                              fault_member=m)
            assert np.array_equal(ens.finals[m], traj.final), m
        # jitter is per-member: not every member opens at the same step
        opens = {e.member: e.step for e in ens.structural_events
                 if e.kind == "degrade"}
        assert len(opens) == 5
        assert len(set(opens.values())) > 1

    def test_resolve_is_idempotent_per_step(self):
        plan = demo_plan()
        state = plan.start(fs_system())
        state.resolve(30)
        state.resolve(30)
        assert len(state.events) == 1

    def test_views_are_cached_per_damage_signature(self):
        plan = StructuralFaultPlan(injectors=(
            CapacityDegradation("g0", factor=0.5, start=0, duration=5,
                                period=10),))
        state = plan.start(fs_system())
        first = state.resolve(1)
        again = state.resolve(12)  # second window, same damage
        assert first.network is again.network
        assert first.scheme is again.scheme

    def test_plan_describe_and_to_dict(self):
        plan = demo_plan()
        assert "seed=3" in plan.describe()
        d = plan.to_dict()
        assert d["seed"] == 3
        assert [inj["kind"] for inj in d["injectors"]] == \
            ["degrade", "blackhole"]
        assert StructuralFaultPlan().describe() == "no structural faults"


class TestAdversaries:
    def test_zoo_membership(self):
        honest = TargetRule(eta=0.1, beta=0.5)
        zoo = [BlasterRule(), PinnedRateRule(), SawtoothRule()]
        assert all(is_adversary(a) for a in zoo)
        assert not is_adversary(honest)
        idx = honest_indices([honest, zoo[0], honest, zoo[1]])
        assert list(idx) == [0, 2]

    @pytest.mark.parametrize("build", [
        lambda: BlasterRule(increment=0.0),
        lambda: BlasterRule(cap=-1.0),
        lambda: PinnedRateRule(rate=0.0),
        lambda: SawtoothRule(low=2.0, high=1.0),
        lambda: SawtoothRule(increase=float("inf")),
    ])
    def test_bad_parameters_raise(self, build):
        with pytest.raises(ChaosError):
            build()

    @pytest.mark.parametrize("rule", [
        BlasterRule(increment=0.2, cap=1.5), PinnedRateRule(rate=0.8),
        SawtoothRule(low=0.2, high=1.0, increase=0.3)])
    def test_delta_batch_matches_scalar(self, rule):
        rates = np.array([[0.1, 0.9, 1.4], [2.0, 0.5, 1.0]])
        got = rule.delta_batch(rates, np.zeros_like(rates),
                               np.ones_like(rates))
        want = [[rule.delta(r, 0.0, 1.0) for r in row] for row in rates]
        assert np.allclose(got, want, rtol=0, atol=0)

    def test_blaster_pins_at_cap(self):
        system = FlowControlSystem(
            single_gateway(2, mu=1.0), FairShare(), LinearSaturating(),
            [TargetRule(eta=0.1, beta=0.5),
             BlasterRule(increment=0.5, cap=2.0)],
            style=FeedbackStyle.INDIVIDUAL)
        traj = system.run(np.array([0.1, 0.1]), max_steps=4000)
        assert traj.final[1] == pytest.approx(2.0)


class TestFloorMonitor:
    def mixed(self, discipline):
        rules = [TargetRule(eta=0.1, beta=0.5)] * 3 + \
            [BlasterRule(increment=0.2, cap=5.0)]
        net = single_gateway(4, mu=1.0)
        system = FlowControlSystem(net, discipline, LinearSaturating(),
                                   rules,
                                   style=FeedbackStyle.INDIVIDUAL)
        final = system.run(np.full(4, 0.1), max_steps=6000).final
        return net, rules, final

    def test_fair_share_holds_fifo_violates(self):
        net, rules, final = self.mixed(FairShare())
        fs = check_robustness_floor(net, LinearSaturating(), rules,
                                    final)
        assert fs.holds and fs.worst >= 1.0 - 1e-5
        assert list(fs.honest) == [0, 1, 2]
        net, rules, final = self.mixed(Fifo())
        fifo = check_robustness_floor(net, LinearSaturating(), rules,
                                      final)
        assert not fifo.holds
        assert fifo.worst < 0.5
        assert "VIOLATED" in fifo.describe()

    def test_degraded_network_shrinks_the_floor(self):
        net = single_gateway(4, mu=1.0)
        rules = [TargetRule(eta=0.1, beta=0.5)] * 3 + [BlasterRule()]
        intact = check_robustness_floor(
            net, LinearSaturating(), rules, np.full(4, 0.2))
        degraded = check_robustness_floor(
            net.with_mu_factors({"g0": 0.5}), LinearSaturating(), rules,
            np.full(4, 0.2))
        assert np.allclose(degraded.floors, 0.5 * intact.floors)

    def test_all_adversaries_is_an_error(self):
        net = single_gateway(2, mu=1.0)
        with pytest.raises(ChaosError, match="every connection"):
            check_robustness_floor(net, LinearSaturating(),
                                   [BlasterRule(), PinnedRateRule()],
                                   np.array([1.0, 1.0]))

    def test_non_tsi_honest_rule_needs_explicit_rho(self):
        net = single_gateway(2, mu=1.0)
        rules = [RcpSourceRule(), BlasterRule()]
        with pytest.raises(ChaosError, match="not TSI"):
            check_robustness_floor(net, LinearSaturating(), rules,
                                   np.array([0.4, 0.4]))
        check = check_robustness_floor(net, LinearSaturating(), rules,
                                       np.array([0.4, 0.4]),
                                       rho_ss=(0.5, 0.5))
        assert check.honest.size == 1

    def test_shape_mismatches_raise(self):
        net = single_gateway(2, mu=1.0)
        rules = [TargetRule(eta=0.1, beta=0.5), BlasterRule()]
        with pytest.raises(ChaosError, match="one rate per"):
            check_robustness_floor(net, LinearSaturating(), rules,
                                   np.array([0.1]))
        with pytest.raises(ChaosError, match="one rule per"):
            check_robustness_floor(net, LinearSaturating(), rules[:1],
                                   np.array([0.1, 0.1]))


def chaos_spec(discipline="fair-share", adversaries=(), structural=None,
               n=4, **overrides):
    base = dict(
        name="chaos-unit",
        gateways=(GatewaySpec("g0", 1.0),),
        connections=tuple(ConnectionSpec(f"c{i}", ("g0",))
                          for i in range(n)),
        discipline=discipline,
        signal=SignalSpec(),
        style="individual",
        rules=(RuleSpec("target", {"eta": 0.1, "beta": 0.5}),) * n,
        initial_rates=(0.1,) * n,
        max_steps=6000,
        seed=9,
        adversaries=tuple(adversaries),
        structural_plan=structural,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestScenarioChaosGrammar:
    def test_adversary_spec_round_trips(self):
        adv = AdversarySpec(2, "blaster",
                            {"increment": 0.2, "cap": 3.0})
        assert AdversarySpec.from_dict(adv.to_dict()) == adv
        assert isinstance(adv.build(), BlasterRule)

    def test_unknown_adversary_kind(self):
        with pytest.raises(ScenarioError, match="unknown adversary"):
            AdversarySpec(0, "ddos")

    def test_adversary_index_validated_against_topology(self):
        with pytest.raises(ScenarioError, match="index"):
            chaos_spec(adversaries=(AdversarySpec(4),))
        with pytest.raises(ScenarioError, match="duplicate"):
            chaos_spec(adversaries=(AdversarySpec(1), AdversarySpec(1)))

    def test_structural_plan_round_trips(self):
        plan = StructuralPlanSpec(seed=7, injectors=(
            StructuralInjectorSpec("degrade",
                                   {"gateway": "g0", "factor": 0.5,
                                    "start": 10, "duration": 5}),
            StructuralInjectorSpec("blackhole",
                                   {"gateway": "g0", "start": 30,
                                    "duration": 4})))
        assert StructuralPlanSpec.from_dict(plan.to_dict()) == plan
        built = plan.build()
        assert built.seed == 7
        assert [inj.kind for inj in built.injectors] == \
            ["degrade", "blackhole"]

    def test_structural_injector_gateway_must_exist(self):
        plan = StructuralPlanSpec(injectors=(
            StructuralInjectorSpec("blackhole",
                                   {"gateway": "gX", "start": 0,
                                    "duration": 2}),))
        with pytest.raises(ScenarioError, match="gX"):
            chaos_spec(structural=plan)

    def test_spec_json_round_trips_with_chaos_fields(self):
        spec = chaos_spec(
            adversaries=(AdversarySpec(3, "sawtooth",
                                       {"low": 0.1, "high": 1.0,
                                        "increase": 0.1}),),
            structural=StructuralPlanSpec(seed=2, injectors=(
                StructuralInjectorSpec("degrade",
                                       {"gateway": "g0", "factor": 0.7,
                                        "start": 5, "duration": 9}),)))
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec
        assert again.chaotic
        assert again.adversary_indices() == (3,)
        assert again.honest_indices() == (0, 1, 2)

    def test_build_overrides_adversary_rules_only(self):
        spec = chaos_spec(adversaries=(AdversarySpec(1, "pinned",
                                                     {"rate": 0.9}),))
        system = spec.build()
        assert isinstance(system.rules[1], PinnedRateRule)
        assert isinstance(system.rules[0], TargetRule)
        # the spec's honest rules tuple is untouched
        assert all(r.kind == "target" for r in spec.rules)

    def test_drop_connection_remaps_adversaries(self):
        spec = chaos_spec(adversaries=(AdversarySpec(2),))
        dropped = spec.drop_connection(1)
        assert dropped.adversary_indices() == (1,)
        assert spec.drop_connection(2).adversaries == ()

    def test_controller_excludes_chaos(self):
        base = dict(
            name="rcp",
            gateways=(GatewaySpec("g0", 1.0),),
            connections=(ConnectionSpec("c0", ("g0",)),
                         ConnectionSpec("c1", ("g0",))),
            discipline="fifo",
            signal=SignalSpec(),
            style="individual",
            rules=(RuleSpec("rcp-source", {}),) * 2,
            initial_rates=(0.1, 0.1),
            max_steps=500,
            seed=1,
        )
        from repro.scenarios import ControllerSpec
        ctrl = ControllerSpec("rcp", {"alpha": 0.5, "beta": 0.05})
        with pytest.raises(ScenarioError, match="structural plan"):
            ScenarioSpec(controller=ctrl, structural_plan=
                         StructuralPlanSpec(injectors=(
                             StructuralInjectorSpec(
                                 "blackhole", {"gateway": "g0",
                                               "start": 0,
                                               "duration": 2}),)),
                         **base)
        with pytest.raises(ScenarioError, match="rcp-source"):
            ScenarioSpec(controller=ctrl,
                         adversaries=(AdversarySpec(0),), **base)


class TestAdversarialFloorOracle:
    BLASTER = (AdversarySpec(3, "blaster",
                             {"increment": 0.2, "cap": 5.0}),)

    def test_green_on_fair_share(self):
        ctx = ScenarioContext(chaos_spec(adversaries=self.BLASTER))
        result = run_oracle("adversarial-floor", ctx)
        assert result.applicable and result.passed

    def test_fires_on_fifo_with_one_blaster(self):
        # proportional-target converges under FIFO where the additive
        # target rule oscillates, so the oracle stays applicable
        ctx = ScenarioContext(chaos_spec(
            "fifo", adversaries=self.BLASTER,
            rules=(RuleSpec("proportional-target",
                            {"eta": 0.1, "beta": 0.5}),) * 4))
        result = run_oracle("adversarial-floor", ctx)
        assert result.applicable and not result.passed
        assert "VIOLATED" in result.detail

    def test_inapplicable_without_adversaries(self):
        result = run_oracle("adversarial-floor",
                            ScenarioContext(chaos_spec()))
        assert not result.applicable

    def test_theorem_oracles_step_aside_on_chaotic_specs(self):
        ctx = ScenarioContext(chaos_spec(adversaries=self.BLASTER))
        for name in ("tsi", "fairness-manifold", "fs-floor",
                     "steady-signal"):
            result = run_oracle(name, ctx)
            assert not result.applicable, name

    def test_fault_determinism_covers_structural_plans(self):
        plan = StructuralPlanSpec(seed=4, injectors=(
            StructuralInjectorSpec("degrade",
                                   {"gateway": "g0", "factor": 0.5,
                                    "start": 20, "duration": 15}),))
        ctx = ScenarioContext(chaos_spec(structural=plan,
                                         max_steps=400))
        result = run_oracle("fault-determinism", ctx)
        assert result.applicable and result.passed
        assert "structural transitions" in result.detail


class TestControllerExclusionGuards:
    def controlled(self):
        return FlowControlSystem(
            single_gateway(2, mu=2.0), Fifo(), LinearSaturating(),
            RcpSourceRule(), style=FeedbackStyle.INDIVIDUAL,
            controller=RcpController(alpha=0.5, beta=0.05))

    STRUCTURAL = StructuralFaultPlan(
        injectors=(GatewayBlackhole("g0", start=0, duration=2),))
    FAULTS = FaultPlan(injectors=(SignalLoss(0.5),))

    def test_structural_with_controller_raises_scalar_and_batch(self):
        system = self.controlled()
        with pytest.raises(SweepError, match="structural"):
            system.run(np.array([0.1, 0.1]), max_steps=50,
                       structural=self.STRUCTURAL)
        with pytest.raises(SweepError, match="structural"):
            system.run_ensemble(np.full((3, 2), 0.1), max_steps=50,
                                structural=self.STRUCTURAL)

    def test_faults_with_controller_raises_scalar_and_batch(self):
        system = self.controlled()
        with pytest.raises(SweepError, match="fault"):
            system.run(np.array([0.1, 0.1]), max_steps=50,
                       faults=self.FAULTS)
        with pytest.raises(SweepError, match="fault"):
            system.run_ensemble(np.full((3, 2), 0.1), max_steps=50,
                                faults=self.FAULTS)

    def test_empty_plans_stay_legal_with_controller(self):
        system = self.controlled()
        traj = system.run(np.array([0.1, 0.1]), max_steps=50,
                          structural=StructuralFaultPlan(),
                          faults=FaultPlan())
        assert traj.structural_events is None


class TestRetryBackoff:
    def test_schedule_is_reproducible_from_seed(self):
        first = [_retry_backoff(0.5, r, [7, r]) for r in (1, 2, 3)]
        again = [_retry_backoff(0.5, r, [7, r]) for r in (1, 2, 3)]
        assert first == again
        other = [_retry_backoff(0.5, r, [8, r]) for r in (1, 2, 3)]
        assert first != other

    def test_exponential_base_with_bounded_jitter(self):
        for r in (1, 2, 3):
            base = 0.5 * 2 ** (r - 1)
            value = _retry_backoff(0.5, r, [0, r])
            assert 0.5 * base <= value < 1.5 * base

    def test_zero_backoff_never_sleeps(self):
        assert _retry_backoff(0.0, 3, [0, 3]) == 0.0

    def test_sweep_sleeps_identically_for_the_same_seed(
            self, monkeypatch):
        from tests.unit.test_resilient_sweep import _patched_submit

        def run(seed):
            sleeps = []
            with pytest.MonkeyPatch.context() as mp:
                _patched_submit(
                    mp, lambda first, attempt:
                        OSError("flaky") if attempt == 0 else None)
                mp.setattr(parallel_mod.time, "sleep", sleeps.append)
                out = sweep(_square, list(range(8)), workers=2,
                            executor="thread", retries=2, backoff=0.25,
                            seed=seed)
            assert out == [x * x for x in range(8)]
            return sleeps

        assert run(3) == run(3)
        assert run(3) != run(4)


def _square(x):
    return x * x
