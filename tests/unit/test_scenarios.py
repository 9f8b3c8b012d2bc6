"""Unit tests for the scenario-fuzzing subsystem's building blocks:
spec validation and serialisation, deterministic generation, budget
validation, and the shrinker's structural edits."""

import json

import numpy as np
import pytest

from repro.errors import OracleError, ScenarioError, SweepError
from repro.scenarios import (SCENARIO_SCHEMA, ConnectionSpec,
                             ControllerSpec, FaultPlanSpec, GatewaySpec,
                             InjectorSpec, RuleSpec, ScenarioSpec,
                             SignalSpec, generate, generate_spec,
                             oracle_names, run_oracle, validate_budget)
from repro.scenarios.generator import MAX_SHRINK_ITERS
from repro.scenarios.oracles import ScenarioContext


def small_spec(**overrides):
    """A hand-built two-connection scenario, overridable per test."""
    base = dict(
        name="unit",
        gateways=(GatewaySpec("g0", 1.0),),
        connections=(ConnectionSpec("c0", ("g0",)),
                     ConnectionSpec("c1", ("g0",))),
        discipline="fair-share",
        signal=SignalSpec(),
        style="individual",
        rules=(RuleSpec("proportional-target",
                        {"eta": 0.5, "beta": 0.4}),) * 2,
        initial_rates=(0.2, 0.3),
        max_steps=800,
        seed=5,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestSpecValidation:
    def test_builds_and_runs(self):
        spec = small_spec()
        traj = spec.build().run(spec.initial(), max_steps=spec.max_steps)
        assert traj.final.shape == (2,)

    def test_rule_count_must_match_connections(self):
        with pytest.raises(ScenarioError, match="one rule per"):
            small_spec(rules=(RuleSpec("target", {}),))

    def test_initial_rate_count_must_match(self):
        with pytest.raises(ScenarioError, match="one initial rate"):
            small_spec(initial_rates=(0.2,))

    def test_initial_rates_strictly_positive(self):
        with pytest.raises(ScenarioError, match="strictly"):
            small_spec(initial_rates=(0.2, 0.0))

    def test_unknown_rule_kind(self):
        with pytest.raises(ScenarioError, match="unknown rule kind"):
            RuleSpec("tcp-cubic", {})

    def test_unknown_rule_parameter(self):
        with pytest.raises(ScenarioError, match="unknown parameter"):
            RuleSpec("target", {"eta": 0.1, "gamma": 2.0})

    def test_unknown_signal_kind(self):
        with pytest.raises(ScenarioError, match="unknown signal kind"):
            SignalSpec("sigmoid", 1.0)

    def test_unknown_discipline(self):
        with pytest.raises(ScenarioError, match="unknown discipline"):
            small_spec(discipline="round-robin")

    def test_path_through_unknown_gateway(self):
        with pytest.raises(ScenarioError, match="unknown gateways"):
            small_spec(connections=(ConnectionSpec("c0", ("g0",)),
                                    ConnectionSpec("c1", ("gX",))))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            small_spec(connections=(ConnectionSpec("c0", ("g0",)),
                                    ConnectionSpec("c0", ("g0",))))

    def test_weighted_requires_weights(self):
        with pytest.raises(ScenarioError, match="requires weights"):
            small_spec(discipline="weighted-fair-share")

    def test_weighted_requires_full_crossing(self):
        with pytest.raises(ScenarioError, match="every connection"):
            small_spec(
                gateways=(GatewaySpec("g0", 1.0), GatewaySpec("g1", 1.0)),
                connections=(ConnectionSpec("c0", ("g0", "g1")),
                             ConnectionSpec("c1", ("g0",))),
                discipline="weighted-fair-share",
                weights=(1.0, 2.0))

    def test_weighted_full_crossing_accepted(self):
        spec = small_spec(discipline="weighted-fair-share",
                          weights=(1.0, 2.0))
        assert spec.build().scheme.weights is not None

    def test_rule_params_order_is_canonical(self):
        a = RuleSpec("target", {"eta": 0.1, "beta": 0.5})
        b = RuleSpec("target", (("beta", 0.5), ("eta", 0.1)))
        assert a == b and hash(a) == hash(b)

    def test_bad_injector_params_fail_at_spec_level(self):
        # ExtraDelay(0, 0) is a no-op the fault layer rejects; the spec
        # layer must surface that as ScenarioError at build time.
        plan = FaultPlanSpec(
            seed=1,
            injectors=(InjectorSpec("delay",
                                    {"delay": 0, "jitter": 0}),))
        with pytest.raises(ScenarioError, match="injector"):
            plan.build()

    def test_homogeneous_rules_share_one_object(self):
        system = small_spec().build()
        assert system.rules[0] is system.rules[1]
        assert system.homogeneous


class TestSpecSerialisation:
    def test_json_round_trip_exact(self):
        spec = small_spec(
            fault_plan=FaultPlanSpec(
                seed=3,
                injectors=(InjectorSpec("loss",
                                        {"rate": 0.25,
                                         "connections": (0,)}),)))
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_schema_field_embedded(self):
        data = json.loads(small_spec().to_json())
        assert data["schema"] == SCENARIO_SCHEMA

    def test_wrong_schema_rejected(self):
        data = small_spec().to_dict()
        data["schema"] = "repro.scenario-spec/v999"
        with pytest.raises(ScenarioError, match="unsupported"):
            ScenarioSpec.from_dict(data)

    def test_missing_field_rejected(self):
        data = small_spec().to_dict()
        del data["rules"]
        with pytest.raises(ScenarioError, match="missing field"):
            ScenarioSpec.from_dict(data)

    def test_invalid_json_rejected(self):
        with pytest.raises(ScenarioError, match="not valid JSON"):
            ScenarioSpec.from_json("{nope")

    @pytest.mark.parametrize("mutate", [
        lambda d: d.update(initial_rates=["x"] * len(d["initial_rates"])),
        lambda d: d.update(weights=["x"] * len(d["initial_rates"])),
        lambda d: d["rules"][0].update(params="abc"),
        lambda d: d.update(fault_plan="loss"),
        lambda d: d.update(structural_plan="cut"),
    ], ids=["initial_rates", "weights", "rule-params", "fault_plan",
            "structural_plan"])
    def test_malformed_field_rejected(self, mutate):
        data = json.loads(generate_spec(3, 0).to_json())
        mutate(data)
        with pytest.raises(ScenarioError, match="malformed"):
            ScenarioSpec.from_json(json.dumps(data))


class TestStructuralEdits:
    def test_drop_connection_prunes_unused_gateways(self):
        spec = small_spec(
            gateways=(GatewaySpec("g0", 1.0), GatewaySpec("g1", 2.0)),
            connections=(ConnectionSpec("c0", ("g0",)),
                         ConnectionSpec("c1", ("g1",))))
        dropped = spec.drop_connection(1)
        assert dropped.num_connections == 1
        assert tuple(g.name for g in dropped.gateways) == ("g0",)
        assert dropped.initial_rates == (0.2,)

    def test_drop_connection_keeps_weights_aligned(self):
        spec = small_spec(discipline="weighted-fair-share",
                          weights=(1.0, 2.0))
        assert spec.drop_connection(0).weights == (2.0,)

    def test_cannot_drop_last_connection(self):
        spec = small_spec().drop_connection(0)
        with pytest.raises(ScenarioError, match="last connection"):
            spec.drop_connection(0)

    def test_rounding_never_produces_zero(self):
        spec = small_spec(initial_rates=(0.004, 0.3))
        rounded = spec.with_rounded_values(1)
        assert min(rounded.initial_rates) > 0


class TestGenerator:
    def test_same_seed_same_specs(self):
        assert generate(3, 20) == generate(3, 20)

    def test_index_addressable(self):
        specs = generate(3, 20)
        for i in (0, 7, 19):
            assert generate_spec(3, i) == specs[i]

    def test_different_seeds_differ(self):
        assert generate(3, 10) != generate(4, 10)

    def test_generated_specs_build_and_round_trip(self):
        for spec in generate(5, 15):
            spec.build()
            spec.build_fault_plan()
            assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_families_covered(self):
        specs = generate(7, 60)
        assert {s.discipline for s in specs} == {
            "fifo", "fair-share", "weighted-fair-share"}
        assert {s.style for s in specs} == {"aggregate", "individual"}
        assert any(s.fault_plan is not None for s in specs)
        assert any(not s.homogeneous for s in specs)
        assert any(len(s.gateways) > 1 for s in specs)


class TestBudgetValidation:
    def test_valid_budget_passes_through(self):
        assert validate_budget(7, 50) == (7, 50, MAX_SHRINK_ITERS)

    @pytest.mark.parametrize("count", [0, -1, -50])
    def test_nonpositive_count_rejected(self, count):
        with pytest.raises(SweepError, match="count must be positive"):
            validate_budget(7, count)

    @pytest.mark.parametrize("seed", [1.5, "7", None, True])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(SweepError, match="seed must be"):
            validate_budget(seed, 10)

    @pytest.mark.parametrize("count", [2.0, "10", False])
    def test_non_integer_count_rejected(self, count):
        with pytest.raises(SweepError, match="count must be"):
            validate_budget(7, count)

    def test_negative_seed_rejected(self):
        with pytest.raises(SweepError, match=">= 0"):
            validate_budget(-1, 10)

    def test_shrink_iters_clamped_not_rejected(self):
        assert validate_budget(7, 1, 10**9)[2] == MAX_SHRINK_ITERS
        assert validate_budget(7, 1, -5)[2] == 1
        assert validate_budget(7, 1, 17)[2] == 17

    def test_numpy_integers_accepted(self):
        seed, count, _ = validate_budget(np.int64(7), np.int64(3))
        assert (seed, count) == (7, 3)


class TestOracleDispatch:
    def test_unknown_oracle_name_raises(self):
        ctx = ScenarioContext(small_spec())
        with pytest.raises(OracleError, match="unknown oracle"):
            run_oracle("vibes", ctx)

    def test_catalogue_names_are_stable(self):
        assert "batch-equivalence" in oracle_names()
        assert "tsi" in oracle_names()
        assert "fault-determinism" in oracle_names()


class TestControllerSpec:
    def controlled_spec(self, **overrides):
        base = dict(
            rules=(RuleSpec("rcp-source"),) * 2,
            controller=ControllerSpec("rcp", {"alpha": 0.5,
                                              "beta": 0.05,
                                              "fill": 0.4}))
        base.update(overrides)
        return small_spec(**base)

    def test_round_trips_through_json(self):
        spec = self.controlled_spec()
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec
        assert again.controller.params == spec.controller.params

    def test_build_produces_controlled_system(self):
        system = self.controlled_spec().build()
        assert system.controlled
        assert system.controller.alpha == 0.5

    def test_unknown_controller_kind_rejected(self):
        with pytest.raises(ScenarioError):
            ControllerSpec("xcp", {})

    def test_controller_requires_rcp_source_rules(self):
        with pytest.raises(ScenarioError):
            self.controlled_spec(
                rules=(RuleSpec("target", {"eta": 0.1, "beta": 0.5}),) * 2)

    def test_rcp_source_rules_require_controller(self):
        with pytest.raises(ScenarioError):
            small_spec(rules=(RuleSpec("rcp-source"),) * 2)

    def test_controller_excludes_fault_plan(self):
        plan = FaultPlanSpec(
            seed=1, injectors=(InjectorSpec("delay", {"delay": 1,
                                                      "jitter": 0}),))
        with pytest.raises(ScenarioError):
            self.controlled_spec(fault_plan=plan)


class TestGeneratorZoo:
    def test_zoo_scenarios_are_deterministic(self):
        for index in range(40):
            assert generate_spec(23, index) == generate_spec(23, index)

    def test_zoo_produces_both_controller_kinds(self):
        specs = generate(23, 60)
        assert any(s.controller is not None for s in specs)
        assert any(s.controller is None and s.homogeneous
                   and s.rules[0].kind == "tcp-like" for s in specs)

    def test_rcp_scenarios_are_well_formed(self):
        for spec in generate(23, 60):
            if spec.controller is None:
                continue
            assert spec.fault_plan is None
            assert all(r.kind == "rcp-source" for r in spec.rules)
            alpha = dict(spec.controller.params)["alpha"]
            assert 0.3 <= alpha <= 0.8  # safely inside s < 2
            spec.build()  # must construct a controlled system
