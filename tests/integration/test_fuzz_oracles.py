"""Integration tests for the fuzzing harness: every oracle fires on a
known-bad scenario, the shrinker produces minimal still-failing
reproducers, the artifact/CLI wiring works, and a 25-scenario smoke
sweep over the real engines passes the whole catalogue."""

import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.dynamics import Outcome, Trajectory
from repro.backends import _cext, compiled
from repro.core.fairshare import FairShare, cumulative_loads_batch
from repro.core.math_utils import g
from repro.core.steadystate import predicted_steady_state
from repro.core.weighted import WeightedFairShare
from repro.errors import ScenarioError, SweepError
from repro.faults.plan import FaultState
from repro.observability.artifacts import validate_artifact
from repro.scenarios import (ClockSpec, ConnectionSpec, ControllerSpec,
                             FaultPlanSpec, GatewaySpec, InjectorSpec,
                             RuleSpec, ScenarioSpec, SignalSpec,
                             StructuralInjectorSpec, StructuralPlanSpec,
                             failing_oracles, fuzz, generate,
                             run_scenario, shrink)
from repro.scenarios import oracles
from repro.scenarios.oracles import ScenarioContext, run_oracle
from repro.simulation.network_sim import NetworkSimulation


def _use_kernel_mutant(monkeypatch, tmp_path, original, mutated):
    """Build the C library with ``original`` replaced by ``mutated``
    into ``tmp_path`` and load it for the rest of the test."""
    assert _cext._SOURCE.count(original) == 1
    monkeypatch.setattr(_cext, "_SOURCE",
                        _cext._SOURCE.replace(original, mutated))
    monkeypatch.setenv("REPRO_CC_CACHE", str(tmp_path))
    for name, fresh in (("_LOADED", False), ("_LIB", None), ("_ERR", None),
                        ("_BUILD_SECONDS", 0.0), ("_FROM_CACHE", False)):
        monkeypatch.setattr(_cext, name, fresh)
    assert _cext.load() is not None, _cext.load_error()


def spec_of(n=3, discipline="fair-share", style="individual",
            rule=None, mu=1.0, fault_plan=None, name="bad", seed=5,
            weights=None):
    rule = rule or RuleSpec("proportional-target",
                            {"eta": 0.5, "beta": 0.5})
    return ScenarioSpec(
        name=name,
        gateways=(GatewaySpec("g0", mu),),
        connections=tuple(ConnectionSpec(f"c{i}", ("g0",))
                          for i in range(n)),
        discipline=discipline,
        signal=SignalSpec(),
        style=style,
        rules=(rule,) * n,
        initial_rates=tuple(0.1 + 0.05 * i for i in range(n)),
        max_steps=1500,
        seed=seed,
        fault_plan=fault_plan,
        weights=weights,
    )


def break_reference_law(monkeypatch):
    """Break the Fair Share law on the scalar reference path only: the
    paper's recursion that :func:`reference_step` evaluates and the
    engine never calls."""
    orig = oracles.fair_share_queues_recursive

    def broken(rates, mu):
        q = np.array(orig(rates, mu), dtype=float)
        if q.shape[0] and np.isfinite(q[-1]):
            q[-1] += 0.01
        return q

    monkeypatch.setattr(oracles, "fair_share_queues_recursive", broken)


def doctored_context(spec, fake_final):
    """A context whose reference trajectory *claims* convergence to
    ``fake_final`` — the oracle under test must notice the lie."""
    ctx = ScenarioContext(spec)
    final = np.asarray(fake_final, dtype=float)
    ctx._trajectory = Trajectory(
        history=np.stack([spec.initial(), final]),
        outcome=Outcome.CONVERGED, period=1, steps=1)
    return ctx


class TestEveryOracleFires:
    """Each oracle catches the specific violation it exists for."""

    def test_batch_equivalence_catches_scalar_only_mutation(
            self, monkeypatch):
        break_reference_law(monkeypatch)
        fails = failing_oracles(spec_of(), ["batch-equivalence"])
        assert fails == ("batch-equivalence",)

    def test_batch_equivalence_catches_kernel_mutation(self, monkeypatch):
        # A mutant sorted kernel that shares class k among n - k + 1
        # connections instead of n - k, run on the numpy path.
        def mutant(self, rates, mu):
            r = np.asarray(rates, dtype=float)
            m, n = r.shape
            order = np.argsort(r, axis=1, kind="stable")
            srt = np.take_along_axis(r, order, axis=1)
            g_sigma = g(cumulative_loads_batch(r, mu, sorted_rates=srt))
            finite = np.isfinite(g_sigma)
            g_prev = np.concatenate([np.zeros((m, 1)), g_sigma[:, :-1]],
                                    axis=1)
            with np.errstate(invalid="ignore"):
                shares = (g_sigma - g_prev) / (n - np.arange(n) + 1.0)
            q = np.where(finite,
                         np.cumsum(np.where(finite, shares, 0.0), axis=1),
                         np.inf)
            q[srt == 0.0] = 0.0
            out = np.empty_like(q)
            np.put_along_axis(out, order, q, axis=1)
            return out

        assert failing_oracles(spec_of(), ["batch-equivalence"]) == ()
        monkeypatch.setattr(_cext, "load", lambda: None)
        monkeypatch.setattr(FairShare, "queue_lengths_batch", mutant)
        fails = failing_oracles(spec_of(), ["batch-equivalence"])
        assert fails == ("batch-equivalence",)

    def test_batch_equivalence_catches_weighted_kernel_mutation(
            self, monkeypatch):
        # A mutant weighted kernel that splits class k by n - k, the
        # unweighted class size, instead of the weight at or above k.
        def mutant(self, rates, mu):
            r = np.asarray(rates, dtype=float)
            m, n = r.shape
            v = r / self.weights
            order = np.argsort(v, axis=1, kind="stable")
            srt = np.take_along_axis(r, order, axis=1)
            phi = self.weights[order]
            above = np.cumsum(phi[:, ::-1], axis=1)[:, ::-1] - phi
            g_sigma = g((np.cumsum(srt, axis=1)
                         + np.take_along_axis(v, order, axis=1) * above)
                        / mu)
            finite = np.isfinite(g_sigma)
            g_prev = np.concatenate([np.zeros((m, 1)), g_sigma[:, :-1]],
                                    axis=1)
            with np.errstate(invalid="ignore"):
                shares = (g_sigma - g_prev) / (n - np.arange(n))
            q = np.where(finite,
                         np.cumsum(np.where(finite, shares, 0.0), axis=1)
                         * phi, np.inf)
            q[srt == 0.0] = 0.0
            out = np.empty_like(q)
            np.put_along_axis(out, order, q, axis=1)
            return out

        spec = spec_of(discipline="weighted-fair-share",
                       weights=(1.0, 2.0, 3.0))
        assert failing_oracles(spec, ["batch-equivalence"]) == ()
        monkeypatch.setattr(_cext, "load", lambda: None)
        monkeypatch.setattr(WeightedFairShare, "queue_lengths_batch",
                            mutant)
        fails = failing_oracles(spec, ["batch-equivalence"])
        assert fails == ("batch-equivalence",)

    @pytest.mark.skipif(not compiled.fs_available(),
                        reason="no compiled observe kernel")
    def test_batch_equivalence_catches_observe_kernel_mutation(
            self, monkeypatch):
        # The C-path twin: a mutant observe kernel that runs the
        # unweighted law at weighted Fair Share gateways.
        orig = compiled.observe_batch

        def mutant(rates, plan, with_delays):
            n_gw, gw_ptr, members, mu, law, _, measure, phi = plan.args
            unweighted = SimpleNamespace(
                n=plan.n, latency=plan.latency,
                args=(n_gw, gw_ptr, members, mu, law, None, measure, phi))
            return orig(rates, unweighted, with_delays)

        spec = spec_of(discipline="weighted-fair-share",
                       weights=(1.0, 2.0, 3.0))
        assert failing_oracles(spec, ["batch-equivalence"]) == ()
        monkeypatch.setattr(compiled, "observe_batch", mutant)
        fails = failing_oracles(spec, ["batch-equivalence"])
        assert fails == ("batch-equivalence",)

    def test_ensemble_equivalence_catches_scalar_only_mutation(
            self, monkeypatch):
        # With the C tier masked, ``run`` and ``run_ensemble`` both
        # advance through the batch stepper ``_step_rows``; ``run`` is
        # its one-row call from the first step, a blocked member only
        # once its block partner has finished.  The mutant sits on what
        # only a one-row batch sees, and reference_run, which steps
        # connection by connection, never calls the stepper.
        from repro.core.dynamics import FlowControlSystem
        orig = FlowControlSystem._step_rows

        def broken(self, r, *args, **kwargs):
            out = orig(self, r, *args, **kwargs)
            if out.shape[0] == 1:
                out[0, -1] += 1e-6
            return out

        monkeypatch.setattr(_cext, "load", lambda: None)
        monkeypatch.setattr(FlowControlSystem, "_step_rows", broken)
        fails = failing_oracles(spec_of(), ["loop-equivalence"])
        assert fails == ("loop-equivalence",)

    @pytest.mark.skipif(not compiled.fs_available(),
                        reason="no compiled ensemble loop")
    def test_ensemble_equivalence_catches_run_loop_mutation(
            self, monkeypatch):
        # The C-path twin: ``run`` is the compiled ensemble loop's
        # one-member call with its history as the full history, so the
        # mutant perturbs the last row that call writes, which the
        # ensemble's blocks never see.
        orig = compiled.ensemble_loop

        def broken(initials, *args, full=None, **kwargs):
            out = orig(initials, *args, full=full, **kwargs)
            if out is not None and full is not None \
                    and initials.shape[0] == 1:
                full[0, out[1][0], -1] += 1e-6
            return out

        monkeypatch.setattr(compiled, "ensemble_loop", broken)
        fails = failing_oracles(spec_of(), ["loop-equivalence"])
        assert fails == ("loop-equivalence",)

    @pytest.mark.skipif(not compiled.fs_available(),
                        reason="no compiled ensemble loop")
    def test_a_shared_kernel_mutant_is_caught_off_the_kernel(
            self, monkeypatch, tmp_path):
        # Both engine sides of loop-equivalence, the blocked ensemble
        # and its M = 1 call, run on the compiled ensemble loop, so
        # they share a mutant in it: here, members converging one quiet
        # step late.  reference_run, the per-connection loop, catches
        # it on a pinned clocked scenario of the seed-7 stream.
        spec = generate(7, 21)[20]
        names = ["loop-equivalence"]
        assert failing_oracles(spec, names) == ()
        _use_kernel_mutant(monkeypatch, tmp_path,
                           "quiet >= settle[k]", "quiet > settle[k]")
        assert failing_oracles(spec, names) == ("loop-equivalence",)

    @pytest.mark.skipif(not compiled.fs_available(),
                        reason="no compiled ensemble loop")
    @pytest.mark.parametrize("mutant", ["loss-test", "outage-window",
                                        "degraded-gateway"])
    def test_a_perturb_stage_mutant_is_caught_off_the_kernel(
            self, monkeypatch, tmp_path, mutant):
        # ``run`` and ``run_ensemble`` share the kernel's perturb
        # stages, so only fault-determinism's reference_run, on the
        # Python stages, can see a mutant in them (loop-equivalence
        # runs no plans).
        if mutant == "loss-test":
            # A loss rate equal to connection 1's first draw: only the
            # strict test keeps its signal at step 1.
            rate = float(np.random.default_rng([3, 0]).random(3)[1])
            spec = spec_of(fault_plan=FaultPlanSpec(seed=3, injectors=(
                InjectorSpec("loss", {"rate": rate}),)))
            original = "if (w->draws[i] < rate) {"
            mutated = "if (w->draws[i] <= rate) {"
        elif mutant == "outage-window":
            spec = spec_of(fault_plan=FaultPlanSpec(seed=3, injectors=(
                InjectorSpec("outage", {"start": 5, "duration": 3}),)))
            original = "window_active(step, fi[1]"
            mutated = "window_active(step + 1, fi[1]"
        else:
            spec = dataclasses.replace(
                spec_of(),
                gateways=(GatewaySpec("g0", 1.0), GatewaySpec("g1", 1.0)),
                connections=(ConnectionSpec("c0", ("g0",)),
                             ConnectionSpec("c1", ("g0", "g1")),
                             ConnectionSpec("c2", ("g1",))),
                structural_plan=StructuralPlanSpec(seed=1, injectors=(
                    StructuralInjectorSpec("degrade", {
                        "gateway": "g0", "factor": 0.5, "start": 3,
                        "duration": 10}),)))
            original = "w->fac[pt->si[4 * j]] *= "
            mutated = "w->fac[(pt->si[4 * j] + 1) % n_gw] *= "
        assert failing_oracles(spec) == ()
        _use_kernel_mutant(monkeypatch, tmp_path, original, mutated)
        assert failing_oracles(spec) == ("fault-determinism",)

    def test_blocked_equivalence_catches_row_position_dependence(
            self, monkeypatch):
        # A kernel that leaks the batch-row *position* into the result
        # leaves member 0 and the M = 1 call alone, but member 3 sits at
        # row 1 of its block — the differential fires.  With the
        # compiled ensemble loop unavailable, ``run_ensemble`` advances
        # through the batch stepper.
        from repro.core.dynamics import FlowControlSystem
        orig = FlowControlSystem._step_rows

        def broken(self, r, *args):
            out = np.array(orig(self, r, *args), dtype=float)
            return out + 1e-6 * np.arange(out.shape[0])[:, None]

        with monkeypatch.context() as m:
            m.setattr(compiled, "ensemble_loop", lambda *a, **k: None)
            m.setattr(FlowControlSystem, "_step_rows", broken)
            fails = failing_oracles(spec_of(), ["loop-equivalence"])
        assert fails == ("loop-equivalence",)
        if not compiled.fs_available():
            return
        # The C-path twin: the compiled loop's finals shifted by their
        # row in the block.
        loop = compiled.ensemble_loop

        def leaky(*args, **kwargs):
            out = loop(*args, **kwargs)
            if out is not None:
                out[0][:] += 1e-6 * np.arange(out[0].shape[0])[:, None]
            return out

        monkeypatch.setattr(compiled, "ensemble_loop", leaky)
        fails = failing_oracles(spec_of(), ["loop-equivalence"])
        assert fails == ("loop-equivalence",)

    def test_loop_equivalence_checks_a_later_block(self, monkeypatch):
        # A slip in a later block's member offset: the second block
        # files its two histories under each other's members.  The
        # first block and the M = 1 call are untouched, so only a
        # reference held to a member of the second block sees it.
        from repro.core.dynamics import FlowControlSystem
        orig = FlowControlSystem._run_block

        def slipped(self, res, base, end, *args):
            orig(self, res, base, end, *args)
            if base > 0 and res.histories is not None:
                res.histories[base:end] = res.histories[base:end][::-1]

        assert failing_oracles(spec_of(), ["loop-equivalence"]) == ()
        monkeypatch.setattr(FlowControlSystem, "_run_block", slipped)
        fails = failing_oracles(spec_of(), ["loop-equivalence"])
        assert fails == ("loop-equivalence",)

    def test_kernel_equivalence_catches_engine_skew(self, monkeypatch):
        orig = NetworkSimulation.throughput

        def skewed(self):
            thr = np.array(orig(self), dtype=float)
            if self.engine == "fast":
                thr = thr + 1e-9
            return thr

        monkeypatch.setattr(NetworkSimulation, "throughput", skewed)
        fails = failing_oracles(spec_of(discipline="fifo"),
                                ["kernel-equivalence"])
        assert fails == ("kernel-equivalence",)

    def test_compiled_equivalence_catches_compiled_kernel_skew(
            self, monkeypatch):
        from repro.backends import compiled
        if compiled.fifo_lib() is None:
            pytest.skip("no C tier: the oracle reports not-applicable")
        orig = NetworkSimulation.throughput

        def skewed(self):
            thr = np.array(orig(self), dtype=float)
            if self.engine == "compiled":
                thr = thr + 1e-9
            return thr

        monkeypatch.setattr(NetworkSimulation, "throughput", skewed)
        fails = failing_oracles(spec_of(discipline="fifo"),
                                ["compiled-equivalence"])
        assert fails == ("compiled-equivalence",)

    def test_compiled_equivalence_passes_on_healthy_fifo(self):
        res = run_oracle("compiled-equivalence",
                         ScenarioContext(spec_of(discipline="fifo")))
        from repro.backends import compiled
        if compiled.fifo_lib() is None:
            assert not res.applicable
        else:
            assert res.applicable and res.passed
            assert "bit-identical" in res.detail

    def test_compiled_equivalence_inapplicable_off_fifo(self):
        res = run_oracle("compiled-equivalence",
                         ScenarioContext(spec_of()))
        assert not res.applicable

    def test_fixed_point_catches_non_stationary_final(self):
        spec = spec_of()
        ctx = doctored_context(spec, spec.initial())
        res = run_oracle("fixed-point", ctx)
        assert res.applicable and not res.passed

    def test_tsi_catches_scale_dependent_steady_state(self):
        spec = spec_of()
        true_final = spec.build().run(spec.initial(),
                                      max_steps=spec.max_steps).final
        ctx = doctored_context(spec, 0.7 * true_final)
        res = run_oracle("tsi", ctx)
        assert res.applicable and not res.passed

    def test_fairness_manifold_catches_off_manifold_point(self):
        spec = spec_of(style="aggregate", discipline="fifo")
        # Every gateway strictly below rho_ss: not a steady state.
        ctx = doctored_context(spec, [0.01] * spec.num_connections)
        res = run_oracle("fairness-manifold", ctx)
        assert res.applicable and not res.passed

    def test_fs_floor_catches_starved_connection(self):
        spec = spec_of()
        ctx = doctored_context(spec, [0.01] * spec.num_connections)
        res = run_oracle("fs-floor", ctx)
        assert res.applicable and not res.passed

    def test_stability_catches_repelling_fixed_point(self):
        # eta=10 makes the fair point an exact but *repelling* fixed
        # point (spectral radius 4); a trajectory claiming convergence
        # there is lying, and the stability oracle must say so.
        spec = spec_of(n=2, rule=RuleSpec("proportional-target",
                                          {"eta": 10.0, "beta": 0.5}))
        r_star = predicted_steady_state(spec.build())
        ctx = doctored_context(spec, r_star)
        fp = run_oracle("fixed-point", ctx)
        assert fp.applicable and fp.passed  # it IS a fixed point...
        res = run_oracle("stability", ctx)
        assert res.applicable and not res.passed  # ...but repelling

    def test_steady_signal_catches_off_target_signal(self):
        spec = spec_of()
        true_final = spec.build().run(spec.initial(),
                                      max_steps=spec.max_steps).final
        ctx = doctored_context(spec, 0.5 * true_final)
        res = run_oracle("steady-signal", ctx)
        assert res.applicable and not res.passed

    def test_fault_determinism_catches_unseeded_state(self, monkeypatch):
        orig = FaultState.apply
        leak = {"n": 0}

        def flaky(self, step, true_signals):
            out = np.array(orig(self, step, true_signals), dtype=float)
            leak["n"] += 1
            return np.clip(out + 1e-6 * leak["n"], 0.0, 1.0)

        monkeypatch.setattr(FaultState, "apply", flaky)
        plan = FaultPlanSpec(seed=3, injectors=(
            InjectorSpec("quantise", {"levels": 8}),))
        fails = failing_oracles(spec_of(fault_plan=plan),
                                ["fault-determinism"])
        assert fails == ("fault-determinism",)


class TestShrinker:
    def test_fair_share_queue_law_mutation_shrinks_small(
            self, monkeypatch):
        # Break the Fair Share queue law on the scalar reference path
        # only, fuzz until an oracle fires, and shrink the failure to
        # <= 3 connections.
        break_reference_law(monkeypatch)
        target = next(s for s in generate(7, 50)
                      if s.discipline == "fair-share")
        fails = failing_oracles(target)
        assert "batch-equivalence" in fails
        result = shrink(target, oracles=["batch-equivalence"])
        assert result.spec.num_connections <= 3
        assert "batch-equivalence" in failing_oracles(
            result.spec, ["batch-equivalence"])
        # The reproducer round-trips through JSON like any spec.
        assert ScenarioSpec.from_json(result.spec.to_json()) == \
            result.spec

    def test_shrinking_a_healthy_spec_raises(self):
        with pytest.raises(ScenarioError, match="violates no oracle"):
            shrink(spec_of())

    def test_shrink_respects_iteration_cap(self, monkeypatch):
        break_reference_law(monkeypatch)
        result = shrink(spec_of(n=5), oracles=["batch-equivalence"],
                        max_iters=3)
        assert result.evaluations <= 3


class TestHarnessAndCli:
    def test_fuzz_writes_schema_valid_artifacts(self, tmp_path):
        report = fuzz(7, 3, json_dir=tmp_path)
        assert report.passed
        files = sorted(tmp_path.glob("fuzz-7-*.json"))
        assert len(files) == 3
        for path in files:
            artifact = json.loads(path.read_text())
            assert validate_artifact(artifact) == []
            # The embedded spec reproduces the scenario exactly.
            spec = ScenarioSpec.from_json(
                artifact["experiment"]["notes"][0])
            assert spec.name == path.stem

    def test_fuzz_failure_writes_repro_spec(self, tmp_path, monkeypatch):
        break_reference_law(monkeypatch)
        # seed 7 index 1 is a fair-share scenario (fixed by the
        # generator's determinism contract).
        report = fuzz(7, 2, shrink_failures=True, json_dir=tmp_path,
                      oracles=["batch-equivalence"])
        assert not report.passed
        repros = sorted(tmp_path.glob("*.repro.json"))
        assert repros, "failing scenarios must leave a repro spec"
        shrunk = ScenarioSpec.from_json(repros[0].read_text())
        assert shrunk.num_connections <= 3

    def test_cli_fuzz_passes_on_main(self, capsys):
        from repro.cli import main
        assert main(["fuzz", "--seed", "7", "--count", "2"]) == 0
        out = capsys.readouterr().out
        assert "0 violations" in out

    def test_cli_fuzz_rejects_bad_budget(self):
        from repro.cli import main
        with pytest.raises(SweepError, match="count must be positive"):
            main(["fuzz", "--seed", "7", "--count", "0"])

    def test_cli_fuzz_rejects_unknown_oracle(self):
        from repro.cli import main
        from repro.errors import CLIError
        with pytest.raises(CLIError, match="unknown oracle"):
            main(["fuzz", "--count", "1", "--oracle", "vibes"])


class TestSmokeSweep:
    def test_25_scenarios_pass_all_oracles(self):
        failures = []
        for spec in generate(7, 25):
            outcome = run_scenario(spec)
            failures.extend(
                (spec.name, res.name, res.detail)
                for res in outcome.violations)
        assert failures == []


class TestControllerZooOracles:
    """The 12th/13th oracles: each fires on its known-bad scenario and
    passes on the honest one."""

    def rcp_spec(self, alpha=0.5, beta=0.05, fill=0.4, mu=1.0,
                 name="rcp-unit"):
        return ScenarioSpec(
            name=name,
            gateways=(GatewaySpec("g0", mu),),
            connections=(ConnectionSpec("c0", ("g0",)),
                         ConnectionSpec("c1", ("g0",))),
            discipline="fifo",
            signal=SignalSpec(),
            style="individual",
            rules=(RuleSpec("rcp-source"),) * 2,
            initial_rates=(0.05, 0.2),
            max_steps=2000,
            seed=5,
            controller=ControllerSpec("rcp", {"alpha": alpha,
                                              "beta": beta,
                                              "fill": fill}),
        )

    def tcp_spec(self):
        return spec_of(rule=RuleSpec("tcp-like", {"increase": 0.05,
                                                  "decrease": 0.125,
                                                  "threshold": 0.5}),
                       name="tcp-unit")

    def test_rcp_stability_passes_on_stable_scenario(self):
        res = run_oracle("rcp-stability", ScenarioContext(self.rcp_spec()))
        assert res.applicable and res.passed

    def test_rcp_stability_inapplicable_without_controller(self):
        res = run_oracle("rcp-stability", ScenarioContext(spec_of()))
        assert not res.applicable

    def test_rcp_stability_catches_wrong_equilibrium(self):
        # A stable controller that "converges" away from the max-min
        # allocation of the effective capacities is lying.
        spec = self.rcp_spec()
        ctx = doctored_context(spec, [0.9, 0.05])
        res = run_oracle("rcp-stability", ctx)
        assert res.violated

    def test_rcp_stability_catches_unstable_convergence(self):
        # s = 3 > 2 at a single gateway: the fixed point is repelling,
        # so a CONVERGED outcome (away from the exact fixed point) is
        # impossible.
        spec = self.rcp_spec(alpha=3.0, beta=0.0, fill=0.45)
        ctx = doctored_context(spec, [0.3, 0.3])
        res = run_oracle("rcp-stability", ctx)
        assert res.violated

    def test_rcp_stability_true_unstable_run_passes(self):
        spec = self.rcp_spec(alpha=3.0, beta=0.0, fill=0.45)
        res = run_oracle("rcp-stability", ScenarioContext(spec))
        assert res.applicable and res.passed

    def test_tcp_oscillation_passes_on_real_sawtooth(self):
        res = run_oracle("tcp-oscillation",
                         ScenarioContext(self.tcp_spec()))
        assert res.applicable and res.passed

    def test_tcp_oscillation_catches_convergence_claim(self):
        spec = self.tcp_spec()
        ctx = doctored_context(spec, spec.initial())
        res = run_oracle("tcp-oscillation", ctx)
        assert res.violated
        assert "never vanishes" in res.detail

    def test_tcp_oscillation_inapplicable_for_classic_rules(self):
        res = run_oracle("tcp-oscillation", ScenarioContext(spec_of()))
        assert not res.applicable

    def test_batch_equivalence_covers_the_controlled_path(
            self, monkeypatch):
        from repro.core.rcp import RcpBank
        spec = self.rcp_spec()
        res = run_oracle("batch-equivalence", ScenarioContext(spec))
        assert res.applicable and res.passed
        assert "controller state" in res.detail

        orig = RcpBank.update_batch

        def skewed(self, rates, state):
            return orig(self, rates, state) + 1e-6

        monkeypatch.setattr(RcpBank, "update_batch", skewed)
        assert failing_oracles(spec, ["batch-equivalence"]) == \
            ("batch-equivalence",)

    @pytest.mark.skipif(not compiled.fs_available(),
                        reason="no compiled ensemble loop")
    def test_a_controller_kernel_mutant_is_caught_off_the_kernel(
            self, monkeypatch):
        # ``run`` and ``run_ensemble`` share the kernel's controlled
        # step, and batch-equivalence checks the Python bank's single
        # steps, so only loop-equivalence's reference_run, which steps
        # the Python bank through ``step_controlled``, sees a mutant
        # both share: here the kernel's wrapper swaps alpha and beta.
        spec = self.rcp_spec()
        names = ["loop-equivalence", "batch-equivalence"]
        assert failing_oracles(spec, names) == ()
        orig = compiled.Control

        def swapped(arrays, state, alpha, beta, *envelope):
            return orig(arrays, state, beta, alpha, *envelope)

        monkeypatch.setattr(compiled, "Control", swapped)
        assert failing_oracles(spec, names) == ("loop-equivalence",)


class TestAsyncOracles:
    """The 15th oracle and loop-equivalence's clocked side: each fires
    on its known-bad mutation and passes on the honest clocked
    scenario."""

    def clocked_spec(self, kind="mix", params=None, signal_delay=1):
        params = params if params is not None else {"slow_rate": 0.3,
                                                    "seed": 4}
        return dataclasses.replace(
            spec_of(name="clocked"),
            clock=ClockSpec(kind, params, signal_delay=signal_delay))

    def test_async_oracles_inapplicable_without_clock(self):
        ctx = ScenarioContext(spec_of())
        res = run_oracle("async-fixed-point", ctx)
        assert not res.applicable
        assert "no clock" in res.detail
        # loop-equivalence applies everywhere: without a clock it holds
        # run_ensemble and run to the reference.
        res = run_oracle("loop-equivalence", ctx)
        assert res.applicable and res.passed
        assert "synchronous" in res.detail

    def test_async_fixed_point_passes_on_honest_scenario(self):
        res = run_oracle("async-fixed-point",
                         ScenarioContext(self.clocked_spec()))
        assert res.applicable and res.passed
        assert "fixed point held" in res.detail

    def test_async_batch_equivalence_passes_on_honest_scenario(self):
        res = run_oracle("loop-equivalence",
                         ScenarioContext(self.clocked_spec()))
        assert res.applicable and res.passed
        assert "bit-identical" in res.detail
        assert "mix clock, delay 1" in res.detail

    def test_async_fixed_point_catches_drifting_steady_state(
            self, monkeypatch):
        # Bias the gate stage, the one stage no synchronous run executes:
        # the batch stepper drifts only when it is handed a clock mask
        # (its seventh positional argument), so the synchronous
        # reference still converges to the true fixed point, but every
        # async trajectory drifts off it.
        # With the compiled ensemble loop unavailable, the async runs
        # advance through the batch stepper.
        from repro.core.dynamics import FlowControlSystem
        orig = FlowControlSystem._step_rows

        def biased(self, r, *args):
            out = orig(self, r, *args)
            gated = len(args) > 5 and args[5] is not None
            return out + 1e-4 if gated else out

        with monkeypatch.context() as m:
            m.setattr(compiled, "ensemble_loop", lambda *a, **k: None)
            m.setattr(FlowControlSystem, "_step_rows", biased)
            fails = failing_oracles(self.clocked_spec(),
                                    ["async-fixed-point"])
        assert fails == ("async-fixed-point",)
        if not compiled.fs_available():
            return
        # The C-path twin: the compiled loop's gated blocks drift.
        loop = compiled.ensemble_loop

        def drifting(*args, gate=compiled.NO_GATE, **kwargs):
            out = loop(*args, gate=gate, **kwargs)
            if out is not None and gate.code != _cext.GATE_NONE:
                out[0][:] += 1e-4
            return out

        monkeypatch.setattr(compiled, "ensemble_loop", drifting)
        fails = failing_oracles(self.clocked_spec(),
                                ["async-fixed-point"])
        assert fails == ("async-fixed-point",)

    def test_async_batch_equivalence_catches_batch_only_mutation(
            self, monkeypatch):
        # Skew apply_batch alone: reference_run goes through
        # rule.apply, so only the engine's async path moves (on its
        # Python loop, the compiled ensemble loop unavailable).
        from repro.core.ratecontrol import RateAdjustment
        orig = RateAdjustment.apply_batch

        def skewed(self, rates, signals, delays, **kw):
            return orig(self, rates, signals, delays, **kw) + 1e-9

        with monkeypatch.context() as m:
            m.setattr(compiled, "ensemble_loop", lambda *a, **k: None)
            m.setattr(RateAdjustment, "apply_batch", skewed)
            fails = failing_oracles(self.clocked_spec(),
                                    ["loop-equivalence"])
        assert fails == ("loop-equivalence",)
        if not compiled.fs_available():
            return
        # The C-path twin: the compiled loop's finals skewed.
        loop = compiled.ensemble_loop

        def skewed_loop(*args, **kwargs):
            out = loop(*args, **kwargs)
            if out is not None:
                out[0][:] += 1e-9
            return out

        monkeypatch.setattr(compiled, "ensemble_loop", skewed_loop)
        fails = failing_oracles(self.clocked_spec(),
                                ["loop-equivalence"])
        assert fails == ("loop-equivalence",)

    def test_async_oracles_green_on_seed_scenarios(self):
        # Every generated clocked scenario passes both oracles.
        checked = 0
        for spec in generate(42, 30):
            if spec.clock is None:
                continue
            fails = failing_oracles(
                spec, ["async-fixed-point", "loop-equivalence"])
            assert fails == (), f"{spec.name}: {fails}"
            checked += 1
        assert checked >= 3
