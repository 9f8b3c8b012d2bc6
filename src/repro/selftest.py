"""Fast self-test: ``python -m repro.selftest``.

A smoke check of the batch trajectory engine that finishes well under
30 seconds: every batched path (queue laws, signals, rules, one-step
map, ensemble runner, vectorised quadratic sweep, parallel sweep
runner) is compared against its scalar counterpart on small
configurations, to 1e-12, plus a fault-injection smoke (empty plan is
a no-op, seeded plan replays identically, checkpoint/resume
round-trips), an asynchronous-engine smoke (clocked batched ensemble
bit-identical to the per-connection ``reference_run``, fixed point
invariant under a delayed round-robin schedule) and a scenario-fuzzing smoke
(deterministic generation,
exact JSON round-trip, a handful of generated scenarios through the
full oracle catalogue).  Exit code 0 means everything agreed, and the
nonzero exit propagates through ``python -m repro selftest``.

``--quick`` shrinks the ensembles for CI; ``--force-fail`` injects one
deliberately failing check so the exit-code plumbing itself can be
exercised end to end.

This is deliberately a subset of the full test suite — the quick
confidence check to run after touching the engine, not a replacement
for ``pytest``.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .analysis.bifurcation import bifurcation_diagram, quadratic_map_sweep
from .analysis.maps import QuadraticRateMap
from .core.dynamics import FlowControlSystem
from .core.fairshare import FairShare, _sorted_queues
from .core.fifo import Fifo
from .core.ratecontrol import (DecbitRateRule, ProportionalTargetRule,
                               TargetRule, TcpLikeRule)
from .core.signals import (FeedbackScheme, FeedbackStyle,
                           LinearSaturating, PowerSaturating)
from .core.topology import parking_lot, single_gateway
from .core.weighted import WeightedFairShare
from .errors import SweepError
from .observability import collect, validate_run_record
from .parallel import sweep

__all__ = ["main", "run_selftest"]

_TOL = 1e-12


def _check(name: str, ok: bool, failures: list) -> None:
    print(f"  {'ok' if ok else 'FAIL'}  {name}")
    if not ok:
        failures.append(name)


def _square(x):
    return x * x


def _bits(a):
    return None if a is None else a.tobytes()


def _numpy_loop(scheme, rates, with_delays: bool) -> tuple:
    """The observe stage's numpy loop: the scheme without its C plan."""
    plan, scheme._plan = scheme._plan, None
    try:
        return scheme._observe(rates, with_delays)
    finally:
        scheme._plan = plan


def _python_loop(runner, *args, **kwargs):
    """``runner(*args, **kwargs)`` on the Python loop: the compiled
    ensemble loop unavailable."""
    from .backends import compiled
    loop, compiled.ensemble_loop = compiled.ensemble_loop, lambda *a, **k: None
    try:
        return runner(*args, **kwargs)
    finally:
        compiled.ensemble_loop = loop


def _record(rec):
    """A run record's fields bar the timings (phase names kept)."""
    return None if rec is None else (
        rec.residuals, rec.active_members, rec.converged_counts,
        rec.diverged_counts, rec.mask_events, rec.outcome_counts,
        rec.steps, list(rec.phase_seconds))


def _same_run(a, b) -> bool:
    """Two trajectories agree bit for bit, run records (bar the
    timings) included."""
    return (a.history.tobytes() == b.history.tobytes()
            and a.history.shape == b.history.shape
            and (a.outcome, a.period, a.steps) == (b.outcome, b.period,
                                                   b.steps)
            and _record(a.telemetry) == _record(b.telemetry))


def _same_ensemble(a, b) -> bool:
    """Two ensemble results agree bit for bit, retained histories and
    run records (bar the timings) included."""
    histories = [None if r.histories is None else
                 [h.tobytes() for h in r.histories] for r in (a, b)]
    return (a.finals.tobytes() == b.finals.tobytes()
            and (a.outcomes, a.periods) == (b.outcomes, b.periods)
            and bool(np.array_equal(a.steps, b.steps))
            and histories[0] == histories[1]
            and _record(a.telemetry) == _record(b.telemetry))


def _perturbed_matches(lot, probes) -> bool:
    """A faulted, damaged ``run_ensemble`` under telemetry (all six
    fault injectors, both structural kinds) gives the Python loop's
    finals, steps and fault and structural events."""
    from .chaos import (CapacityDegradation, GatewayBlackhole,
                        StructuralFaultPlan)
    from .faults import (ClockSkew, ExtraDelay, FaultPlan, GatewayOutage,
                         SignalLoss, SignalNoise, SignalQuantisation)
    g = lot.gateway_names
    faults = FaultPlan((ClockSkew(max_lag=3), ExtraDelay(delay=1, jitter=2),
                        GatewayOutage(start=5, duration=4, period=20,
                                      gateway=g[0]),
                        SignalLoss(rate=0.2), SignalNoise(rate=0.3),
                        SignalQuantisation(levels=9)), seed=4)
    damage = StructuralFaultPlan((
        CapacityDegradation(g[1], factor=0.6, start=10, duration=30,
                            jitter=3),
        GatewayBlackhole(g[2], start=50, duration=10)), seed=4)
    system = FlowControlSystem(lot, Fifo(), LinearSaturating(),
                               TargetRule(eta=0.1, beta=0.5))
    kwargs = dict(max_steps=200, tol=0.0, telemetry=True, faults=faults,
                  structural=damage)
    got = system.run_ensemble(probes, **kwargs)
    want = _python_loop(system.run_ensemble, probes, **kwargs)
    return (got.finals.tobytes() == want.finals.tobytes()
            and bool(np.array_equal(got.steps, want.steps))
            and got.fault_events == want.fault_events
            and got.structural_events == want.structural_events
            and bool(got.fault_events) and bool(got.structural_events))


def _controlled_matches(lot, probes) -> bool:
    """A controlled ``run_ensemble`` under telemetry gives the Python
    loop's finals, steps and run record (bar the timings)."""
    from .core.ratecontrol import RcpSourceRule
    from .core.rcp import RcpController
    system = FlowControlSystem(lot, Fifo(), LinearSaturating(),
                               RcpSourceRule(),
                               controller=RcpController(alpha=0.7,
                                                        beta=0.1))
    kwargs = dict(max_steps=300, block_size=3, telemetry=True)
    got = system.run_ensemble(probes, **kwargs)
    want = _python_loop(system.run_ensemble, probes, **kwargs)
    return (got.finals.tobytes() == want.finals.tobytes()
            and bool(np.array_equal(got.steps, want.steps))
            and _record(got.telemetry) == _record(want.telemetry))


def run_selftest(quick: bool = False, force_fail: bool = False) -> bool:
    """Run every smoke check; return True when all pass.

    ``quick`` shrinks ensemble sizes and step budgets so the whole run
    finishes in a couple of seconds; ``force_fail`` appends one check
    that always fails (for testing exit-code propagation).
    """
    failures: list = []
    rng = np.random.default_rng(42)
    members = 6 if quick else 16
    max_steps = 1000 if quick else 3000
    keep = 192 if quick else 256  # sweep requires keep >= 3 * max_period

    print("batch step vs scalar step:")
    hetero = [TargetRule(eta=0.1, beta=0.5),
              ProportionalTargetRule(eta=0.2, beta=0.4),
              DecbitRateRule(eta=0.05, beta=0.3)]
    for network, label in ((single_gateway(3, mu=1.0), "single-gateway"),
                           (parking_lot(2, mu=1.2), "parking-lot")):
        n = network.num_connections
        for discipline in (Fifo(), FairShare()):
            for style in (FeedbackStyle.AGGREGATE,
                          FeedbackStyle.INDIVIDUAL):
                system = FlowControlSystem(network, discipline,
                                           PowerSaturating(p=2.0),
                                           (hetero * n)[:n], style=style)
                batch = rng.uniform(0.0, 0.3, size=(6, n))
                batch[0] = 0.0            # idle
                batch[1] = 2.0 / n        # overloaded
                out = system.step_batch(batch)
                ok = all(np.allclose(out[m], system.step(batch[m]),
                                     atol=_TOL)
                         for m in range(batch.shape[0]))
                _check(f"{label} {type(discipline).__name__} "
                       f"{style.name.lower()}", ok, failures)

    print("ensemble vs member-by-member run:")
    system = FlowControlSystem(single_gateway(4, mu=1.0), FairShare(),
                               LinearSaturating(),
                               TargetRule(eta=0.1, beta=0.5),
                               style=FeedbackStyle.INDIVIDUAL)
    starts = rng.uniform(0.0, 0.6, size=(members, 4))
    result = system.run_ensemble(starts, max_steps=max_steps)
    ok = True
    for m in range(len(result)):
        traj = system.run(starts[m], max_steps=max_steps)
        ok &= (result.outcomes[m] is traj.outcome
               and result.steps[m] == traj.steps
               and bool(np.allclose(result.finals[m], traj.final,
                                    atol=_TOL)))
    _check(f"{members}-member ensemble matches run()", ok, failures)

    print("blocked ensemble execution:")
    blocked = system.run_ensemble(starts, max_steps=max_steps,
                                  block_size=3)
    _check("block_size=3 is bit-identical to one-shot",
           bool(np.array_equal(blocked.finals, result.finals))
           and blocked.outcomes == result.outcomes
           and bool(np.array_equal(blocked.steps, result.steps)),
           failures)
    lean = system.run_ensemble(starts, max_steps=max_steps,
                               block_size=3, history="none")
    _check("history='none' keeps the finals",
           bool(np.array_equal(lean.finals, result.finals))
           and lean.history_policy == "none", failures)
    try:
        system.run_ensemble(starts, block_size=0)
        _check("block_size=0 raises SweepError", False, failures)
    except SweepError:
        _check("block_size=0 raises SweepError", True, failures)

    print("engine edge cases:")
    empty = system.run_ensemble(np.empty((0, 4)), max_steps=max_steps)
    _check("M=0 ensemble returns well-shaped empties",
           len(empty) == 0 and empty.finals.shape == (0, 4)
           and empty.steps.shape == (0,), failures)
    tied = np.array([0.3, 0.1, 0.1, 0.3])
    perm = np.array([3, 1, 0, 2])
    q_direct = FairShare().queue_lengths(tied, mu=1.0)
    q_perm = FairShare().queue_lengths(tied[perm], mu=1.0)
    _check("Fair Share tie-break is permutation invariant",
           bool(np.array_equal(q_direct[perm], q_perm)), failures)
    over = np.full(4, 0.5)
    _check("overload step stays finite (scalar vs batch)",
           bool(np.allclose(system.step(over),
                            system.step_batch(over[None, :])[0],
                            atol=_TOL))
           and bool(np.all(np.isfinite(system.step(over)))), failures)

    print("observability collector:")
    with collect() as session:
        system.run_ensemble(starts[:4], max_steps=max_steps)
        system.run(starts[0], max_steps=max_steps)
    records = session.run_records
    violations = [v for r in records
                  for v in validate_run_record(r.to_dict(), "selftest")]
    _check("2 schema-valid run records collected",
           len(records) == 2 and not violations, failures)
    _check("telemetry off outside collect()",
           system.run(starts[0], max_steps=max_steps).telemetry is None,
           failures)

    print("vectorised quadratic sweep vs generic path:")
    gains = [0.8, 1.5, 2.3, 2.62]
    pts = quadratic_map_sweep(gains, beta=0.25, x0=0.1, transient=1000,
                              keep=keep)
    generic = bifurcation_diagram(
        lambda a: QuadraticRateMap(a=a, beta=0.25),
        gains, x0=0.1, transient=1000, keep=keep,
        derivative_family=lambda a: QuadraticRateMap(a=a,
                                                     beta=0.25).derivative)
    ok = all(np.array_equal(pt.attractor, gpt.attractor)
             and abs(pt.lyapunov - gpt.lyapunov) <= _TOL
             for pt, gpt in zip(pts, generic))
    _check("4-gain sweep (attractors and lyapunov)", ok, failures)

    print("parallel sweep runner:")
    grid = list(range(17))
    ok = (sweep(_square, grid, workers=1) ==
          sweep(_square, grid, workers=4, executor="thread") ==
          [x * x for x in grid])
    _check("grid order preserved across executors", ok, failures)

    print("fault injection and resilient execution:")
    from .faults import FaultPlan, parse_fault_spec
    plain = system.run(starts[0], max_steps=max_steps)
    empty = system.run(starts[0], max_steps=max_steps,
                       faults=FaultPlan())
    _check("empty fault plan is bit-identical",
           bool(np.array_equal(plain.history, empty.history))
           and empty.fault_events is None, failures)
    plan = parse_fault_spec("loss=0.4,quantise=8,seed=7")
    faulty_a = system.run(starts[0], max_steps=max_steps, faults=plan)
    faulty_b = system.run(starts[0], max_steps=max_steps, faults=plan)
    _check("seeded faulty run is reproducible (trajectory + events)",
           bool(np.array_equal(faulty_a.history, faulty_b.history))
           and faulty_a.fault_events == faulty_b.fault_events
           and len(faulty_a.fault_events) > 0, failures)
    import shutil
    import tempfile
    ckpt = tempfile.mkdtemp(prefix="repro-selftest-ckpt-")
    try:
        first = sweep(_square, grid, executor="serial", chunk_size=4,
                      checkpoint_dir=ckpt)
        resumed = sweep(_square, grid, executor="serial", chunk_size=4,
                        checkpoint_dir=ckpt)
        _check("checkpoint/resume round-trip matches the grid",
               first == resumed == [x * x for x in grid], failures)
    finally:
        shutil.rmtree(ckpt, ignore_errors=True)

    print("structural chaos smoke:")
    from .chaos import (BlasterRule, CapacityDegradation,
                        StructuralFaultPlan, check_robustness_floor)
    splan = StructuralFaultPlan(injectors=(
        CapacityDegradation("g0", factor=0.5, start=30, duration=30),),
        seed=3)
    clean = system.run(starts[0], max_steps=max_steps)
    noop = system.run(starts[0], max_steps=max_steps,
                      structural=StructuralFaultPlan())
    _check("empty structural plan is bit-identical",
           bool(np.array_equal(clean.history, noop.history))
           and noop.structural_events is None, failures)
    dmg_a = system.run(starts[0], max_steps=max_steps, structural=splan)
    dmg_b = system.run(starts[0], max_steps=max_steps, structural=splan)
    _check("structural run is reproducible (trajectory + transitions)",
           bool(np.array_equal(dmg_a.history, dmg_b.history))
           and dmg_a.structural_events == dmg_b.structural_events
           and len(dmg_a.structural_events) == 2, failures)
    mixed = [TargetRule(eta=0.1, beta=0.5)] * 3 \
        + [BlasterRule(increment=0.2, cap=5.0)]
    adv_sys = FlowControlSystem(single_gateway(4, mu=1.0), FairShare(),
                                LinearSaturating(), mixed,
                                style=FeedbackStyle.INDIVIDUAL)
    adv_final = adv_sys.run(starts[0], max_steps=max_steps,
                            tol=1e-11).final
    floor = check_robustness_floor(adv_sys.network, LinearSaturating(),
                                   mixed, adv_final)
    _check("Theorem 5 floor holds for honest sources vs a blaster",
           floor.holds, failures)

    print("asynchronous engine smoke:")
    from .core.asynchronous import (ClockSchedule, RateMixClock,
                                    RoundRobinSchedule, run_async_ensemble)
    from .scenarios.oracles import reference_run
    sched = ClockSchedule(RateMixClock(0.25, 1.0, 0.5, seed=5))
    async_budget = 400 if quick else 1200
    aens = run_async_ensemble(system, starts[:4], schedule=sched,
                              signal_delay=2, max_steps=async_budget,
                              tol=1e-11)
    ok = True
    for m in range(len(aens)):
        traj = reference_run(system, starts[m], sched, 2,
                             max_steps=async_budget, tol=1e-11)
        ok &= (aens.outcomes[m] is traj.outcome
               and int(aens.steps[m]) == traj.steps
               and bool(np.array_equal(aens.finals[m], traj.final)))
    _check("clocked ensemble is bit-identical to the per-connection "
           "reference_run",
           ok, failures)
    settled = system.run(starts[0], max_steps=max_steps, tol=1e-11)
    held = run_async_ensemble(system, settled.final[None, :],
                              schedule=RoundRobinSchedule(),
                              signal_delay=1, max_steps=async_budget,
                              tol=1e-11)
    _check("sync fixed point survives round-robin with delay",
           settled.outcome.name == "CONVERGED"
           and held.outcomes[0].name == "CONVERGED"
           and bool(np.allclose(held.finals[0], settled.final,
                                atol=1e-8)), failures)

    from .backends import _cext
    from .backends import compiled as compiled_kernels
    print("compiled kernels: the C Fair Share, observe-stage, ensemble-"
          "loop and FIFO kernels "
          + ("built" if compiled_kernels.fs_available()
             else f"did not build ({_cext.load_error()})"))
    big = rng.uniform(0.0, 0.5, size=(4, 96))
    big[1] = 0.9 / 96                # equal rates: one queue value
    want = _sorted_queues(big, 1.0)
    tied_queues = FairShare().queue_lengths(big[1], mu=1.0)
    _check("equal rates get one Fair Share queue at N = 96",
           np.unique(tied_queues).size == 1, failures)
    _check("equal weights give the Fair Share bits",
           bool(np.array_equal(
               WeightedFairShare(np.ones(96)).queue_lengths_batch(big, 1.0),
               FairShare().queue_lengths_batch(big, 1.0))), failures)
    got = compiled_kernels.fs_queue_batch(big, 1.0)
    if got is None:
        _check("compiled FS kernels unavailable (numpy pipeline ok)",
               True, failures)
    else:
        _check("compiled FS queue law is bit-identical to the numpy "
               "sorted pipeline", bool(np.array_equal(got, want)),
               failures)
    lot = parking_lot(3)
    probes = rng.uniform(0.0, 0.5, size=(4, lot.num_connections))
    probes[0, 0] = 0.0               # the zero-rate probe
    probes[1] = 0.6                  # overloaded
    if not compiled_kernels.fs_available():
        _check("compiled observe stage unavailable (numpy loop ok)",
               True, failures)
    else:
        ok = True
        for discipline in (Fifo(), FairShare()):
            for style in FeedbackStyle:
                scheme = FeedbackScheme(lot, discipline,
                                        LinearSaturating(), style)
                for with_delays in (False, True):
                    got = compiled_kernels.observe_batch(
                        probes, scheme._plan, with_delays)
                    want = _numpy_loop(scheme, probes, with_delays)
                    ok &= got is not None and all(
                        _bits(a) == _bits(b) for a, b in zip(got, want))
        _check("compiled observe stage is bit-identical to the numpy loop",
               ok, failures)
    if not compiled_kernels.fs_available():
        _check("compiled ensemble loop unavailable (Python loop ok)", True,
               failures)
    else:
        n = lot.num_connections
        rules = [TargetRule(eta=0.1, beta=0.5), TcpLikeRule()]
        ok = True
        for discipline in (Fifo(), FairShare()):
            for style in FeedbackStyle:
                loop_system = FlowControlSystem(lot, discipline,
                                                LinearSaturating(),
                                                (rules * n)[:n], style=style)
                for x0 in probes[:2]:
                    ok &= _same_run(loop_system.run(x0, max_steps=300),
                                    _python_loop(loop_system.run, x0,
                                                 max_steps=300))
        ok &= _same_run(loop_system.run(probes[2], max_steps=300,
                                        telemetry=True),
                        _python_loop(loop_system.run, probes[2],
                                     max_steps=300, telemetry=True))
        kwargs = dict(max_steps=300, block_size=3, history="full",
                      telemetry=True)
        ok &= _same_ensemble(
            loop_system.run_ensemble(probes, **kwargs),
            _python_loop(loop_system.run_ensemble, probes, **kwargs))
        from .core.asynchronous import BurstyClock
        for clock in (RateMixClock(0.25, 1.0, 0.5, seed=5),
                      BurstyClock(0.9, 0.2, 8, seed=5)):
            kwargs = dict(schedule=ClockSchedule(clock), signal_delay=2,
                          max_steps=300, tol=1e-11)
            ok &= _same_ensemble(
                run_async_ensemble(loop_system, probes, **kwargs),
                _python_loop(run_async_ensemble, loop_system, probes,
                             **kwargs))
        _check("compiled ensemble loop is bit-identical to the Python "
               "loop", ok, failures)
    if not compiled_kernels.fs_available():
        _check("compiled perturb stages unavailable (Python loop ok)", True,
               failures)
    else:
        _check("faulted, damaged ensemble loop matches the Python loop "
               "(finals and both event lists)",
               _perturbed_matches(lot, probes), failures)
    if not compiled_kernels.fs_available():
        _check("compiled controller unavailable (Python loop ok)", True,
               failures)
    else:
        _check("controlled ensemble loop matches the Python loop "
               "(finals, steps and record)",
               _controlled_matches(lot, probes), failures)

    print("scenario fuzzing smoke:")
    from .scenarios import generate, run_scenario
    budget = 3 if quick else 6
    specs = generate(11, budget)
    _check("generator is deterministic (same seed, same specs)",
           specs == generate(11, budget), failures)
    from .scenarios import ScenarioSpec
    _check("specs JSON round-trip exactly",
           all(ScenarioSpec.from_json(s.to_json()) == s for s in specs),
           failures)
    outcomes = [run_scenario(s) for s in specs]
    ok = all(o.passed for o in outcomes)
    checked = sum(1 for o in outcomes for res in o.results
                  if res.applicable)
    _check(f"{budget} fuzzed scenarios pass all oracles "
           f"({checked} applicable checks)", ok, failures)
    if not ok:
        for o in outcomes:
            for res in o.violations:
                print(f"       {o.spec.name} {res.name}: {res.detail}")

    if force_fail:
        _check("forced failure (--force-fail)", False, failures)

    return not failures


def main(argv=None, quick: bool = False, force_fail: bool = False) -> int:
    if argv is not None or __name__ == "__main__":
        parser = argparse.ArgumentParser(prog="repro.selftest")
        parser.add_argument("--quick", action="store_true")
        parser.add_argument("--force-fail", action="store_true")
        args = parser.parse_args(argv)
        quick = quick or args.quick
        force_fail = force_fail or args.force_fail
    t0 = time.perf_counter()
    passed = run_selftest(quick=quick, force_fail=force_fail)
    elapsed = time.perf_counter() - t0
    print(f"\nselftest {'PASSED' if passed else 'FAILED'} "
          f"in {elapsed:.1f}s")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
