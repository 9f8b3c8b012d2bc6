"""Chaos-layer benchmarks: the structural-fault path against the clean
trajectory engine.

Standalone (not collected by pytest): the structural chaos layer's
contract is that robustness costs (almost) nothing when you do not use
it, and stays cheap when you do.  Two gated numbers:

* **empty plan** — ``run`` with ``structural=StructuralFaultPlan()``
  vs a plain clean run.  The empty plan must take the clean code path
  (``plan.start`` returns ``None``), so the ratio clean/chaos is ~1.0;
  the finals are verified bit-identical before any number is reported;
* **active ensemble** — ``run_ensemble`` over ``M`` members under a
  periodic jittered :class:`~repro.chaos.CapacityDegradation` +
  :class:`~repro.chaos.GatewayBlackhole` plan vs the clean ensemble,
  both on the Python loop: the compiled ensemble loop is masked on
  both sides, so the ratio compares the two loops its floors were
  recorded on, and the loop's clean and structural throughputs
  (``clean_kernel_msteps_per_s``, ``chaos_kernel_msteps_per_s``) are
  printed beside it.
  Per-step window resolution and the per-damage-signature view cache
  must keep the overhead bounded.  Before timing, a sample of members
  is verified bit-identical to scalar ``run(..., structural=plan,
  fault_member=m)`` replays — the determinism contract the
  fault-determinism oracle asserts per-scenario.

Both numbers are *overhead ratios* (clean time / chaos time), not
speedups: 1.0 means free, the gated floors bound how much the chaos
path may cost.  As in the sibling benchmarks, each gated number is the
median of per-pair ratios over interleaved runs.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_chaos.py [--quick]
        [--check] [--out PATH]

``--quick`` shrinks the workload for CI and judges against the lower
``quick_targets``; ``--check`` additionally compares against the
committed ``BENCH_chaos.json`` floors without rewriting it.
"""

import argparse
import json
import sys
import time

import numpy as np

from repro.backends import compiled
from repro.chaos import (CapacityDegradation, GatewayBlackhole,
                         StructuralFaultPlan)
from repro.core.dynamics import FlowControlSystem
from repro.core.fairshare import FairShare
from repro.core.ratecontrol import TargetRule
from repro.core.signals import FeedbackStyle, LinearSaturating
from repro.core.topology import single_gateway

#: Interleaved timing pairs per benchmark (gated number = median ratio).
REPEATS = 5

#: Full-scale floors (the committed BENCH_chaos.json targets): the
#: empty plan is the clean code path (ratio ~1.0, floored with noise
#: headroom); the active plan pays per-step window resolution.
TARGETS = {"chaos_empty_plan_ratio_min": 0.7,
           "chaos_active_ensemble_ratio_min": 0.4}

#: Quick-mode floors: tiny workloads put the fixed per-step resolution
#: cost against much less numpy work, so CI judges laxer minima.
QUICK_TARGETS = {"chaos_empty_plan_ratio_min": 0.5,
                 "chaos_active_ensemble_ratio_min": 0.2}


def _system(n):
    net = single_gateway(n, mu=float(n))
    rules = [TargetRule(eta=0.1, beta=0.5) for _ in range(n)]
    return FlowControlSystem(net, FairShare(), LinearSaturating(), rules,
                             style=FeedbackStyle.INDIVIDUAL)


def _active_plan(max_steps):
    """A periodic, jittered degradation + one blackhole window, sized so
    several transitions land inside the step budget."""
    period = max(40, max_steps // 4)
    return StructuralFaultPlan(
        injectors=(
            CapacityDegradation("g0", factor=0.6, start=10,
                                duration=period // 2, period=period,
                                jitter=3),
            GatewayBlackhole("g0", start=max_steps // 2,
                             duration=max(5, max_steps // 20)),
        ),
        seed=13)


def bench_empty_plan(n=64, max_steps=2000, pairs=REPEATS):
    """Scalar run with the empty structural plan vs the clean run."""
    system = _system(n)
    rng = np.random.default_rng(5)
    r0 = rng.uniform(0.05, 0.5, size=n)
    kwargs = dict(max_steps=max_steps, tol=0.0, max_period=8)
    empty = StructuralFaultPlan()
    system.run(r0, **kwargs)  # warm-up

    clean = system.run(r0, **kwargs)
    chaos = system.run(r0, structural=empty, **kwargs)
    if not np.array_equal(clean.final, chaos.final) \
            or chaos.structural_events is not None:
        raise AssertionError(
            "empty structural plan is not bit-identical to the clean run")

    ratios = []
    t_clean = t_chaos = 0.0
    for _ in range(pairs):
        t0 = time.perf_counter()
        system.run(r0, **kwargs)
        t_clean = time.perf_counter() - t0
        t0 = time.perf_counter()
        system.run(r0, structural=empty, **kwargs)
        t_chaos = time.perf_counter() - t0
        ratios.append(t_clean / t_chaos)
    ratios.sort()
    return {"n": n, "max_steps": max_steps, "pairs": pairs,
            "clean_steps_per_s": round(max_steps / t_clean),
            "chaos_steps_per_s": round(max_steps / t_chaos),
            "pair_ratios": [round(r, 2) for r in ratios],
            "speedup": round(ratios[len(ratios) // 2], 2)}


def bench_active_ensemble(n=32, members=48, max_steps=400,
                          pairs=REPEATS, verify_members=4):
    """Batched ensemble under an active structural plan vs clean."""
    system = _system(n)
    plan = _active_plan(max_steps)
    rng = np.random.default_rng(9)
    r0 = rng.uniform(0.05, 0.5, size=(members, n))
    kwargs = dict(max_steps=max_steps, tol=0.0, max_period=8,
                  history="none")
    system.run_ensemble(r0[:2], structural=plan, **kwargs)  # warm-up

    ens = system.run_ensemble(r0, structural=plan, **kwargs)
    for m in range(0, members, max(1, members // verify_members)):
        traj = system.run(r0[m], max_steps=max_steps, tol=0.0,
                          max_period=8, structural=plan, fault_member=m)
        if not np.array_equal(ens.finals[m], traj.final):
            raise AssertionError(
                f"structural ensemble member {m} differs from its "
                f"scalar replay")

    # Both sides run with the compiled ensemble loop unavailable, so the
    # ratio compares the two Python loops, as the floors were recorded.
    # The loop's clean and structural throughputs are reported beside.
    ratios = []
    t_clean = t_chaos = 0.0
    loop = compiled.ensemble_loop
    compiled.ensemble_loop = lambda *args, **kw: None
    try:
        for _ in range(pairs):
            t0 = time.perf_counter()
            system.run_ensemble(r0, **kwargs)
            t_clean = time.perf_counter() - t0
            t0 = time.perf_counter()
            system.run_ensemble(r0, structural=plan, **kwargs)
            t_chaos = time.perf_counter() - t0
            ratios.append(t_clean / t_chaos)
    finally:
        compiled.ensemble_loop = loop
    ratios.sort()
    t_kernel = {}
    for side, extra in (("clean", {}), ("chaos", {"structural": plan})):
        t0 = time.perf_counter()
        system.run_ensemble(r0, **kwargs, **extra)
        t_kernel[side] = time.perf_counter() - t0
    member_steps = members * max_steps
    n_events = len(ens.structural_events) if ens.structural_events else 0
    return {"n": n, "members": members, "max_steps": max_steps,
            "pairs": pairs, "structural_events": n_events,
            "clean_msteps_per_s": round(member_steps / t_clean),
            "clean_kernel_msteps_per_s": round(member_steps
                                               / t_kernel["clean"]),
            "chaos_msteps_per_s": round(member_steps / t_chaos),
            "chaos_kernel_msteps_per_s": round(member_steps
                                               / t_kernel["chaos"]),
            "pair_ratios": [round(r, 2) for r in ratios],
            "speedup": round(ratios[len(ratios) // 2], 2)}


def run_benchmarks(quick=False):
    if quick:
        empty = bench_empty_plan(n=16, max_steps=500, pairs=3)
        active = bench_active_ensemble(n=8, members=16, max_steps=150,
                                       pairs=3)
    else:
        empty = bench_empty_plan()
        active = bench_active_ensemble()
    return {"empty_plan": empty, "active_ensemble": active}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_chaos.json",
                        help="output JSON path (default: "
                             "BENCH_chaos.json)")
    parser.add_argument("--quick", action="store_true",
                        help="small CI workload, judged against the "
                             "quick floors (no JSON rewrite)")
    parser.add_argument("--check", action="store_true",
                        help="judge fresh numbers against the committed "
                             "baseline's floors without rewriting it")
    args = parser.parse_args(argv)

    results = run_benchmarks(quick=args.quick)
    empty, active = results["empty_plan"], results["active_ensemble"]
    print(f"empty plan     : chaos {empty['chaos_steps_per_s']} vs clean "
          f"{empty['clean_steps_per_s']} steps/s at N={empty['n']} -> "
          f"{empty['speedup']}x of clean throughput")
    print(f"active ensemble: chaos {active['chaos_msteps_per_s']} vs "
          f"clean {active['clean_msteps_per_s']} member-steps/s "
          f"(compiled loop: chaos {active['chaos_kernel_msteps_per_s']}, "
          f"clean {active['clean_kernel_msteps_per_s']}), "
          f"{active['structural_events']} transitions -> "
          f"{active['speedup']}x of clean throughput")

    targets = QUICK_TARGETS if args.quick else TARGETS
    ok = (empty["speedup"] >= targets["chaos_empty_plan_ratio_min"]
          and active["speedup"]
          >= targets["chaos_active_ensemble_ratio_min"])
    if args.check:
        with open(args.out) as fh:
            committed = json.load(fh)
        floors = (committed["quick_targets"] if args.quick
                  else committed["targets"])
        ok = (empty["speedup"] >= floors["chaos_empty_plan_ratio_min"]
              and active["speedup"]
              >= floors["chaos_active_ensemble_ratio_min"])
        print(f"check vs committed floors: {'OK' if ok else 'FAIL'}")
        return 0 if ok else 1

    if not args.quick:
        payload = dict(results)
        payload["targets"] = TARGETS
        payload["quick_targets"] = QUICK_TARGETS
        payload["targets_met"] = bool(ok)
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    print(f"targets {'met' if ok else 'NOT met'} "
          f"({'quick' if args.quick else 'full'} floors)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
