"""Controller-zoo benchmarks: the batched RCP path and the vectorised
TCP-like rule against their scalar references.

Standalone (not collected by pytest): measures the two performance
promises the modern-controller work makes,

* **controlled ensemble** — ``run_ensemble`` over ``M`` members of a
  controller-driven (RCP) system vs a Python loop of scalar ``run``
  calls, both on the Python loop: the compiled ensemble loop, which
  runs the controller in C for both, is masked on both sides, so the
  ratio compares the two loops its floors were recorded on, and the
  compiled loop's throughput (``kernel_msteps_per_s``) is printed
  beside it.  Both sides use ``tol=0.0`` so every member consumes the
  full step budget (identical work), and the batched finals are
  verified bit-identical to the scalar finals before any number is
  reported;
* **tcp delta_batch** — :class:`~repro.core.ratecontrol.TcpLikeRule`'s
  vectorised ``delta_batch`` vs the base class's scalar-loop fallback
  over a large ``(M, N)`` batch, verified ``np.array_equal`` first.

As in the sibling benchmarks, single timings swing with machine noise,
so each gated number is the median of per-pair ratios over
interleaved runs.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_controllers.py [--quick]
        [--check] [--out PATH]

``--quick`` shrinks the workload for CI and judges against the lower
``quick_targets``; ``--check`` additionally compares against the
committed ``BENCH_controllers.json`` floors without rewriting it.
"""

import argparse
import json
import sys
import time

import numpy as np

from repro.backends import compiled
from repro.core.dynamics import FlowControlSystem
from repro.core.fifo import Fifo
from repro.core.ratecontrol import RateAdjustment, RcpSourceRule, \
    TcpLikeRule
from repro.core.rcp import RcpController
from repro.core.signals import FeedbackStyle, LinearSaturating
from repro.core.topology import single_gateway

#: Interleaved timing pairs per benchmark (gated number = median ratio).
REPEATS = 5

#: Full-scale floors (the committed BENCH_controllers.json targets);
#: measured speedups are ~38x / ~26x, floored with noise headroom.
TARGETS = {"controllers_ensemble_speedup_min": 8.0,
           "controllers_delta_batch_speedup_min": 10.0}

#: Quick-mode floors: smaller workloads leave more room for timer
#: noise, so CI judges against laxer minima.
QUICK_TARGETS = {"controllers_ensemble_speedup_min": 4.0,
                 "controllers_delta_batch_speedup_min": 8.0}


def _controlled_system(n):
    net = single_gateway(n, mu=float(n))
    return FlowControlSystem(net, Fifo(), LinearSaturating(),
                             RcpSourceRule(),
                             style=FeedbackStyle.INDIVIDUAL,
                             controller=RcpController(alpha=0.5,
                                                      beta=0.05))


def _initials(m, n, seed=7):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.05, 0.5, size=(m, n))


def bench_controlled_ensemble(n=256, members=64, max_steps=60,
                              pairs=REPEATS):
    """Batched controlled ensemble vs a scalar loop over members."""
    system = _controlled_system(n)
    r0 = _initials(members, n)
    kwargs = dict(max_steps=max_steps, tol=0.0, max_period=8,
                  history="none")
    system.run_ensemble(r0[:2], **kwargs)  # warm-up

    ens = system.run_ensemble(r0, **kwargs)
    for m in range(members):
        traj = system.run(r0[m], max_steps=max_steps, tol=0.0,
                          max_period=8)
        if not np.array_equal(ens.finals[m], traj.final):
            raise AssertionError(
                f"batched controlled member {m} differs from scalar run")

    # Both sides run with the compiled ensemble loop unavailable, so the
    # ratio compares the two Python loops, as the floors were recorded.
    # The compiled loop's throughput is reported beside.
    ratios = []
    t_scalar = t_batched = 0.0
    loop = compiled.ensemble_loop
    compiled.ensemble_loop = lambda *args, **kw: None
    try:
        for _ in range(pairs):
            t0 = time.perf_counter()
            for m in range(members):
                system.run(r0[m], max_steps=max_steps, tol=0.0,
                           max_period=8)
            t_scalar = time.perf_counter() - t0
            t0 = time.perf_counter()
            system.run_ensemble(r0, **kwargs)
            t_batched = time.perf_counter() - t0
            ratios.append(t_scalar / t_batched)
    finally:
        compiled.ensemble_loop = loop
    ratios.sort()
    t0 = time.perf_counter()
    system.run_ensemble(r0, **kwargs)
    t_kernel = time.perf_counter() - t0
    member_steps = members * max_steps
    return {"n": n, "members": members, "max_steps": max_steps,
            "pairs": pairs,
            "batched_msteps_per_s": round(member_steps / t_batched),
            "kernel_msteps_per_s": round(member_steps / t_kernel),
            "scalar_msteps_per_s": round(member_steps / t_scalar),
            "pair_ratios": [round(r, 2) for r in ratios],
            "speedup": round(ratios[len(ratios) // 2], 2)}


def bench_tcp_delta_batch(members=64, n=4096, pairs=REPEATS):
    """Vectorised TcpLikeRule.delta_batch vs the scalar-loop fallback."""
    rule = TcpLikeRule(increase=0.05, decrease=0.125, threshold=0.5)
    rng = np.random.default_rng(11)
    rates = rng.uniform(0.01, 2.0, size=(members, n))
    signals = rng.uniform(0.0, 1.0, size=(members, n))
    delays = rng.uniform(0.5, 5.0, size=(members, n))

    def fallback():
        return RateAdjustment.delta_batch(rule, rates, signals, delays)

    def vectorised():
        return rule.delta_batch(rates, signals, delays)

    if not np.array_equal(fallback(), vectorised()):
        raise AssertionError(
            "vectorised tcp delta_batch differs from the scalar loop")

    ratios = []
    for _ in range(pairs):
        t0 = time.perf_counter()
        fallback()
        t_loop = time.perf_counter() - t0
        t0 = time.perf_counter()
        vectorised()
        t_vec = time.perf_counter() - t0
        ratios.append(t_loop / t_vec)
    ratios.sort()
    return {"members": members, "n": n, "pairs": pairs,
            "elements": members * n,
            "pair_ratios": [round(r, 2) for r in ratios],
            "speedup": round(ratios[len(ratios) // 2], 2)}


def run_benchmarks(quick=False):
    if quick:
        ensemble = bench_controlled_ensemble(n=64, members=32,
                                             max_steps=30, pairs=3)
        delta = bench_tcp_delta_batch(members=16, n=1024, pairs=3)
    else:
        ensemble = bench_controlled_ensemble()
        delta = bench_tcp_delta_batch()
    return {"controlled_ensemble": ensemble, "tcp_delta_batch": delta}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_controllers.json",
                        help="output JSON path (default: "
                             "BENCH_controllers.json)")
    parser.add_argument("--quick", action="store_true",
                        help="small CI workload, judged against the "
                             "quick floors (no JSON rewrite)")
    parser.add_argument("--check", action="store_true",
                        help="judge fresh numbers against the committed "
                             "baseline's floors without rewriting it")
    args = parser.parse_args(argv)

    results = run_benchmarks(quick=args.quick)
    ens, delta = results["controlled_ensemble"], results["tcp_delta_batch"]
    print(f"controlled ensemble: batched {ens['batched_msteps_per_s']} vs "
          f"scalar {ens['scalar_msteps_per_s']} member-steps/s at "
          f"N={ens['n']}, M={ens['members']} (compiled loop: "
          f"{ens['kernel_msteps_per_s']}) -> {ens['speedup']}x")
    print(f"tcp delta_batch    : {delta['elements']} elements -> "
          f"{delta['speedup']}x over the scalar-loop fallback")

    targets = QUICK_TARGETS if args.quick else TARGETS
    ok = (ens["speedup"] >= targets["controllers_ensemble_speedup_min"]
          and delta["speedup"]
          >= targets["controllers_delta_batch_speedup_min"])
    if args.check:
        with open(args.out) as fh:
            committed = json.load(fh)
        floors = (committed["quick_targets"] if args.quick
                  else committed["targets"])
        ok = (ens["speedup"]
              >= floors["controllers_ensemble_speedup_min"]
              and delta["speedup"]
              >= floors["controllers_delta_batch_speedup_min"])
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
