"""Microbenchmark for the warm-start fixed-point cache.

Standalone (not collected by pytest): counts the iterations of an
F7-style fixed-point scan, cold against continuation + memo through
:class:`~repro.core.steadystate.FixedPointCache`, verifies that both
find the same fixed points, and writes the numbers to
``BENCH_sim.json``.  (The packet engines are timed by
``bench_compiled.py``, the C event loop against the Python loops.)

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_sim_kernel.py [--quick]

The acceptance target is >= 1.5x warm-start iteration savings (quick
mode shrinks the scan and judges against the lower ``QUICK_TARGETS``).
"""

import argparse
import json
import sys

import numpy as np

from repro.core.dynamics import FlowControlSystem
from repro.core.fairshare import FairShare
from repro.core.math_utils import as_rate_vector
from repro.core.ratecontrol import TargetRule
from repro.core.signals import FeedbackStyle, LinearSaturating
from repro.core.steadystate import (FixedPointCache, _damped_solve,
                                    continuation_scan)
from repro.core.topology import single_gateway

#: Full-scale minimum savings (the committed BENCH_sim.json target).
TARGETS = {"warm_start_savings_min": 1.5}

#: Quick-mode floor: a shorter scan has fewer neighbours to continue
#: from, so the savings shrink for reasons unrelated to regressions.
QUICK_TARGETS = {"warm_start_savings_min": 1.2}


def bench_warm_start(points=24, passes=2, n=6, eta=0.05, tol=1e-10):
    """Iteration counts of an F7-style fixed-point scan, cold vs warm.

    The workload solves the fair point of a TSI Fair Share system over
    a ``beta`` grid, ``passes`` times (figures re-run their scans).
    Cold starts every solve from the same rough guess; warm goes
    through :class:`~repro.core.steadystate.FixedPointCache`, so each
    point continues from its neighbour's fixed point and the second
    pass is pure memo hits.  The fixed points are verified identical.
    """
    net = single_gateway(n, mu=1.0)
    signal = LinearSaturating()
    betas = np.linspace(0.35, 0.65, points)
    systems = [FlowControlSystem(net, FairShare(), signal,
                                 TargetRule(eta=eta, beta=float(b)),
                                 style=FeedbackStyle.INDIVIDUAL)
               for b in betas]
    x0 = np.full(n, 0.02)

    cold_total = 0
    cold_rates = []
    for _ in range(passes):
        cold_rates = []
        for system in systems:
            rates, iters = _damped_solve(
                system, as_rate_vector(x0, n=n), 5000, tol, 1.0)
            cold_total += iters
            cold_rates.append(rates)

    cache = FixedPointCache()
    warm_results = []
    for _ in range(passes):
        warm_results = continuation_scan(systems, x0, tol=tol,
                                         max_steps=5000, cache=cache)
    warm_total = cache.iterations
    for cold, warm in zip(cold_rates, warm_results):
        if not np.allclose(cold, warm.rates, atol=1e-8):
            raise AssertionError("warm-started fixed point differs")
    return {"points": points, "passes": passes,
            "cold_iterations": cold_total,
            "warm_iterations": warm_total,
            "cache_hits": cache.hits, "cache_misses": cache.misses,
            "speedup": round(cold_total / max(1, warm_total), 2)}


def run_benchmarks(quick=False):
    warm = (bench_warm_start(points=12, passes=2) if quick
            else bench_warm_start())
    return {"warm_start": warm}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_sim.json",
                        help="output JSON path (default: BENCH_sim.json)")
    parser.add_argument("--quick", action="store_true",
                        help="small workloads, judged against the quick "
                             "floors (no JSON rewrite by default)")
    args = parser.parse_args(argv)

    results = run_benchmarks(quick=args.quick)
    warm = results["warm_start"]
    print(f"warm start : {warm['cold_iterations']} cold vs "
          f"{warm['warm_iterations']} warm iterations -> "
          f"{warm['speedup']}x")

    targets = QUICK_TARGETS if args.quick else TARGETS
    ok = warm["speedup"] >= targets["warm_start_savings_min"]
    results["targets"] = dict(TARGETS)
    results["quick_targets"] = dict(QUICK_TARGETS)
    results["targets_met"] = ok
    if not args.quick:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out} (targets met: {ok})")
    else:
        print(f"quick floors met: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
