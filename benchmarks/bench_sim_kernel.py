"""Microbenchmark for the fast packet-simulation kernel.

Standalone (not collected by pytest): times the struct-of-arrays
kernel (``engine="fast"``) against the legacy object engine on

* a FIFO closed-loop-style workload (events/sec, the kernel's home
  turf),
* the full F12 substrate-validation experiment end to end,
* and the warm-start fixed-point cache (iteration counts of an
  F7-style scan, cold vs continuation+memo),

verifies the outputs agree (bit-identical simulator statistics,
identical experiment rows, identical fixed points), and writes the
numbers to ``BENCH_sim.json``.

Methodology note: the per-event cost of either engine swings by 2x+
with machine noise, so single timings are meaningless.  Every speedup
here is the **median of per-pair ratios** over interleaved
legacy/fast runs — each ratio compares two adjacent runs, so slow
spells hit both engines alike.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_sim_kernel.py [--quick]

The acceptance targets are >= 5x events/sec on the FIFO closed-loop
benchmark, >= 2x end to end on F12, and >= 1.5x warm-start iteration
savings (quick mode shrinks the workloads and judges against the
lower ``QUICK_TARGETS``).
"""

import argparse
import json
import statistics
import sys
import time

import numpy as np

from repro.core.dynamics import FlowControlSystem
from repro.core.fairshare import FairShare
from repro.core.math_utils import as_rate_vector
from repro.core.ratecontrol import TargetRule
from repro.core.signals import FeedbackStyle, LinearSaturating
from repro.core.steadystate import (FixedPointCache, _damped_solve,
                                    continuation_scan)
from repro.core.topology import single_gateway
from repro.experiments.exp_f12_sim_validation import run_f12_sim_validation
from repro.simulation.network_sim import NetworkSimulation

#: Full-scale minimum speedups (the committed BENCH_sim.json targets).
TARGETS = {"fifo_events_speedup_min": 5.0,
           "f12_speedup_min": 2.0,
           "warm_start_savings_min": 1.5}

#: Quick-mode floors: small workloads amortise less setup, so the
#: speedups shrink for reasons unrelated to regressions.
QUICK_TARGETS = {"fifo_events_speedup_min": 3.0,
                 "f12_speedup_min": 1.5,
                 "warm_start_savings_min": 1.2}


_RATES = np.array([0.2, 0.2, 0.25, 0.15])


def _simulation(engine, disc="fifo", seed=11, **options):
    """The closed-loop workload's simulation: four sources through one
    gateway with latency 0.5 (``options``: buffer sizes and drop
    policy)."""
    net = single_gateway(4, mu=1.0).with_latencies({"g0": 0.5})
    return NetworkSimulation(net, discipline_kind=disc, seed=seed,
                             initial_rates=_RATES, engine=engine, **options)


def _closed_loop_run(engine, horizon, intervals, disc="fifo", **options):
    """One closed-loop-style run: simulate ``intervals`` control
    windows with a rate update between each (what the closed loop
    does), returning (events, seconds, statistics snapshot)."""
    sim = _simulation(engine, disc, **options)
    window = horizon / intervals
    t0 = time.perf_counter()
    for k in range(intervals):
        sim.run_for(window)
        sim.set_rates(_RATES * (1.0 + 0.1 * ((k % 3) - 1)))
    elapsed = time.perf_counter() - t0
    stats = (sim.mean_queue_lengths()["g0"], sim.throughput(),
             sim.events_processed, sim.drop_fractions()["g0"])
    return sim.events_processed, elapsed, stats


def bench_fifo_kernel(pairs=7, horizon=20000.0, intervals=20):
    """Paired legacy/fast events-per-second on the FIFO workload."""
    ratios = []
    legacy_rate = fast_rate = 0.0
    for p in range(pairs):
        ev_l, t_l, stats_l = _closed_loop_run("legacy", horizon, intervals)
        ev_f, t_f, stats_f = _closed_loop_run("fast", horizon, intervals)
        if p == 0:
            assert ev_l == ev_f, "engines processed different event counts"
            assert np.array_equal(stats_l[0], stats_f[0]), \
                "mean queues differ between engines"
            assert np.array_equal(stats_l[1], stats_f[1]), \
                "throughput differs between engines"
        legacy_rate = ev_l / t_l
        fast_rate = ev_f / t_f
        ratios.append(fast_rate / legacy_rate)
    return {"pairs": pairs, "horizon": horizon, "intervals": intervals,
            "legacy_events_per_s": round(legacy_rate),
            "fast_events_per_s": round(fast_rate),
            "pair_ratios": [round(r, 2) for r in sorted(ratios)],
            "speedup": round(statistics.median(ratios), 2)}


def _rows_equal(rows_a, rows_b):
    """Cell-wise equality that treats nan == nan (silent connections
    report nan delays in both engines)."""
    if len(rows_a) != len(rows_b):
        return False
    for row_a, row_b in zip(rows_a, rows_b):
        for cell_a, cell_b in zip(row_a, row_b):
            if cell_a != cell_b and not (
                    isinstance(cell_a, float) and isinstance(cell_b, float)
                    and np.isnan(cell_a) and np.isnan(cell_b)):
                return False
    return True


def bench_f12(pairs=3, horizon=30000.0, warmup=3000.0, loop_steps=50,
              loop_interval=400.0):
    """Paired end-to-end timings of the F12 experiment, legacy engine
    against the fast kernel's Python loops (``engine="fast"``; the C
    loop that ``"auto"`` runs is ``bench_compiled.py``'s)."""
    kwargs = dict(horizon=horizon, warmup=warmup, loop_steps=loop_steps,
                  loop_interval=loop_interval)
    ratios = []
    t_legacy = t_fast = 0.0
    for p in range(pairs):
        t0 = time.perf_counter()
        legacy = run_f12_sim_validation(engine="legacy", **kwargs)
        t_legacy = time.perf_counter() - t0
        t0 = time.perf_counter()
        fast = run_f12_sim_validation(engine="fast", **kwargs)
        t_fast = time.perf_counter() - t0
        if p == 0 and not _rows_equal(legacy.rows, fast.rows):
            raise AssertionError("F12 rows differ between engines")
        ratios.append(t_legacy / t_fast)
    return {"pairs": pairs, "horizon": horizon, "loop_steps": loop_steps,
            "legacy_s": round(t_legacy, 4), "fast_s": round(t_fast, 4),
            "pair_ratios": [round(r, 2) for r in sorted(ratios)],
            "speedup": round(statistics.median(ratios), 2)}


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
    if quick:
        fifo = bench_fifo_kernel(pairs=3, horizon=4000.0, intervals=8)
        f12 = bench_f12(pairs=1, horizon=4000.0, warmup=400.0,
                        loop_steps=10, loop_interval=200.0)
        warm = bench_warm_start(points=12, passes=2)
    else:
        fifo = bench_fifo_kernel()
        f12 = bench_f12()
        warm = bench_warm_start()
    return {"fifo_closed_loop": fifo, "f12_end_to_end": f12,
            "warm_start": warm}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_sim.json",
                        help="output JSON path (default: BENCH_sim.json)")
    parser.add_argument("--quick", action="store_true",
                        help="small workloads, judged against the quick "
                             "floors (no JSON rewrite by default)")
    args = parser.parse_args(argv)

    results = run_benchmarks(quick=args.quick)
    fifo, f12, warm = (results["fifo_closed_loop"],
                       results["f12_end_to_end"], results["warm_start"])
    print(f"fifo kernel: legacy {fifo['legacy_events_per_s']} ev/s, fast "
          f"{fifo['fast_events_per_s']} ev/s -> {fifo['speedup']}x "
          f"(median of {fifo['pairs']} pairs)")
    print(f"f12 e2e    : legacy {f12['legacy_s']}s, fast {f12['fast_s']}s "
          f"-> {f12['speedup']}x")
    print(f"warm start : {warm['cold_iterations']} cold vs "
          f"{warm['warm_iterations']} warm iterations -> "
          f"{warm['speedup']}x")

    targets = QUICK_TARGETS if args.quick else TARGETS
    ok = (fifo["speedup"] >= targets["fifo_events_speedup_min"]
          and f12["speedup"] >= targets["f12_speedup_min"]
          and warm["speedup"] >= targets["warm_start_savings_min"])
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
