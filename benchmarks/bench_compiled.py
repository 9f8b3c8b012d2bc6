"""Microbenchmark for the compiled (C) tier.

Standalone (not collected by pytest): times the compiled hot paths
against the fastest pre-existing implementations on

* a closed-loop workload (four sources through one gateway, a rate
  change every control window) under FIFO, Fair Share, Fair Queueing,
  and FIFO with drop-from-longest eviction at a 4-packet buffer (which
  ~12% of arrivals find full) — ``engine="auto"`` (the runtime-built C
  event loop) vs ``engine="fast"`` (the Python loops of the
  struct-of-arrays kernel), in events/sec, plus each side's fixed cost
  per call, in µs per 1-unit ``run_until``,
* the F12 experiment end to end (three open-loop queue-law validations
  and a closed loop) on the same two engines,
* the Fair Share queue-law microbench — the compiled
  ``fs_queue_batch`` kernel vs the numpy ``sorted`` pipeline on a
  ``(64, 512)`` rate batch,

verifies bit-identical outputs on every pair, and writes the numbers
to ``BENCH_compiled.json``.

Every speedup is the **median of per-pair ratios** over interleaved
runs: the per-event cost of either side swings by 2x+ with machine
noise, and each ratio compares two adjacent runs, so slow spells hit
both implementations alike.  Compilation cost is kept out of the
measured runs — :func:`repro.backends.compiled.warmup` builds (or
cache-loads) the C library up front, and its ``compile.cext`` Timer
span (absent on a cache hit) is recorded in the provenance block so
the JSON separates C-build warmup from steady-state throughput.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_compiled.py [--quick]

The acceptance targets are the ``TARGETS`` speedups over the fast
kernel on the four closed loops and on F12, and over the numpy pipeline
on the Fair Share queue-law microbench (quick mode shrinks the closed
loops and F12, runs the queue law at full shape with fewer
repetitions, and judges against the lower ``QUICK_TARGETS``).  When
the C library cannot be built at all (no C compiler) the benchmark
prints a notice and exits 0 — the compiled tier is optional by
contract.
"""

import argparse
import json
import statistics
import sys
import time

import numpy as np

from repro.backends import compiled
from repro.core.fairshare import _sorted_queues
from repro.core.topology import single_gateway
from repro.experiments.exp_f12_sim_validation import run_f12_sim_validation
from repro.simulation.network_sim import NetworkSimulation

#: The closed loops: BENCH_compiled.json key -> (discipline, options).
LOOPS = {"compiled_fifo": ("fifo", {}),
         "compiled_fair_share": ("fair-share", {}),
         "compiled_fair_queueing": ("fair-queueing", {}),
         "compiled_longest_drop": ("fifo", dict(buffer_sizes=4,
                                                drop_policy="longest"))}

#: Full-scale minimum speedups (the committed BENCH_compiled.json
#: targets): the compiled C event loop vs the Python loops of the fast
#: kernel on each closed loop and on F12, and the compiled Fair Share
#: queue law vs the numpy sorted pipeline.
TARGETS = {"compiled_fifo_speedup_min": 6.0,
           "compiled_fair_share_speedup_min": 8.0,
           "compiled_fair_queueing_speedup_min": 8.0,
           "compiled_longest_drop_speedup_min": 6.0,
           "f12_end_to_end_speedup_min": 6.0,
           "fs_queue_law_speedup_min": 2.0}

#: Quick-mode floors: small workloads amortise less of the per-call
#: costs on both sides, so the speedups shrink for reasons unrelated
#: to regressions.
QUICK_TARGETS = {"compiled_fifo_speedup_min": 4.0,
                 "compiled_fair_share_speedup_min": 5.0,
                 "compiled_fair_queueing_speedup_min": 5.0,
                 "compiled_longest_drop_speedup_min": 4.0,
                 "f12_end_to_end_speedup_min": 3.0,
                 "fs_queue_law_speedup_min": 1.5}

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


def _call_cost_us(engine, disc, calls, options):
    """µs per ``run_for(1.0)`` after a 10-unit warm-up: what one call
    costs beyond its ~2.4 events."""
    sim = _simulation(engine, disc, **options)
    sim.run_for(10.0)
    t0 = time.perf_counter()
    for _ in range(calls):
        sim.run_for(1.0)
    return (time.perf_counter() - t0) / calls * 1e6


def bench_compiled_loop(disc, options=None, pairs=7, horizon=20000.0,
                        intervals=20, calls=2000):
    """Paired fast/compiled events-per-second on the closed-loop
    workload of ``disc`` (``options``: buffer sizes and drop policy),
    and each side's cost per 1-unit call."""
    options = dict(options or {})
    ratios = []
    fast_rate = compiled_rate = 0.0
    fast_us, compiled_us = [], []
    for p in range(pairs):
        ev_f, t_f, stats_f = _closed_loop_run("fast", horizon, intervals,
                                              disc, **options)
        ev_c, t_c, stats_c = _closed_loop_run("auto", horizon, intervals,
                                              disc, **options)
        if p == 0:
            assert _simulation("auto", disc, **options).engine == \
                "compiled"
            assert ev_f == ev_c, "engines processed different event counts"
            assert np.array_equal(stats_f[0], stats_c[0]), \
                "mean queues differ between engines"
            assert np.array_equal(stats_f[1], stats_c[1]), \
                "throughput differs between engines"
            assert np.array_equal(stats_f[3], stats_c[3]), \
                "drop fractions differ between engines"
            if "buffer_sizes" in options:
                assert stats_c[3].sum() > 0, "the buffer never overflowed"
        fast_rate = ev_f / t_f
        compiled_rate = ev_c / t_c
        ratios.append(compiled_rate / fast_rate)
        fast_us.append(_call_cost_us("fast", disc, calls, options))
        compiled_us.append(_call_cost_us("auto", disc, calls, options))
    return {"pairs": pairs, "horizon": horizon, "intervals": intervals,
            "fast_events_per_s": round(fast_rate),
            "compiled_events_per_s": round(compiled_rate),
            "pair_ratios": [round(r, 2) for r in sorted(ratios)],
            "speedup": round(statistics.median(ratios), 2),
            "fast_us_per_call": round(statistics.median(fast_us), 2),
            "compiled_us_per_call": round(statistics.median(compiled_us),
                                          2)}


def _rows_equal(rows_a, rows_b):
    """Cell-wise equality that treats nan == nan (silent connections
    report nan delays on both engines)."""
    if len(rows_a) != len(rows_b):
        return False
    for row_a, row_b in zip(rows_a, rows_b):
        for cell_a, cell_b in zip(row_a, row_b):
            if cell_a != cell_b and not (
                    isinstance(cell_a, float) and isinstance(cell_b, float)
                    and np.isnan(cell_a) and np.isnan(cell_b)):
                return False
    return True


def bench_f12(pairs=5, horizon=30000.0, warmup=3000.0, loop_steps=50,
              loop_interval=400.0):
    """Paired fast/compiled end-to-end timings of the F12 experiment;
    the two engines' rows are checked equal before any timing."""
    kwargs = dict(horizon=horizon, warmup=warmup, loop_steps=loop_steps,
                  loop_interval=loop_interval)
    if not _rows_equal(run_f12_sim_validation(engine="fast", **kwargs).rows,
                       run_f12_sim_validation(engine="auto", **kwargs).rows):
        raise AssertionError("F12 rows differ between engines")
    ratios = []
    t_fast = t_compiled = 0.0
    for _ in range(pairs):
        t0 = time.perf_counter()
        run_f12_sim_validation(engine="fast", **kwargs)
        t_fast = time.perf_counter() - t0
        t0 = time.perf_counter()
        run_f12_sim_validation(engine="auto", **kwargs)
        t_compiled = time.perf_counter() - t0
        ratios.append(t_fast / t_compiled)
    return {"pairs": pairs, "horizon": horizon, "loop_steps": loop_steps,
            "fast_s": round(t_fast, 4), "compiled_s": round(t_compiled, 4),
            "pair_ratios": [round(r, 2) for r in sorted(ratios)],
            "speedup": round(statistics.median(ratios), 2)}


def bench_fs_queue_law(pairs=7, members=64, n=512, reps=30, seed=5):
    """Paired sorted/compiled timings of the Fair Share queue law.

    One rep evaluates the queue law on a ``(members, n)`` batch — the
    numpy sorted pipeline vs the compiled kernel, proven bit-identical
    on the first pair.
    """
    rng = np.random.default_rng(seed)
    rates = rng.uniform(0.0, 2.0 / n, size=(members, n))
    rates[0, :8] = 0.0                      # idle sources
    rates[1] = 2.0 / n                      # overloaded row

    def run(kernel):
        t0 = time.perf_counter()
        for _ in range(reps):
            out = kernel(rates, 1.0)
        return out, time.perf_counter() - t0

    ratios = []
    sorted_s = compiled_s = 0.0
    for p in range(pairs):
        out_s, sorted_s = run(_sorted_queues)
        out_c, compiled_s = run(compiled.fs_queue_batch)
        if p == 0:
            assert np.array_equal(out_s, out_c), \
                "compiled queue law differs from the sorted pipeline"
        ratios.append(sorted_s / compiled_s)
    return {"pairs": pairs, "members": members, "n": n, "reps": reps,
            "sorted_s": round(sorted_s, 4),
            "compiled_s": round(compiled_s, 4),
            "pair_ratios": [round(r, 2) for r in sorted(ratios)],
            "speedup": round(statistics.median(ratios), 2)}


def provenance():
    """The kernel tier plus the ``compile.cext`` Timer span (the C
    build; absent when the library came from the cache)."""
    timers = compiled.metrics().snapshot()["timers"]
    return {"kernel_tier": compiled.tier(),
            "packet_engine": ("cext" if compiled.packet_lib() is not None
                              else "python"),
            "timers": {name: {"total_seconds": round(t["total_seconds"],
                                                     4),
                              "count": t["count"]}
                       for name, t in timers.items()}}


def run_benchmarks(quick=False):
    compiled.warmup()
    if quick:
        results = {name: bench_compiled_loop(disc, options, pairs=3,
                                             horizon=4000.0, intervals=8,
                                             calls=300)
                   for name, (disc, options) in LOOPS.items()}
        results["f12_end_to_end"] = bench_f12(
            pairs=3, horizon=4000.0, warmup=400.0, loop_steps=10,
            loop_interval=200.0)
        # The full (64, 512) shape with fewer pairs and reps: a smaller
        # batch mostly times the numpy pipeline's fixed per-call cost,
        # not the queue law the compiled kernel replaces.
        results["fs_queue_law"] = bench_fs_queue_law(pairs=3, members=64,
                                                     n=512, reps=5)
    else:
        results = {name: bench_compiled_loop(disc, options)
                   for name, (disc, options) in LOOPS.items()}
        results["f12_end_to_end"] = bench_f12()
        results["fs_queue_law"] = bench_fs_queue_law()
    results["provenance"] = provenance()
    return results


def compiled_tier_available() -> bool:
    """Anything to benchmark?  (The C library has built.)"""
    return compiled.tier() == "cext"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_compiled.json",
                        help="output JSON path (default: "
                             "BENCH_compiled.json)")
    parser.add_argument("--quick", action="store_true",
                        help="small workloads, judged against the quick "
                             "floors (no JSON rewrite by default)")
    args = parser.parse_args(argv)

    if not compiled_tier_available():
        print("compiled tier unavailable (no C compiler) — "
              "nothing to benchmark; the pure-python fallback serves "
              "all paths")
        return 0

    results = run_benchmarks(quick=args.quick)
    f12 = results["f12_end_to_end"]
    fs = results["fs_queue_law"]
    prov = results["provenance"]
    for name in LOOPS:
        loop = results[name]
        print(f"{name[len('compiled_'):]:>12} loop: fast "
              f"{loop['fast_events_per_s']} ev/s, "
              f"compiled {loop['compiled_events_per_s']} ev/s -> "
              f"{loop['speedup']}x (median of {loop['pairs']} pairs); "
              f"per 1-unit call: fast {loop['fast_us_per_call']} us, "
              f"compiled {loop['compiled_us_per_call']} us")
    print(f"f12 end to end: fast {f12['fast_s']}s, compiled "
          f"{f12['compiled_s']}s -> {f12['speedup']}x (median of "
          f"{f12['pairs']} pairs)")
    print(f"fs queue law: sorted {fs['sorted_s']}s, compiled "
          f"{fs['compiled_s']}s for {fs['reps']} reps on "
          f"({fs['members']}, {fs['n']}) -> {fs['speedup']}x")
    spans = ", ".join(f"{name} {t['total_seconds']}s/{t['count']}"
                      for name, t in sorted(prov["timers"].items()))
    print(f"provenance  : tier {prov['kernel_tier']}, packet engine "
          f"{prov['packet_engine']}, timers: {spans or 'none'}")

    targets = QUICK_TARGETS if args.quick else TARGETS
    ok = all(results[name]["speedup"] >= targets[f"{name}_speedup_min"]
             for name in (*LOOPS, "f12_end_to_end", "fs_queue_law"))
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
