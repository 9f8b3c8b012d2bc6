"""Microbenchmark for the compiled (C) tier.

Standalone (not collected by pytest): times the compiled hot paths
against the fastest pre-existing implementations on

* the FIFO closed-loop workload from ``bench_sim_kernel.py`` —
  ``engine="compiled"`` (the runtime-built C event loop) vs
  ``engine="fast"`` (the numpy struct-of-arrays kernel, the previous
  champion), in events/sec,
* the Fair Share queue-law microbench — the compiled
  ``fs_queue_batch`` kernel vs the numpy ``sorted`` pipeline on a
  ``(64, 512)`` rate batch,

verifies bit-identical outputs on every pair, and writes the numbers
to ``BENCH_compiled.json``.

Methodology matches ``bench_sim_kernel.py``: every speedup is the
**median of per-pair ratios** over interleaved runs so slow spells hit
both implementations alike.  Compilation cost is kept out of the
measured runs — :func:`repro.backends.compiled.warmup` builds (or
cache-loads) the C library up front, and the per-phase Timer spans
(``compile.cext`` vs ``run.fifo``) are recorded in the provenance block
so the JSON separates C-build warmup from steady-state throughput.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_compiled.py [--quick]

The acceptance targets are >= 3x events/sec over the fast kernel on
the FIFO closed loop and >= 2x on the Fair Share queue-law microbench
(quick mode shrinks the closed loop, runs the queue law at full shape
with fewer repetitions, and judges against the lower
``QUICK_TARGETS``).  When the C library cannot be built at all (no C
compiler) the benchmark prints a notice and exits 0 — the compiled
tier is optional by contract.
"""

import argparse
import json
import statistics
import sys
import time

import numpy as np

from bench_sim_kernel import _fifo_run

from repro.backends import compiled
from repro.core.fairshare import _sorted_queues

#: Full-scale minimum speedups (the committed BENCH_compiled.json
#: targets): compiled C event loop vs the numpy fast kernel, and the
#: compiled Fair Share queue law vs the numpy sorted pipeline.
TARGETS = {"compiled_fifo_speedup_min": 3.0,
           "fs_queue_law_speedup_min": 2.0}

#: Quick-mode floors: small workloads amortise less per-call overhead
#: (the compiled engine pays a python<->C marshalling toll per
#: ``run_for`` window), so the speedups shrink for reasons unrelated
#: to regressions.
QUICK_TARGETS = {"compiled_fifo_speedup_min": 2.0,
                 "fs_queue_law_speedup_min": 1.5}


def bench_compiled_fifo(pairs=7, horizon=20000.0, intervals=20):
    """Paired fast/compiled events-per-second on the FIFO closed-loop
    workload (same workload the fast-vs-legacy benchmark uses)."""
    ratios = []
    fast_rate = compiled_rate = 0.0
    for p in range(pairs):
        ev_f, t_f, stats_f = _fifo_run("fast", horizon, intervals)
        ev_c, t_c, stats_c = _fifo_run("compiled", horizon, intervals)
        if p == 0:
            assert ev_f == ev_c, "engines processed different event counts"
            assert np.array_equal(stats_f[0], stats_c[0]), \
                "mean queues differ between engines"
            assert np.array_equal(stats_f[1], stats_c[1]), \
                "throughput differs between engines"
        fast_rate = ev_f / t_f
        compiled_rate = ev_c / t_c
        ratios.append(compiled_rate / fast_rate)
    return {"pairs": pairs, "horizon": horizon, "intervals": intervals,
            "fast_events_per_s": round(fast_rate),
            "compiled_events_per_s": round(compiled_rate),
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
    """The kernel tier plus the per-phase compile/run Timer spans."""
    timers = compiled.metrics().snapshot()["timers"]
    return {"kernel_tier": compiled.tier(),
            "fifo_engine": ("cext" if compiled.fifo_lib() is not None
                            else "python"),
            "timers": {name: {"total_seconds": round(t["total_seconds"],
                                                     4),
                              "count": t["count"]}
                       for name, t in timers.items()}}


def run_benchmarks(quick=False):
    compiled.warmup()
    if quick:
        fifo = bench_compiled_fifo(pairs=3, horizon=4000.0, intervals=8)
        # The full (64, 512) shape with fewer pairs and reps: a smaller
        # batch mostly times the numpy pipeline's fixed per-call cost,
        # not the queue law the compiled kernel replaces.
        fs = bench_fs_queue_law(pairs=3, members=64, n=512, reps=5)
    else:
        fifo = bench_compiled_fifo()
        fs = bench_fs_queue_law()
    return {"compiled_fifo": fifo, "fs_queue_law": fs,
            "provenance": provenance()}


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
    fifo, fs = results["compiled_fifo"], results["fs_queue_law"]
    prov = results["provenance"]
    print(f"fifo loop   : fast {fifo['fast_events_per_s']} ev/s, "
          f"compiled {fifo['compiled_events_per_s']} ev/s -> "
          f"{fifo['speedup']}x (median of {fifo['pairs']} pairs)")
    print(f"fs queue law: sorted {fs['sorted_s']}s, compiled "
          f"{fs['compiled_s']}s for {fs['reps']} reps on "
          f"({fs['members']}, {fs['n']}) -> {fs['speedup']}x")
    spans = ", ".join(f"{name} {t['total_seconds']}s/{t['count']}"
                      for name, t in sorted(prov["timers"].items()))
    print(f"provenance  : tier {prov['kernel_tier']}, fifo engine "
          f"{prov['fifo_engine']}, timers: {spans or 'none'}")

    targets = QUICK_TARGETS if args.quick else TARGETS
    ok = (fifo["speedup"] >= targets["compiled_fifo_speedup_min"]
          and fs["speedup"] >= targets["fs_queue_law_speedup_min"])
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
