"""Performance regression gate for the batched trajectory engine, the
fast simulation kernel, the blocked-ensemble scale path, the
controller zoo's batched paths, the structural chaos layer, and the
heterogeneous-clock asynchronous engine.

Re-runs the core microbenchmarks (``bench_core_engine.py``), the
warm-start fixed-point benchmark (``bench_sim_kernel.py``), the
blocked-vs-one-shot scale benchmarks (``bench_scale.py``), the
controller benchmarks (``bench_controllers.py``), the chaos-layer
benchmarks (``bench_chaos.py``), the asynchronous-engine benchmarks
(``bench_async.py``), and the compiled-tier benchmarks
(``bench_compiled.py``), compares the fresh ratios against the
committed baselines in ``BENCH_core.json``, ``BENCH_sim.json``,
``BENCH_scale.json``, ``BENCH_controllers.json``,
``BENCH_chaos.json``, ``BENCH_async.json``, and
``BENCH_compiled.json``, and exits nonzero
when performance regressed by more than the threshold (default 25%).
The compiled-tier leg is skipped with a notice when the C library
cannot be built in the environment (no C compiler) — the tier is
optional, so a bare install must stay green.

Two modes:

* **full** (default) — identical workloads to the committed baselines.
  Each fresh speedup must stay above ``max(target_min,
  baseline_speedup * (1 - threshold))`` — i.e. within 25% of the
  recorded machine's number, but never judged more strictly than the
  repo's stated minimum targets.
* ``--quick`` — much smaller workloads for CI.  Speedups shrink with
  the workload, so quick mode only enforces the minimum targets (the
  lower ``quick_targets`` recorded in each BENCH file), not the
  baseline-relative floor.

Run from the repository root::

    PYTHONPATH=src python benchmarks/regression_gate.py [--quick]

The comparison logic is pure (:func:`compare`) so the unit tests can
exercise the gate without timing anything.
"""

import argparse
import json
import sys
from pathlib import Path

from bench_async import QUICK_TARGETS as ASYNC_QUICK_TARGETS
from bench_async import run_benchmarks as run_async_benchmarks
from bench_chaos import QUICK_TARGETS as CHAOS_QUICK_TARGETS
from bench_chaos import run_benchmarks as run_chaos_benchmarks
from bench_compiled import QUICK_TARGETS as COMPILED_QUICK_TARGETS
from bench_compiled import compiled_tier_available
from bench_compiled import run_benchmarks as run_compiled_benchmarks
from bench_controllers import QUICK_TARGETS as CTRL_QUICK_TARGETS
from bench_controllers import run_benchmarks as run_controller_benchmarks
from bench_core_engine import bench_ensemble, bench_quadratic_sweep
from bench_scale import QUICK_TARGETS as SCALE_QUICK_TARGETS
from bench_scale import run_benchmarks as run_scale_benchmarks
from bench_sim_kernel import QUICK_TARGETS as SIM_QUICK_TARGETS
from bench_sim_kernel import run_benchmarks as run_sim_benchmarks

#: The core-engine benchmarks the gate tracks: (baseline key, targets key).
GATED = [("ensemble", "ensemble_speedup_min"),
         ("quadratic_sweep", "quadratic_sweep_speedup_min")]

#: The warm-start fixed-point benchmark (baseline BENCH_sim.json).
GATED_SIM = [("warm_start", "warm_start_savings_min")]

#: The blocked-ensemble scale benchmarks (baseline BENCH_scale.json).
#: "speedup" holds a ratio in both: one-shot/blocked peak memory and
#: one-shot/blocked wall time, so compare() applies unchanged.
GATED_SCALE = [("memory", "scale_memory_ratio_min"),
               ("throughput", "scale_throughput_ratio_min")]

#: The controller-zoo benchmarks (baseline BENCH_controllers.json).
GATED_CONTROLLERS = [
    ("controlled_ensemble", "controllers_ensemble_speedup_min"),
    ("tcp_delta_batch", "controllers_delta_batch_speedup_min")]

#: The chaos-layer benchmarks (baseline BENCH_chaos.json).  "speedup"
#: holds clean/chaos overhead ratios, so compare() applies unchanged:
#: the floor bounds how much of clean throughput the chaos path keeps.
GATED_CHAOS = [("empty_plan", "chaos_empty_plan_ratio_min"),
               ("active_ensemble", "chaos_active_ensemble_ratio_min")]

#: The asynchronous-engine benchmarks (baseline BENCH_async.json).
#: "speedup" holds batched-vs-scalar for the ensemble and the
#: tau=0/tau=8 throughput ratio for the delay ring, so compare()
#: applies unchanged.
GATED_ASYNC = [("async_ensemble", "async_ensemble_speedup_min"),
               ("delay_ring", "async_delay_ring_ratio_min")]

#: The compiled-tier benchmarks (baseline BENCH_compiled.json).
#: Skipped with a notice when the C library cannot be built in this
#: environment (no C compiler): the tier is optional by contract, so
#: its absence must not fail CI on a bare install.
GATED_COMPILED = [("compiled_fifo", "compiled_fifo_speedup_min"),
                  ("compiled_fair_share", "compiled_fair_share_speedup_min"),
                  ("compiled_fair_queueing",
                   "compiled_fair_queueing_speedup_min"),
                  ("compiled_longest_drop",
                   "compiled_longest_drop_speedup_min"),
                  ("f12_end_to_end", "f12_end_to_end_speedup_min"),
                  ("fs_queue_law", "fs_queue_law_speedup_min")]


def compare(baseline, fresh, threshold=0.25, floor_only=False,
            gated=GATED):
    """Judge fresh benchmark speedups against a committed baseline.

    Args:
        baseline: the parsed committed ``BENCH_core.json``.
        fresh: mapping with the same benchmark keys, each holding a
            ``"speedup"`` entry (other keys are ignored).
        threshold: allowed fractional regression relative to the
            baseline speedup (0.25 = fresh may be up to 25% slower).
        floor_only: enforce only the minimum targets, ignoring the
            baseline-relative floor (quick mode — small workloads have
            smaller speedups for reasons unrelated to regressions).
        gated: the (baseline key, targets key) pairs to judge —
            :data:`GATED` for the core engine, :data:`GATED_SIM` for
            the warm-start cache, and so on.

    Returns:
        ``(ok, report)`` — ``ok`` is True when nothing regressed;
        ``report`` is a list of per-benchmark result dicts with keys
        ``name``, ``baseline``, ``fresh``, ``floor``, ``ok``.
    """
    if not (0.0 <= threshold < 1.0):
        raise ValueError(f"threshold must be in [0, 1), got {threshold!r}")
    report = []
    for name, target_key in gated:
        base_speedup = float(baseline[name]["speedup"])
        target_min = float(baseline["targets"][target_key])
        if floor_only:
            floor = target_min
        else:
            floor = max(target_min, base_speedup * (1.0 - threshold))
        fresh_speedup = float(fresh[name]["speedup"])
        report.append({"name": name,
                       "baseline": base_speedup,
                       "fresh": fresh_speedup,
                       "floor": round(floor, 2),
                       "ok": fresh_speedup >= floor})
    return all(entry["ok"] for entry in report), report


def format_report(report) -> str:
    lines = []
    for entry in report:
        status = "OK " if entry["ok"] else "FAIL"
        lines.append(
            f"[{status}] {entry['name']:>15}: fresh {entry['fresh']}x "
            f"(baseline {entry['baseline']}x, floor {entry['floor']}x)")
    return "\n".join(lines)


def run_fresh(quick=False):
    """Time the gated core-engine benchmarks at full or quick scale."""
    if quick:
        ensemble = bench_ensemble(members=64, n=8, steps=500)
        sweep_res = bench_quadratic_sweep(points=100, transient=1000,
                                          keep=256)
    else:
        ensemble = bench_ensemble()
        sweep_res = bench_quadratic_sweep()
    return {"ensemble": ensemble, "quadratic_sweep": sweep_res}


def _quick_baseline_for_mode(baseline, quick, quick_targets):
    """In quick mode, judge against the lower quick floors recorded in
    the baseline (fallback: the benchmark module's constants)."""
    if not quick:
        return baseline
    swapped = dict(baseline)
    swapped["targets"] = baseline.get("quick_targets", quick_targets)
    return swapped


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline",
        default=str(Path(__file__).resolve().parent.parent /
                    "BENCH_core.json"),
        help="committed baseline JSON (default: repo BENCH_core.json)")
    parser.add_argument(
        "--sim-baseline",
        default=str(Path(__file__).resolve().parent.parent /
                    "BENCH_sim.json"),
        help="committed warm-start baseline JSON (default: repo "
             "BENCH_sim.json)")
    parser.add_argument(
        "--scale-baseline",
        default=str(Path(__file__).resolve().parent.parent /
                    "BENCH_scale.json"),
        help="committed scale baseline JSON (default: repo "
             "BENCH_scale.json)")
    parser.add_argument(
        "--controllers-baseline",
        default=str(Path(__file__).resolve().parent.parent /
                    "BENCH_controllers.json"),
        help="committed controller baseline JSON (default: repo "
             "BENCH_controllers.json)")
    parser.add_argument(
        "--chaos-baseline",
        default=str(Path(__file__).resolve().parent.parent /
                    "BENCH_chaos.json"),
        help="committed chaos-layer baseline JSON (default: repo "
             "BENCH_chaos.json)")
    parser.add_argument(
        "--async-baseline",
        default=str(Path(__file__).resolve().parent.parent /
                    "BENCH_async.json"),
        help="committed asynchronous-engine baseline JSON (default: "
             "repo BENCH_async.json)")
    parser.add_argument(
        "--compiled-baseline",
        default=str(Path(__file__).resolve().parent.parent /
                    "BENCH_compiled.json"),
        help="committed compiled-tier baseline JSON (default: repo "
             "BENCH_compiled.json)")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed fractional regression vs the "
                             "baseline speedup (default 0.25)")
    parser.add_argument("--quick", action="store_true",
                        help="small CI workload; enforce only the "
                             "minimum speedup targets")
    args = parser.parse_args(argv)

    with open(args.baseline) as fh:
        baseline = json.load(fh)
    with open(args.sim_baseline) as fh:
        sim_baseline = json.load(fh)
    with open(args.scale_baseline) as fh:
        scale_baseline = json.load(fh)
    with open(args.controllers_baseline) as fh:
        ctrl_baseline = json.load(fh)
    with open(args.chaos_baseline) as fh:
        chaos_baseline = json.load(fh)
    with open(args.async_baseline) as fh:
        async_baseline = json.load(fh)
    fresh = run_fresh(quick=args.quick)
    ok, report = compare(baseline, fresh, threshold=args.threshold,
                         floor_only=args.quick)
    sim_fresh = run_sim_benchmarks(quick=args.quick)
    sim_ok, sim_report = compare(
        _quick_baseline_for_mode(sim_baseline, args.quick,
                                 SIM_QUICK_TARGETS), sim_fresh,
        threshold=args.threshold, floor_only=args.quick,
        gated=GATED_SIM)
    scale_fresh = run_scale_benchmarks(quick=args.quick)
    scale_ok, scale_report = compare(
        _quick_baseline_for_mode(scale_baseline, args.quick,
                                 SCALE_QUICK_TARGETS), scale_fresh,
        threshold=args.threshold, floor_only=args.quick,
        gated=GATED_SCALE)
    ctrl_fresh = run_controller_benchmarks(quick=args.quick)
    ctrl_ok, ctrl_report = compare(
        _quick_baseline_for_mode(ctrl_baseline, args.quick,
                                 CTRL_QUICK_TARGETS), ctrl_fresh,
        threshold=args.threshold, floor_only=args.quick,
        gated=GATED_CONTROLLERS)
    chaos_fresh = run_chaos_benchmarks(quick=args.quick)
    chaos_ok, chaos_report = compare(
        _quick_baseline_for_mode(chaos_baseline, args.quick,
                                 CHAOS_QUICK_TARGETS), chaos_fresh,
        threshold=args.threshold, floor_only=args.quick,
        gated=GATED_CHAOS)
    async_fresh = run_async_benchmarks(quick=args.quick)
    async_ok, async_report = compare(
        _quick_baseline_for_mode(async_baseline, args.quick,
                                 ASYNC_QUICK_TARGETS), async_fresh,
        threshold=args.threshold, floor_only=args.quick,
        gated=GATED_ASYNC)
    compiled_ok, compiled_report, compiled_notice = True, [], None
    if not compiled_tier_available():
        compiled_notice = ("compiled-tier benchmarks skipped: no "
                           "compiled tier in this environment (no C "
                           "compiler) — pure-python "
                           "fallback in force")
    else:
        with open(args.compiled_baseline) as fh:
            compiled_baseline = json.load(fh)
        compiled_fresh = run_compiled_benchmarks(quick=args.quick)
        compiled_ok, compiled_report = compare(
            _quick_baseline_for_mode(compiled_baseline, args.quick,
                                     COMPILED_QUICK_TARGETS),
            compiled_fresh, threshold=args.threshold,
            floor_only=args.quick, gated=GATED_COMPILED)
    ok = ok and sim_ok and scale_ok and ctrl_ok and chaos_ok \
        and async_ok and compiled_ok
    print(format_report(report + sim_report + scale_report
                        + ctrl_report + chaos_report + async_report
                        + compiled_report))
    ensemble = fresh["ensemble"]
    print(f"       ensemble serial side: Python loop "
          f"{ensemble['serial_s']}s (gated), C ensemble loop "
          f"{ensemble['serial_run_loop_s']}s")
    if compiled_notice:
        print(f"[SKIP] {compiled_notice}")
    print(f"\nregression gate {'PASSED' if ok else 'FAILED'} "
          f"({'quick' if args.quick else 'full'} mode, "
          f"threshold {args.threshold:.0%})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
