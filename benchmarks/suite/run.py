"""The repository benchmark: four workloads, end-to-end and per-layer
metrics, correctness checks.

From the repository root::

    python3 benchmarks/suite/run.py [--workload W] [--seed S]
        [--seconds T] [--trace [0|1]] [--runs N] [--out FILE] [--smoke]
    python3 benchmarks/suite/run.py --compare PARENT.json CHANGE.json

Each run of a workload is a fresh worker process (``worker.py``), so
process-level caches never carry over between runs.  Before it, the
workload is set up ``SETUP_REPEATS - 1`` times in separate processes;
``setup_s`` is the median of those and the measured run's own set-up,
each scaled by the speed probe the worker times right after it (see
``metrics.py``).  The median also drops the first set-up in a fresh
checkout, which compiles bytecode and the C tier.

Prints every metric by name with its unit, then, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Exits 1
when a correctness check failed and 2, without that line, when a worker
could not run.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import metrics

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
RESULTS = SUITE / "results"
WORKLOADS = ("paper", "fuzz", "ensemble", "packet")
DEFAULT_SECONDS = 15
SETUP_REPEATS = 3
#: Whole-run budget: a run must finish well inside 180 s.
RUN_BUDGET_S = 170.0


class WorkerError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    # Only this checkout's program: never one found elsewhere.
    env["PYTHONPATH"] = str(ROOT / "src")
    # One BLAS thread per process: the machine has few cores and the
    # paper workload's own process pool uses all of them.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args, deadline: float) -> dict:
    """Run ``worker.py args``; its last stdout line as JSON."""
    cmd = [sys.executable, str(SUITE / "worker.py"), *args,
           "--spawned", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0,
                                                deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        # The worker may have started a process pool: end the group.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"worker {' '.join(args)} timed out") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {' '.join(args)} failed "
                          f"(exit {proc.returncode}):\n{err.strip()}")
    return json.loads(lines[-1])


def one_run(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool) -> dict:
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    if smoke:
        args.append("--smoke")
    setups = [spawn(args + ["--setup-only"], deadline)
              for _ in range(0 if smoke else SETUP_REPEATS - 1)]
    result = spawn(args, deadline)
    setups.append(result)
    result["setup_samples"] = [s["setup_s"] for s in setups]
    result["setup_s"] = statistics.median(
        s["setup_s"] / metrics.slowdown(s["setup_probe_s"]) for s in setups)
    result["traced"] = trace
    result["metrics"] = (metrics.per_layer(result) if trace
                         else metrics.end_to_end(result))
    result["run_s"] = time.monotonic() - start
    return result


def fingerprint(result: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        cc = subprocess.run(["cc", "--version"], capture_output=True,
                            text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        cc = "none"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "cc": cc,
            "backend": result["backend"],
            "kernel_tier": result["kernel_tier"]}


def units_of() -> dict:
    units = {name: unit for name, unit, _, _ in metrics.END_TO_END}
    units.update({name: unit for name, unit, _
                  in metrics.per_layer_metrics()})
    return units


def report(result: dict) -> None:
    units = units_of()
    checks = result["checks"]
    label = "traced" if result["traced"] else "untraced"
    print(f"[{result['workload']} seed={result['seed']} {label}] "
          f"{result['passes']} untraced + {result['traced_passes']} "
          f"traced passes in {result['run_s']:.1f} s; raw setup samples "
          f"{[round(s, 3) for s in result['setup_samples']]} s; machine "
          f"slowdown {metrics.slowdown(result['probe_s']):.3f}; raw "
          f"throughput {metrics.rate(result['units'], scaled=False):.6g} "
          f"{result['item']}/s")
    values = result["metrics"]
    zero = [name for name, v in values.items() if v == 0]
    for name, value in values.items():
        if value != 0:
            unit = units[name]
            if name == "work_per_s":
                unit = f"{result['item']}/s"
            print(f"  {name:<52} {value:>16.6g} {unit}")
    if zero:
        print(f"  ({len(zero)} per-layer metrics read 0: layers this "
              f"workload does not reach)")
    for u in result["units"]:
        print(f"  unit {u['name']:<30} {metrics.median(u['seconds']):8.3f} s"
              f" raw median of {len(u['seconds'])}, {u['work']} "
              f"{result['item']}")
    ratio = checks["failed"] / checks["attempted"] if checks["attempted"] \
        else 0.0
    print(f"  checks: {checks['attempted']} attempted, {checks['failed']} "
          f"failed (check_fail_ratio {ratio:g})")
    for failure in checks["failures"]:
        print(f"    FAIL {failure}")


def summarise(runs) -> dict:
    """Median, quartiles and count of each metric over runs."""
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        q = (statistics.quantiles(values, n=4) if len(values) > 1
             else [values[0]] * 3)
        out[name] = {"median": statistics.median(values), "q1": q[0],
                     "q3": q[2], "runs": len(values)}
    return out


def save(path: Path, runs) -> None:
    """Append runs to a results file (alternate two checkouts writing to
    two files to get interleaved pairs for ``--compare``)."""
    data = {"runs": []}
    if path.exists():
        data = json.loads(path.read_text())
    data["runs"] += runs
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1) + "\n")


# ----------------------------------------------------------------------
# --compare: the claim and regression rules for a small, noisy machine
# ----------------------------------------------------------------------
def judge(parent, change, better: str, bound: float) -> tuple:
    """Verdict for one (metric, workload) pair.

    ``better`` when the change wins at least 9 in 10 pairs (ties count
    for neither) and the medians differ by more than the parent's
    quartile spread; ``worse`` when the change's median is worse than
    the parent's by more than ``bound``; ``unresolved`` when either
    side's quartile spread exceeds ``bound`` and not every change run
    beats every parent run; ``same`` otherwise.
    """
    sign = 1.0 if better == "higher" else -1.0

    def spread(values):
        if len(values) < 2:
            return 0.0, 0.0
        q = statistics.quantiles(values, n=4)
        return q[2] - q[0], (q[2] - q[0]) / statistics.median(values)

    med_p, med_c = statistics.median(parent), statistics.median(change)
    iqr_p, rel_p = spread(parent)
    _, rel_c = spread(change)
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    gain = sign * (med_c - med_p) / med_p
    dominates = min(sign * c for c in change) > max(sign * p
                                                    for p in parent)
    if max(rel_p, rel_c) > bound and not dominates:
        verdict = "unresolved"
    elif gain < -bound:
        verdict = "worse"
    elif wins >= 0.9 * len(pairs) and abs(med_c - med_p) > iqr_p:
        verdict = "better"
    else:
        verdict = "same"
    return verdict, med_p, med_c, gain, wins, len(pairs), rel_p, rel_c


def compare(parent_path: str, change_path: str) -> int:
    sides = []
    for path in (parent_path, change_path):
        runs = json.loads(Path(path).read_text())["runs"]
        by_workload = {}
        for r in runs:
            if not r["traced"]:
                by_workload.setdefault(r["workload"], []).append(r)
        sides.append(by_workload)
    print(f"{'workload':<9} {'metric':<12} {'parent':>12} {'change':>12} "
          f"{'gain':>8} {'wins':>6} {'spreads':>13}  verdict")
    bad = 0
    for workload in WORKLOADS:
        if workload not in sides[0] or workload not in sides[1]:
            continue
        for name, _, better, bound in metrics.END_TO_END:
            parent = [r["metrics"][name] for r in sides[0][workload]]
            change = [r["metrics"][name] for r in sides[1][workload]]
            verdict, mp, mc, gain, wins, n, sp, sc = judge(
                parent, change, better, bound)
            bad += verdict in ("worse", "unresolved")
            print(f"{workload:<9} {name:<12} {mp:>12.6g} {mc:>12.6g} "
                  f"{gain:>+8.2%} {wins:>3}/{n:<2} {sp:>6.1%}/{sc:<6.1%}"
                  f"  {verdict}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed; run k of --runs uses seed + k "
                             "(default 1; use 2 as the held-out seed)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help=f"timed phase per run (default "
                             f"{DEFAULT_SECONDS})")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1),
                        help="traced run: per-layer metrics instead of "
                             "end-to-end ones")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload")
    parser.add_argument("--out", type=Path,
                        help="append every run to this JSON file")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, two passes, one set-up: checks "
                             "the harness, not the speed")
    parser.add_argument("--compare", nargs=2,
                        metavar=("PARENT.json", "CHANGE.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.seed < 0 or args.runs < 1 or args.seconds <= 0:
        parser.error("--seed must be >= 0, --runs >= 1, --seconds > 0")

    seconds = 0.0 if args.smoke else args.seconds
    runs = []
    try:
        for workload in ([args.workload] if args.workload else WORKLOADS):
            for k in range(args.runs):
                result = one_run(workload, args.seed + k, seconds,
                                 bool(args.trace), args.smoke)
                result["fingerprint"] = fingerprint(result)
                report(result)
                runs.append(result)
                if result["trace"] is not None:
                    RESULTS.mkdir(exist_ok=True)
                    (RESULTS / f"trace-{workload}.json").write_text(
                        json.dumps(result["trace"], indent=1) + "\n")
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"fingerprint: {json.dumps(runs[0]['fingerprint'])}")
    if args.out:
        save(args.out, runs)

    attempted = sum(r["checks"]["attempted"] for r in runs)
    failed = sum(r["checks"]["failed"] for r in runs)
    units = units_of()
    if len(runs) == 1:
        values = runs[0]["metrics"]
    else:
        values = {}
        for workload in dict.fromkeys(r["workload"] for r in runs):
            summary = summarise([r for r in runs
                                 if r["workload"] == workload])
            for name, s in summary.items():
                print(f"{workload:<9} {name:<52} median {s['median']:.6g}"
                      f" [q1 {s['q1']:.6g}, q3 {s['q3']:.6g}] "
                      f"n={s['runs']} {units[name]}")
                values[f"{workload}.{name}"] = s["median"]
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value,
                           "unit": units[name.split(".", 1)[1]
                                         if len(runs) > 1 else name]}
                    for name, value in values.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
