"""Harness tests for the repository benchmark (not part of tier-1).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/suite -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
sys.path[:0] = [str(SUITE), str(ROOT / "src")]

import metrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_wrapped_children():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def inner():
        clock.now += 2.0

    traced_inner = tracer.wrap(inner, "inner")

    def outer():
        clock.now += 1.0
        traced_inner()
        clock.now += 3.0
        traced_inner()

    with tracer.span("unit"):
        tracer.wrap(outer, "outer")()
        clock.now += 0.5
    spans = tracer.table()
    assert spans["unit"] == {"calls": 1, "total_s": 8.5, "self_s": 0.5}
    assert spans["outer"] == {"calls": 1, "total_s": 8.0, "self_s": 4.0}
    assert spans["inner"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}


def test_recursive_span_counts_its_total_once():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def f(n):
        clock.now += 1.0
        if n:
            traced(n - 1)

    traced = tracer.wrap(f, "f")
    traced(2)
    assert tracer.table()["f"] == {"calls": 3, "total_s": 3.0,
                                   "self_s": 3.0}


def _bindings():
    return {(id(owner), attr): vars(owner)[attr]
            for _, target in tracing.LAYERS
            for owner, attr in tracing._targets(target)}


def test_untraced_passes_leave_entry_points_untouched():
    import worker
    import workloads

    before = _bindings()
    probe = worker.SpeedProbe()
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(1, smoke=True)
        checks = workloads.Checks()
        worker.timed_phase(workload, 0.0, False, checks, probe)
        after = _bindings()
        assert after.keys() == before.keys()
        assert all(after[key] is before[key] for key in before), name
        # A traced run installs the wrappers and takes them out again.
        *_, tracer = worker.timed_phase(workload, 0.0, True, checks, probe)
        assert tracer.spans, name
        after = _bindings()
        assert all(after[key] is before[key] for key in before), name
        assert not checks.failures, checks.failures


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_smoke_runs_every_workload_correctly_in_under_30_s():
    start = time.monotonic()
    proc = subprocess.run([sys.executable, str(SUITE / "run.py"),
                           "--smoke"], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    workloads = {name.split(".")[0] for name in result["metrics"]}
    assert workloads == set(run.WORKLOADS)
    assert elapsed < 30


def test_traced_run_reports_every_layer_metric():
    proc = subprocess.run([sys.executable, str(SUITE / "run.py"),
                           "--smoke", "--workload", "ensemble", "--trace"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    reported = _last_json(proc.stdout)["metrics"]
    assert list(reported) == [m[0] for m in metrics.per_layer_metrics()]
    assert reported["core.dynamics.run_ensemble.calls"]["value"] == 3
    assert reported["ensemble.a.member_steps_per_s"]["value"] > 0
    assert (run.RESULTS / "trace-ensemble.json").exists()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(SUITE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__",
                                                  "results"))
    proc = subprocess.run([sys.executable, "benchmarks/suite/run.py",
                           "--workload", "packet", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_agrees_with_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == metrics.per_layer_metrics()


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1,
              99.9]
    faster = [v * 1.2 for v in parent]
    slower = [v * 0.8 for v in parent]
    noisy = [60.0, 140.0, 100.0, 70.0, 130.0, 100.0, 65.0, 135.0, 100.0,
             100.0]
    assert run.judge(parent, faster, "higher", 0.1)[0] == "better"
    assert run.judge(parent, slower, "higher", 0.1)[0] == "worse"
    assert run.judge(parent, slower, "lower", 0.1)[0] == "better"
    assert run.judge(parent, parent, "higher", 0.1)[0] == "same"
    assert run.judge(parent, noisy, "higher", 0.1)[0] == "unresolved"
