"""Unit tests for the benchmark regression gate (``benchmarks/bench.py``).

Nothing here is timed: the tests exercise the gate's pure
:func:`compare` and :func:`format_report`, the case registry, and the
committed ``BENCH.json``.  The per-group classes cover the cases that
measure one layer each: the warm-start cache, the compiled tier, the
blocked ensemble at scale, the controllers and the asynchronous engine.
"""

import copy
import json
import statistics
import sys
from pathlib import Path

import pytest

_BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"
sys.path.insert(0, str(_BENCHMARKS))

import bench  # noqa: E402
from repro.backends import compiled  # noqa: E402

COMMITTED = json.loads(bench.BENCH_FILE.read_text())
C_CASES = ["compiled_fifo", "compiled_fair_share", "compiled_fair_queueing",
           "compiled_longest_drop", "f12_end_to_end", "fs_queue_law",
           "nonlinear_signal", "observe_dispatch"]

#: The two sides of each single-measurement case's ratio, base over new.
RATIO_PARTS = (("serial_s", "batched_s"), ("generic_s", "vectorised_s"),
               ("cold_iterations", "warm_iterations"),
               ("oneshot_peak_mb", "blocked_peak_mb"),
               ("undelayed_s", "delayed_s"))


def _case(name):
    return next(case for case in bench.CASES if case.name == name)


def _judge(name, ratio, committed=None, quick=False):
    """The report entry of case ``name`` when it measures ``ratio`` and
    every other case repeats its committed numbers."""
    base = copy.deepcopy(COMMITTED)
    if committed is not None:
        base["cases"][name]["speedup"] = committed
    fresh = copy.deepcopy(base["cases"])
    fresh[name]["speedup"] = ratio
    ok, report = bench.compare(base, fresh, quick=quick)
    entry = next(e for e in report if e["name"] == name)
    assert ok is entry["ok"]
    return entry


def _recorded_ratio(numbers):
    """The ratio a case's recorded numbers make: the median of its
    per-pair ratios, or base over new of its one measurement."""
    if "pair_ratios" in numbers:
        return statistics.median(numbers["pair_ratios"])
    base, new = next(parts for parts in RATIO_PARTS if parts[0] in numbers)
    return numbers[base] / numbers[new]


def _passes_alone(names):
    """A gate run of ``names`` alone, every other case skipped, passes
    on their committed numbers in both modes."""
    fresh = {case.name: (COMMITTED["cases"][case.name]
                         if case.name in names else None)
             for case in bench.CASES}
    for quick in (False, True):
        ok, report = bench.compare(COMMITTED, fresh, quick=quick)
        assert ok
        assert [e["name"] for e in report if not e["skipped"]] == names


def _judges_each_case(names):
    """Each case passes at its floor and, alone, fails just below it."""
    for name in names:
        case = _case(name)
        for quick, floor in ((False, case.floor), (True, case.quick_floor)):
            assert _judge(name, floor, committed=floor, quick=quick)["ok"]
            assert not _judge(name, floor - 0.01, committed=floor,
                              quick=quick)["ok"]


class TestCompare:
    def test_pass_when_fresh_matches_baseline(self):
        ok, report = bench.compare(COMMITTED, COMMITTED["cases"])
        assert ok
        assert all(e["ok"] and not e["skipped"] for e in report)

    def test_pass_within_threshold(self):
        # 25% slower is the boundary: 50 * 0.75 = 37.5.
        assert _judge("ensemble", 37.5, committed=50.0)["ok"]

    def test_fail_beyond_threshold(self):
        entry = _judge("ensemble", 37.4, committed=50.0)
        assert not entry["ok"] and entry["floor"] == 37.5

    def test_floor_never_below_minimum_target(self):
        # Committed barely above the floor: the case floor rules, not
        # committed * (1 - threshold), and a ratio below it fails.
        entry = _judge("ensemble", 5.0, committed=6.0)
        assert entry["ok"] and entry["floor"] == _case("ensemble").floor
        assert not _judge("ensemble", 4.9, committed=6.0)["ok"]

    def test_floor_only_ignores_baseline(self):
        # Quick mode judges by the quick floors alone.
        case = _case("controlled_ensemble")
        assert case.quick_floor < case.floor
        # Far below the committed number and the full floor, but at the
        # quick floor: passes in quick mode only.
        entry = _judge(case.name, case.quick_floor, quick=True)
        assert entry["ok"] and entry["floor"] == case.quick_floor
        assert not _judge(case.name, case.quick_floor)["ok"]
        assert not _judge(case.name, case.quick_floor - 0.01,
                          quick=True)["ok"]

    def test_a_new_case_is_judged_by_its_floor(self):
        # A case with no committed number yet (its first full run).
        case = _case("nonlinear_signal")
        base = copy.deepcopy(COMMITTED)
        del base["cases"][case.name]
        for ratio, ok in ((case.floor, True), (case.floor - 0.01, False)):
            fresh = copy.deepcopy(COMMITTED["cases"])
            fresh[case.name]["speedup"] = ratio
            _, report = bench.compare(base, fresh)
            entry = next(e for e in report if e["name"] == case.name)
            assert entry["ok"] is ok and entry["committed"] is None
            assert entry["floor"] == case.floor

    def test_report_formatting(self):
        fresh = copy.deepcopy(COMMITTED["cases"])
        fresh["ensemble"]["speedup"] = 1.0
        fresh["fs_queue_law"] = None
        _, report = bench.compare(COMMITTED, fresh)
        text = bench.format_report(report)
        assert "[FAIL]" in text and "ensemble" in text
        assert "[OK  ]" in text and "quadratic_sweep" in text
        assert "[SKIP]" in text and "fs_queue_law" in text


class TestCommittedBaseline:
    def test_baseline_file_has_gated_keys(self):
        # Exactly the registry's cases, each with the ratio its recorded
        # numbers make, and the machine they were measured on.
        assert set(COMMITTED) == {"machine", "cases"}
        assert list(COMMITTED["cases"]) == [c.name for c in bench.CASES]
        for name, numbers in COMMITTED["cases"].items():
            assert numbers["speedup"] == pytest.approx(
                _recorded_ratio(numbers), rel=0.01), name
        for key in ("git_revision", "python", "numpy", "platform",
                    "cpu_model", "cores", "kernel_tier"):
            assert key in COMMITTED["machine"]

    def test_quick_floors_at_most_floors(self):
        for case in bench.CASES:
            assert 0 < case.quick_floor <= case.floor, case.name

    def test_gate_passes_against_itself(self):
        # The committed numbers judged against themselves must pass in
        # both modes: the gate's invariant after a rewrite.
        for quick in (False, True):
            ok, _ = bench.compare(COMMITTED, COMMITTED["cases"],
                                  quick=quick)
            assert ok


class TestSimBaseline:
    NAMES = ["warm_start"]

    def test_baseline_file_has_gated_keys(self):
        # A count, not a time: cold over warm iterations, with the
        # second pass all cache hits.
        warm = COMMITTED["cases"]["warm_start"]
        assert warm["speedup"] == round(
            warm["cold_iterations"] / warm["warm_iterations"], 2)
        assert warm["cache_misses"] == warm["points"]
        assert warm["cache_hits"] == warm["points"] * (warm["passes"] - 1)

    def test_gate_passes_against_itself(self):
        _passes_alone(self.NAMES)

    def test_quick_mode_swaps_in_quick_targets(self):
        case = _case("warm_start")
        committed = COMMITTED["cases"]["warm_start"]["speedup"]
        assert _judge(case.name, committed,
                      quick=True)["floor"] == case.quick_floor
        assert _judge(case.name, committed)["floor"] == round(
            max(case.floor, committed * (1 - bench.THRESHOLD)), 2)

    def test_compare_judges_sim_keys(self):
        _judges_each_case(self.NAMES)


class TestCompiledBaseline:
    def test_baseline_file_has_gated_keys(self):
        # The C-tier cases were recorded with the tier built, and pass
        # against themselves.
        assert [c.name for c in bench.CASES if c.needs_c] == C_CASES
        assert COMMITTED["machine"]["kernel_tier"] == "cext"
        _passes_alone(C_CASES)

    def test_nonlinear_signal_records_both_tiers(self):
        # Absolute member-steps/s of the compiled loop and of the numpy
        # tier, whose quotient is the last pair's ratio.
        numbers = COMMITTED["cases"]["nonlinear_signal"]
        kernel = numbers["compiled_member_steps_per_s"]
        numpy_tier = numbers["numpy_member_steps_per_s"]
        assert kernel > numpy_tier > 0
        assert kernel / numpy_tier == pytest.approx(
            numbers["numpy_s"] / numbers["compiled_s"], rel=0.01)

    def test_observe_dispatch_records_both_calls(self):
        # Microseconds per call of the bare C call and of the wrapper
        # around it, whose quotient is the last pair's ratio; the
        # wrapper can only add time.
        numbers = COMMITTED["cases"]["observe_dispatch"]
        bare = numbers["bare_us_per_call"]
        wrapped = numbers["wrapped_us_per_call"]
        assert 0 < bare < wrapped
        assert bare / wrapped == pytest.approx(
            numbers["bare_s"] / numbers["wrapped_s"], rel=0.01)


class TestScaleBaseline:
    NAMES = ["memory", "throughput"]

    def test_baseline_file_has_gated_keys(self):
        # Blocking keeps N = 100,000 x M = 64 inside the budget, where
        # the one-shot run does not fit.
        memory = COMMITTED["cases"]["memory"]
        assert memory["n"] >= 100_000 and memory["members"] >= 64
        assert memory["budget_mb"] == bench.BUDGET_MB
        assert memory["blocked_within_budget"] is True
        assert memory["oneshot_within_budget"] is False

    def test_gate_passes_against_itself(self):
        _passes_alone(self.NAMES)

    def test_compare_judges_scale_keys(self):
        _judges_each_case(self.NAMES)
        # A blocked run over its budget fails whatever its ratio.
        fresh = copy.deepcopy(COMMITTED["cases"])
        fresh["memory"]["blocked_within_budget"] = False
        for quick in (False, True):
            ok, report = bench.compare(COMMITTED, fresh, quick=quick)
            assert not ok
            assert [e["name"] for e in report if not e["ok"]] == ["memory"]


class TestControllersBaseline:
    NAMES = ["controlled_ensemble", "tcp_delta_batch"]

    def test_baseline_file_has_gated_keys(self):
        # The masked Python ratio is gated; the compiled loop's
        # throughput is recorded beside it when the tier measured it.
        ensemble = COMMITTED["cases"]["controlled_ensemble"]
        assert ("kernel_msteps_per_s" in ensemble) == (
            COMMITTED["machine"]["kernel_tier"] == "cext")
        tcp = COMMITTED["cases"]["tcp_delta_batch"]
        assert tcp["elements"] == tcp["members"] * tcp["n"]

    def test_gate_passes_against_itself(self):
        _passes_alone(self.NAMES)

    def test_compare_judges_controller_keys(self):
        _judges_each_case(self.NAMES)


class TestAsyncBaseline:
    NAMES = ["async_ensemble", "delay_ring"]

    def test_baseline_file_has_gated_keys(self):
        # The batched engine beats the per-member loop by its floor at
        # M = 256.
        ensemble = COMMITTED["cases"]["async_ensemble"]
        assert ensemble["members"] >= 256
        assert ensemble["speedup"] >= _case("async_ensemble").floor

    def test_gate_passes_against_itself(self):
        _passes_alone(self.NAMES)

    def test_compare_judges_async_keys(self):
        _judges_each_case(self.NAMES)


class TestSkippedTier:
    def test_c_cases_skip_without_the_tier(self, monkeypatch):
        monkeypatch.setattr(compiled, "tier", lambda: "python")
        # Only the C cases are handed to measure, so nothing is timed.
        fresh = bench.measure(
            quick=True, cases=[c for c in bench.CASES if c.needs_c])
        assert fresh == dict.fromkeys(C_CASES)
        fresh = {**COMMITTED["cases"], **fresh}
        ok, report = bench.compare(COMMITTED, fresh, quick=True)
        assert ok
        assert [e["name"] for e in report if e["skipped"]] == C_CASES


class TestStamps:
    def test_each_result_carries_what_measured_it(self, monkeypatch):
        # measure() stamps a case's numbers with the checkout's revision
        # and the UTC time; compare() judges the ratio alone.
        from datetime import datetime, timedelta, timezone

        from repro.observability.provenance import git_revision

        monkeypatch.setattr(bench, "CASES", (bench.Case(
            "ensemble", lambda: {"speedup": 40.0}, {}, 5.0, 5.0),))
        before = datetime.now(timezone.utc).replace(microsecond=0)
        fresh = bench.measure(quick=True, cases=bench.CASES)
        numbers = fresh["ensemble"]
        assert numbers["git_revision"] == git_revision()
        stamp = datetime.fromisoformat(numbers["measured_at"])
        assert stamp.utcoffset() == timedelta(0)
        assert before <= stamp <= datetime.now(timezone.utc)
        bare = {"ensemble": {"speedup": 40.0}}
        for quick in (False, True):
            assert bench.compare(COMMITTED, fresh, quick=quick) == \
                bench.compare(COMMITTED, bare, quick=quick)
