"""Unit tests for the benchmark regression gate's comparison logic.

The gate itself times real workloads; these tests exercise only the
pure :func:`compare` / :func:`format_report` functions and check the
committed baseline file stays well-formed.
"""

import json
import sys
from pathlib import Path

import pytest

_BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"
sys.path.insert(0, str(_BENCHMARKS))

from regression_gate import (GATED, GATED_ASYNC, GATED_COMPILED,
                             GATED_CONTROLLERS, GATED_SCALE, GATED_SIM,
                             _quick_baseline_for_mode,
                             compare, format_report)  # noqa: E402


def _baseline(ensemble=50.0, sweep=20.0, ens_min=5.0, sweep_min=3.0):
    return {
        "ensemble": {"speedup": ensemble},
        "quadratic_sweep": {"speedup": sweep},
        "targets": {"ensemble_speedup_min": ens_min,
                    "quadratic_sweep_speedup_min": sweep_min},
    }


def _fresh(ensemble, sweep):
    return {"ensemble": {"speedup": ensemble},
            "quadratic_sweep": {"speedup": sweep}}


class TestCompare:
    def test_pass_when_fresh_matches_baseline(self):
        ok, report = compare(_baseline(), _fresh(50.0, 20.0))
        assert ok
        assert all(entry["ok"] for entry in report)

    def test_pass_within_threshold(self):
        # 25% slower is the boundary: 50 * 0.75 = 37.5.
        ok, _ = compare(_baseline(), _fresh(37.5, 15.0))
        assert ok

    def test_fail_beyond_threshold(self):
        ok, report = compare(_baseline(), _fresh(37.0, 20.0))
        assert not ok
        failed = [e for e in report if not e["ok"]]
        assert [e["name"] for e in failed] == ["ensemble"]

    def test_floor_never_below_minimum_target(self):
        # Baseline barely above target: the floor is the target, not
        # baseline * (1 - threshold).
        ok, report = compare(_baseline(ensemble=6.0), _fresh(5.5, 20.0))
        assert ok
        ensemble = next(e for e in report if e["name"] == "ensemble")
        assert ensemble["floor"] == 5.0

    def test_floor_only_ignores_baseline(self):
        # Quick mode: a big drop from the baseline passes as long as
        # the minimum targets are met.
        ok, _ = compare(_baseline(), _fresh(6.0, 3.5), floor_only=True)
        assert ok
        ok, _ = compare(_baseline(), _fresh(4.0, 3.5), floor_only=True)
        assert not ok

    def test_custom_threshold(self):
        ok, _ = compare(_baseline(), _fresh(46.0, 19.0), threshold=0.05)
        assert not ok
        ok, _ = compare(_baseline(), _fresh(48.0, 19.5), threshold=0.05)
        assert ok

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            compare(_baseline(), _fresh(50.0, 20.0), threshold=1.0)
        with pytest.raises(ValueError):
            compare(_baseline(), _fresh(50.0, 20.0), threshold=-0.1)

    def test_report_formatting(self):
        ok, report = compare(_baseline(), _fresh(10.0, 20.0))
        text = format_report(report)
        assert "FAIL" in text and "ensemble" in text
        assert "OK" in text and "quadratic_sweep" in text


class TestCommittedBaseline:
    def test_baseline_file_has_gated_keys(self):
        data = json.loads(
            (_BENCHMARKS.parent / "BENCH_core.json").read_text())
        for name, target_key in GATED:
            assert "speedup" in data[name]
            assert target_key in data["targets"]
        assert data["targets_met"] is True

    def test_gate_passes_against_itself(self):
        # The committed baseline compared against its own numbers must
        # always pass — the gate's invariant after a baseline refresh.
        data = json.loads(
            (_BENCHMARKS.parent / "BENCH_core.json").read_text())
        ok, _ = compare(data, data)
        assert ok


class TestSimBaseline:
    def _sim_baseline(self):
        return json.loads(
            (_BENCHMARKS.parent / "BENCH_sim.json").read_text())

    def test_baseline_file_has_gated_keys(self):
        data = self._sim_baseline()
        for name, target_key in GATED_SIM:
            assert "speedup" in data[name]
            assert target_key in data["targets"]
            assert target_key in data["quick_targets"]
            # Quick floors must not be stricter than the full targets.
            assert data["quick_targets"][target_key] <= \
                data["targets"][target_key]
        assert data["targets_met"] is True

    def test_gate_passes_against_itself(self):
        data = self._sim_baseline()
        ok, _ = compare(data, data, gated=GATED_SIM)
        assert ok

    def test_quick_mode_swaps_in_quick_targets(self):
        data = self._sim_baseline()
        swapped = _quick_baseline_for_mode(data, quick=True,
                                           quick_targets={})
        assert swapped["targets"] == data["quick_targets"]
        assert _quick_baseline_for_mode(data, quick=False,
                                        quick_targets={}) is data

    def test_compare_judges_sim_keys(self):
        baseline = {
            "warm_start": {"speedup": 2.0},
            "targets": {"warm_start_savings_min": 1.5},
        }
        fresh = {"warm_start": {"speedup": 1.9}}
        ok, report = compare(baseline, fresh, gated=GATED_SIM)
        assert ok
        assert [e["name"] for e in report] == \
            [name for name, _ in GATED_SIM]
        fresh["warm_start"]["speedup"] = 1.4
        ok, report = compare(baseline, fresh, gated=GATED_SIM)
        assert not ok


class TestCompiledBaseline:
    def test_baseline_file_has_gated_keys(self):
        data = json.loads(
            (_BENCHMARKS.parent / "BENCH_compiled.json").read_text())
        for name, target_key in GATED_COMPILED:
            assert "speedup" in data[name]
            assert target_key in data["targets"]
            assert data["quick_targets"][target_key] <= \
                data["targets"][target_key]
        assert data["targets_met"] is True
        ok, _ = compare(data, data, gated=GATED_COMPILED)
        assert ok


class TestScaleBaseline:
    def _scale_baseline(self):
        return json.loads(
            (_BENCHMARKS.parent / "BENCH_scale.json").read_text())

    def test_baseline_file_has_gated_keys(self):
        data = self._scale_baseline()
        for name, target_key in GATED_SCALE:
            assert "speedup" in data[name]
            assert target_key in data["targets"]
            assert target_key in data["quick_targets"]
            assert data["quick_targets"][target_key] <= \
                data["targets"][target_key]
        assert data["targets_met"] is True
        # The headline claim: the blocked run fits the stated budget
        # and the one-shot run does not.
        assert data["memory"]["blocked_within_budget"] is True
        assert data["memory"]["oneshot_within_budget"] is False
        assert data["memory"]["n"] >= 100_000
        assert data["memory"]["members"] >= 64

    def test_gate_passes_against_itself(self):
        data = self._scale_baseline()
        ok, _ = compare(data, data, gated=GATED_SCALE)
        assert ok

    def test_compare_judges_scale_keys(self):
        baseline = {
            "memory": {"speedup": 5.0},
            "throughput": {"speedup": 1.0},
            "targets": {"scale_memory_ratio_min": 3.0,
                        "scale_throughput_ratio_min": 0.9},
        }
        fresh = {"memory": {"speedup": 4.0},
                 "throughput": {"speedup": 0.95}}
        ok, report = compare(baseline, fresh, gated=GATED_SCALE)
        assert ok
        assert [e["name"] for e in report] == \
            [name for name, _ in GATED_SCALE]
        fresh["throughput"]["speedup"] = 0.5
        ok, _ = compare(baseline, fresh, gated=GATED_SCALE)
        assert not ok


class TestControllersBaseline:
    def _ctrl_baseline(self):
        return json.loads(
            (_BENCHMARKS.parent / "BENCH_controllers.json").read_text())

    def test_baseline_file_has_gated_keys(self):
        data = self._ctrl_baseline()
        for name, target_key in GATED_CONTROLLERS:
            assert "speedup" in data[name]
            assert target_key in data["targets"]
            assert target_key in data["quick_targets"]
            assert data["quick_targets"][target_key] <= \
                data["targets"][target_key]
        assert data["targets_met"] is True

    def test_gate_passes_against_itself(self):
        data = self._ctrl_baseline()
        ok, _ = compare(data, data, gated=GATED_CONTROLLERS)
        assert ok

    def test_compare_judges_controller_keys(self):
        baseline = {
            "controlled_ensemble": {"speedup": 30.0},
            "tcp_delta_batch": {"speedup": 25.0},
            "targets": {"controllers_ensemble_speedup_min": 8.0,
                        "controllers_delta_batch_speedup_min": 10.0},
        }
        fresh = {"controlled_ensemble": {"speedup": 28.0},
                 "tcp_delta_batch": {"speedup": 22.0}}
        ok, report = compare(baseline, fresh, gated=GATED_CONTROLLERS)
        assert ok
        assert [e["name"] for e in report] == \
            [name for name, _ in GATED_CONTROLLERS]
        fresh["controlled_ensemble"]["speedup"] = 9.0
        ok, report = compare(baseline, fresh, gated=GATED_CONTROLLERS)
        assert not ok
        failed = [e for e in report if not e["ok"]]
        assert [e["name"] for e in failed] == ["controlled_ensemble"]


class TestAsyncBaseline:
    def _async_baseline(self):
        return json.loads(
            (_BENCHMARKS.parent / "BENCH_async.json").read_text())

    def test_baseline_file_has_gated_keys(self):
        data = self._async_baseline()
        for name, target_key in GATED_ASYNC:
            assert "speedup" in data[name]
            assert target_key in data["targets"]
            assert target_key in data["quick_targets"]
            assert data["quick_targets"][target_key] <= \
                data["targets"][target_key]
        assert data["targets_met"] is True
        # The headline claim: the batched engine beats the per-member
        # Python loop by at least the stated floor at M=256.
        assert data["async_ensemble"]["members"] >= 256
        assert data["async_ensemble"]["speedup"] >= \
            data["targets"]["async_ensemble_speedup_min"]

    def test_gate_passes_against_itself(self):
        data = self._async_baseline()
        ok, _ = compare(data, data, gated=GATED_ASYNC)
        assert ok

    def test_compare_judges_async_keys(self):
        baseline = {
            "async_ensemble": {"speedup": 40.0},
            "delay_ring": {"speedup": 0.8},
            "targets": {"async_ensemble_speedup_min": 10.0,
                        "async_delay_ring_ratio_min": 0.5},
        }
        fresh = {"async_ensemble": {"speedup": 35.0},
                 "delay_ring": {"speedup": 0.75}}
        ok, report = compare(baseline, fresh, gated=GATED_ASYNC)
        assert ok
        assert [e["name"] for e in report] == \
            [name for name, _ in GATED_ASYNC]
        fresh["async_ensemble"]["speedup"] = 9.0
        ok, report = compare(baseline, fresh, gated=GATED_ASYNC)
        assert not ok
        failed = [e for e in report if not e["ok"]]
        assert [e["name"] for e in failed] == ["async_ensemble"]
