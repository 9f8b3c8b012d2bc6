"""Integration test: SIGKILL a checkpointed process-pool sweep at each
crashpoint and prove the resumed run is bit-identical to a clean one."""

import json
import signal

import pytest

from repro.chaos import KNOWN_CRASHPOINTS, parse_crashpoint
from repro.chaos.harness import kill_anywhere, run_victim, victim_fn
from repro.errors import ChaosError


class TestCrashpointSpec:
    def test_parse_name_and_count(self):
        assert parse_crashpoint("a-site") == ("a-site", 1)
        assert parse_crashpoint("a-site:3") == ("a-site", 3)

    @pytest.mark.parametrize("spec", ["", ":2", "a:x", "a:0"])
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ChaosError):
            parse_crashpoint(spec)


class TestKillAnywhere:
    def test_clean_victim_completes(self, tmp_path):
        proc = run_victim(tmp_path)
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == \
            [list(victim_fn(x)) for x in range(9)]

    def test_victim_dies_at_crashpoint(self, tmp_path):
        # run_victim captures the pipes the pool workers share, so it
        # returns only once the workers have gone too.
        proc = run_victim(tmp_path,
                          crash_spec="sweep-checkpoint-pre-write")
        assert proc.returncode == -signal.SIGKILL

    def test_resume_after_kill_is_bit_identical(self, tmp_path):
        reports = kill_anywhere(tmp_path, rounds=3, seed=1)
        assert len(reports) == 3
        assert all(r.ok for r in reports), reports
        assert all(r.killed for r in reports), reports
        assert {r.point for r in reports} == set(KNOWN_CRASHPOINTS)

    def test_a_round_that_kills_nothing_fails(self, tmp_path):
        reports = kill_anywhere(tmp_path, rounds=1,
                                points=["sweep-checkpoint-pre-wrte"])
        assert not reports[0].killed
        assert reports[0].resumed and reports[0].identical
        assert not reports[0].ok
