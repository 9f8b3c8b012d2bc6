"""Unit tests for the resilient sweep executor (repro.parallel).

Infrastructure failures are injected deterministically through the
module's ``_submit`` seam, so every scenario — retry, salvage, timeout,
kill-and-resume — is reproducible without real process crashes.
"""

import os
import warnings

import pytest

import repro.parallel as parallel_mod
from repro.errors import SweepError, WorkerFunctionError
from repro.observability import collect
from repro.parallel import sweep


def _square(x):
    return x * x


GRID = list(range(17))
BASELINE = [_square(x) for x in GRID]


class _FailingFuture:
    """A future whose result is a chosen infrastructure failure."""

    def __init__(self, exc):
        self.exc = exc
        self.cancelled = False

    def result(self, timeout=None):
        raise self.exc

    def cancel(self):
        self.cancelled = True


def _patched_submit(monkeypatch, decide):
    """Route chunk submissions through ``decide(first_index, round)``.

    ``decide`` returns an exception instance to fail that chunk this
    round, or ``None`` to run it for real.
    """
    real = parallel_mod._submit
    rounds = {}

    def fake(pool, fn, items, first_index):
        attempt = rounds.get(first_index, 0)
        rounds[first_index] = attempt + 1
        exc = decide(first_index, attempt)
        if exc is not None:
            return _FailingFuture(exc)
        return real(pool, fn, items, first_index)

    monkeypatch.setattr(parallel_mod, "_submit", fake)
    return rounds


class TestErrorClassification:
    def test_fn_error_propagates_with_grid_index(self):
        calls = []

        def boom(x):
            calls.append(x)
            if x == 7:
                raise ValueError("bad point")
            return x

        with pytest.raises(WorkerFunctionError) as err:
            sweep(boom, GRID, workers=2, executor="thread")
        assert err.value.grid_index == 7
        assert isinstance(err.value.__cause__, ValueError)
        # no full-grid rerun: nothing was evaluated more than once
        assert len(calls) == len(set(calls))

    def test_fn_error_in_serial_salvage_keeps_grid_index(self):
        def boom(x):
            if x == 3:
                raise KeyError("boom")
            return x

        def always_fail(first, attempt):
            return OSError("synthetic pool loss")

        with pytest.MonkeyPatch.context() as mp:
            _patched_submit(mp, always_fail)
            with pytest.warns(RuntimeWarning, match="fell back to serial"):
                with pytest.raises(WorkerFunctionError) as err:
                    sweep(boom, GRID, workers=2, executor="thread",
                          retries=0, backoff=0.0)
        assert err.value.grid_index == 3
        assert isinstance(err.value.__cause__, KeyError)

    def test_parameter_validation(self):
        for kwargs in ({"timeout": 0.0}, {"timeout": -1.0},
                       {"retries": -1}, {"retries": 1.5},
                       {"backoff": -0.1}):
            with pytest.raises(SweepError):
                sweep(_square, GRID, workers=2, **kwargs)


class TestRetryAndSalvage:
    def test_transient_infra_failure_is_retried(self, monkeypatch):
        rounds = _patched_submit(
            monkeypatch,
            lambda first, attempt:
                OSError("flaky pool") if attempt == 0 else None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # retry must not warn
            with collect() as session:
                out = sweep(_square, GRID, workers=2, executor="thread",
                            retries=2, backoff=0.0)
        assert out == BASELINE
        rec = session.sweep_records[0]
        assert rec.retry_rounds >= 1
        assert rec.salvaged_chunks == []
        assert not rec.serial
        assert max(rounds.values()) == 2  # each chunk tried twice

    def test_exhausted_retries_salvage_only_failing_chunks(
            self, monkeypatch):
        _patched_submit(
            monkeypatch,
            lambda first, attempt:
                OSError("dead chunk") if first == 0 else None)
        calls = []

        def counted(x):
            calls.append(x)
            return _square(x)

        with pytest.warns(RuntimeWarning, match="fell back to serial"):
            with collect() as session:
                out = sweep(counted, GRID, workers=2, executor="thread",
                            chunk_size=5, retries=1, backoff=0.0)
        assert out == BASELINE
        # every grid item computed exactly once — the healthy chunks
        # were salvaged from the pool, not recomputed
        assert sorted(calls) == GRID
        rec = session.sweep_records[0]
        assert rec.salvaged_chunks == [0]
        assert rec.fallback_reason is not None
        assert not rec.serial  # most chunks did run on the pool

    def test_timeout_is_an_infra_failure(self, monkeypatch):
        _patched_submit(
            monkeypatch,
            lambda first, attempt:
                TimeoutError("too slow") if attempt == 0 else None)
        out = sweep(_square, GRID, workers=2, executor="thread",
                    timeout=30.0, retries=1, backoff=0.0)
        assert out == BASELINE

    def test_nonretryable_infra_failure_skips_retry_rounds(
            self, monkeypatch):
        attempts = _patched_submit(
            monkeypatch,
            lambda first, attempt: RuntimeError("does not pickle"))
        with pytest.warns(RuntimeWarning, match="fell back to serial"):
            with collect() as session:
                out = sweep(_square, GRID, workers=2, executor="thread",
                            retries=3, backoff=10.0)  # no sleeps happen
        assert out == BASELINE
        assert session.sweep_records[0].retry_rounds == 0
        assert max(attempts.values()) == 1


class TestCheckpointResume:
    def test_checkpointed_sweep_matches_plain_run(self, tmp_path):
        out = sweep(_square, GRID, workers=2, executor="thread",
                    checkpoint_dir=tmp_path)
        assert out == BASELINE
        assert (tmp_path / "manifest.json").exists()
        assert any(p.suffix == ".pkl" for p in tmp_path.iterdir())

    def test_killed_then_resumed_is_identical(self, tmp_path):
        state = {"alive": False}

        def dies_midway(x):
            if not state["alive"] and x >= 9:
                raise ValueError("simulated crash")
            return _square(x)

        # First attempt dies after some chunks were checkpointed.
        with pytest.raises(WorkerFunctionError):
            sweep(dies_midway, GRID, executor="serial", chunk_size=3,
                  checkpoint_dir=tmp_path)
        done_before = [p for p in tmp_path.iterdir()
                       if p.suffix == ".pkl"]
        assert done_before  # progress survived the crash

        # The resumed run recomputes only what is missing...
        state["alive"] = True
        calls = []

        def counted(x):
            calls.append(x)
            return _square(x)

        with collect() as session:
            out = sweep(counted, GRID, executor="serial", chunk_size=3,
                        checkpoint_dir=tmp_path)
        # ...and the final results are identical to an uninterrupted run.
        assert out == BASELINE
        assert calls and len(calls) < len(GRID)
        rec = session.sweep_records[0]
        assert rec.resumed_chunks == sorted(
            int(p.stem.split("_")[1]) for p in done_before)

    @pytest.mark.parametrize("grid", [GRID, [], [3]])
    def test_fully_checkpointed_resume_recomputes_nothing(self, tmp_path,
                                                          grid):
        expected = [_square(x) for x in grid]
        assert sweep(_square, grid, executor="serial", chunk_size=4,
                     checkpoint_dir=tmp_path) == expected
        assert (tmp_path / "manifest.json").exists()

        def must_not_run(x):
            raise AssertionError("checkpointed item recomputed")

        assert sweep(must_not_run, grid, executor="serial", chunk_size=4,
                     checkpoint_dir=tmp_path) == expected

    def test_default_layout_resumes_on_a_host_with_other_core_count(
            self, tmp_path, monkeypatch):
        # chunk_size=None splits the grid into 4 * cpu_count() chunks;
        # the resume adopts the layout the manifest pins.
        grid = list(range(40))
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        sweep(_square, grid, executor="serial", checkpoint_dir=tmp_path)
        assert len(list(tmp_path.glob("chunk_*.pkl"))) == 16
        monkeypatch.setattr(os, "cpu_count", lambda: 2)

        def must_not_run(x):
            raise AssertionError("checkpointed item recomputed")

        assert sweep(must_not_run, grid, executor="serial",
                     checkpoint_dir=tmp_path) == [_square(x) for x in grid]
        with pytest.raises(SweepError):
            sweep(_square, grid[:-1], executor="serial",
                  checkpoint_dir=tmp_path)

    def test_corrupt_chunk_is_recomputed(self, tmp_path):
        sweep(_square, GRID, executor="serial", chunk_size=4,
              checkpoint_dir=tmp_path)
        victim = sorted(p for p in tmp_path.iterdir()
                        if p.suffix == ".pkl")[1]
        victim.write_bytes(b"not a pickle")
        out = sweep(_square, GRID, executor="serial", chunk_size=4,
                    checkpoint_dir=tmp_path)
        assert out == BASELINE

    def test_mismatched_grid_is_rejected(self, tmp_path):
        sweep(_square, GRID, executor="serial", chunk_size=4,
              checkpoint_dir=tmp_path)
        with pytest.raises(SweepError):
            sweep(_square, GRID[:5], executor="serial", chunk_size=4,
                  checkpoint_dir=tmp_path)
        with pytest.raises(SweepError):
            sweep(_square, GRID, executor="serial", chunk_size=6,
                  checkpoint_dir=tmp_path)

    def test_atomic_writes_leave_no_tmp_files(self, tmp_path):
        sweep(_square, GRID, executor="serial", chunk_size=4,
              checkpoint_dir=tmp_path)
        assert not [p for p in tmp_path.iterdir()
                    if p.name.endswith(".tmp")]

    def test_unreadable_manifest_is_rejected(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{broken json")
        with pytest.raises(SweepError):
            sweep(_square, GRID, executor="serial", chunk_size=4,
                  checkpoint_dir=tmp_path)


class TestProcessPoolIntegration:
    """One real end-to-end run per scenario that must survive pickling."""

    def test_process_pool_with_checkpoint(self, tmp_path):
        out = sweep(_square, GRID, workers=2, executor="process",
                    checkpoint_dir=tmp_path)
        assert out == BASELINE
        # resume path loads everything back through pickle
        assert sweep(_square, GRID, workers=2, executor="process",
                     checkpoint_dir=tmp_path) == BASELINE

    def test_process_pool_fn_error_grid_index(self):
        with pytest.raises(WorkerFunctionError) as err:
            sweep(_process_boom, GRID, workers=2, executor="process")
        assert err.value.grid_index == 11


def _process_boom(x):
    if x == 11:
        raise ValueError("bad point in worker")
    return x
