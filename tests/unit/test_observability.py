"""Unit tests for the observability layer: records, sessions, metrics,
provenance, and the JSON artifact writer."""

import json
import threading

import numpy as np
import pytest

from repro.core.dynamics import FlowControlSystem, Outcome
from repro.core.fairshare import FairShare
from repro.core.ratecontrol import TargetRule
from repro.core.signals import FeedbackStyle, LinearSaturating
from repro.core.topology import single_gateway
from repro.experiments.base import ExperimentResult
from repro.observability import (ARTIFACT_SCHEMA, RUN_RECORD_SCHEMA,
                                 CollectorSession, MetricsRegistry,
                                 RunRecord, SweepRecord, active_session,
                                 collect, config_hash,
                                 experiment_artifact, is_collecting,
                                 provenance, validate_artifact,
                                 validate_run_record, write_artifact,
                                 write_experiment_artifact)
from repro.parallel import sweep


def _make_system(n=4):
    return FlowControlSystem(single_gateway(n, mu=1.0), FairShare(),
                             LinearSaturating(),
                             TargetRule(eta=0.1, beta=0.5),
                             style=FeedbackStyle.INDIVIDUAL)


def _square(x):
    return x * x


def _run_point(n):
    """A sweep point that runs one trajectory at ``n`` connections, so
    it leaves one run record in the active session."""
    _make_system(n).run(np.full(n, 0.1), max_steps=200)
    return n


#: Grid of :func:`_run_point`, in the order its records must arrive.
RUN_GRID = [2, 4, 6, 8, 12, 20]


class TestMetricsRegistry:
    def test_counter_and_timer(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc()
        reg.counter("hits").inc(2)
        with reg.timer("work").time():
            pass
        snap = reg.snapshot()
        assert snap["counters"]["hits"] == 3
        assert snap["timers"]["work"]["count"] == 1
        assert snap["timers"]["work"]["total_seconds"] >= 0.0

    def test_same_name_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.timer("b") is reg.timer("b")

    def test_thread_safe_counting(self):
        reg = MetricsRegistry()

        def work():
            for _ in range(1000):
                reg.counter("n").inc()

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.snapshot()["counters"]["n"] == 4000


class TestRunRecord:
    def test_lifecycle_and_schema(self):
        rec = RunRecord.begin("ensemble", 3, 2, 100, 1e-9, 5)
        rec.observe_iteration(0.5, 3, 0, 0)
        rec.observe_iteration(0.1, 2, 1, 0)
        rec.observe_mask_event(2, 0, "converged")
        rec.add_phase("step", 0.01)
        rec.add_phase("step", 0.02)
        rec.finish(2, {"converged": 1, "undecided": 2})
        data = rec.to_dict()
        assert data["schema"] == RUN_RECORD_SCHEMA
        assert validate_run_record(data) == []
        assert data["phase_seconds"]["step"] == pytest.approx(0.03)
        assert data["steps"] == 2
        assert rec.wall_seconds >= 0.0

    def test_nonfinite_residuals_serialise_to_null(self):
        rec = RunRecord.begin("run", 1, 2, 10, 1e-9, 5)
        rec.observe_iteration(float("inf"), 0, 0, 1)
        data = rec.to_dict()
        assert data["residuals"] == [None]
        json.dumps(data, allow_nan=False)  # strict JSON must accept it

    def test_mask_history_reconstruction(self):
        rec = RunRecord.begin("ensemble", 2, 2, 10, 1e-9, 1)
        rec.observe_iteration(0.3, 2, 0, 0)
        rec.observe_iteration(0.2, 1, 1, 0)
        rec.observe_iteration(0.1, 0, 1, 1)
        rec.observe_mask_event(2, 1, "converged")
        rec.observe_mask_event(3, 0, "diverged")
        conv = rec.convergence_mask_history()
        div = rec.divergence_mask_history()
        assert conv == [[False, False], [False, True], [False, True]]
        assert div == [[False, False], [False, False], [True, False]]

    def test_validator_rejects_mismatched_series(self):
        rec = RunRecord.begin("run", 1, 2, 10, 1e-9, 5)
        rec.observe_iteration(0.5, 1, 0, 0)
        data = rec.to_dict()
        data["residuals"] = [0.5, 0.4]
        assert any("mismatched" in v for v in validate_run_record(data))

    def test_validator_rejects_bad_kind_and_schema(self):
        assert validate_run_record({"schema": RUN_RECORD_SCHEMA,
                                    "kind": "nope"})
        assert validate_run_record({"schema": "other", "kind": "sweep"})
        assert validate_run_record("not a dict")


class TestSweepRecord:
    def test_finalise_utilisation(self):
        rec = SweepRecord(n_items=8, executor="thread", workers=2)
        rec.n_chunks = 2
        rec.chunk_sizes = [4, 4]
        rec.chunk_seconds = [1.0, 1.0]
        rec.finalise(wall_seconds=1.0, effective_workers=2)
        assert rec.worker_utilisation == pytest.approx(1.0)
        assert validate_run_record(rec.to_dict()) == []

    def test_utilisation_capped_at_one(self):
        rec = SweepRecord(n_items=1, executor="serial", workers=1)
        rec.chunk_seconds = [5.0]
        rec.finalise(wall_seconds=0.001, effective_workers=1)
        assert rec.worker_utilisation == 1.0


class TestCollectorSessions:
    def test_no_session_by_default(self):
        assert active_session() is None
        assert not is_collecting()

    def test_nested_sessions_both_collect(self):
        system = _make_system(3)
        r0 = np.full(3, 0.1)
        with collect() as outer:
            with collect() as inner:
                system.run(r0, max_steps=500)
            assert len(inner.run_records) == 1
        assert len(outer.run_records) == 1
        assert active_session() is None

    def test_session_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with collect():
                raise RuntimeError("boom")
        assert not is_collecting()

    def test_session_to_dict_shape(self):
        with collect() as session:
            sweep(_square, [1, 2, 3], workers=1)
        data = session.to_dict()
        assert data["sweep_records"][0]["kind"] == "sweep"
        assert data["metrics"] == {"counters": {}, "timers": {}}


class TestEngineTelemetry:
    def test_run_identical_with_and_without_telemetry(self):
        system = _make_system()
        r0 = np.array([0.1, 0.2, 0.15, 0.05])
        plain = system.run(r0, max_steps=2000)
        with collect():
            observed = system.run(r0, max_steps=2000)
        assert observed.outcome is plain.outcome
        assert observed.steps == plain.steps
        assert np.array_equal(observed.final, plain.final)
        assert plain.telemetry is None
        assert observed.telemetry is not None

    def test_run_record_contents(self):
        system = _make_system()
        r0 = np.full(4, 0.1)
        with collect() as session:
            traj = system.run(r0, max_steps=2000)
        rec = traj.telemetry
        assert rec in session.run_records
        assert rec.kind == "run"
        assert rec.steps == traj.steps
        assert len(rec.residuals) == traj.steps
        assert rec.outcome_counts == {traj.outcome.value: 1}
        # run is the ensemble loop's one-member call, with its phases.
        assert set(rec.phase_seconds) == {"step_batch", "classify"}
        assert validate_run_record(rec.to_dict()) == []

    def test_ensemble_record_counts_and_masks(self):
        system = _make_system()
        rng = np.random.default_rng(7)
        starts = rng.uniform(0.0, 0.5, size=(8, 4))
        with collect() as session:
            result = system.run_ensemble(starts, max_steps=2000)
        rec = result.telemetry
        assert rec is session.run_records[-1]
        assert rec.kind == "ensemble"
        assert rec.n_members == 8
        expected = {o.value: c for o, c in result.outcome_counts().items()
                    if c}
        assert rec.outcome_counts == expected
        conv_hist = rec.convergence_mask_history()
        final_mask = np.array(conv_hist[-1])
        assert np.array_equal(final_mask,
                              result.outcome_mask(Outcome.CONVERGED))
        assert rec.active_members[-1] == 0 or rec.steps == 2000

    def test_telemetry_forced_on_without_session(self):
        system = _make_system(3)
        traj = system.run(np.full(3, 0.1), max_steps=500, telemetry=True)
        assert traj.telemetry is not None
        assert traj.telemetry.steps == traj.steps

    def test_telemetry_forced_off_inside_session(self):
        system = _make_system(3)
        with collect() as session:
            traj = system.run(np.full(3, 0.1), max_steps=500,
                              telemetry=False)
        assert traj.telemetry is None
        assert session.run_records == []

    def test_empty_ensemble_emits_finished_record(self):
        system = _make_system(3)
        with collect() as session:
            result = system.run_ensemble(np.empty((0, 3)), max_steps=100)
        assert len(result) == 0
        rec = session.run_records[0]
        assert rec.steps == 0
        assert rec.outcome_counts == {}


class TestSweepTelemetry:
    def test_pool_sweep_record(self):
        grid = list(range(12))
        with collect() as session:
            out = sweep(_square, grid, workers=2, executor="thread",
                        chunk_size=3)
        assert out == [x * x for x in grid]
        rec = session.sweep_records[0]
        assert rec.n_chunks == 4
        assert rec.chunk_sizes == [3, 3, 3, 3]
        assert len(rec.chunk_seconds) == 4
        assert not rec.serial
        assert rec.fallback_reason is None
        assert 0.0 <= rec.worker_utilisation <= 1.0

    def test_serial_sweep_record(self):
        with collect() as session:
            sweep(_square, [1, 2, 3], workers=1)
        rec = session.sweep_records[0]
        assert rec.serial
        assert rec.fallback_reason is None
        assert rec.chunk_sizes == [3]

    def test_no_record_without_session(self):
        session = CollectorSession()
        sweep(_square, [1, 2], workers=1)
        assert session.sweep_records == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_run_records_reach_the_session(self, workers):
        # One trajectory per grid point, through a process pool when
        # workers > 1; each worker's run records travel back with its
        # chunk and merge in grid order, whatever the worker count.
        with collect() as session:
            sweep(_run_point, RUN_GRID, workers=workers)
        assert [r.n_connections for r in session.run_records] == RUN_GRID

    def test_salvaged_chunk_records_keep_grid_order(self, monkeypatch):
        # The chunk at grid index 1 fails for a non-retryable
        # infrastructure reason and is salvaged on the calling thread;
        # its record still lands between its neighbours' records.
        from tests.unit.test_resilient_sweep import _patched_submit
        _patched_submit(monkeypatch, lambda first, attempt:
                        RuntimeError("does not pickle") if first == 1
                        else None)
        with pytest.warns(RuntimeWarning, match="fell back to serial"):
            with collect() as session:
                sweep(_run_point, RUN_GRID, workers=2)
        assert session.sweep_records[0].salvaged_chunks == [1]
        assert [r.n_connections for r in session.run_records] == RUN_GRID


class TestProvenance:
    def test_config_hash_stable_under_key_order(self):
        assert config_hash({"a": 1, "b": 2}) == \
            config_hash({"b": 2, "a": 1})

    def test_config_hash_distinguishes_content(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_provenance_block(self):
        prov = provenance(seed=7, config={"x": 1})
        assert prov["seed"] == 7
        assert prov["config_hash"] == config_hash({"x": 1})
        assert prov["numpy"] == np.__version__
        # Inside this repo the revision must resolve to a hex string.
        assert prov["git_revision"] is None or \
            len(prov["git_revision"]) == 40


def _result(**overrides):
    kwargs = dict(experiment_id="TX", title="test artifact",
                  columns=("a", "b"), rows=[(1, 2.0), (3, float("inf"))],
                  checks={"ok": True}, notes=["a note"])
    kwargs.update(overrides)
    return ExperimentResult(**kwargs)


class TestArtifacts:
    def test_round_trip_is_schema_valid(self, tmp_path):
        with collect() as session:
            _make_system(3).run(np.full(3, 0.1), max_steps=500)
        path = write_experiment_artifact(
            _result(), tmp_path, session=session, seed=3,
            config={"n": 3})
        assert path == tmp_path / "TX.json"
        data = json.loads(path.read_text())
        assert validate_artifact(data) == []
        assert data["schema"] == ARTIFACT_SCHEMA
        assert data["experiment"]["rows"][1] == [3, None]  # inf -> null
        assert len(data["observability"]["run_records"]) == 1
        assert data["provenance"]["config_hash"] == \
            config_hash({"n": 3})

    def test_artifact_without_session(self):
        artifact = experiment_artifact(_result())
        assert validate_artifact(artifact) == []
        assert artifact["observability"]["run_records"] == []

    def test_writer_refuses_invalid_artifact(self, tmp_path):
        artifact = experiment_artifact(_result())
        del artifact["provenance"]
        with pytest.raises(ValueError):
            write_artifact(artifact, tmp_path / "bad.json")
        assert not (tmp_path / "bad.json").exists()

    def test_validator_catches_row_shape(self):
        artifact = experiment_artifact(_result())
        artifact["experiment"]["rows"][0] = [1]
        assert any("rows[0]" in v for v in validate_artifact(artifact))

    def test_numpy_values_serialise(self, tmp_path):
        result = _result(rows=[(np.int64(1), np.float64(2.5)),
                               (np.int64(3), np.float64(4.5))])
        path = write_experiment_artifact(result, tmp_path)
        data = json.loads(path.read_text())
        assert data["experiment"]["rows"][0] == [1, 2.5]
