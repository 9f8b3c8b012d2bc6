"""Unit tests for batch-means statistics and the CLI."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.fifo import Fifo
from repro.core.topology import single_gateway
from repro.errors import SimulationError
from repro.simulation.stats import (BatchMeansEstimate, batch_means,
                                    measure_queue_ci)


class TestBatchMeans:
    def test_mean_and_interval(self):
        batches = [[1.0], [2.0], [3.0], [4.0]]
        est = batch_means(batches, confidence=0.95)
        assert est.mean[0] == pytest.approx(2.5)
        assert est.half_width[0] > 0
        assert est.n_batches == 4
        assert est.lower[0] < 2.5 < est.upper[0]

    def test_contains(self):
        est = batch_means([[1.0], [2.0], [3.0]])
        assert est.contains([2.0])[0]
        assert not est.contains([99.0])[0]

    def test_vector_batches(self):
        batches = np.array([[1.0, 10.0], [2.0, 12.0], [3.0, 11.0]])
        est = batch_means(batches)
        assert est.mean.shape == (2,)
        assert est.mean[1] == pytest.approx(11.0)

    def test_1d_input_promoted(self):
        est = batch_means([1.0, 2.0, 3.0])
        assert est.mean.shape == (1,)

    def test_needs_two_batches(self):
        with pytest.raises(SimulationError):
            batch_means([[1.0]])

    def test_bad_confidence(self):
        with pytest.raises(SimulationError):
            batch_means([[1.0], [2.0]], confidence=1.5)

    def test_wider_confidence_wider_interval(self):
        batches = [[1.0], [2.0], [3.0], [2.5], [1.5]]
        e90 = batch_means(batches, confidence=0.90)
        e99 = batch_means(batches, confidence=0.99)
        assert e99.half_width[0] > e90.half_width[0]


class TestMeasureQueueCI:
    def test_covers_analytic_value(self):
        net = single_gateway(2, mu=1.0)
        rates = [0.2, 0.3]
        est = measure_queue_ci(net, rates, "fifo", n_batches=8,
                               batch_length=2500.0, warmup=500.0, seed=4)
        expected = Fifo().queue_lengths(np.array(rates), 1.0)
        assert est.contains(expected).all()

    def test_default_gateway_is_first(self):
        net = single_gateway(1, mu=1.0)
        est = measure_queue_ci(net, [0.3], n_batches=4,
                               batch_length=500.0, warmup=100.0, seed=1)
        assert est.mean.shape == (1,)


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "T1" in out and "F12" in out

    def test_run_t1(self, capsys):
        assert main(["run", "T1"]) == 0
        assert "Fair Share priority decomposition" in \
            capsys.readouterr().out

    def test_run_unknown_id(self):
        from repro.errors import ExperimentError
        with pytest.raises(ExperimentError):
            main(["run", "F99"])

    def test_run_with_csv(self, tmp_path, capsys):
        csv = tmp_path / "t1.csv"
        assert main(["run", "T1", "--csv", str(csv)]) == 0
        assert csv.exists()
        assert "connection" in csv.read_text()

    def test_table1_custom(self, capsys):
        assert main(["table1", "--rates", "0.1,0.2", "--mu", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "c2" in out

    @pytest.mark.parametrize("rates,named", [
        ("0.1,abc", "'abc' is not a number"),
        (",", "1 to 26 rates"),
        (",".join(["0.01"] * 27), "1 to 26 rates")],
        ids=["not-a-number", "empty", "27-rates"])
    def test_table1_bad_rates_exit_2(self, rates, named, capsys):
        from repro.cli import console_main
        assert console_main(["table1", "--rates", rates]) == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err
        assert named in err

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_extension_ids_addressable(self, capsys):
        # X ids resolve through the same CLI path (don't run them here
        # — just check the registry lookup).
        from repro.experiments import get
        assert get("X3").experiment_id == "X3"

    def test_run_with_json_dir(self, tmp_path, capsys):
        import json
        from repro.observability import validate_artifact
        assert main(["run", "T1", "--json-dir", str(tmp_path)]) == 0
        path = tmp_path / "T1.json"
        assert path.exists()
        data = json.loads(path.read_text())
        assert validate_artifact(data) == []
        assert data["experiment"]["id"] == "T1"
        assert "config_hash" in data["provenance"]
        timers = data["observability"]["metrics"]["timers"]
        assert "experiment.T1.seconds" in timers

    def test_json_artifact_captures_engine_records(self, tmp_path):
        import json
        # F5 runs ensembles through the engine, so its artifact must
        # carry per-iteration run records.
        assert main(["run", "F5", "--json-dir", str(tmp_path)]) in (0, 1)
        data = json.loads((tmp_path / "F5.json").read_text())
        records = data["observability"]["run_records"]
        assert records
        assert all(len(r["residuals"]) == len(r["active_members"])
                   for r in records)


class TestCliFaultsAndResume:
    def test_bad_faults_spec_raises_fault_error(self):
        from repro.errors import FaultError
        with pytest.raises(FaultError):
            main(["run", "X6", "--faults", "wormhole=1"])

    def test_faults_on_unsupporting_experiment_raises_cli_error(self):
        from repro.errors import CLIError
        with pytest.raises(CLIError) as err:
            main(["run", "F1", "--faults", "loss=0.5"])
        assert "faults" in str(err.value)

    def test_resume_on_unsupporting_experiment_raises_cli_error(
            self, tmp_path):
        from repro.errors import CLIError
        with pytest.raises(CLIError):
            main(["run", "T1", "--resume", str(tmp_path)])

    def test_console_main_converts_repro_errors(self, capsys):
        from repro.cli import console_main
        assert console_main(["run", "F99"]) == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err
        assert "F99" in err

    def test_console_main_passes_through_success(self, capsys):
        from repro.cli import console_main
        assert console_main(["list"]) == 0

