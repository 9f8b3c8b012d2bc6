"""Integration tests: the experiment registry and (fast variants of)
every experiment's shape checks."""

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments import (REGISTRY, ExperimentResult, format_summary,
                               format_table, get, run, to_csv)
from repro.experiments.base import ExperimentResult as BaseResult


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {"T1"} | {f"F{k}" for k in range(1, 15)}
        assert set(REGISTRY) == expected

    def test_get_case_insensitive(self):
        assert get("f5").experiment_id == "F5"

    def test_unknown_id(self):
        with pytest.raises(ExperimentError):
            get("F99")


class TestResultType:
    def test_row_width_checked(self):
        with pytest.raises(ExperimentError):
            ExperimentResult("X", "t", ("a", "b"), [(1,)])

    def test_require_raises_on_failed_check(self):
        res = ExperimentResult("X", "t", ("a",), [(1,)],
                               checks={"bad": False})
        with pytest.raises(ExperimentError):
            res.require()
        assert res.failed_checks() == ["bad"]

    def test_require_passes(self):
        res = ExperimentResult("X", "t", ("a",), [(1,)],
                               checks={"good": True})
        assert res.require() is res


class TestReport:
    def test_format_table(self):
        res = ExperimentResult("X", "demo", ("n", "v"),
                               [(1, 0.5), (2, float("inf"))],
                               checks={"ok": True}, notes=["a note"])
        text = format_table(res)
        assert "demo" in text and "inf" in text and "[PASS] ok" in text
        assert "note: a note" in text

    def test_to_csv(self, tmp_path):
        res = ExperimentResult("X", "demo", ("n", "v"), [(1, 0.5)])
        path = to_csv(res, tmp_path / "out.csv")
        content = path.read_text()
        assert "n,v" in content and "0.5" in content

    def test_format_summary(self):
        good = ExperimentResult("A", "x", ("c",), [(1,)],
                                checks={"ok": True})
        bad = ExperimentResult("B", "y", ("c",), [(1,)],
                               checks={"ok": False})
        text = format_summary([good, bad])
        assert "[OK ] A" in text and "[FAIL] B" in text


class TestExperimentShapes:
    """Fast-parameter runs of each harness; checks must pass."""

    def test_t1(self):
        run("T1").require()

    def test_t1_custom_rates(self):
        res = run("T1", rates=(0.05, 0.1, 0.2), mu=1.0).require()
        assert len(res.rows) == 3

    def test_f1(self):
        run("F1", scales=(0.5, 4.0), latencies=(0.0, 2.0)).require()

    def test_f2(self):
        res = run("F2", n_connections=4, n_starts=8, seed=3).require()
        # The manifold scatter is the artifact: the endpoints differ,
        # so fewer of them are fair than there are starts.
        fair_rows = [row for row in res.rows if row[4]]
        assert len(fair_rows) < len(res.rows)

    def test_f3(self):
        res = run("F3").require()
        assert len(res.rows) == 4  # four topologies

    def test_f4(self):
        run("F4", n_networks=2, starts_per_network=2).require()

    def test_f5(self):
        n_values = (2, 4, 8, 12)
        res = run("F5", n_values=n_values).require()
        # Crossover: the rows that stay on the manifold are exactly
        # those below N = 2/eta (eta = 0.3 by default).
        stable = {row[0] for row in res.rows if row[6]}
        assert stable == {n for n in n_values if n < 2 / 0.3}

    def test_f6(self):
        run("F6", gains=(1.0, 2.2, 2.62), transient=2000,
            keep=256).require()

    def test_f7(self):
        run("F7", n_values=(4, 10)).require()

    def test_f8(self):
        res = run("F8", steps=4000).require()
        # The meek source's rate collapses.
        meek = [row[2] for row in res.rows]
        assert meek[-1] < 1e-6 < meek[0]

    def test_f9(self):
        run("F9", steps=40000, condition_trials=60).require()

    def test_f10(self):
        res = run("F10", n_values=(2, 4, 8), sim_horizon=2000.0).require()
        analytic = [row for row in res.rows if row[1] == "analytic"]
        assert analytic
        for row in analytic:
            assert row[5] >= row[0]  # delay ratio >= N

    def test_f11(self):
        run("F11", steps=300, pipes=(20.0, 60.0)).require()

    def test_f12(self):
        run("F12", horizon=8000.0, warmup=800.0, loop_steps=60,
            loop_interval=250.0, tolerance=0.3,
            loop_tolerance=0.3).require()

    def test_f13(self):
        result = run("F13", bandwidths=(1.0, 4.0), latencies=(0.1, 8.0),
                     steps=800).require()
        assert result.columns == ("controller", "grid", "point",
                                  "utilisation", "jain")
        controllers = {row[0] for row in result.rows}
        assert controllers == {"rcp", "tcp-like"}

    def test_f14(self):
        result = run("F14", delays=(0, 2), steps=8000, unstable_n=8,
                     unstable_eta=0.4, unstable_steps=20000).require()
        schedules = {row[0] for row in result.rows}
        assert schedules == {"synchronous", "round-robin", "bernoulli",
                             "mix-clock", "bursty-clock",
                             "round-robin-rescue"}


class TestExtensionShapes:
    """Fast-parameter runs of the X1-X4 extension experiments."""

    def test_x1(self):
        run("X1", n_values=(4, 8)).require()

    def test_x2(self):
        run("X2", gains=(0.05, 0.3), delays=(0, 2)).require()

    def test_x3(self):
        run("X3").require()

    def test_x3_other_weights(self):
        res = run("X3", weights=(1.0, 1.0, 8.0)).require()
        assert len(res.rows) == 6

    def test_x4(self):
        run("X4", horizon=8000.0, warmup=800.0).require()

    def test_extensions_not_in_default_sweep(self):
        from repro.experiments import EXTENSIONS, REGISTRY
        assert set(EXTENSIONS) == {"X1", "X2", "X3", "X4", "X5", "X6",
                                   "X7", "X8"}
        assert not (set(EXTENSIONS) & set(REGISTRY))

    def test_x5(self):
        run("X5", n_steps=80).require()

    def test_x6(self):
        run("X6", steps=2000, loss_rates=(0.0, 0.5)).require()

    def test_x7(self):
        res = run("X7", betas=(0.6, 0.45, 0.35), steps=3000,
                  adversary_counts=(0, 1), mu_factors=(1.0, 0.5),
                  workers=2).require()
        roles = {row[4] for row in res.rows}
        assert roles == {"honest", "adversary"}
        assert any(row[9] > 0 for row in res.rows)  # events recorded

    def test_x8(self):
        res = run("X8", slow_rates=(1.0, 0.25, 0.1),
                  steps=40000).require()
        ratios = [row[1] for row in res.rows]
        assert ratios == [1.0, 4.0, 10.0]
        # Raw steps-to-converge grows monotonically with heterogeneity
        # on this grid, while the steady-state deviations stay flat.
        steps = [row[5] for row in res.rows]
        assert steps == sorted(steps)
