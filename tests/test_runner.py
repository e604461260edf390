"""Tests for the experiment CLI runner."""

import json
import os

import pytest

import repro.obs as obs
from repro.experiments.runner import EXPERIMENTS, run_experiment


class TestRunExperiment:
    def test_unknown_name_rejected(self, tiny_data):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment("fig99", tiny_data)

    def test_fig1_report_and_json(self, tiny_data, tmp_path):
        out = str(tmp_path)
        text = run_experiment("fig1", tiny_data, out_dir=out)
        assert "Fig. 1" in text
        assert "completed in" in text
        path = os.path.join(out, "fig1.json")
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["experiment"] == "fig1"

    def test_table2_report(self, tiny_data, tmp_path):
        text = run_experiment("table2", tiny_data, out_dir=str(tmp_path))
        assert "Table 2" in text
        assert os.path.exists(tmp_path / "table2.json")

    def test_experiment_registry(self):
        assert set(EXPERIMENTS) == {
            "fig1",
            "table1",
            "fig2",
            "fig3",
            "table2",
            "fig4",
            "ablations",
        }


class TestMoreExperimentBranches:
    def test_table1_payload(self, tiny_data, tmp_path):
        text = run_experiment("table1", tiny_data, out_dir=str(tmp_path))
        assert "Table 1" in text
        assert os.path.exists(tmp_path / "table1.json")

    def test_fig3_payload(self, tiny_data, tmp_path):
        text = run_experiment("fig3", tiny_data, out_dir=str(tmp_path))
        assert "Eagle-Eye" in text
        payload = json.load(open(tmp_path / "fig3.json"))
        assert "noisiest_unit" in payload["result"]

    def test_fig4_payload(self, tiny_data, tmp_path):
        text = run_experiment("fig4", tiny_data, out_dir=str(tmp_path))
        assert "Fig. 4" in text
        payload = json.load(open(tmp_path / "fig4.json"))
        assert len(payload["result"]["sensors_per_core"]) >= 2


class TestTracing:
    def test_run_experiment_records_span_and_solver_stats(self, tiny_data):
        with obs.use_registry(obs.MetricsRegistry()) as reg:
            run_experiment("fig1", tiny_data)
        exp_spans = [s for s in reg.spans if s.name == "experiment.fig1"]
        assert len(exp_spans) == 1
        assert exp_spans[0].status == "ok"
        stats = obs.convergence_stats(reg)
        assert len(stats) >= 2  # fig1 solves at two lambdas
        for entry in stats:
            assert entry["iterations"] >= 0
            assert "final_residual" in entry

    def test_manifest_from_experiment_run(self, tiny_data, tmp_path):
        from repro.utils.io import load_results, save_results

        with obs.use_registry(obs.MetricsRegistry()) as reg:
            run_experiment("fig1", tiny_data)
            manifest = obs.build_manifest(
                reg,
                profile="tiny",
                dataset={"train": tiny_data.train.summary()},
            )
        path = str(tmp_path / "manifest.json")
        save_results(path, manifest)
        loaded = load_results(path)
        assert loaded["profile"] == "tiny"
        assert loaded["experiments"][0]["experiment"] == "fig1"
        assert loaded["group_lasso"]
        budgets = [entry["budget"] for entry in loaded["group_lasso"]]
        assert len(budgets) == len(set(budgets)) >= 2
        summary = obs.render_timing_summary(reg)
        assert "experiment.fig1" in summary
