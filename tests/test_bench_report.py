"""Bench-report schema validation and the run-diff regression CLI."""

import copy
import json
import os

import pytest

from repro.obs.benchjson import (
    BENCH_SCHEMA,
    infer_mode,
    normalize_bench,
    stamp_bench,
    validate_bench,
)
from repro.obs.report import (
    Thresholds,
    diff_runs,
    load_run,
    main,
    render_ascii,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The committed report of every bench mode.
COMMITTED = {
    "datagen": "BENCH_datagen.json",
    "surrogate": "BENCH_surrogate.json",
    "tournament": os.path.join("results", "leaderboard.json"),
}


def _committed_bench(mode):
    """(path, doc) of the committed report of ``mode``; a missing file
    fails the calling test."""
    path = os.path.join(REPO_ROOT, COMMITTED[mode])
    with open(path) as fh:
        return path, json.load(fh)


class TestBenchSchema:
    @pytest.mark.parametrize("name", sorted(COMMITTED))
    def test_committed_baselines_validate(self, name):
        _, doc = _committed_bench(name)
        assert validate_bench(doc) == []
        assert infer_mode(doc) == name

    def test_stamp_sets_schema_and_mode(self):
        _, doc = _committed_bench("datagen")
        assert doc["schema"] == BENCH_SCHEMA
        del doc["schema"]
        stamp_bench(doc)
        assert doc["schema"] == BENCH_SCHEMA
        assert doc["mode"] == "datagen"

    def test_unrecognizable_doc_raises(self):
        with pytest.raises(ValueError):
            infer_mode({"hello": "world"})
        # A mode is never guessed from a report's shape.
        with pytest.raises(ValueError):
            infer_mode({"engine_points": []})

    def test_missing_required_field_reported(self):
        _, doc = _committed_bench("datagen")
        doc.pop("optimized_s")
        problems = validate_bench(doc)
        assert any("optimized_s" in p for p in problems)

    def test_non_mapping_provenance_reported(self):
        _, doc = _committed_bench("datagen")
        doc["provenance"] = "laptop"
        assert validate_bench(doc) == ["'provenance' must be a mapping"]
        doc["provenance"] = {"git_sha": "unknown"}
        assert validate_bench(doc) == []

    @pytest.mark.parametrize("name", sorted(COMMITTED))
    def test_normalize_shape(self, name):
        _, doc = _committed_bench(name)
        norm = normalize_bench(doc)
        assert norm["kind"] == "bench"
        assert norm["mode"] == name
        assert isinstance(norm["counters"], dict)
        assert isinstance(norm["scalars"], dict)
        assert norm["counters"] or norm["scalars"]


class TestDiffRuns:
    def test_self_diff_has_no_regressions(self):
        _, doc = _committed_bench("datagen")
        report = diff_runs(load_run_doc(doc), load_run_doc(doc))
        assert report["verdict"] == "ok"
        assert report["regressions"] == []

    def test_injected_accuracy_regression_flagged(self):
        _, doc = _committed_bench("tournament")
        old = load_run_doc(doc)
        new = copy.deepcopy(old)
        name, value = next(
            (k, v)
            for k, v in new["scalars"].items()
            if k.startswith("nominal_error[placer=")
        )
        new["scalars"][name] = value * 2.0
        report = diff_runs(old, new)
        assert report["verdict"] == "regression"
        assert any(
            r["metric"] == f"scalar:{name}" for r in report["regressions"]
        )

    def test_within_threshold_delta_is_ok(self):
        _, doc = _committed_bench("tournament")
        old = load_run_doc(doc)
        new = copy.deepcopy(old)
        name, value = next(
            (k, v)
            for k, v in new["scalars"].items()
            if k.startswith("nominal_error[placer=")
        )
        new["scalars"][name] = value * 1.05  # inside the 10% accuracy gate
        assert diff_runs(old, new)["verdict"] == "ok"

    def test_custom_thresholds(self):
        _, doc = _committed_bench("tournament")
        old = load_run_doc(doc)
        new = copy.deepcopy(old)
        name, value = next(
            (k, v)
            for k, v in new["scalars"].items()
            if k.startswith("nominal_error[placer=")
        )
        new["scalars"][name] = value * 1.05
        tight = Thresholds(accuracy=0.01)
        assert diff_runs(old, new, tight)["verdict"] == "regression"

    def test_wall_clock_scalars_are_info_only(self):
        _, doc = _committed_bench("datagen")
        old = load_run_doc(doc)
        new = copy.deepcopy(old)
        for key in ("optimized_s", "cache_cold_s", "cache_warm_s"):
            new["scalars"][key] = new["scalars"][key] * 100
        assert diff_runs(old, new)["verdict"] == "ok"

    def test_problem_counter_increase_always_flags(self):
        _, doc = _committed_bench("datagen")
        old = load_run_doc(doc)
        new = copy.deepcopy(old)
        new["scalars"]["problems"] = old["scalars"]["problems"] + 1
        report = diff_runs(old, new)
        assert report["verdict"] == "regression"

    def test_render_ascii_mentions_verdict(self):
        _, doc = _committed_bench("datagen")
        run = load_run_doc(doc)
        text = render_ascii(diff_runs(run, run))
        assert "OK" in text


def load_run_doc(doc):
    """Normalize an in-memory bench doc the way load_run does a file."""
    from repro.obs.benchjson import normalize_bench

    return normalize_bench(copy.deepcopy(doc))


class TestReportCLI:
    def _write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_self_diff_exit_zero(self, tmp_path, capsys):
        path, _ = _committed_bench("datagen")
        assert main([path, path]) == 0
        out = capsys.readouterr().out
        assert "OK" in out

    def test_injected_regression_exit_one(self, tmp_path, capsys):
        # Every placer's errors tripled: each overall_error row must be
        # flagged, not filed as "info".
        path, doc = _committed_bench("tournament")
        bad = copy.deepcopy(doc)
        for entry in bad["entries"]:
            entry["overall_error"] *= 3.0
            entry["worst_degraded_error"] *= 3.0
            entry["nominal"]["relative_error"] *= 3.0
        bad_path = self._write(tmp_path, "new.json", bad)
        out_path = tmp_path / "diff.json"
        assert main([path, bad_path, "--json", str(out_path)]) == 1
        assert "REGRESSION" in capsys.readouterr().out
        flagged = {
            r["metric"] for r in json.loads(out_path.read_text())["regressions"]
        }
        for entry in doc["entries"]:
            assert f"scalar:overall_error[placer={entry['placer']}]" in flagged

    def test_unreadable_input_exit_two(self, tmp_path, capsys):
        garbage = self._write(tmp_path, "garbage.json", {"nope": 1})
        path, _ = _committed_bench("datagen")
        assert main([path, garbage]) == 2

    def test_json_output(self, tmp_path, capsys):
        path, _ = _committed_bench("datagen")
        out_path = tmp_path / "diff.json"
        assert main([path, path, "--json", str(out_path)]) == 0
        saved = json.loads(out_path.read_text())
        assert saved["verdict"] == "ok"
        assert saved["schema"].startswith("repro.obs.report/")

    def test_threshold_flags(self, tmp_path):
        path, doc = _committed_bench("tournament")
        worse = copy.deepcopy(doc)
        for entry in worse["entries"]:
            entry["nominal"]["relative_error"] *= 1.05
        worse_path = self._write(tmp_path, "worse.json", worse)
        assert main([path, worse_path]) == 0
        assert main([path, worse_path, "--accuracy-tol", "0.01"]) == 1

    def test_manifest_diff(self, tmp_path, capsys):
        import repro.obs as obs

        with obs.use_registry(obs.MetricsRegistry()) as registry:
            registry.counter("datagen.batch_solve").inc(4)
            registry.timer("fit.scope").record(1e-3)
            manifest = obs.build_manifest(registry, profile="test")
        a = self._write(tmp_path, "a.json", manifest)
        b = self._write(tmp_path, "b.json", manifest)
        assert main([a, b]) == 0
        assert "OK" in capsys.readouterr().out

    def test_manifest_latency_regression(self, tmp_path, capsys):
        import repro.obs as obs

        def build(scale):
            with obs.use_registry(obs.MetricsRegistry()) as registry:
                for i in range(50):
                    registry.timer("fit.scope").record((i + 1) * 1e-4 * scale)
                return obs.build_manifest(registry, profile="test")

        a = self._write(tmp_path, "old.json", build(1.0))
        b = self._write(tmp_path, "new.json", build(10.0))
        assert main([a, b]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out

    def test_mode_mismatch_warns_but_compares(self, tmp_path, capsys):
        tournament_path, _ = _committed_bench("tournament")
        datagen_path, _ = _committed_bench("datagen")
        code = main([tournament_path, datagen_path])
        out = capsys.readouterr().out
        assert "WARNING" in out
        assert code in (0, 1)


def _worked_manifest():
    import repro.obs as obs

    with obs.use_registry(obs.MetricsRegistry()) as registry:
        registry.counter("datagen.batch_solve").inc(4)
        for i in range(20):
            registry.timer("fit.scope").record((i + 1) * 1e-4)
        return obs.build_manifest(registry, profile="test")


class TestCannotAlign:
    """Unalignable metrics must exit 2 with a message, not a traceback."""

    def _write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_nan_p99_manifest_exit_two(self, tmp_path, capsys):
        good = _worked_manifest()
        bad = copy.deepcopy(good)
        bad["metrics"]["timers"]["fit.scope"]["p99_s"] = float("nan")
        a = self._write(tmp_path, "a.json", good)
        b = self._write(tmp_path, "b.json", bad)
        assert main([a, b]) == 2
        err = capsys.readouterr().err
        assert "cannot align" in err
        assert "p99_s" in err

    def test_absent_metrics_section_exit_two(self, tmp_path, capsys):
        good = _worked_manifest()
        bad = copy.deepcopy(good)
        del bad["metrics"]
        a = self._write(tmp_path, "a.json", good)
        b = self._write(tmp_path, "b.json", bad)
        assert main([a, b]) == 2
        assert "cannot align" in capsys.readouterr().err

    def test_nan_bench_scalar_exit_two(self, tmp_path, capsys):
        path, doc = _committed_bench("datagen")
        bad = copy.deepcopy(doc)
        bad["optimized_s"] = float("nan")
        bad_path = self._write(tmp_path, "bad.json", bad)
        assert main([path, bad_path]) == 2
        err = capsys.readouterr().err
        assert "cannot align" in err
        assert "optimized_s" in err

    def test_non_numeric_counter_exit_two(self, tmp_path, capsys):
        good = _worked_manifest()
        bad = copy.deepcopy(good)
        bad["metrics"]["counters"]["datagen.batch_solve"] = "four"
        a = self._write(tmp_path, "a.json", good)
        b = self._write(tmp_path, "b.json", bad)
        assert main([a, b]) == 2
        assert "cannot align" in capsys.readouterr().err

    def test_non_dict_event_entries_are_skipped(self, tmp_path):
        # Junk entries in the event lists must not crash the load; the
        # numeric entries still fold into scalars.
        good = _worked_manifest()
        weird = copy.deepcopy(good)
        weird["group_lasso"] = [
            {"iterations": 3, "total_iterations": 5},
            "garbage",
        ]
        weird["experiments"] = ["garbage", {"experiment": "e1", "wall_s": 1.5}]
        run = load_run(self._write(tmp_path, "w.json", weird))
        assert run["scalars"]["group_lasso.iterations"] == 3.0
        assert run["scalars"]["experiment.e1.wall_s"] == 1.5

    def test_empty_workers_datagen_loads_and_diffs_ok(self, tmp_path, capsys):
        # A datagen run records in one process, so its manifest's
        # worker list is empty: a legitimate run, not an alignment
        # failure.
        manifest = _worked_manifest()
        assert manifest["workers"] == []
        a = self._write(tmp_path, "a.json", manifest)
        b = self._write(tmp_path, "b.json", copy.deepcopy(manifest))
        assert main([a, b]) == 0
        assert "OK" in capsys.readouterr().out
