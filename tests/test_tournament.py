"""Placement tournament: golden leaderboard diff + engine contract.

``golden_leaderboard.json`` pins the full tiny-profile tournament —
rankings, selected sensors, and every scenario score for all
registered placers.  The replay compares under the tolerance policy in
``tests/golden/README.md``: discrete fields exact, continuous fields
to 2e-5 relative (float32 simulation data), wall-clock fields ignored.

The remaining tests pin the engine contract: schema validity of the
leaderboard document, rank ordering, failure isolation (a broken
placer lands in ``problems``, not an exception), and the committed
``results/leaderboard.json`` artifact's required coverage.
"""

import dataclasses
import json
import os

import numpy as np
import pytest

import repro.experiments.data_generation as datagen
import repro.experiments.robustness as robustness
from repro.experiments.robustness import FAULT_MODES, simulate_varied_die
from repro.experiments.tournament import (
    TournamentConfig,
    render_leaderboard_markdown,
    run_tournament,
)
from repro.obs.benchjson import normalize_bench, validate_bench
from tests.conftest import TINY_SETUP
from tests.golden.regenerate import (
    TOURNAMENT_GOLDEN_PATH,
    build_tournament_golden,
)

REL_TOL = 2e-5
#: Wall-clock fields: recorded in the fixture, exempt from comparison.
TIMING_KEYS = {"place_s"}

RESULTS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "results",
    "leaderboard.json",
)


@pytest.fixture(scope="module")
def golden():
    with open(TOURNAMENT_GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def current(tiny_data):
    return build_tournament_golden(data=tiny_data)


def _assert_matches(got, want, path=""):
    if isinstance(want, dict):
        assert isinstance(got, dict), path
        got_keys = set(got) - TIMING_KEYS
        want_keys = set(want) - TIMING_KEYS
        assert got_keys == want_keys, (
            f"{path}: keys differ (+{got_keys - want_keys} "
            f"-{want_keys - got_keys})"
        )
        for key in want_keys:
            _assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{path}[{i}]")
    elif isinstance(want, float) and not isinstance(want, bool):
        assert got == pytest.approx(want, rel=REL_TOL, abs=1e-12), path
    else:
        assert got == want, path


def test_leaderboard_matches_golden(golden, current):
    _assert_matches(current, golden, "leaderboard")


def test_golden_is_valid_bench_document(golden):
    assert golden["schema" if "schema" in golden else "mode"]  # sanity
    assert validate_bench(golden) == []
    assert golden["problems"] == []


def test_golden_normalizes_for_report_diffing(golden):
    flat = normalize_bench(golden)
    assert flat["mode"] == "tournament"
    for entry in golden["entries"]:
        assert f"overall_error[placer={entry['placer']}]" in flat["scalars"]
        assert f"nominal_error[placer={entry['placer']}]" in flat["scalars"]
    assert flat["scalars"]["problems"] == 0.0


def test_entries_ranked_by_overall_error(current):
    overall = [e["overall_error"] for e in current["entries"]]
    assert overall == sorted(overall)
    assert [e["rank"] for e in current["entries"]] == list(
        range(1, len(overall) + 1)
    )


def test_every_entry_covers_every_scenario(current):
    scenarios = current["scenarios"]
    for entry in current["entries"]:
        assert set(entry["per_benchmark"]) == set(scenarios["benchmarks"])
        assert len(entry["variation"]["errors"]) == scenarios["n_variation"]
        assert set(entry["faults"]) == set(scenarios["fault_modes"])
        for mode_row in entry["faults"].values():
            assert 0.0 <= mode_row["detected_fraction"] <= 1.0
            assert mode_row["worst_degraded_error"] >= (
                mode_row["mean_degraded_error"] - 1e-12
            )
        assert entry["n_sensors"] == len(entry["selected_cols"])


def test_markdown_rendering_lists_every_placer(tiny_data):
    config = TournamentConfig(
        placers=("worst_noise", "correlation"),
        n_variation=0,
        fault_modes=(),
    )
    result = run_tournament(tiny_data, config)
    markdown = render_leaderboard_markdown(result)
    assert "| worst_noise |" in markdown
    assert "| correlation |" in markdown
    assert markdown.count("n/a") >= 2  # no variation axis -> n/a cells
    assert result.render()  # ASCII rendering also works


def test_failing_placer_is_isolated(tiny_data):
    config = TournamentConfig(
        placers=("worst_noise", "no_such_placer"),
        n_variation=0,
        fault_modes=(),
    )
    result = run_tournament(tiny_data, config)
    assert [e.placer for e in result.entries] == ["worst_noise"]
    assert len(result.problems) == 1
    assert "no_such_placer" in result.problems[0]
    with pytest.raises(KeyError):
        result.entry("no_such_placer")


def test_config_validation():
    with pytest.raises(ValueError):
        TournamentConfig(placers=())
    with pytest.raises(ValueError):
        TournamentConfig(budget=0)
    with pytest.raises(ValueError):
        TournamentConfig(fault_start=200, fault_cycles=100)
    with pytest.raises(ValueError):
        TournamentConfig(resistance_sigma=-0.1)


def test_config_rejects_unknown_fault_mode():
    # A misspelt mode must fail at construction, not read as every
    # placer failing its fault scoring.
    with pytest.raises(ValueError, match="'bogus'"):
        TournamentConfig(placers=("worst_noise",), fault_modes=("dropout", "bogus"))
    TournamentConfig(fault_modes=FAULT_MODES)


def test_committed_leaderboard_meets_coverage_floor():
    # The committed artifact must exist, validate, and cover the
    # required grid: >= 4 placers x (benchmarks, >= 3 variation
    # instances, >= 2 fault modes) with detection and degraded columns.
    with open(RESULTS_PATH, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert validate_bench(doc) == []
    assert doc["problems"] == []
    assert len(doc["entries"]) >= 4
    scenarios = doc["scenarios"]
    assert len(scenarios["benchmarks"]) >= 1
    assert scenarios["n_variation"] >= 3
    assert len(scenarios["fault_modes"]) >= 2
    for entry in doc["entries"]:
        assert {"miss", "wrong_alarm", "total"} <= set(entry["nominal"])
        assert entry["worst_degraded_error"] is not None
        assert np.isfinite(entry["overall_error"])


def test_each_placer_places_once(tiny_data):
    # One scored placement per placer: nothing else in the race feeds
    # the shared placer.* counters, and no tournament.* counter exists.
    import repro.obs as obs

    config = TournamentConfig(
        budget=1, n_variation=1, variation_steps=60, fault_modes=()
    )
    with obs.use_registry(obs.MetricsRegistry()) as registry:
        result = run_tournament(tiny_data, config)
        counters = registry.snapshot()["counters"]
    assert result.problems == []
    placements = {
        name: counters.get(f"placer.{name}.placements")
        for name in config.placers
    }
    assert placements == {name: 1 for name in config.placers}
    assert not [name for name in counters if name.startswith("tournament.")]


def test_varied_die_runs_the_evaluation_workload(tiny_data, monkeypatch):
    # A die's error must differ from the nominal one by the die alone:
    # its activity draws with the evaluation DataConfig's workload
    # options and warms up for its warm-up steps.
    calls = []
    real = datagen.generate_activity

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    # Both module globals: a die drawing its activity outside the
    # datasets' builder is recorded too, and then fails the check.
    monkeypatch.setattr(datagen, "generate_activity", recording)
    monkeypatch.setattr(robustness, "generate_activity", recording, raising=False)
    n_steps = 20
    X, F = simulate_varied_die(tiny_data, 0, "x264", n_steps, 0.1, 0.02)
    assert X.shape == (n_steps, tiny_data.train.n_candidates)
    assert F.shape == (n_steps, tiny_data.train.n_blocks)
    assert len(calls) == 1
    workload = TINY_SETUP.eval
    assert calls[0]["n_steps"] == workload.warmup_steps + n_steps
    for name in (
        "ramp_steps",
        "block_jitter",
        "core_coupling",
        "gating_scope",
        "phase_concentration",
        "burst_boost",
    ):
        assert calls[0].get(name) == getattr(workload, name), name


def test_varied_die_needs_the_generating_setup(tiny_data):
    with pytest.raises(ValueError, match="setup"):
        simulate_varied_die(
            dataclasses.replace(tiny_data, setup=None), 0, "x264", 10, 0.1, 0.0
        )
