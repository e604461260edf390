"""Tests for repro.monitor's episode semantics on a single stream.

Each stream is served as a fleet of one through
``FleetMonitor.run_batch``, the monitor's only serving path.
"""

import numpy as np
import pytest

from repro.core.ols import LinearModel
from repro.core.pipeline import PipelineConfig, PlacementModel, ScopeModel
from repro.core.predictor import VoltagePredictor
from repro.core.selection import SelectionResult
from repro.core.group_lasso import GroupLassoResult
from repro.monitor import FleetMonitor


def identity_model(n_blocks=2):
    """A placement whose prediction equals its first sensor columns."""
    coef = np.eye(n_blocks)
    predictor = VoltagePredictor(
        model=LinearModel(coef=coef, intercept=np.zeros(n_blocks)),
        selected=np.arange(n_blocks),
    )
    selection = SelectionResult(
        selected=np.arange(n_blocks),
        group_norms=np.ones(n_blocks),
        budget=1.0,
        threshold=1e-3,
        gl_result=GroupLassoResult(coef=coef, penalty=0.0),
    )
    scope = ScopeModel(
        core_index=0,
        candidate_cols=np.arange(n_blocks),
        block_cols=np.arange(n_blocks),
        selection=selection,
        predictor=predictor,
    )
    return PlacementModel(
        scopes=[scope], config=PipelineConfig(budget=1.0), n_blocks=n_blocks
    )


def serve(stream, debounce=1, model=None, threshold=0.85):
    """Serve one ``(T, Q)`` stream as a fleet of one; returns
    ``(flags, fleet)`` with the fleet still open."""
    fleet = FleetMonitor(
        identity_model() if model is None else model,
        threshold,
        debounce=debounce,
        n_streams=1,
    )
    flags = fleet.run_batch(np.asarray(stream, dtype=float)[np.newaxis])[0]
    return flags, fleet


class TestFleetOfOne:
    def test_immediate_alarm(self):
        flags, fleet = serve([[0.9, 0.9], [0.84, 0.9], [0.9, 0.9]])
        assert flags.tolist() == [False, True, False]
        fleet.finish()
        stats = fleet.stream_stats(0)
        assert stats.cycles == 3
        assert stats.alarm_cycles == 1
        assert stats.events == 1

    def test_event_log_contents(self):
        _, fleet = serve(
            [
                [0.9, 0.9],
                [0.84, 0.9],
                [0.80, 0.9],
                [0.9, 0.9],
                [0.9, 0.82],
            ]
        )
        fleet.finish()
        assert fleet.stream_stats(0).events == 2
        first, second = fleet.events[0]
        assert (first.start_cycle, first.end_cycle) == (1, 2)
        assert first.min_predicted == pytest.approx(0.80)
        assert first.worst_block == 0
        assert second.worst_block == 1
        assert second.duration == 1

    def test_debounce_suppresses_glitches(self):
        flags, _ = serve(
            [
                [0.84, 0.9],  # single-cycle glitch: suppressed
                [0.9, 0.9],
                [0.84, 0.9],  # two in a row: alarm on 2nd
                [0.84, 0.9],
                [0.9, 0.9],
            ],
            debounce=2,
        )
        assert flags.tolist() == [False, False, False, True, False]

    def test_finish_closes_open_episode(self):
        _, fleet = serve([[0.8, 0.9]])
        fleet.finish()
        assert fleet.stream_stats(0).events == 1
        assert fleet.events[0][0].end_cycle == 0

    def test_min_predicted_tracked(self):
        _, fleet = serve([[0.9, 0.87], [0.86, 0.91]])
        fleet.finish()
        assert fleet.stream_stats(0).min_predicted == pytest.approx(0.86)

    def test_nan_neither_closes_nor_extends(self):
        # Block 0 reads 0.8, NaN, 0.8, 0.9: the NaN cycle keeps the open
        # episode open but breaks the debounce streak.
        stream = [[0.8, 0.9], [np.nan, 0.9], [0.8, 0.9], [0.9, 0.9]]
        flags, fleet = serve(stream, debounce=1)
        fleet.finish()
        assert flags.tolist() == [True, True, True, False]
        (event,) = fleet.events[0]
        assert (event.start_cycle, event.end_cycle) == (0, 2)
        assert event.min_predicted == 0.8
        assert fleet.stream_stats(0).alarm_cycles == 3

        flags, fleet = serve(stream, debounce=2)
        fleet.finish()
        assert not flags.any()
        assert fleet.events[0] == []
        assert fleet.stream_stats(0).alarm_cycles == 0

    def test_on_real_fitted_model(self, tiny_data):
        from repro.core import fit_placement

        model = fit_placement(tiny_data.train, PipelineConfig(budget=1.0))
        readings = tiny_data.eval.X[:50][:, model.sensor_candidate_cols]
        flags, fleet = serve(readings, model=model)
        fleet.finish()
        stats = fleet.stream_stats(0)
        assert stats.cycles == 50
        assert stats.alarm_cycles == int(flags.sum())

    def test_stats_serialize_to_strict_json(self):
        # A zero-cycle session has min_predicted == inf; the stats
        # dataclass must still serialize to valid JSON.
        import json

        from repro.utils.io import to_jsonable

        fleet = FleetMonitor(identity_model(), threshold=0.85)
        fleet.finish()
        payload = to_jsonable(fleet.stream_stats(0))
        text = json.dumps(payload, allow_nan=False)
        assert json.loads(text)["min_predicted"] is None


class TestDebounceEdgeCases:
    def test_episode_cycles_with_debounce(self):
        # With debounce=3, the alarm asserts on the 3rd consecutive
        # below-threshold cycle, but the episode must be backdated to
        # the first below-threshold cycle.
        _, fleet = serve(
            [
                [0.9, 0.9],   # 0
                [0.84, 0.9],  # 1: below (streak 1)
                [0.83, 0.9],  # 2: below (streak 2)
                [0.82, 0.9],  # 3: below (streak 3) -> alarm
                [0.9, 0.9],   # 4: recovery closes episode at 3
            ],
            debounce=3,
        )
        fleet.finish()
        assert fleet.stream_stats(0).events == 1
        event = fleet.events[0][0]
        assert (event.start_cycle, event.end_cycle) == (1, 3)
        assert event.duration == 3
        assert event.min_predicted == pytest.approx(0.82)

    def test_open_episode_at_finish_with_debounce(self):
        _, fleet = serve(
            [[0.84, 0.9], [0.83, 0.9], [0.82, 0.9]], debounce=2
        )
        assert fleet.alarm_active[0]
        fleet.finish()
        assert not fleet.alarm_active[0]
        assert fleet.stream_stats(0).events == 1
        event = fleet.events[0][0]
        assert (event.start_cycle, event.end_cycle) == (0, 2)
        assert event.min_predicted == pytest.approx(0.82)

    def test_glitch_never_reaches_debounce(self):
        _, fleet = serve(
            [[0.84, 0.9], [0.84, 0.9], [0.9, 0.9], [0.84, 0.9], [0.9, 0.9]],
            debounce=3,
        )
        fleet.finish()
        stats = fleet.stream_stats(0)
        assert stats.events == 0
        assert stats.alarm_cycles == 0

    def test_alarm_cycles_match_episode_durations(self):
        # Regression: episodes are backdated to the start of the
        # debounce streak, but alarm_cycles used to count only from the
        # assertion cycle, so the two bookkeepings disagreed by
        # (debounce - 1) per episode.
        _, fleet = serve(
            [
                [0.9, 0.9],
                [0.84, 0.9],
                [0.83, 0.9],
                [0.82, 0.9],  # alarm asserts, episode backdated to 1
                [0.84, 0.9],
                [0.9, 0.9],   # closes episode [1..4]
                [0.84, 0.9],
                [0.83, 0.9],
                [0.84, 0.9],  # second episode [6..]
            ],
            debounce=3,
        )
        fleet.finish()  # closes open episode at cycle 8
        stats = fleet.stream_stats(0)
        assert stats.events == 2
        durations = [e.duration for e in fleet.events[0]]
        assert durations == [4, 3]
        assert stats.alarm_cycles == sum(durations)

    @pytest.mark.parametrize("debounce", [1, 2, 3, 5])
    def test_alarm_cycle_invariant_random_stream(self, debounce):
        # sum(event durations) == alarm_cycles for any debounce.
        rng = np.random.default_rng(debounce)
        stream = np.full((200, 2), 0.9)
        dips = rng.random(200) < 0.35
        stream[dips, 0] = 0.8
        _, fleet = serve(stream, debounce=debounce)
        fleet.finish()
        stats = fleet.stream_stats(0)
        assert stats.alarm_cycles == sum(e.duration for e in fleet.events[0])
        assert stats.events == len(fleet.events[0])

    def test_episode_min_includes_debounce_prefix(self):
        # The deepest dip of an episode can occur before the alarm
        # asserts; the backdated episode must report it.
        _, fleet = serve(
            [[0.80, 0.9], [0.83, 0.9], [0.84, 0.9], [0.9, 0.9]], debounce=3
        )
        fleet.finish()
        assert fleet.stream_stats(0).events == 1
        assert fleet.events[0][0].min_predicted == pytest.approx(0.80)
        assert fleet.events[0][0].worst_block == 0


class TestEmergencyEventStream:
    def test_emergencies_emitted_to_registry(self):
        import repro.obs as obs

        with obs.use_registry(obs.MetricsRegistry()) as reg:
            _, fleet = serve([[0.8, 0.9], [0.9, 0.9], [0.9, 0.78]])
            fleet.finish()
        events = reg.events_named("monitor.emergency")
        assert len(events) == 2
        assert events[0]["start_cycle"] == 0
        assert events[0]["min_predicted"] == pytest.approx(0.8)
        assert events[1]["worst_block"] == 1
        assert all(e["threshold"] == 0.85 for e in events)
        assert reg.counter("monitor.emergencies").value == 2

    def test_no_stream_when_disabled(self):
        import repro.obs as obs

        with obs.use_registry(obs.MetricsRegistry(enabled=False)) as reg:
            _, fleet = serve([[0.8, 0.9]])
            fleet.finish()
        assert reg.events == []
        # The fleet's own episode log is independent of the registry.
        assert len(fleet.events[0]) == 1
