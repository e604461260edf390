"""Tests for the batched fleet serving core (repro.monitor.fleet)."""

import gc
import time

import numpy as np
import pytest

import repro.obs as obs
from repro.core import PipelineConfig, fit_placement
from repro.core.pipeline import placement_model_from_cols
from repro.monitor import (
    CompiledPredictor,
    DropoutFault,
    FaultPolicy,
    FleetMonitor,
    StuckAtFault,
)
from repro.monitor.fleet import _stable_rows
from tests.conftest import (
    assert_same_outcome,
    make_synthetic_dataset,
    replay_cycle_by_cycle,
)


@pytest.fixture(scope="module")
def fitted():
    ds = make_synthetic_dataset(seed=3)
    model = fit_placement(ds, PipelineConfig(budget=1.0))
    return ds, model


def _streams(model, ds, n_streams, n_cycles, seed=0, noise=2e-4):
    """(S, T, Q) sensor readings replaying the dataset with noise."""
    rng = np.random.default_rng(seed)
    cols = model.sensor_candidate_cols
    reps = int(np.ceil(n_cycles / ds.X.shape[0]))
    base = np.tile(ds.X, (reps, 1))[:n_cycles][:, cols]
    return base[np.newaxis] + rng.normal(0, noise, (n_streams,) + base.shape)


def _alarm_threshold(model, ds, quantile=0.2):
    """A threshold that real episodes actually cross."""
    return float(np.quantile(model.predict(ds.X), quantile))


class TestStableRows:
    def test_single_row_matches_batch_row(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((50, 7))
        W = rng.standard_normal((7, 4))
        batch = _stable_rows(X, W)
        for i in (0, 13, 49):
            row = _stable_rows(X[i : i + 1], W)
            assert np.array_equal(row[0], batch[i])

    def test_single_column_matches_batch(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((20, 5))
        W = rng.standard_normal((5, 3))
        full = _stable_rows(X, W)
        one = _stable_rows(X, W[:, :1])
        assert np.array_equal(one[:, 0], full[:, 0])

    def test_empty_input(self):
        out = _stable_rows(np.zeros((0, 4)), np.zeros((4, 2)))
        assert out.shape == (0, 2)

    def test_matches_plain_matmul_values(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((8, 6))
        W = rng.standard_normal((6, 5))
        assert np.allclose(_stable_rows(X, W), X @ W)


class TestCompiledPredictor:
    def test_matches_model_predict(self, fitted):
        ds, model = fitted
        compiled = CompiledPredictor.from_model(model)
        readings = ds.X[:40][:, compiled.sensor_cols]
        assert np.allclose(
            compiled.predict(readings), model.predict(ds.X[:40]), atol=1e-10
        )

    def test_layout_properties(self, fitted):
        _, model = fitted
        compiled = CompiledPredictor.from_model(model)
        assert compiled.n_sensors == model.n_sensors
        assert compiled.n_blocks == model.n_blocks
        assert np.array_equal(
            compiled.sensor_cols, np.sort(model.sensor_candidate_cols)
        )

    def test_duplicate_layout_rejected(self, fitted):
        _, model = fitted
        cols = model.sensor_candidate_cols
        bad = np.concatenate([cols, cols[:1]])
        with pytest.raises(ValueError, match="duplicate"):
            CompiledPredictor.from_model(model, sensor_cols=bad)

    def test_layout_missing_selected_column_rejected(self, fitted):
        _, model = fitted
        with pytest.raises(ValueError, match="outside"):
            CompiledPredictor.from_model(
                model, sensor_cols=model.sensor_candidate_cols[1:]
            )

    def test_predict_shape_validated(self, fitted):
        _, model = fitted
        compiled = CompiledPredictor.from_model(model)
        with pytest.raises(ValueError, match="readings must be"):
            compiled.predict(np.zeros(compiled.n_sensors))
        with pytest.raises(ValueError, match="readings must be"):
            compiled.predict(np.zeros((3, compiled.n_sensors + 1)))

    def test_fallback_compiles_onto_base_layout_with_dead_column(self, fitted):
        ds, model = fitted
        cols = model.sensor_candidate_cols
        dead = int(cols[0])
        fallback = model.fallback_models()[dead]
        compiled = CompiledPredictor.from_model(fallback, sensor_cols=cols)
        assert compiled.coef_t.shape[0] == cols.size
        q = int(np.searchsorted(cols, dead))
        assert np.all(compiled.coef_t[q] == 0.0)
        readings = ds.X[:20][:, cols].copy()
        readings[:, q] = 0.0  # what the monitor feeds a dead channel
        assert np.allclose(
            compiled.predict(readings), fallback.predict(ds.X[:20]), atol=1e-10
        )


class TestFleetMonitorValidation:
    def test_constructor_rejects_bad_args(self, fitted):
        _, model = fitted
        with pytest.raises(ValueError):
            FleetMonitor(model, threshold=-0.1)
        with pytest.raises(ValueError):
            FleetMonitor(model, threshold=0.9, debounce=0)
        with pytest.raises(ValueError):
            FleetMonitor(model, threshold=0.9, n_streams=0)
        with pytest.raises(TypeError, match="FaultPolicy"):
            FleetMonitor(model, threshold=0.9, policy=object())

    def test_run_batch_shape_validated(self, fitted):
        _, model = fitted
        fleet = FleetMonitor(model, threshold=0.9, n_streams=2)
        with pytest.raises(ValueError, match="streams must be"):
            fleet.run_batch(np.zeros((2, fleet.n_sensors)))
        with pytest.raises(ValueError, match="streams must be"):
            fleet.run_batch(np.zeros((1, 5, fleet.n_sensors)))


class TestFleetVsSingleStream:
    """``run_batch`` against the per-cycle reference: each stream's
    scalar state machine driven one cycle at a time
    (``tests.conftest.replay_cycle_by_cycle``)."""

    def test_run_batch_matches_looped_monitors_5x_faster(self, fitted):
        """At S = 16, one run_batch over the (S, T, Q) tensor equals the
        per-cycle reference (flags, episodes, alarm cycles, minimum
        prediction) and is at least 5x faster than serving the same
        streams one cycle per run_batch call."""
        ds, model = fitted
        n_streams, n_cycles = 16, 400
        thr = _alarm_threshold(model, ds, quantile=0.1)
        streams = _streams(model, ds, n_streams, n_cycles, seed=11)

        # Collect before each timed region: otherwise a full collection
        # of the objects earlier tests left behind (~50 ms) can land in
        # the ~5 ms batch call and time the collector, not run_batch.
        gc.collect()
        looped = FleetMonitor(model, thr, debounce=3, n_streams=n_streams)
        t0 = time.perf_counter()
        loop_flags = np.concatenate(
            [looped.run_batch(streams[:, t : t + 1]) for t in range(n_cycles)],
            axis=1,
        )
        loop_s = time.perf_counter() - t0
        looped.finish()

        gc.collect()
        fleet = FleetMonitor(model, thr, debounce=3, n_streams=n_streams)
        t0 = time.perf_counter()
        batch_flags = fleet.run_batch(streams)
        batch_s = time.perf_counter() - t0
        fleet.finish()

        oracle = FleetMonitor(model, thr, debounce=3, n_streams=n_streams)
        oracle_flags = replay_cycle_by_cycle(oracle, streams)
        oracle.finish()

        assert any(fleet.events)
        assert np.array_equal(oracle_flags, batch_flags)
        assert_same_outcome(oracle, fleet)
        assert np.array_equal(loop_flags, batch_flags)
        assert_same_outcome(looped, fleet)
        assert loop_s / batch_s >= 5.0

    def test_run_batch_equals_cycle_oracle_bitwise(self, fitted):
        ds, model = fitted
        n_streams, n_cycles = 4, 150
        thr = _alarm_threshold(model, ds)
        streams = _streams(model, ds, n_streams, n_cycles, seed=5)

        oracle = FleetMonitor(model, thr, debounce=3, n_streams=n_streams)
        oracle_flags = replay_cycle_by_cycle(oracle, streams)
        oracle.finish()

        batcher = FleetMonitor(model, thr, debounce=3, n_streams=n_streams)
        batch_flags = batcher.run_batch(streams)
        batcher.finish()

        assert any(batcher.events)
        assert np.array_equal(oracle_flags, batch_flags)
        assert_same_outcome(oracle, batcher)

    def test_run_batch_chunked_equals_single_call(self, fitted):
        """Debounce/episode/frozen state must carry across run_batch
        calls, down to one cycle per call."""
        ds, model = fitted
        n_streams, n_cycles = 3, 160
        thr = _alarm_threshold(model, ds)
        streams = _streams(model, ds, n_streams, n_cycles, seed=6)
        # A stuck fault whose frozen window straddles the chunk split.
        fault = StuckAtFault(channel=0, start=70, value=0.93)
        streams = fault.apply(streams)
        policy = FaultPolicy(
            v_lo=streams.min() - 0.1, v_hi=streams.max() + 0.1,
            frozen_window=8, frozen_eps=0.0,
        )

        whole = FleetMonitor(model, thr, debounce=2, n_streams=n_streams,
                             policy=policy)
        flags_whole = whole.run_batch(streams)
        whole.finish()
        assert all(whole.failures)

        splits = [
            [0, 1, 73, 74, n_cycles],  # the frozen run straddles 73|74
            list(range(n_cycles + 1)),  # one cycle per call
        ]
        for bounds in splits:
            chunked = FleetMonitor(model, thr, debounce=2,
                                   n_streams=n_streams, policy=policy)
            parts = [
                chunked.run_batch(streams[:, lo:hi, :])
                for lo, hi in zip(bounds[:-1], bounds[1:])
            ]
            flags_chunked = np.concatenate(parts, axis=1)
            chunked.finish()

            assert np.array_equal(flags_whole, flags_chunked)
            assert whole.failures == chunked.failures
            assert_same_outcome(whole, chunked)

    def test_nan_streams_without_policy_match_oracle(self, fitted):
        """NaN v_min takes the scalar replay path; still equals the
        per-cycle reference."""
        ds, model = fitted
        n_streams, n_cycles = 2, 60
        thr = _alarm_threshold(model, ds)
        streams = _streams(model, ds, n_streams, n_cycles, seed=7)
        streams[0] = DropoutFault(channel=0, start=20, duration=10).apply(
            streams[0]
        )

        oracle = FleetMonitor(model, thr, debounce=2, n_streams=n_streams)
        oracle_flags = replay_cycle_by_cycle(oracle, streams)
        oracle.finish()

        batcher = FleetMonitor(model, thr, debounce=2, n_streams=n_streams)
        batch_flags = batcher.run_batch(streams)
        batcher.finish()

        assert np.array_equal(oracle_flags, batch_flags)
        assert_same_outcome(oracle, batcher)


class TestFleetBehaviour:
    def test_finish_closes_open_episodes_and_aggregates(self, fitted):
        ds, model = fitted
        thr = _alarm_threshold(model, ds, quantile=0.99)  # almost always below
        fleet = FleetMonitor(model, thr, n_streams=2)
        fleet.run_batch(_streams(model, ds, 2, 30, seed=9))
        assert fleet.alarm_active.any()
        stats = fleet.finish()
        assert not fleet.alarm_active.any()
        assert stats.cycles == 30
        assert stats.events == sum(len(ev) for ev in fleet.events)
        assert stats.alarm_cycles == sum(
            ev.duration for evs in fleet.events for ev in evs
        )
        assert stats.failovers == 0
        assert stats.degraded_streams == 0

    def test_degraded_mask_and_served_models(self, fitted):
        ds, model = fitted
        streams = _streams(model, ds, 2, 60, seed=10)
        streams[1] = DropoutFault(channel=2, start=5).apply(streams[1])
        policy = FaultPolicy(v_lo=0.5, v_hi=1.5, frozen_window=8)
        fleet = FleetMonitor(model, 1e-6, n_streams=2, policy=policy)
        fleet.run_batch(streams)
        assert list(fleet.degraded) == [False, True]
        assert fleet.model_for(0) is model
        col = int(fleet.sensor_cols[2])
        assert fleet.model_for(1) is model.fallback_models()[col]
        assert fleet.predictor_for(0) is not fleet.predictor_for(1)

    def test_obs_batch_metrics(self, fitted):
        ds, model = fitted
        with obs.use_registry(obs.MetricsRegistry()) as registry:
            fleet = FleetMonitor(model, 1e-6, n_streams=3)
            fleet.run_batch(_streams(model, ds, 3, 40, seed=11))
            snap = registry.snapshot()
        assert snap["counters"]["monitor.batch_cycles"] == 120
        assert snap["timers"]["monitor.run_batch"]["count"] == 1

    def test_swap_rederives_failover_chains_from_new_model(self, fitted):
        ds, model = fitted
        cols = model.sensor_candidate_cols
        other = placement_model_from_cols(make_synthetic_dataset(seed=4), cols)
        assert np.array_equal(other.sensor_candidate_cols, cols)

        # Stream 1 loses sensor positions 1 then 4; stream 0 stays healthy.
        streams = _streams(model, ds, 2, 30, seed=12)
        streams[1] = DropoutFault(channel=1, start=5).apply(streams[1])
        streams[1] = DropoutFault(channel=4, start=15).apply(streams[1])
        policy = FaultPolicy(v_lo=0.5, v_hi=1.5, frozen_window=8)
        fleet = FleetMonitor(model, 1e-6, n_streams=2, policy=policy)
        fleet.run_batch(streams)
        c1, c2 = int(cols[1]), int(cols[4])
        assert [f.candidate_col for f in fleet.failures[1]] == [c1, c2]
        assert fleet.failures[0] == []
        failures = [list(f) for f in fleet.failures]
        degraded = fleet.degraded.copy()
        old_coef = fleet.predictor_for(1).coef_t.copy()

        fleet.swap_model(other)

        assert fleet.model_for(0) is other
        expected = CompiledPredictor.from_model(
            other.fallback_models()[c1].without_sensor(c2), sensor_cols=cols
        )
        served = fleet.predictor_for(1)
        assert np.array_equal(served.coef_t, expected.coef_t)
        assert np.array_equal(served.intercept, expected.intercept)
        assert not np.array_equal(served.coef_t, old_coef)
        assert fleet.failures == failures
        assert np.array_equal(fleet.degraded, degraded)

    def test_swap_to_another_layout_rejected(self, fitted):
        ds, model = fitted
        cols = model.sensor_candidate_cols
        col = int(cols[-1])
        threshold = _alarm_threshold(model, ds)
        streams = _streams(model, ds, 2, 60, seed=13)
        # The dropped sensor sticks after the swap attempt.
        streams = StuckAtFault(
            channel=cols.size - 1, start=25, value=0.93
        ).apply(streams)
        policy = FaultPolicy(v_lo=0.5, v_hi=1.5, frozen_window=8)
        fewer_blocks = placement_model_from_cols(
            make_synthetic_dataset(seed=3, n_blocks=4), cols
        )

        ref = FleetMonitor(model, threshold, n_streams=2, policy=policy)
        ref_flags = ref.run_batch(streams)
        ref.finish()

        fleet = FleetMonitor(model, threshold, n_streams=2, policy=policy)
        flags = [fleet.run_batch(streams[:, :20])]
        with pytest.raises(ValueError, match="sensor columns"):
            fleet.swap_model(model.without_sensor(col))
        with pytest.raises(ValueError, match="blocks"):
            fleet.swap_model(fewer_blocks)
        assert fleet.model is model
        flags.append(fleet.run_batch(streams[:, 20:]))
        fleet.finish()

        assert [f.candidate_col for f in fleet.failures[0]] == [col]
        assert np.array_equal(np.concatenate(flags, axis=1), ref_flags)
        assert fleet.failures == ref.failures
        assert_same_outcome(fleet, ref)
