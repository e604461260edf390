"""Tests for sensor fault injectors, online screens, and failover."""

import numpy as np
import pytest

import repro.obs as obs
from repro.core import PipelineConfig, fit_placement
from repro.core.ols import fit_ols
from repro.experiments.robustness import run_sensor_fault_study
from repro.monitor import (
    SCREEN_FROZEN,
    SCREEN_NAN,
    SCREEN_RANGE,
    CompiledPredictor,
    DriftFault,
    DropoutFault,
    FaultPolicy,
    FleetMonitor,
    GlitchFault,
    StuckAtFault,
)
from repro.voltage.metrics import mean_relative_error
from tests.conftest import make_synthetic_dataset


@pytest.fixture(scope="module")
def fitted():
    ds = make_synthetic_dataset(seed=3)
    model = fit_placement(ds, PipelineConfig(budget=1.0))
    return ds, model


def _clean_stream(ds, model, n_cycles=120, seed=0):
    rng = np.random.default_rng(seed)
    cols = model.sensor_candidate_cols
    reps = int(np.ceil(n_cycles / ds.X.shape[0]))
    base = np.tile(ds.X, (reps, 1))[:n_cycles][:, cols]
    return base + rng.normal(0, 2e-4, base.shape)


def _policy_for(stream, frozen_window=8):
    span = stream.max() - stream.min()
    return FaultPolicy(
        v_lo=float(stream.min() - 0.05 * span),
        v_hi=float(stream.max() + 0.05 * span),
        frozen_window=frozen_window,
        frozen_eps=0.0,
    )


class TestInjectors:
    def test_window_semantics(self):
        stream = np.ones((20, 3))
        fault = DropoutFault(channel=1, start=5, duration=4)
        out = fault.apply(stream)
        assert np.isfinite(out[:5]).all()
        assert np.isnan(out[5:9, 1]).all()
        assert np.isfinite(out[9:]).all()

    def test_permanent_fault(self):
        out = StuckAtFault(channel=0, start=3, value=0.7).apply(np.ones((10, 2)))
        assert np.all(out[3:, 0] == 0.7)
        assert np.all(out[:3, 0] == 1.0)

    def test_apply_respects_t0(self):
        fault = DropoutFault(channel=0, start=10)
        chunk = fault.apply(np.ones((5, 2)), t0=8)
        assert np.isfinite(chunk[:2, 0]).all()
        assert np.isnan(chunk[2:, 0]).all()

    def test_batch_apply_matches_per_stream(self):
        rng = np.random.default_rng(1)
        batch = rng.uniform(0.8, 1.0, (3, 25, 4))
        fault = GlitchFault(channel=1, start=4, lsb=0.0625)
        whole = fault.apply(batch)
        each = np.stack([fault.apply(batch[s]) for s in range(3)])
        assert np.array_equal(whole, each)

    @pytest.mark.parametrize(
        "fault",
        [
            DropoutFault(channel=1, start=4, duration=9),
            StuckAtFault(channel=1, start=4, value=0.9),
            DriftFault(channel=1, start=4, anchor=1.1, rate=0.002),
            GlitchFault(channel=1, start=4, lsb=0.0625),
        ],
        ids=["dropout", "stuck", "drift", "glitch"],
    )
    def test_idempotent_and_channel_local(self, fault):
        rng = np.random.default_rng(2)
        stream = rng.uniform(0.8, 1.0, (40, 3))
        once = fault.apply(stream)
        twice = fault.apply(once)
        assert np.array_equal(once, twice, equal_nan=True)
        # Channels the fault does not own are untouched, bit-for-bit.
        others = [c for c in range(3) if c != fault.channel]
        assert np.array_equal(once[:, others], stream[:, others])

    def test_validation(self):
        with pytest.raises(ValueError):
            DropoutFault(channel=-1)
        with pytest.raises(ValueError):
            DropoutFault(channel=0, duration=0)
        with pytest.raises(ValueError):
            GlitchFault(channel=0, lsb=0.0)
        with pytest.raises(ValueError):
            DropoutFault(channel=5).apply(np.ones((4, 3)))
        with pytest.raises(ValueError):
            DropoutFault(channel=0).apply(np.ones(7))

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            FaultPolicy(v_lo=1.0, v_hi=0.5)
        with pytest.raises(ValueError):
            FaultPolicy(frozen_window=1)
        with pytest.raises(ValueError):
            FaultPolicy(frozen_eps=-0.1)


class TestDetectionAndFailover:
    def test_dropout_detected_immediately(self, fitted):
        ds, model = fitted
        stream = _clean_stream(ds, model)
        fault = DropoutFault(channel=1, start=30)
        fleet = FleetMonitor(
            model, 1e-6, n_streams=1, policy=_policy_for(stream)
        )
        fleet.run_batch(fault.apply(stream)[np.newaxis])
        (failure,) = fleet.failures[0]
        assert failure.screen == SCREEN_NAN
        assert failure.cycle == 30
        assert failure.candidate_col == int(fleet.sensor_cols[1])

    def test_stuck_detected_within_frozen_window(self, fitted):
        ds, model = fitted
        stream = _clean_stream(ds, model)
        mid = float(stream.mean())
        fault = StuckAtFault(channel=0, start=25, value=mid)
        policy = _policy_for(stream, frozen_window=8)
        fleet = FleetMonitor(model, 1e-6, n_streams=1, policy=policy)
        fleet.run_batch(fault.apply(stream)[np.newaxis])
        (failure,) = fleet.failures[0]
        assert failure.screen == SCREEN_FROZEN
        # The first faulty cycle may still equal the prior reading only
        # by chance; the run reaches the window at onset+window-1.
        assert failure.cycle == 25 + policy.frozen_window - 1

    def test_out_of_range_detected_immediately(self, fitted):
        ds, model = fitted
        stream = _clean_stream(ds, model)
        policy = _policy_for(stream)
        fault = StuckAtFault(channel=2, start=40, value=policy.v_hi + 0.5)
        fleet = FleetMonitor(model, 1e-6, n_streams=1, policy=policy)
        fleet.run_batch(fault.apply(stream)[np.newaxis])
        (failure,) = fleet.failures[0]
        assert failure.screen == SCREEN_RANGE
        assert failure.cycle == 40

    @pytest.mark.parametrize(
        "fault",
        [
            DropoutFault(channel=1, start=10),
            StuckAtFault(channel=1, start=10, value=0.93),
        ],
        ids=["dropout", "stuck"],
    )
    def test_failover_serves_the_precomputed_loo_model(self, fitted, fault):
        ds, model = fitted
        stream = _clean_stream(ds, model)
        fleet = FleetMonitor(
            model, 1e-6, n_streams=1, policy=_policy_for(stream)
        )
        fleet.run_batch(fault.apply(stream)[np.newaxis])
        assert len(fleet.failures[0]) == 1
        col = int(fleet.sensor_cols[1])
        fallback = model.fallback_models()[col]
        # Identity, not equality: the exact precomputed fallback object.
        assert fleet.model_for(0) is fallback
        assert fleet.degraded[0]
        # ...served with exactly that fallback's compiled coefficients.
        served = fleet.predictor_for(0)
        expected = CompiledPredictor.from_model(
            fallback, sensor_cols=fleet.sensor_cols
        )
        assert np.array_equal(served.coef_t, expected.coef_t)
        assert np.array_equal(served.intercept, expected.intercept)

    def test_predictions_finite_under_every_mode(self, fitted):
        ds, model = fitted
        stream = _clean_stream(ds, model)
        policy = _policy_for(stream)
        mid = float(stream.mean())
        faults = {
            "dropout": DropoutFault(channel=0, start=15),
            "stuck": StuckAtFault(channel=0, start=15, value=mid),
            "drift": DriftFault(
                channel=0, start=15, anchor=policy.v_hi, rate=0.01
            ),
            "glitch": GlitchFault(channel=0, start=15, lsb=0.0625),
        }
        for mode, fault in faults.items():
            fleet = FleetMonitor(model, 1e-6, n_streams=1, policy=policy)
            fleet.run_batch(fault.apply(stream)[np.newaxis])
            stats = fleet.finish()
            assert fleet.failures[0], f"{mode} fault went undetected"
            assert np.isfinite(stats.min_predicted), mode

    def test_fallback_matches_oracle_refit(self, fitted):
        """The cached-Gram LOO fallback equals refitting OLS from data."""
        ds, model = fitted
        cols = model.sensor_candidate_cols
        dead = int(cols[0])
        fallback = model.fallback_models()[dead]
        scope = next(
            s for s in model.scopes if dead in s.selected_cols.tolist()
        )
        remaining = np.array([c for c in scope.selected_cols if c != dead])
        oracle = fit_ols(ds.X[:, remaining], ds.F[:, scope.block_cols])
        assert np.allclose(
            fallback.predict(ds.X)[:, scope.block_cols],
            oracle.predict(ds.X[:, remaining]),
            atol=1e-8,
        )

    def test_degraded_accuracy_loss_is_bounded(self, fitted):
        ds, model = fitted
        baseline = mean_relative_error(model.predict(ds.X), ds.F)
        for col in model.sensor_candidate_cols:
            fb = model.fallback_models()[int(col)]
            err = mean_relative_error(fb.predict(ds.X), ds.F)
            assert err >= baseline - 1e-12  # LOO can't beat the full fit
            assert err < 0.05  # still a usable voltage map

    def test_chained_failures_drop_multiple_sensors(self, fitted):
        ds, model = fitted
        stream = _clean_stream(ds, model)
        faulted = DropoutFault(channel=0, start=10).apply(stream)
        faulted = DropoutFault(channel=3, start=40).apply(faulted)
        fleet = FleetMonitor(
            model, 1e-6, n_streams=1, policy=_policy_for(stream)
        )
        fleet.run_batch(faulted[np.newaxis])
        assert [f.cycle for f in fleet.failures[0]] == [10, 40]
        served = fleet.model_for(0)
        dropped = {int(fleet.sensor_cols[0]), int(fleet.sensor_cols[3])}
        assert dropped.isdisjoint(served.sensor_candidate_cols.tolist())
        assert np.isfinite(fleet.finish().min_predicted)

    def test_obs_fault_metrics(self, fitted):
        ds, model = fitted
        stream = _clean_stream(ds, model)
        fault = DropoutFault(channel=1, start=12)
        with obs.use_registry(obs.MetricsRegistry()) as registry:
            fleet = FleetMonitor(
                model, 1e-6, n_streams=2, policy=_policy_for(stream)
            )
            streams = np.stack([fault.apply(stream), stream])
            fleet.run_batch(streams)
            snap = registry.snapshot()
            events = registry.events_named("monitor.sensor_fault")
        assert snap["counters"]["monitor.sensor_faults"] == 1
        assert snap["counters"]["monitor.failovers"] == 1
        assert snap["gauges"]["monitor.degraded_streams"] == 1
        (event,) = events
        assert event["stream"] == 0
        assert event["cycle"] == 12
        assert event["screen"] == SCREEN_NAN


class TestSensorFaultStudy:
    def test_study_detects_all_modes_and_matches_fallback(self, fitted):
        ds, model = fitted
        result = run_sensor_fault_study(
            ds, model=model, modes=("dropout", "stuck"), n_cycles=80,
            fault_start=15,
        )
        assert result.all_detected
        assert len(result.trials) == 2 * model.n_sensors
        for trial in result.trials:
            assert trial.detect_latency >= 0
            assert trial.degraded_error == trial.fallback_error
        assert result.worst_degraded_error < 0.05

    def test_unknown_mode_rejected_before_any_replay(self, fitted, monkeypatch):
        import repro.experiments.robustness as robustness

        def no_replay(*args, **kwargs):
            raise AssertionError("a stream was replayed")

        monkeypatch.setattr(robustness, "FleetMonitor", no_replay)
        ds, model = fitted
        with pytest.raises(ValueError, match="'bogus'"):
            run_sensor_fault_study(ds, model=model, modes=("dropout", "bogus"))
