"""Tests for repro.core.pipeline (Section 2.4 end to end)."""

import numpy as np
import pytest

from repro.core.pipeline import PipelineConfig, fit_placement
from repro.voltage.metrics import mean_relative_error
from tests.conftest import make_synthetic_dataset


class TestPipelineConfig:
    def test_defaults(self):
        cfg = PipelineConfig(budget=1.0)
        assert cfg.threshold == 1e-3
        assert cfg.per_core

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            PipelineConfig(budget=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rtol", 0.0),
            ("rtol", -1e-2),
            ("solver_tol", 0.0),
            ("solver_tol", float("nan")),
            ("probe_tol", 0.0),
            ("probe_tol", -1e-5),
        ],
    )
    def test_rejects_bad_tolerances(self, field, value):
        with pytest.raises(ValueError, match=field):
            PipelineConfig(budget=1.0, **{field: value})

    def test_probe_tol_none_allowed(self):
        assert PipelineConfig(budget=1.0, probe_tol=None).probe_tol is None


class TestFitPlacementPerCore:
    def test_scopes_per_core(self):
        ds = make_synthetic_dataset()
        model = fit_placement(ds, PipelineConfig(budget=1.0))
        assert [s.core_index for s in model.scopes] == ds.core_ids

    def test_sensors_within_own_core(self):
        ds = make_synthetic_dataset()
        model = fit_placement(ds, PipelineConfig(budget=1.0))
        for scope in model.scopes:
            cores = ds.candidate_cores[scope.selected_cols]
            assert np.all(cores == scope.core_index)

    def test_prediction_accuracy(self):
        ds = make_synthetic_dataset(noise=0.0005, seed=11)
        model = fit_placement(ds, PipelineConfig(budget=3.0))
        err = mean_relative_error(model.predict(ds.X), ds.F)
        assert err < 0.01

    def test_predict_covers_all_blocks(self):
        ds = make_synthetic_dataset()
        model = fit_placement(ds, PipelineConfig(budget=1.0))
        out = model.predict(ds.X[:3])
        assert out.shape == (3, ds.n_blocks)
        assert np.all(np.isfinite(out))

    def test_sensor_bookkeeping(self):
        ds = make_synthetic_dataset()
        model = fit_placement(ds, PipelineConfig(budget=1.0))
        cols = model.sensor_candidate_cols
        assert model.n_sensors == cols.shape[0]
        nodes = model.sensor_nodes(ds)
        assert np.array_equal(nodes, ds.candidate_nodes[cols])
        per_core = model.sensors_per_core()
        assert sum(per_core.values()) == model.n_sensors

    def test_alarm_and_block_states(self):
        ds = make_synthetic_dataset()
        model = fit_placement(ds, PipelineConfig(budget=1.0))
        states = model.block_states(ds.X[:10], threshold=0.9)
        alarms = model.alarm(ds.X[:10], threshold=0.9)
        assert np.array_equal(alarms, states.any(axis=1))


class TestFitPlacementGlobal:
    def test_single_scope(self):
        ds = make_synthetic_dataset()
        model = fit_placement(ds, PipelineConfig(budget=2.0, per_core=False))
        assert len(model.scopes) == 1
        assert model.scopes[0].core_index == -1

    def test_global_can_cross_cores(self):
        ds = make_synthetic_dataset()
        model = fit_placement(ds, PipelineConfig(budget=4.0, per_core=False))
        out = model.predict(ds.X[:2])
        assert out.shape == (2, ds.n_blocks)


class TestErrorCases:
    def test_core_without_candidates_raises(self):
        ds = make_synthetic_dataset()
        # Reassign all of core 1's candidates to core 0.
        ds.candidate_cores[:] = 0
        with pytest.raises(ValueError, match="no\\s+sensor candidates"):
            fit_placement(ds, PipelineConfig(budget=1.0))
