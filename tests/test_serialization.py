"""Tests for repro.core.serialization (placement save/load)."""

import numpy as np
import pytest

from repro.core import PipelineConfig, fit_placement
from repro.core.serialization import load_placement, save_placement
from tests.conftest import make_synthetic_dataset


class TestPlacementRoundTrip:
    def fitted(self):
        ds = make_synthetic_dataset(noise=0.001, seed=23)
        return ds, fit_placement(ds, PipelineConfig(budget=1.0))

    def test_predictions_identical(self, tmp_path):
        ds, model = self.fitted()
        path = str(tmp_path / "placement.npz")
        save_placement(path, model)
        loaded = load_placement(path)
        assert np.allclose(loaded.predict(ds.X[:20]), model.predict(ds.X[:20]))

    def test_alarms_identical(self, tmp_path):
        ds, model = self.fitted()
        path = str(tmp_path / "placement.npz")
        save_placement(path, model)
        loaded = load_placement(path)
        assert np.array_equal(
            loaded.alarm(ds.X, 0.9), model.alarm(ds.X, 0.9)
        )

    def test_bookkeeping_preserved(self, tmp_path):
        ds, model = self.fitted()
        path = str(tmp_path / "placement.npz")
        save_placement(path, model)
        loaded = load_placement(path)
        assert loaded.n_sensors == model.n_sensors
        assert loaded.n_blocks == model.n_blocks
        assert np.array_equal(
            loaded.sensor_candidate_cols, model.sensor_candidate_cols
        )
        assert loaded.sensors_per_core() == model.sensors_per_core()
        assert loaded.config.budget == model.config.budget

    def test_loaded_model_drives_monitor(self, tmp_path):
        from repro.monitor import VoltageMonitor

        ds, model = self.fitted()
        path = str(tmp_path / "placement.npz")
        save_placement(path, model)
        loaded = load_placement(path)
        monitor = VoltageMonitor(loaded, threshold=0.9)
        flags = monitor.run(ds.X[:30])
        assert flags.shape == (30,)

    def test_version_check(self, tmp_path):
        import json

        ds, model = self.fitted()
        path = str(tmp_path / "placement.npz")
        save_placement(path, model)
        data = dict(np.load(path))
        meta = json.loads(bytes(data["meta"].tobytes()).decode())
        meta["version"] = 42
        data["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez_compressed(path, **data)
        with pytest.raises(ValueError, match="version"):
            load_placement(path)

    def test_loads_legacy_solver_method_key(self, tmp_path):
        # Files saved before the solver collapse record the solver in
        # meta["config"]["method"]; they must still load, and new files
        # no longer write the key.
        import json

        ds, model = self.fitted()
        path = str(tmp_path / "placement.npz")
        save_placement(path, model)
        data = dict(np.load(path))
        meta = json.loads(bytes(data["meta"].tobytes()).decode())
        assert "method" not in meta["config"]
        meta["config"]["method"] = "fista"
        data["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez_compressed(path, **data)
        loaded = load_placement(path)
        assert np.array_equal(
            loaded.sensor_candidate_cols, model.sensor_candidate_cols
        )
        assert np.allclose(loaded.predict(ds.X[:20]), model.predict(ds.X[:20]))

    def test_nested_directory_created(self, tmp_path):
        ds, model = self.fitted()
        path = str(tmp_path / "a" / "b" / "placement.npz")
        save_placement(path, model)
        assert load_placement(path).n_sensors == model.n_sensors
