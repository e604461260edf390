"""Tests for repro.baselines.eagle_eye and the ``eagle_eye`` placer."""

import numpy as np
import pytest

from repro.baselines import (
    EagleEyeModel,
    PlacementConstraints,
    get_placer,
    greedy_coverage_order,
)
from tests.conftest import make_synthetic_dataset


def place_eagle_eye(ds, n_sensors, threshold):
    constraints = PlacementConstraints(emergency_threshold=threshold)
    return get_placer("eagle_eye").place(ds, n_sensors, constraints)


class TestGreedyCoverage:
    def test_selects_covering_sensor(self):
        # Sensor 1 alarms exactly on the emergency samples.
        X = np.full((6, 3), 0.95)
        X[:3, 1] = 0.80
        emergency = np.array([True, True, True, False, False, False])
        sel = greedy_coverage_order(X, emergency, n_sensors=1, threshold=0.85)
        assert sel.tolist() == [1]

    def test_second_sensor_covers_remainder(self):
        X = np.full((6, 4), 0.95)
        X[:2, 0] = 0.80  # covers emergencies 0-1
        X[2:4, 2] = 0.80  # covers emergencies 2-3
        emergency = np.array([True, True, True, True, False, False])
        sel = greedy_coverage_order(X, emergency, n_sensors=2, threshold=0.85)
        assert set(sel.tolist()) == {0, 2}

    def test_tie_break_prefers_worst_noise(self):
        X = np.full((4, 2), 0.95)
        # Both sensors cover the same emergency, sensor 1 dips deeper.
        X[0, 0] = 0.84
        X[0, 1] = 0.80
        emergency = np.array([True, False, False, False])
        sel = greedy_coverage_order(X, emergency, n_sensors=1, threshold=0.85)
        assert sel.tolist() == [1]

    def test_fills_with_worst_noise_when_no_gain(self):
        X = np.full((4, 3), 0.95)
        X[:, 2] = 0.90  # noisiest candidate, but no emergencies at all
        emergency = np.zeros(4, dtype=bool)
        sel = greedy_coverage_order(X, emergency, n_sensors=2, threshold=0.85)
        assert 2 in sel.tolist()
        assert sel.shape[0] == 2

    def test_rejects_too_many_sensors(self):
        with pytest.raises(ValueError):
            greedy_coverage_order(
                np.ones((3, 2)), np.zeros(3, dtype=bool), 3, 0.85
            )

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            greedy_coverage_order(
                np.ones(5), np.zeros(5, dtype=bool), 1, 0.85
            )
        with pytest.raises(ValueError):
            greedy_coverage_order(
                np.ones((5, 2)), np.zeros(4, dtype=bool), 1, 0.85
            )


class TestFitEagleEye:
    def make_dataset_with_noise(self):
        ds = make_synthetic_dataset(seed=21)
        # Depress some candidates/blocks so emergencies exist at 0.85.
        ds.X[:50, 3] -= 0.15
        ds.F[:50, 0] -= 0.15
        return ds

    def test_per_core_counts(self):
        ds = self.make_dataset_with_noise()
        placement = place_eagle_eye(ds, 2, 0.85)
        assert placement.n_sensors == 2 * len(ds.core_ids)
        assert set(placement.per_core_cols) == set(ds.core_ids)

    def test_global_mode(self):
        # Chip-wide, the coverage kernel ranks over every candidate.
        ds = self.make_dataset_with_noise()
        emergency = np.any(ds.F < 0.85, axis=1)
        order = greedy_coverage_order(ds.X, emergency, 3, 0.85)
        assert order.shape == (3,)
        assert np.unique(order).size == 3
        # Candidate 3 alarms on the 50 depressed samples, all of them
        # emergencies; no other candidate covers as many.
        assert order[0] == 3

    def test_alarm_semantics(self):
        ds = self.make_dataset_with_noise()
        placement = place_eagle_eye(ds, 2, 0.85)
        model = EagleEyeModel(placement.selected_cols, 0.85)
        alarms = model.alarm(ds.X)
        manual = np.any(ds.X[:, placement.selected_cols] < 0.85, axis=1)
        assert np.array_equal(alarms, manual)

    def test_selected_cols_sorted_unique(self):
        ds = self.make_dataset_with_noise()
        cols = place_eagle_eye(ds, 2, 0.85).selected_cols
        assert np.array_equal(cols, np.unique(cols))

    def test_rejects_bad_args(self):
        ds = self.make_dataset_with_noise()
        with pytest.raises((ValueError, TypeError)):
            place_eagle_eye(ds, 0, 0.85)
        with pytest.raises(ValueError):
            place_eagle_eye(ds, 1, -0.1)


class TestBlockStates:
    def test_nearest_sensor_mapping(self):
        model = EagleEyeModel(
            selected_cols=np.array([0, 1]), threshold=0.85
        )
        X = np.array([[0.80, 0.95], [0.95, 0.80]])
        sensor_pos = np.array([[0.0, 0.0], [10.0, 0.0]])
        block_pos = np.array([[1.0, 0.0], [9.0, 0.0]])
        states = model.block_states(X, sensor_pos, block_pos)
        # Block 0 follows sensor 0; block 1 follows sensor 1.
        assert states.tolist() == [[True, False], [False, True]]

    def test_position_shape_check(self):
        model = EagleEyeModel(selected_cols=np.array([0]), threshold=0.85)
        with pytest.raises(ValueError):
            model.block_states(
                np.ones((2, 3)), np.ones((2, 2)), np.ones((1, 2))
            )
