"""Tests for repro.voltage.emergencies."""

import numpy as np
import pytest

from repro.voltage.emergencies import (
    any_emergency,
    emergency_matrix,
)


class TestEmergencyMatrix:
    def test_strict_inequality(self):
        mask = emergency_matrix(np.array([0.85, 0.8499]), 0.85)
        assert mask.tolist() == [False, True]

    def test_any_shape(self):
        mask = emergency_matrix(np.full((3, 4, 2), 0.8), 0.85)
        assert mask.shape == (3, 4, 2)
        assert mask.all()

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            emergency_matrix(np.ones(3), 0.0)


class TestAnyEmergency:
    def test_per_sample_flags(self):
        v = np.array([[0.9, 0.84], [0.9, 0.9]])
        assert any_emergency(v, 0.85).tolist() == [True, False]

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            any_emergency(np.ones(3), 0.85)
