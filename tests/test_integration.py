"""End-to-end integration tests: simulate -> fit -> predict -> detect.

These exercise the complete pipeline the way the paper deploys it,
checking the cross-module contracts that unit tests cannot see.
"""

import numpy as np
import pytest

from repro.baselines import EagleEyeModel, PlacementConstraints, get_placer
from repro.core import PipelineConfig, fit_placement
from repro.voltage.emergencies import any_emergency
from repro.voltage.metrics import detection_error_rates, mean_relative_error


class TestEndToEnd:
    def test_small_sensor_set_predicts_accurately(self, tiny_data):
        # The paper's central claim: small Q, relative error < 1e-2.
        model = fit_placement(tiny_data.train, PipelineConfig(budget=1.0))
        assert model.n_sensors <= 10 * len(tiny_data.train.core_ids)
        pred = model.predict(tiny_data.eval.X)
        err = mean_relative_error(pred, tiny_data.eval.F)
        assert err < 0.01

    def test_more_sensors_more_accuracy(self, tiny_data):
        small = fit_placement(tiny_data.train, PipelineConfig(budget=0.4))
        large = fit_placement(tiny_data.train, PipelineConfig(budget=4.0))
        assert large.n_sensors > small.n_sensors
        err_small = mean_relative_error(
            small.predict(tiny_data.eval.X), tiny_data.eval.F
        )
        err_large = mean_relative_error(
            large.predict(tiny_data.eval.X), tiny_data.eval.F
        )
        assert err_large <= err_small + 1e-9

    def test_detection_beats_chance(self, tiny_data):
        threshold = 0.85
        model = fit_placement(tiny_data.train, PipelineConfig(budget=1.0))
        truth = any_emergency(tiny_data.eval.F, threshold)
        if truth.sum() == 0:
            pytest.skip("no emergencies in tiny evaluation run")
        rates = detection_error_rates(
            truth, model.alarm(tiny_data.eval.X, threshold)
        )
        assert rates.total < truth.mean()  # better than always-quiet

    def test_sensors_are_physical_ba_nodes(self, tiny_data):
        model = fit_placement(tiny_data.train, PipelineConfig(budget=1.0))
        cls = tiny_data.chip.classification
        for node in model.sensor_nodes(tiny_data.train):
            assert cls.block_of_node[int(node)] is None  # in blank area

    def test_eagle_eye_comparison_runs(self, tiny_data):
        threshold = 0.85
        placement = get_placer("eagle_eye").place(
            tiny_data.train,
            2,
            PlacementConstraints(emergency_threshold=threshold),
        )
        eagle = EagleEyeModel(placement.selected_cols, threshold)
        truth = any_emergency(tiny_data.eval.F, threshold)
        if truth.sum() == 0:
            pytest.skip("no emergencies in tiny evaluation run")
        rates = detection_error_rates(truth, eagle.alarm(tiny_data.eval.X))
        assert 0.0 <= rates.total <= 1.0

    def test_runtime_trace_monitoring(self, tiny_data):
        # Stream a fresh trace through the fitted model, as deployed.
        from repro.experiments.data_generation import simulate_benchmark_trace

        model = fit_placement(tiny_data.train, PipelineConfig(budget=1.0))
        volts, _ = simulate_benchmark_trace(
            tiny_data.chip, "canneal", n_steps=50, seed=77
        )
        X_stream = volts[:, tiny_data.train.candidate_nodes]
        F_stream = volts[:, tiny_data.train.critical_nodes]
        pred = model.predict(X_stream)
        err = mean_relative_error(pred, F_stream)
        assert err < 0.02

    def test_prediction_linearity_contract(self, tiny_data):
        # PlacementModel.predict must be affine in its sensor inputs.
        model = fit_placement(tiny_data.train, PipelineConfig(budget=1.0))
        X = tiny_data.eval.X[:4]
        a = model.predict(X)
        shifted = X.copy()
        shifted[:, model.sensor_candidate_cols] += 0.01
        b = model.predict(shifted)
        delta1 = b - a
        shifted[:, model.sensor_candidate_cols] += 0.01
        c = model.predict(shifted)
        delta2 = c - b
        assert np.allclose(delta1, delta2, atol=1e-10)
