"""Tests for repro.core.lambda_sweep."""

import numpy as np
import pytest

from repro.core.lambda_sweep import fit_for_sensor_count, sweep_lambda
from repro.core.pipeline import PipelineConfig, fit_placement
from repro.experiments.config import FAST_SETUP
from repro.experiments.data_generation import generate_dataset
from repro.utils.rng import make_rng
from repro.voltage.metrics import mean_relative_error
from tests.conftest import make_synthetic_dataset


class TestSweepLambda:
    def test_point_per_budget(self):
        ds = make_synthetic_dataset()
        points = sweep_lambda(ds, budgets=[0.5, 2.0, 6.0], rng=0)
        assert [p.budget for p in points] == [0.5, 2.0, 6.0]

    def test_sensor_count_non_decreasing(self):
        ds = make_synthetic_dataset()
        points = sweep_lambda(ds, budgets=[0.5, 1.0, 2.0, 4.0], rng=0)
        counts = [p.n_sensors_total for p in points]
        assert counts == sorted(counts)

    def test_error_broadly_improves(self):
        ds = make_synthetic_dataset(noise=0.0005, seed=13)
        points = sweep_lambda(ds, budgets=[0.5, 6.0], rng=1)
        assert points[-1].relative_error <= points[0].relative_error + 1e-6

    def test_same_split_for_all_budgets(self):
        # Errors must be comparable: each point carries its own model
        # but was evaluated on the same held-out rows (deterministic rng).
        ds = make_synthetic_dataset()
        a = sweep_lambda(ds, budgets=[1.0], rng=42)[0]
        b = sweep_lambda(ds, budgets=[1.0], rng=42)[0]
        assert a.relative_error == pytest.approx(b.relative_error)

    def test_rejects_empty_budgets(self):
        with pytest.raises(ValueError):
            sweep_lambda(make_synthetic_dataset(), budgets=[])

    def test_respects_base_config(self):
        ds = make_synthetic_dataset()
        base = PipelineConfig(budget=1.0, per_core=False)
        points = sweep_lambda(ds, budgets=[2.0], base_config=base, rng=0)
        assert len(points[0].model.scopes) == 1

    def test_warm_start_matches_independent_fits(self):
        # The engine-backed sweep (shared Gram + cross-budget warm
        # starts) must select the same sensors as refitting every
        # budget from scratch on the same split.
        ds = make_synthetic_dataset(seed=5)
        budgets = [0.4, 0.8, 1.6, 3.2]
        warm = sweep_lambda(ds, budgets=budgets, rng=0)
        train, test = ds.train_test_split(test_fraction=0.25, rng=make_rng(0))
        for w, budget in zip(warm, budgets):
            cold = fit_placement(train, PipelineConfig(budget=budget))
            assert (
                w.model.sensor_candidate_cols.tolist()
                == cold.sensor_candidate_cols.tolist()
            )
            assert w.relative_error == pytest.approx(
                mean_relative_error(cold.predict(test.X), test.F)
            )

    def test_unsorted_budgets_match_sorted(self):
        # Budgets are solved in ascending order regardless of input
        # order, so the models must not depend on it.
        ds = make_synthetic_dataset(seed=7)
        fwd = sweep_lambda(ds, budgets=[0.5, 1.0, 2.0], rng=0)
        rev = sweep_lambda(ds, budgets=[2.0, 1.0, 0.5], rng=0)
        for f, r in zip(fwd, reversed(rev)):
            assert f.budget == r.budget
            assert (
                f.model.sensor_candidate_cols.tolist()
                == r.model.sensor_candidate_cols.tolist()
            )


class TestSweepConvergence:
    def test_every_scope_solve_converges_within_budget(self):
        # Simulated fast-profile data, warm-started budgets 1-3: every
        # scope's constrained solve converged and kept its norm sum
        # inside the accepted band above the budget.
        data = generate_dataset(FAST_SETUP)
        points = sweep_lambda(
            data.train,
            [1.0, 2.0, 3.0],
            base_config=PipelineConfig(budget=1.0),
            rng=0,
        )
        for point in points:
            rtol = point.model.config.rtol
            for scope in point.model.scopes:
                gl = scope.selection.gl_result
                where = (point.budget, scope.core_index)
                assert gl.converged, where
                assert gl.norm_sum() <= gl.budget * (1.0 + rtol) + 1e-12, where


class TestFitForSensorCount:
    def test_hits_small_target(self):
        ds = make_synthetic_dataset()
        model = fit_for_sensor_count(ds, target_per_core=2.0)
        per_core = model.n_sensors / len(ds.core_ids)
        assert abs(per_core - 2.0) <= 1.0

    def test_larger_target_more_sensors(self):
        ds = make_synthetic_dataset()
        small = fit_for_sensor_count(ds, target_per_core=1.0)
        large = fit_for_sensor_count(ds, target_per_core=6.0)
        assert large.n_sensors > small.n_sensors

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            fit_for_sensor_count(make_synthetic_dataset(), target_per_core=0.0)

    def test_too_small_explicit_budget_hi_is_expanded(self):
        # Regression: an explicit budget_hi whose count is below the
        # target used to freeze the bracket, silently returning a model
        # far from the requested count.
        ds = make_synthetic_dataset()
        model = fit_for_sensor_count(ds, target_per_core=4.0, budget_hi=0.2)
        per_core = model.n_sensors / len(ds.core_ids)
        assert per_core >= 3.0

    def test_failed_probes_do_not_consume_probe_budget(self):
        # Regression: budgets too small to select anything raise
        # ValueError inside the bisection; those probes used to burn
        # max_probes, degrading the bracket before any model was fit.
        ds = make_synthetic_dataset()
        model = fit_for_sensor_count(
            ds, target_per_core=2.0, budget_lo=1e-9, max_probes=6
        )
        per_core = model.n_sensors / len(ds.core_ids)
        assert abs(per_core - 2.0) <= 1.0
