"""Tests for repro.core.path_engine — the shared-Gram λ-path engine."""

import numpy as np
import pytest

from repro.core.path_engine import LambdaPathEngine
from repro.core.pipeline import PipelineConfig, fit_placement
from repro.obs import MetricsRegistry, use_registry
from tests.conftest import make_synthetic_dataset

BUDGETS = [0.4, 0.8, 1.6]


def selections_of(model):
    return [
        (scope.core_index, scope.selected_cols.tolist())
        for scope in model.scopes
    ]


class TestEngineVsPipeline:
    def test_fit_matches_fit_placement(self):
        dataset = make_synthetic_dataset()
        config = PipelineConfig(budget=1.0)
        engine = LambdaPathEngine(dataset, config)
        direct = fit_placement(dataset, config)
        via_engine = engine.fit(1.0)
        assert selections_of(via_engine) == selections_of(direct)
        np.testing.assert_allclose(
            via_engine.predict(dataset.X), direct.predict(dataset.X)
        )

    def test_fit_path_matches_independent_fits(self):
        dataset = make_synthetic_dataset(seed=3)
        engine = LambdaPathEngine(dataset, PipelineConfig(budget=BUDGETS[0]))
        models = engine.fit_path(BUDGETS)
        for budget, model in zip(BUDGETS, models):
            direct = fit_placement(dataset, PipelineConfig(budget=budget))
            assert selections_of(model) == selections_of(direct), (
                f"warm-started path diverged at budget {budget}"
            )

    def test_fit_path_returns_input_order(self):
        dataset = make_synthetic_dataset()
        engine = LambdaPathEngine(dataset, PipelineConfig(budget=1.0))
        shuffled = [1.6, 0.4, 0.8]
        models = engine.fit_path(shuffled)
        assert [m.config.budget for m in models] == shuffled

    def test_rejects_empty_budgets(self):
        dataset = make_synthetic_dataset()
        engine = LambdaPathEngine(dataset, PipelineConfig(budget=1.0))
        with pytest.raises(ValueError):
            engine.fit_path([])

    def test_too_small_budget_raises_value_error(self):
        dataset = make_synthetic_dataset()
        engine = LambdaPathEngine(dataset, PipelineConfig(budget=1.0))
        with pytest.raises(ValueError, match="no sensors selected"):
            engine.fit_path([1e-9, 1.0])

    def test_fit_path_raises_smallest_failing_budget(self):
        # Unsorted budgets, two of them too small: whatever the input
        # order, the error is the one of the smallest failing budget.
        dataset = make_synthetic_dataset()
        engine = LambdaPathEngine(dataset, PipelineConfig(budget=1.0))
        with pytest.raises(ValueError, match="at lambda=1e-09 with"):
            engine.fit_path([1.0, 2e-9, 0.8, 1e-9])
        with pytest.raises(ValueError, match="at lambda=2e-09 with"):
            engine.fit(2e-9)


class TestObservability:
    def test_counters_recorded(self):
        dataset = make_synthetic_dataset()
        with use_registry(MetricsRegistry()) as registry:
            engine = LambdaPathEngine(dataset, PipelineConfig(budget=1.0))
            engine.fit_path(BUDGETS)
            counters = registry.snapshot()["counters"]
        # Every inner solve after the first reuses the cached Gram, and
        # every budget after the first warm-starts from its predecessor.
        assert counters.get("path.gram_reuse", 0) > 0
        assert counters.get("sweep.warm_start_hits", 0) >= (
            (len(BUDGETS) - 1) * engine.n_scopes
        )

    def test_spans_recorded(self):
        dataset = make_synthetic_dataset()
        with use_registry(MetricsRegistry()) as registry:
            engine = LambdaPathEngine(dataset, PipelineConfig(budget=1.0))
            engine.fit(1.0)
            names = {s.name for s in registry.spans}
        assert {"path.prepare", "path.fit", "fit.scope"} <= names
