"""Benchmarks of the λ-path engine vs the sequential sweep baseline.

Times one full Table 1-style sweep through the shared-Gram,
warm-started :class:`~repro.core.path_engine.LambdaPathEngine` and one
baseline that fits every budget cold (a fresh engine per budget,
strict probes) on the sweep's split, and checks they select the same
sensors.  The ``lambda-path`` workload of ``benchmarks/e2e`` times the
same budget grid.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once
from repro.core.lambda_sweep import sweep_lambda
from repro.core.pipeline import PipelineConfig, fit_placement
from repro.utils.rng import make_rng
from repro.voltage.metrics import mean_relative_error

#: Same grid as the ``lambda-path`` workload (the paper-relevant
#: sparse regime; see docs/performance.md for why near-slack budgets
#: are excluded).
BUDGETS = [0.5, 1.0, 1.5, 2.0, 3.0, 4.0]


def _engine_sweep(dataset):
    return sweep_lambda(
        dataset,
        BUDGETS,
        base_config=PipelineConfig(budget=BUDGETS[0]),
        rng=0,
    )


def _baseline_fits(dataset):
    """(model, held-out relative error) per budget, each fitted cold."""
    train, test = dataset.train_test_split(test_fraction=0.25, rng=make_rng(0))
    fits = []
    for budget in BUDGETS:
        model = fit_placement(
            train, PipelineConfig(budget=budget, probe_tol=None)
        )
        fits.append((model, mean_relative_error(model.predict(test.X), test.F)))
    return fits


@pytest.mark.benchmark(group="lambda-path")
def test_engine_sweep(benchmark, bench_data):
    points = run_once(benchmark, _engine_sweep, bench_data.train)
    assert len(points) == len(BUDGETS)
    for point in points:
        for scope in point.model.scopes:
            gl = scope.selection.gl_result
            assert gl.converged
            rtol = point.model.config.rtol
            assert gl.norm_sum() <= gl.budget * (1.0 + rtol) + 1e-12


@pytest.mark.benchmark(group="lambda-path")
def test_baseline_sweep_matches_engine(benchmark, bench_data):
    baseline = run_once(benchmark, _baseline_fits, bench_data.train)
    engine = _engine_sweep(bench_data.train)
    for (base_model, base_error), engine_point in zip(baseline, engine):
        base_cols = base_model.sensor_candidate_cols.tolist()
        engine_cols = engine_point.model.sensor_candidate_cols.tolist()
        assert base_cols == engine_cols, (
            f"sensor sets diverged at budget {engine_point.budget}"
        )
        assert engine_point.relative_error == pytest.approx(
            base_error, rel=1e-6, abs=1e-9
        )
