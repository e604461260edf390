"""Benchmarks of the λ-path engine vs the sequential sweep baseline.

Times one full Table 1-style sweep through the shared-Gram,
warm-started :class:`~repro.core.path_engine.LambdaPathEngine` and one
through the sequential baseline (no warm starts, strict probes), and
checks they select the same sensors.  The ``lambda-path`` workload of
``benchmarks/e2e`` times the same budget grid.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once
from repro.core.lambda_sweep import sweep_lambda
from repro.core.pipeline import PipelineConfig

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
        warm_start=True,
    )


def _baseline_sweep(dataset):
    return sweep_lambda(
        dataset,
        BUDGETS,
        base_config=PipelineConfig(budget=BUDGETS[0], probe_tol=None),
        rng=0,
        warm_start=False,
    )


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
    baseline = run_once(benchmark, _baseline_sweep, bench_data.train)
    engine = _engine_sweep(bench_data.train)
    for base_point, engine_point in zip(baseline, engine):
        base_cols = base_point.model.sensor_candidate_cols.tolist()
        engine_cols = engine_point.model.sensor_candidate_cols.tolist()
        assert base_cols == engine_cols, (
            f"sensor sets diverged at budget {base_point.budget}"
        )
        assert engine_point.relative_error == pytest.approx(
            base_point.relative_error, rel=1e-6, abs=1e-9
        )
