"""The paper's core methodology: group-lasso placement + OLS prediction.

Public entry points:

* :func:`repro.core.selection.select_sensors` — Steps 3-5 (normalize,
  constrained group lasso, threshold).
* :class:`repro.core.predictor.VoltagePredictor` — Steps 6-8 (OLS refit
  and runtime prediction).
* :func:`repro.core.pipeline.fit_placement` — the whole Section 2.4
  flow on a :class:`~repro.voltage.dataset.VoltageDataset`.
* :func:`repro.core.lambda_sweep.sweep_lambda` — the Table 1 tradeoff
  sweep.
"""

from repro.core.group_lasso import (
    GroupLassoResult,
    SufficientStats,
    WarmState,
    group_lasso_constrained,
    group_lasso_penalized,
)
from repro.core.lambda_sweep import SweepPoint, fit_for_sensor_count, sweep_lambda
from repro.core.normalization import Standardizer
from repro.core.ols import LinearModel, fit_ols
from repro.core.path_engine import LambdaPathEngine
from repro.core.pipeline import (
    PipelineConfig,
    PlacementModel,
    ScopeModel,
    fit_placement,
)
from repro.core.predictor import GLCoefficientPredictor, VoltagePredictor
from repro.core.selection import (
    DEFAULT_THRESHOLD,
    SelectionResult,
    prepare_stats,
    select_sensors,
    threshold_selection,
)

__all__ = [
    "GroupLassoResult",
    "SufficientStats",
    "WarmState",
    "group_lasso_constrained",
    "group_lasso_penalized",
    "SweepPoint",
    "sweep_lambda",
    "fit_for_sensor_count",
    "LambdaPathEngine",
    "prepare_stats",
    "threshold_selection",
    "Standardizer",
    "LinearModel",
    "fit_ols",
    "PipelineConfig",
    "PlacementModel",
    "ScopeModel",
    "fit_placement",
    "GLCoefficientPredictor",
    "VoltagePredictor",
    "DEFAULT_THRESHOLD",
    "SelectionResult",
    "select_sensors",
]
