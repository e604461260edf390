"""Learned worst-case droop surrogate with calibrated error bounds.

The package that makes "sweep thousands of scenarios" affordable:

* :mod:`repro.surrogate.scenarios` — scenario/grid-variant spaces and
  the batched exact evaluator used for training and verification,
* :mod:`repro.surrogate.features` — pooled current-map, floorplan and
  pad-distance features (no transient solve required),
* :mod:`repro.surrogate.model` — the pure-numpy patch-convolution
  regressor,
* :mod:`repro.surrogate.calibrate` — split-conformal per-block error
  bounds plus the conservative guard bound,
* :mod:`repro.surrogate.sweep` — the train → screen → verify harness.

See ``docs/surrogate.md`` for the methodology and its guarantees.
"""

from repro.surrogate.calibrate import (
    ConformalCalibration,
    conformal_calibrate,
    empirical_coverage,
)
from repro.surrogate.features import POOL_RADII, FeatureExtractor
from repro.surrogate.model import PatchConvRegressor
from repro.surrogate.scenarios import (
    GridVariant,
    Scenario,
    ScenarioSpace,
    build_variant_solver,
    default_variants,
    exact_worst_droop,
    scenario_power,
)
from repro.surrogate.sweep import (
    ScenarioVerdict,
    SweepConfig,
    SweepResult,
    run_sweep,
)

__all__ = [
    "ConformalCalibration",
    "conformal_calibrate",
    "empirical_coverage",
    "FeatureExtractor",
    "POOL_RADII",
    "PatchConvRegressor",
    "GridVariant",
    "Scenario",
    "ScenarioSpace",
    "default_variants",
    "scenario_power",
    "build_variant_solver",
    "exact_worst_droop",
    "ScenarioVerdict",
    "SweepConfig",
    "SweepResult",
    "run_sweep",
]
