"""Ablation studies for the design choices the paper argues for.

Four ablations, each isolating one claim:

* **GL vs OLS-magnitude selection** (Section 2.2's warning): ranking
  candidates by the size of their unconstrained-OLS coefficients is
  unreliable under collinearity; group lasso's joint sparse fit is not.
* **Group lasso vs plain lasso** (the grouping): element-wise L1
  scatters nonzeros over many columns, needing more sensors for the
  same error.
* **OLS refit vs GL coefficients** (Section 2.3, Eq. (14)-(16)): the
  constraint biases GL coefficients; predicting with them directly
  loses accuracy that the OLS refit recovers.
* **Placement source** (prediction quality per placement): our OLS
  predictor fitted on sensor sets chosen by GL / Eagle-Eye / greedy
  correlation / worst-noise / random, isolating placement quality from
  model quality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.baselines import PlacementConstraints, get_placer
from repro.baselines.plain_lasso import lasso_penalized
from repro.core.group_lasso import group_lasso_constrained
from repro.core.lambda_sweep import fit_for_sensor_count
from repro.core.normalization import Standardizer
from repro.core.predictor import GLCoefficientPredictor, VoltagePredictor
from repro.experiments.data_generation import GeneratedData
from repro.voltage.metrics import mean_relative_error
from repro.utils.tables import format_table

__all__ = [
    "PlacementComparison",
    "run_placement_comparison",
    "render_placement_comparison",
    "GLBiasResult",
    "run_gl_bias_ablation",
    "render_gl_bias",
    "GroupingResult",
    "run_grouping_ablation",
    "render_grouping",
]


# ----------------------------------------------------------------------
# Ablation A: prediction error per placement source (fixed Q, our OLS)
# ----------------------------------------------------------------------
@dataclass
class PlacementComparison:
    """Held-out prediction error per placement strategy at equal Q.

    Attributes
    ----------
    sensors_per_core:
        Sensor budget per core.
    errors:
        ``strategy name -> relative prediction error`` on the
        evaluation dataset, using the same OLS predictor everywhere so
        only the placement differs.
    totals:
        ``strategy name -> total sensors`` actually used.
    """

    sensors_per_core: int
    errors: Dict[str, float]
    totals: Dict[str, int]


#: Ablation A's placement sources besides the group lasso, as
#: ``table label -> registered placer name``.
COMPARED_PLACERS = {
    "eagle-eye": "eagle_eye",
    "greedy correlation": "correlation",
    "worst noise": "worst_noise",
    "ols magnitude": "ols_magnitude",
    "random": "random",
}


def _ols_error_for_columns(
    data: GeneratedData, columns: np.ndarray
) -> float:
    """Fit our OLS predictor on given sensor columns; eval rel. error."""
    predictor = VoltagePredictor.fit(
        data.train.X, data.train.F, selected=np.asarray(columns, dtype=np.int64)
    )
    pred = predictor.predict_from_candidates(data.eval.X)
    return mean_relative_error(pred, data.eval.F)


def run_placement_comparison(
    data: GeneratedData,
    sensors_per_core: int = 2,
    random_seed: int = 5,
) -> PlacementComparison:
    """Compare placement strategies under the same OLS prediction model.

    Parameters
    ----------
    data:
        Generated datasets.
    sensors_per_core:
        Per-core sensor budget for every strategy.
    random_seed:
        Seed for the random placement.
    """
    gl_model = fit_for_sensor_count(
        data.train, target_per_core=float(sensors_per_core)
    )
    placements: Dict[str, np.ndarray] = {
        "group lasso (proposed)": gl_model.sensor_candidate_cols
    }
    constraints = PlacementConstraints(
        emergency_threshold=data.chip.config.emergency_threshold,
        seed=random_seed,
    )
    for label, name in COMPARED_PLACERS.items():
        placements[label] = (
            get_placer(name)
            .place(data.train, sensors_per_core, constraints=constraints)
            .selected_cols
        )
    errors = {
        name: _ols_error_for_columns(data, cols)
        for name, cols in placements.items()
    }
    totals = {name: int(len(cols)) for name, cols in placements.items()}
    return PlacementComparison(
        sensors_per_core=sensors_per_core, errors=errors, totals=totals
    )


def render_placement_comparison(result: PlacementComparison) -> str:
    """Render the placement-strategy comparison table."""
    rows = [
        [name, result.totals[name], f"{100 * err:.4f}"]
        for name, err in sorted(result.errors.items(), key=lambda kv: kv[1])
    ]
    return format_table(
        headers=["placement", "total sensors", "rel err % (same OLS model)"],
        rows=rows,
        title=(
            "Ablation — placement strategies at "
            f"{result.sensors_per_core} sensors/core"
        ),
    )


# ----------------------------------------------------------------------
# Ablation B: OLS refit vs biased GL coefficients (paper Section 2.3)
# ----------------------------------------------------------------------
@dataclass
class GLBiasResult:
    """Prediction error of the GL-coefficient model vs the OLS refit.

    Attributes
    ----------
    budget:
        The lambda used for selection.
    n_sensors:
        Sensors selected (single-core scope).
    gl_error, ols_error:
        Evaluation relative errors of Eq. (14) (biased) vs Eq. (20)
        (refit) predictions.
    """

    budget: float
    n_sensors: int
    gl_error: float
    ols_error: float

    @property
    def bias_factor(self) -> float:
        """How many times worse the biased GL predictions are."""
        return self.gl_error / self.ols_error if self.ols_error > 0 else float("inf")


def run_gl_bias_ablation(
    data: GeneratedData,
    budget: float = 1.0,
    core_index: int = 0,
) -> GLBiasResult:
    """Quantify the Section 2.3 bias argument on one core.

    Parameters
    ----------
    data:
        Generated datasets.
    budget:
        Lambda for the constrained GL solve.
    core_index:
        Core to fit/evaluate (single scope keeps the effect crisp).
    """
    candidate_cols, block_cols = data.train.core_view(core_index)
    X = data.train.X[:, candidate_cols]
    F = data.train.F[:, block_cols]
    Xe = data.eval.X[:, candidate_cols]
    Fe = data.eval.F[:, block_cols]

    z = Standardizer().fit_transform(X)
    g = Standardizer().fit_transform(F)
    gl = group_lasso_constrained(z, g, budget=budget)
    selected = gl.active_groups(1e-3)
    if selected.size == 0:
        raise ValueError(f"lambda={budget} selected no sensors on core {core_index}")

    biased = GLCoefficientPredictor.fit(X, F, coef=gl.coef, selected=selected)
    refit = VoltagePredictor.fit(X, F, selected=selected)
    return GLBiasResult(
        budget=budget,
        n_sensors=int(selected.size),
        gl_error=mean_relative_error(biased.predict_from_candidates(Xe), Fe),
        ols_error=mean_relative_error(refit.predict_from_candidates(Xe), Fe),
    )


def render_gl_bias(result: GLBiasResult) -> str:
    """Render the GL-bias ablation summary."""
    return (
        f"Ablation — Eq. (14) GL-coefficient prediction vs Eq. (20) OLS refit "
        f"(lambda={result.budget:g}, {result.n_sensors} sensors):\n"
        f"  biased GL prediction rel err = {100 * result.gl_error:.4f}%\n"
        f"  OLS refit          rel err = {100 * result.ols_error:.4f}%\n"
        f"  bias factor = {result.bias_factor:.1f}x "
        "(paper: constraint-induced bias makes Eq. (14) unusable)"
    )


# ----------------------------------------------------------------------
# Ablation C: group lasso vs plain lasso (the grouping)
# ----------------------------------------------------------------------
@dataclass
class GroupingResult:
    """Sensors needed by grouped vs ungrouped sparsity for equal error.

    Attributes
    ----------
    penalty:
        The shared penalty weight used for both solvers.
    gl_sensors, lasso_sensors:
        Distinct sensors (non-zero columns) each formulation uses.
    gl_error, lasso_error:
        Evaluation relative error of the OLS refit on each sensor set.
    lasso_nonzeros:
        Individually non-zero coefficients in the plain-lasso solution.
    """

    penalty: float
    gl_sensors: int
    lasso_sensors: int
    gl_error: float
    lasso_error: float
    lasso_nonzeros: int


def run_grouping_ablation(
    data: GeneratedData,
    penalty: Optional[float] = None,
    core_index: int = 0,
) -> GroupingResult:
    """Compare grouped vs element-wise sparsity at one penalty weight.

    Parameters
    ----------
    data:
        Generated datasets.
    penalty:
        Penalty weight mu shared by both solvers; defaults to a value
        that makes the group lasso select a handful of sensors.
    core_index:
        Core to fit/evaluate.
    """
    from repro.core.group_lasso import group_lasso_penalized

    candidate_cols, block_cols = data.train.core_view(core_index)
    X = data.train.X[:, candidate_cols]
    F = data.train.F[:, block_cols]
    z = Standardizer().fit_transform(X)
    g = Standardizer().fit_transform(F)

    if penalty is None:
        # Default: ~5% of the all-zero activation threshold — selects a
        # small but non-trivial sensor set in practice.
        A = z.T @ g
        penalty = 0.05 * float(np.max(np.linalg.norm(A, axis=1)))

    gl = group_lasso_penalized(z, g, mu=penalty)
    # Scale the element-wise penalty so both problems apply comparable
    # total shrinkage: a group of K equal entries has L2 norm sqrt(K)
    # times the entry, so mu_l1 = mu / sqrt(K) matches pressure.
    mu_l1 = penalty / np.sqrt(g.shape[1])
    lasso = lasso_penalized(z, g, mu=mu_l1)

    gl_sel = gl.active_groups(1e-3)
    lasso_sel = lasso.sensors_used(1e-3)
    if gl_sel.size == 0 or lasso_sel.size == 0:
        raise ValueError("penalty too large: a formulation selected nothing")

    def eval_error(selected: np.ndarray) -> float:
        predictor = VoltagePredictor.fit(X, F, selected=selected)
        pred = predictor.predict_from_candidates(data.eval.X[:, candidate_cols])
        return mean_relative_error(pred, data.eval.F[:, block_cols])

    return GroupingResult(
        penalty=float(penalty),
        gl_sensors=int(gl_sel.size),
        lasso_sensors=int(lasso_sel.size),
        gl_error=eval_error(gl_sel),
        lasso_error=eval_error(lasso_sel),
        lasso_nonzeros=lasso.nonzero_count(),
    )


def render_grouping(result: GroupingResult) -> str:
    """Render the grouping ablation summary."""
    return (
        f"Ablation — group lasso vs plain lasso (mu={result.penalty:.3g}):\n"
        f"  group lasso: {result.gl_sensors} sensors, "
        f"rel err {100 * result.gl_error:.4f}%\n"
        f"  plain lasso: {result.lasso_sensors} sensors "
        f"({result.lasso_nonzeros} scattered nonzeros), "
        f"rel err {100 * result.lasso_error:.4f}%\n"
        "  (grouping concentrates the same shrinkage budget on whole "
        "sensors, so fewer physical sensors are needed)"
    )
