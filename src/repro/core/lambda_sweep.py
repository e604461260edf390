"""Lambda-sweep driver (paper Section 2.4 and Table 1).

The paper chooses lambda by sweeping it over a range: each value yields
a sensor count and a prediction accuracy, exposing the design-cost vs
accuracy tradeoff ("the designer can use the parameter lambda to
explore the tradeoff between the chip design cost and the voltage
prediction performance").

Sweeps and sensor-count bisections ride on the
:class:`~repro.core.path_engine.LambdaPathEngine`: Gram statistics are
computed once per scope and budgets are solved in ascending order with
cross-budget warm starts.  See ``docs/performance.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.obs import get_registry, span
from repro.core.path_engine import LambdaPathEngine
from repro.core.pipeline import PipelineConfig, PlacementModel
from repro.voltage.dataset import VoltageDataset
from repro.voltage.metrics import max_absolute_error, mean_relative_error
from repro.utils.rng import RngLike, make_rng

__all__ = ["SweepPoint", "sweep_lambda", "fit_for_sensor_count"]


@dataclass(frozen=True)
class SweepPoint:
    """One row of the Table 1 sweep.

    Attributes
    ----------
    budget:
        The lambda value.
    n_sensors_total:
        Sensors placed on the whole chip.
    sensors_per_core:
        Mean sensors per core (the paper's Table 1 row; fractional when
        cores differ).
    relative_error:
        Aggregated relative prediction error on the evaluation split
        (all blocks, all benchmarks) — the paper's Table 1 metric.
    max_abs_error:
        Worst-case absolute prediction error (V) on the evaluation
        split.
    model:
        The fitted placement (kept for downstream reuse).
    """

    budget: float
    n_sensors_total: int
    sensors_per_core: float
    relative_error: float
    max_abs_error: float
    model: PlacementModel


def sweep_lambda(
    dataset: VoltageDataset,
    budgets: Sequence[float],
    base_config: Optional[PipelineConfig] = None,
    test_fraction: float = 0.25,
    rng: RngLike = None,
) -> List[SweepPoint]:
    """Fit placements across a lambda range and score each.

    Budgets share one :class:`~repro.core.path_engine.LambdaPathEngine`:
    Gram statistics are computed once per scope and consecutive budgets
    seed each other.

    Parameters
    ----------
    dataset:
        Full dataset; it is split once into train/evaluation parts so
        every lambda is scored on the same held-out maps.
    budgets:
        Lambda values to sweep (any order; they are *solved* in
        ascending order so warm starts chain, and returned in input
        order).
    base_config:
        Template config; its ``budget`` field is overridden per sweep
        point.  Defaults to per-core fitting with the paper's T.
        Set ``screen=True`` on it to run the whole sweep with
        sequential strong-rule candidate screening (KKT-safeguarded;
        the dense Gram is never built and the screener state rides
        along the budget path together with the warm starts).
    test_fraction:
        Held-out fraction for scoring.
    rng:
        Seed or generator for the split.

    Returns
    -------
    list of SweepPoint
        One entry per budget, in input order.
    """
    if not budgets:
        raise ValueError("budgets must be non-empty")
    if base_config is None:
        base_config = PipelineConfig(budget=float(budgets[0]))
    rng = make_rng(rng)
    train, test = dataset.train_test_split(test_fraction=test_fraction, rng=rng)

    engine = LambdaPathEngine(train, base_config)
    with span("sweep.fit_path", n_budgets=len(budgets)):
        models = engine.fit_path([float(b) for b in budgets])

    points: List[SweepPoint] = []
    n_cores = max(1, len(dataset.core_ids))
    registry = get_registry()
    for budget, model in zip(budgets, models):
        with span("sweep.predict", budget=float(budget)):
            pred = model.predict(test.X)
        point = SweepPoint(
            budget=float(budget),
            n_sensors_total=model.n_sensors,
            sensors_per_core=model.n_sensors / n_cores,
            relative_error=mean_relative_error(pred, test.F),
            max_abs_error=max_absolute_error(pred, test.F),
            model=model,
        )
        registry.event(
            "lambda_sweep.point",
            budget=point.budget,
            n_sensors=point.n_sensors_total,
            relative_error=point.relative_error,
            max_abs_error=point.max_abs_error,
        )
        points.append(point)
    return points


def fit_for_sensor_count(
    dataset: VoltageDataset,
    target_per_core: float,
    base_config: Optional[PipelineConfig] = None,
    budget_lo: float = 1e-3,
    budget_hi: Optional[float] = None,
    max_probes: int = 14,
) -> PlacementModel:
    """Find a lambda whose placement uses ~``target_per_core`` sensors.

    The paper parameterizes its comparisons by sensor count ("2 sensors
    per core", "seven sensors"); this helper inverts the monotone
    lambda -> sensor-count mapping by bisection so experiments can be
    driven by a target count.  All probes share one
    :class:`~repro.core.path_engine.LambdaPathEngine`, so the repeated
    refits reuse each scope's Gram statistics and warm-start each
    other.

    Parameters
    ----------
    dataset:
        Training data.
    target_per_core:
        Desired mean sensors per core (total / n_cores in per-core
        mode; the total itself for global configs).
    base_config:
        Config template (budget overridden).  Defaults to per-core
        fitting.
    budget_lo, budget_hi:
        Initial bracket.  ``budget_hi`` is expanded (whether given or
        defaulted) until its placement reaches the target count, so an
        explicit-but-too-small upper bound cannot silently return a
        far-off model.
    max_probes:
        Bisection iterations after bracketing.  Probes whose budget is
        too small to select anything do not count against this limit.

    Returns
    -------
    PlacementModel
        The fitted placement whose per-core sensor count is closest to
        the target (exact when the mapping passes through it).
    """
    if target_per_core <= 0:
        raise ValueError("target_per_core must be positive")
    if base_config is None:
        base_config = PipelineConfig(budget=1.0)
    n_scopes = max(1, len(dataset.core_ids)) if base_config.per_core else 1
    engine = LambdaPathEngine(dataset, base_config)

    def count_of(model: PlacementModel) -> float:
        return model.n_sensors / n_scopes

    def try_fit(budget: float) -> Optional[PlacementModel]:
        # Budgets too small to select anything raise ValueError; report
        # them as None so bracketing/bisection can react.
        try:
            return engine.fit(budget)
        except ValueError:
            return None

    # Bracket the target from above.  An explicit budget_hi is verified
    # too: if its count is still below the target, bisection could only
    # shrink the count further and would return a far-off model.
    if budget_hi is None:
        budget_hi = 1.0
    model_hi = try_fit(budget_hi)
    for _ in range(12):
        if model_hi is not None and count_of(model_hi) >= target_per_core:
            break
        budget_hi *= 2.5
        model_hi = try_fit(budget_hi)
    if model_hi is None:
        raise ValueError(
            f"no placement selects any sensors at budgets up to {budget_hi:g}"
        )
    best = model_hi
    best_gap = abs(count_of(model_hi) - target_per_core)

    lo, hi = budget_lo, budget_hi
    probes = 0
    attempts = 0
    while probes < max_probes and attempts < 4 * max_probes:
        if best_gap == 0:
            break
        attempts += 1
        mid = float(np.sqrt(lo * hi))
        model = try_fit(mid)
        if model is None:
            # Budget too small to select anything: move the floor up.
            # A failed probe fits no model, so it does not consume the
            # probe budget.
            lo = mid
            continue
        probes += 1
        gap = abs(count_of(model) - target_per_core)
        if gap < best_gap:
            best, best_gap = model, gap
        if count_of(model) >= target_per_core:
            hi = mid
        else:
            lo = mid
    return best
