"""The six classic baselines as :class:`Placer` implementations.

Each class wraps the corresponding module's ranking kernel; the shared
base handles core iteration, budgets and tie-break policy.
Their selections on a fixed synthetic dataset are pinned in
``tests/test_placers.py``.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.correlation_greedy import greedy_correlation_order
from repro.baselines.eagle_eye import greedy_coverage_order
from repro.baselines.ols_magnitude import ols_magnitude_ranking
from repro.baselines.placer import Placer, register_placer
from repro.baselines.plain_lasso import lasso_magnitude_ranking
from repro.baselines.random_placement import random_selection
from repro.baselines.worst_noise import worst_noise_ranking

__all__ = [
    "WorstNoisePlacer",
    "RandomPlacer",
    "OLSMagnitudePlacer",
    "CorrelationGreedyPlacer",
    "EagleEyePlacer",
    "PlainLassoPlacer",
]

#: Element-wise L1 weight at which ``plain_lasso`` ranks candidates.
PLAIN_LASSO_MU = 1e-3


@register_placer
class WorstNoisePlacer(Placer):
    """Sensors on the candidates with the deepest training droops."""

    name = "worst_noise"

    def _rank_scope(self, X, F, budget, rng, constraints, meta):
        return worst_noise_ranking(X)


@register_placer
class RandomPlacer(Placer):
    """Uniform random placement — the null baseline.

    Each core takes one :func:`random_selection` draw from the
    generator threaded through the cores.
    """

    name = "random"
    uses_rng = True

    def _rank_scope(self, X, F, budget, rng, constraints, meta):
        return random_selection(X.shape[1], budget, rng)


@register_placer
class OLSMagnitudePlacer(Placer):
    """Top candidates by unconstrained-OLS coefficient magnitude."""

    name = "ols_magnitude"

    def _rank_scope(self, X, F, budget, rng, constraints, meta):
        return ols_magnitude_ranking(X, F)


@register_placer
class CorrelationGreedyPlacer(Placer):
    """Multi-response group-OMP (greedy residual correlation)."""

    name = "correlation"

    def _rank_scope(self, X, F, budget, rng, constraints, meta):
        return greedy_correlation_order(X, F, budget)


@register_placer
class EagleEyePlacer(Placer):
    """Eagle-Eye greedy max-coverage placement (the paper's comparator).

    Needs ``PlacementConstraints.emergency_threshold``: the core's
    emergencies are the training samples with any block below it.
    Build the runtime detector from the placement with
    ``EagleEyeModel(placement.selected_cols, threshold)``.
    """

    name = "eagle_eye"

    def _rank_scope(self, X, F, budget, rng, constraints, meta):
        threshold = constraints.emergency_threshold
        if threshold is None:
            raise ValueError(
                "eagle_eye needs an emergency threshold: set "
                "PlacementConstraints(emergency_threshold=...)"
            )
        emergency = np.any(F < threshold, axis=1)
        return greedy_coverage_order(X, emergency, budget, threshold)


@register_placer
class PlainLassoPlacer(Placer):
    """Element-wise (ungrouped) lasso — the grouping ablation.

    Ranks candidates by their largest surviving coefficient at the
    element-wise penalty :data:`PLAIN_LASSO_MU`.
    """

    name = "plain_lasso"

    def _rank_scope(self, X, F, budget, rng, constraints, meta):
        return lasso_magnitude_ranking(X, F, PLAIN_LASSO_MU)
