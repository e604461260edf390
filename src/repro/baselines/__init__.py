"""Sensor-placement algorithms behind the unified :class:`Placer` protocol.

The six classic baselines (Eagle-Eye, worst-noise, random,
OLS-magnitude, greedy-correlation, plain lasso), the paper's group
lasso, and the modern competitors (QR pivoting, FrameSense
frame-potential minimization, failure-robust greedy) all implement
:class:`~repro.baselines.placer.Placer` and register themselves here.
Every caller places through the registry —
``get_placer(name).place(dataset, budget, constraints)`` — enumerates
it with :func:`available_placers`, or races it with
:func:`~repro.experiments.tournament.run_tournament`.  Each module's
ranking kernel (``worst_noise_ranking``, ``greedy_coverage_order``,
...) stays public, as does :class:`EagleEyeModel`, the Eagle-Eye
runtime detector over a placement.
"""

from repro.baselines.classic import (
    CorrelationGreedyPlacer,
    EagleEyePlacer,
    OLSMagnitudePlacer,
    PlainLassoPlacer,
    RandomPlacer,
    WorstNoisePlacer,
)
from repro.baselines.correlation_greedy import greedy_correlation_order
from repro.baselines.eagle_eye import EagleEyeModel, greedy_coverage_order
from repro.baselines.frame_potential import (
    FramePotentialPlacer,
    frame_potential_ranking,
)
from repro.baselines.group_lasso_placer import GroupLassoPlacer
from repro.baselines.ols_magnitude import ols_magnitude_ranking
from repro.baselines.placer import (
    Placement,
    PlacementConstraints,
    Placer,
    available_placers,
    get_placer,
    register_placer,
)
from repro.baselines.plain_lasso import (
    PlainLassoResult,
    lasso_magnitude_ranking,
    lasso_penalized,
)
from repro.baselines.qr_pivot import QRPivotPlacer, qr_pivot_ranking
from repro.baselines.random_placement import random_selection
from repro.baselines.robust import RobustPlacer, robust_greedy_order
from repro.baselines.worst_noise import worst_noise_ranking

__all__ = [
    # protocol
    "Placer",
    "Placement",
    "PlacementConstraints",
    "register_placer",
    "get_placer",
    "available_placers",
    # placers
    "WorstNoisePlacer",
    "RandomPlacer",
    "OLSMagnitudePlacer",
    "CorrelationGreedyPlacer",
    "EagleEyePlacer",
    "PlainLassoPlacer",
    "GroupLassoPlacer",
    "QRPivotPlacer",
    "FramePotentialPlacer",
    "RobustPlacer",
    # detector and ranking kernels
    "EagleEyeModel",
    "greedy_correlation_order",
    "greedy_coverage_order",
    "ols_magnitude_ranking",
    "PlainLassoResult",
    "lasso_magnitude_ranking",
    "lasso_penalized",
    "random_selection",
    "worst_noise_ranking",
    "frame_potential_ranking",
    "qr_pivot_ranking",
    "robust_greedy_order",
]
