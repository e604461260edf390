"""The paper's group-lasso placement as a :class:`Placer`.

Per core, bisect the monotone lambda -> sensor-count mapping (the
:func:`~repro.core.lambda_sweep.fit_for_sensor_count` bracketing
pattern) for the smallest lambda selecting at least ``budget``
sensors, then rank candidates by descending ``||beta_m||_2``.  The
top-``budget`` prefix is the placement, so the budget is met exactly
even when the count mapping jumps past it.

Each core is standardized once and all its probes share one Gram
(:func:`~repro.core.selection.prepare_stats`) and warm-start each
other.  Per-core diagnostics (final lambda, above-threshold count,
probe count) land in ``Placement.meta["scopes"]``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.placer import Placer, register_placer
from repro.core.group_lasso import group_lasso_constrained
from repro.core.selection import (
    DEFAULT_THRESHOLD,
    SelectionResult,
    prepare_stats,
    threshold_selection,
)

__all__ = ["GroupLassoPlacer"]

#: Lambda bracket the count bisection starts from: the floor, and the
#: first ceiling (grown x2.5 up to 12 times until it reaches the budget).
LAMBDA_LO = 1e-3
LAMBDA_HI = 1.0
#: Bisection probes that selected something, per core.
MAX_PROBES = 14


@register_placer
class GroupLassoPlacer(Placer):
    """Constrained group-lasso selection behind the placer protocol."""

    name = "group_lasso"

    def _rank_scope(self, X, F, budget, rng, constraints, meta):
        z, g, stats = prepare_stats(X, F)

        def solve(lam: float, warm) -> Optional[SelectionResult]:
            # Budgets too small to select anything raise ValueError;
            # report them as None so bracketing/bisection can react.
            try:
                gl = group_lasso_constrained(
                    z, g, budget=lam, stats=stats, warm=warm
                )
                return threshold_selection(gl, lam, DEFAULT_THRESHOLD)
            except ValueError:
                return None

        result, probes = _bisect_count(solve, budget)
        meta["lambda"] = float(result.budget)
        meta["n_above_threshold"] = int(result.n_selected)
        meta["probes"] = int(probes)
        # Descending-norm ranking; norm ties (e.g. zero-norm
        # candidates) break by ascending index (stable sort).
        return np.argsort(-result.group_norms, kind="stable")


def _bisect_count(solve, budget: int):
    """Smallest lambda whose selection count reaches ``budget``.

    Brackets from above (growing the ceiling x2.5 like
    ``fit_for_sensor_count``) then bisects geometrically; failed probes
    (nothing selected) raise the floor without consuming the probe
    budget.  Returns ``(result, n_probes)`` where ``result`` is the
    solve at the smallest lambda found with ``n_selected >= budget``.
    """
    lo, hi = LAMBDA_LO, LAMBDA_HI
    best = solve(hi, None)
    probes = 1
    for _ in range(12):
        if best is not None and best.n_selected >= budget:
            break
        hi *= 2.5
        warm = best.warm_state() if best is not None else None
        best = solve(hi, warm)
        probes += 1
    if best is None or best.n_selected < budget:
        got = 0 if best is None else best.n_selected
        raise ValueError(
            f"group lasso selects at most {got} sensors at lambdas "
            f"up to {hi:g}; cannot reach budget {budget}"
        )
    if best.n_selected == budget:
        return best, probes

    attempts = 0
    used = 0
    while used < MAX_PROBES and attempts < 4 * MAX_PROBES:
        attempts += 1
        mid = float(np.sqrt(lo * hi))
        result = solve(mid, best.warm_state())
        probes += 1
        if result is None:
            lo = mid
            continue
        used += 1
        if result.n_selected >= budget:
            hi = mid
            best = result
            if result.n_selected == budget:
                break
        else:
            lo = mid
    return best, probes
