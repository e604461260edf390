"""Failure-robust sensor placement: minimize worst-case single-loss error.

Sensors die in the field; :class:`~repro.monitor.fleet.FleetMonitor`
fails over to leave-one-sensor-out OLS fallbacks when one does.  The
standard objectives optimize the *healthy* readout and can leave a
placement where one particular sensor carries all the information —
losing it collapses accuracy.  This placer optimizes the degraded mode
directly: forward greedy selection minimizing

``max_{s in S} RSS(S \\ {s})``

— the worst training residual over every single-sensor loss — with the
nominal ``RSS(S)`` as tie-break (without it, every singleton set ties:
losing your only sensor always degrades to the intercept-only model).
All subset refits solve the cached centered normal equations
(:class:`~repro.core.ols.OLSRefitStats`), the same machinery the
runtime failover uses, so the bound the placer reports is the bound
the fleet experiences.

Per-core diagnostics land in ``Placement.meta["scopes"][core]``:

* ``worst_case_rss`` — the objective value of the chosen set;
* ``worst_case_train_error`` — the max mean relative training error
  over all single-sensor drops of the chosen set (comparable with
  :func:`~repro.voltage.metrics.mean_relative_error` of a degraded
  :class:`~repro.core.pipeline.PlacementModel`);
* ``nominal_train_error`` — the healthy-model training error.

The placer ranks exactly the ``budget`` greedy picks, in pick order;
the :class:`~repro.baselines.placer.Placer` base places all of them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.placer import Placer, register_placer
from repro.core.ols import OLSRefitStats
from repro.utils.validation import check_integer, check_matrix
from repro.voltage.metrics import mean_relative_error

__all__ = ["robust_greedy_order", "RobustPlacer"]


def _subset_rss(stats: OLSRefitStats, sff: float, keep: np.ndarray) -> float:
    """Training RSS of the OLS refit on feature subset ``keep``.

    ``RSS = sff - tr(coef_t^T sxf)`` from the centered normal
    equations; the empty subset is the intercept-only model with
    ``RSS = sff``.
    """
    if keep.size == 0:
        return sff
    sub = stats.subset(keep)
    coef_t, *_ = np.linalg.lstsq(sub.sxx, sub.sxf, rcond=None)
    return max(sff - float(np.sum(coef_t * sub.sxf)), 0.0)


def robust_greedy_order(
    X: np.ndarray,
    F: np.ndarray,
    budget: int,
) -> Tuple[np.ndarray, Dict[str, float]]:
    """Greedy failure-robust pick order plus its worst-case diagnostics.

    Parameters
    ----------
    X:
        ``(N, M)`` raw candidate voltages.
    F:
        ``(N, K)`` raw critical-node voltages.
    budget:
        Sensors the greedy picks.

    Returns
    -------
    (order, info)
        ``order`` — the ``budget`` candidate indices in pick order;
        ``info`` — ``worst_case_rss``, ``worst_case_train_error`` and
        ``nominal_train_error`` of the picked set.
    """
    X = check_matrix(X, "X")
    F = check_matrix(F, "F", n_rows=X.shape[0])
    check_integer(budget, "budget", minimum=1)
    n_candidates = X.shape[1]
    if budget > n_candidates:
        raise ValueError(
            f"cannot select {budget} sensors from {n_candidates} candidates"
        )

    stats = OLSRefitStats.from_arrays(X, F)
    fc = F - stats.f_mean
    sff = float(np.sum(fc * fc))

    chosen: List[int] = []
    in_set = np.zeros(n_candidates, dtype=bool)
    best_key: Optional[Tuple[float, float]] = None
    for _ in range(budget):
        step_best: Optional[int] = None
        step_key: Optional[Tuple[float, float]] = None
        for m in range(n_candidates):
            if in_set[m]:
                continue
            trial = np.asarray(chosen + [m], dtype=np.int64)
            nominal = _subset_rss(stats, sff, trial)
            worst = max(
                _subset_rss(stats, sff, np.delete(trial, i))
                for i in range(trial.size)
            )
            key = (worst, nominal)
            # Strict < keeps the lowest index on exact ties.
            if step_key is None or key < step_key:
                step_best, step_key = m, key
        chosen.append(step_best)
        in_set[step_best] = True
        best_key = step_key

    order = np.asarray(chosen, dtype=np.int64)
    info = {
        "worst_case_rss": float(best_key[0]),
        "worst_case_train_error": max(
            mean_relative_error(
                stats.refit(np.delete(order, i)).predict(
                    X[:, np.delete(order, i)]
                ),
                F,
            )
            for i in range(order.size)
        ),
        "nominal_train_error": mean_relative_error(
            stats.refit(order).predict(X[:, order]), F
        ),
    }
    return order, info


@register_placer
class RobustPlacer(Placer):
    """Forward greedy minimizing worst-case single-sensor-loss RSS."""

    name = "robust"

    def _rank_scope(self, X, F, budget, rng, constraints, meta):
        order, info = robust_greedy_order(X, F, budget)
        meta.update(info)
        return order
