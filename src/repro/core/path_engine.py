"""Shared-Gram, warm-started λ-path engine.

The λ sweep is the paper's central workflow (Table 1): refit the
placement at many budgets and trade sensor count against accuracy.
Done naively, every constrained solve inside the sweep re-standardizes
its scope, recomputes the Gram statistics ``S = ZᵀZ`` and ``A = ZᵀG``
(an O(N·M²) cost repeated up to ~160× per scope per budget by the
path-following and bisection loops), and starts from zero coefficients.

:class:`LambdaPathEngine` removes all three costs:

* **Sufficient-statistics cache** — each fitting scope (one core, or
  the global pool) is standardized once and its
  :class:`~repro.core.group_lasso.SufficientStats` built once; every
  solve at every budget reuses them (``path.gram_reuse`` counts the
  reuses).
* **Cross-budget warm starts** — budgets are solved in ascending
  order; each constrained solve is seeded with the previous budget's
  coefficients and dual penalty, so the bracketing path starts one or
  two solves from the answer (``sweep.warm_start_hits`` counts the
  seeds used).

Scopes are fitted one after another on the calling thread.

The engine is the one fitting driver: :func:`~repro.core.pipeline.fit_placement`
is a one-budget :meth:`LambdaPathEngine.fit` on a fresh engine.  Warm
starts change only the iteration count, not the selected sensor sets
(bracket endpoints always land on the same penalty grid).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from repro.obs import span
from repro.core.group_lasso import (
    StrongRuleScreener,
    SufficientStats,
    WarmState,
    group_lasso_constrained,
)
from repro.core.pipeline import PipelineConfig, PlacementModel, ScopeModel
from repro.core.predictor import VoltagePredictor
from repro.core.selection import prepare_stats, threshold_selection
from repro.voltage.dataset import VoltageDataset

__all__ = ["LambdaPathEngine"]


@dataclass
class _ScopeState:
    """Cached per-scope problem data plus the rolling warm state."""

    core_index: int
    candidate_cols: np.ndarray
    block_cols: np.ndarray
    X: np.ndarray
    F: np.ndarray
    z: np.ndarray
    g: np.ndarray
    stats: SufficientStats
    warm: Optional[WarmState] = None
    screener: Optional[StrongRuleScreener] = None


class LambdaPathEngine:
    """Reusable fitting engine for λ paths over one training dataset.

    Parameters
    ----------
    dataset:
        Training data; scope caches are built from it once.
    base_config:
        Pipeline template; its ``budget`` is overridden per fit.
        Defaults to per-core fitting with the paper's T.  With
        ``base_config.screen`` each scope keeps *lazy* sufficient
        statistics — the dense ``M×M`` Gram is never built — plus one
        :class:`~repro.core.group_lasso.StrongRuleScreener` whose
        sequential state (the previous solve's dual residuals) rides
        along the budget path exactly like the warm starts.  Every
        screened solve is KKT-safeguarded, so selected sets match the
        unscreened engine.

    Notes
    -----
    The engine is cheap to construct (one standardization + one Gram
    per scope) and amortizes those costs over every subsequent
    :meth:`fit` / :meth:`fit_path` call — budget bisections in
    :func:`~repro.core.lambda_sweep.fit_for_sensor_count` and sweeps in
    :func:`~repro.core.lambda_sweep.sweep_lambda` both ride on it.
    """

    def __init__(
        self,
        dataset: VoltageDataset,
        base_config: Optional[PipelineConfig] = None,
    ) -> None:
        if base_config is None:
            base_config = PipelineConfig(budget=1.0)
        self.dataset = dataset
        self.base_config = base_config
        with span("path.prepare"):
            self._scopes = [
                self._prepare_scope(core, cand, blocks)
                for core, cand, blocks in dataset.scopes(base_config.per_core)
            ]

    def _prepare_scope(
        self,
        core_index: int,
        candidate_cols: np.ndarray,
        block_cols: np.ndarray,
    ) -> _ScopeState:
        X = self.dataset.X[:, candidate_cols]
        F = self.dataset.F[:, block_cols]
        screen = self.base_config.screen
        z, g, stats = prepare_stats(X, F, lazy=screen)
        return _ScopeState(
            core_index=core_index,
            candidate_cols=candidate_cols,
            block_cols=block_cols,
            X=X,
            F=F,
            z=z,
            g=g,
            stats=stats,
            screener=StrongRuleScreener(stats) if screen else None,
        )

    @property
    def n_scopes(self) -> int:
        """Number of independent fitting scopes the engine caches."""
        return len(self._scopes)

    def _fit_scope(self, state: _ScopeState, budget: float) -> ScopeModel:
        """One constrained solve + threshold + OLS refit, cache-backed."""
        cfg = self.base_config
        with span(
            "fit.scope",
            core=state.core_index,
            n_candidates=int(state.candidate_cols.size),
            n_blocks=int(state.block_cols.size),
        ) as sp:
            gl = group_lasso_constrained(
                state.z,
                state.g,
                budget=budget,
                rtol=cfg.rtol,
                solver_max_iter=cfg.solver_max_iter,
                solver_tol=cfg.solver_tol,
                stats=state.stats,
                warm=state.warm,
                probe_tol=cfg.probe_tol,
                screen=state.screener,
            )
            # Update the warm seed before thresholding: even a solve
            # whose selection comes up empty brackets the dual penalty
            # for the next budget.
            state.warm = WarmState(coef=gl.coef, penalty=gl.penalty)
            selection = threshold_selection(gl, budget, cfg.threshold)
            predictor = VoltagePredictor.fit(
                state.X,
                state.F,
                selected=selection.selected,
                sensor_nodes=self.dataset.candidate_nodes[
                    state.candidate_cols[selection.selected]
                ],
            )
            sp.set_attribute("n_selected", selection.n_selected)
        return ScopeModel(
            core_index=state.core_index,
            candidate_cols=state.candidate_cols,
            block_cols=state.block_cols,
            selection=selection,
            predictor=predictor,
        )

    def _assemble(
        self, scopes: List[ScopeModel], budget: float
    ) -> PlacementModel:
        return PlacementModel(
            scopes=scopes,
            config=replace(self.base_config, budget=float(budget)),
            n_blocks=self.dataset.n_blocks,
        )

    def fit(self, budget: float) -> PlacementModel:
        """Fit the placement at one budget, reusing all cached state."""
        with span("path.fit", budget=float(budget)) as sp:
            scopes = [self._fit_scope(st, budget) for st in self._scopes]
            sp.set_attribute("n_sensors", sum(s.n_sensors for s in scopes))
        return self._assemble(scopes, budget)

    def fit_path(self, budgets: Sequence[float]) -> List[PlacementModel]:
        """Fit every budget of a λ path; returns models in input order.

        Budgets are *solved* in ascending order so each scope's
        constrained solve warm-starts from its predecessor.

        Raises whatever the smallest failing budget's first failing
        scope fit raised — typically ``ValueError`` when a budget is
        too small to select any sensor.
        """
        if not budgets:
            raise ValueError("budgets must be non-empty")
        order = sorted(range(len(budgets)), key=lambda i: float(budgets[i]))
        scopes: List[List[ScopeModel]] = [[] for _ in budgets]
        with span("path.fit_path", n_budgets=len(budgets)):
            for i in order:
                scopes[i] = [
                    self._fit_scope(state, float(budgets[i]))
                    for state in self._scopes
                ]
        return [
            self._assemble(fits, float(budget))
            for fits, budget in zip(scopes, budgets)
        ]
