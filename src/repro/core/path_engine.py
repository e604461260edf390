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
* **Opt-in parallelism** — with ``n_jobs > 1``, independent scopes run
  on a thread pool (`concurrent.futures`); BLAS releases the GIL, so
  the matmul-heavy solves overlap without copying the dataset.  In
  :meth:`fit_path`, each worker owns one scope's *entire* budget path,
  so scope-level parallelism and warm starts compose instead of
  competing.

The engine is the one fitting driver: :func:`~repro.core.pipeline.fit_placement`
is a one-budget :meth:`LambdaPathEngine.fit` on a fresh engine.  Warm
starts change only the iteration count, not the selected sensor sets
(bracket endpoints always land on the same penalty grid).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import MetricsRegistry, get_registry, span, thread_registry
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
        Defaults to per-core fitting with the paper's T.
    n_jobs:
        Worker threads for independent scopes (defaults to
        ``base_config.n_jobs``).
    screen:
        Strong-rule candidate screening (defaults to
        ``base_config.screen``).  When on, each scope keeps *lazy*
        sufficient statistics — the dense ``M×M`` Gram is never built —
        plus one :class:`~repro.core.group_lasso.StrongRuleScreener`
        whose sequential state (the previous solve's dual residuals)
        rides along the budget path exactly like the warm starts.
        Every screened solve is KKT-safeguarded, so selected sets
        match the unscreened engine.

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
        n_jobs: Optional[int] = None,
        screen: Optional[bool] = None,
    ) -> None:
        if base_config is None:
            base_config = PipelineConfig(budget=1.0)
        self.dataset = dataset
        self.base_config = base_config
        self.n_jobs = base_config.n_jobs if n_jobs is None else max(1, int(n_jobs))
        self.screen = bool(
            getattr(base_config, "screen", False) if screen is None else screen
        )
        with span("path.prepare", n_jobs=self.n_jobs):
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
        z, g, stats = prepare_stats(X, F, lazy=self.screen)
        return _ScopeState(
            core_index=core_index,
            candidate_cols=candidate_cols,
            block_cols=block_cols,
            X=X,
            F=F,
            z=z,
            g=g,
            stats=stats,
            screener=StrongRuleScreener(stats) if self.screen else None,
        )

    @property
    def n_scopes(self) -> int:
        """Number of independent fitting scopes the engine caches."""
        return len(self._scopes)

    def _map_threaded(self, fn, items):
        """``pool.map(fn, items)`` with per-thread registry isolation.

        Each task records spans/metrics into a private child registry
        (installed via :func:`repro.obs.thread_registry`), and the
        children are merged back into the caller's registry in ``items``
        order once the pool drains — worker threads never contend on
        the shared registry lock, and merged results are deterministic
        regardless of thread scheduling.
        """
        parent = get_registry()
        workers = min(self.n_jobs, len(items))
        if not parent.enabled:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(fn, items))
        children = [MetricsRegistry() for _ in items]

        def run(task):
            index, item = task
            with thread_registry(children[index]):
                return fn(item)

        with ThreadPoolExecutor(max_workers=workers) as pool:
            out = list(pool.map(run, enumerate(items)))
        for child in children:
            parent.merge_registry(child)
        return out

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
            if self.n_jobs > 1 and len(self._scopes) > 1:
                scopes = self._map_threaded(
                    lambda st: self._fit_scope(st, budget), self._scopes
                )
            else:
                scopes = [self._fit_scope(st, budget) for st in self._scopes]
            sp.set_attribute("n_sensors", sum(s.n_sensors for s in scopes))
        return self._assemble(scopes, budget)

    def fit_path(self, budgets: Sequence[float]) -> List[PlacementModel]:
        """Fit every budget of a λ path; returns models in input order.

        Budgets are *solved* in ascending order so each constrained
        solve warm-starts from its predecessor.  With ``n_jobs > 1``
        each worker thread owns one scope's whole path (warm starts
        stay sequential within a scope while scopes overlap); the
        models are then assembled per budget.

        Raises whatever the earliest (in ascending-budget order)
        failing scope fit raised — typically ``ValueError`` when a
        budget is too small to select any sensor.
        """
        if not budgets:
            raise ValueError("budgets must be non-empty")
        order = sorted(range(len(budgets)), key=lambda i: float(budgets[i]))

        results: Dict[Tuple[int, int], ScopeModel] = {}
        failures: Dict[int, Exception] = {}

        def run_scope_path(scope_idx: int) -> None:
            state = self._scopes[scope_idx]
            with span(
                "path.scope", core=state.core_index, n_budgets=len(budgets)
            ):
                for budget_idx in order:
                    try:
                        results[(scope_idx, budget_idx)] = self._fit_scope(
                            state, float(budgets[budget_idx])
                        )
                    except Exception as exc:  # surfaced per budget below
                        prior = failures.get(budget_idx)
                        if prior is None:
                            failures[budget_idx] = exc

        with span(
            "path.fit_path", n_budgets=len(budgets), n_jobs=self.n_jobs
        ):
            if self.n_jobs > 1 and len(self._scopes) > 1:
                self._map_threaded(run_scope_path, list(range(len(self._scopes))))
            else:
                for scope_idx in range(len(self._scopes)):
                    run_scope_path(scope_idx)

        if failures:
            # Mirror sequential semantics: the smallest failing budget
            # is the error the caller sees.
            first = min(failures, key=lambda i: float(budgets[i]))
            raise failures[first]

        models: List[Optional[PlacementModel]] = [None] * len(budgets)
        for budget_idx, budget in enumerate(budgets):
            scopes = [
                results[(scope_idx, budget_idx)]
                for scope_idx in range(len(self._scopes))
            ]
            models[budget_idx] = self._assemble(scopes, float(budget))
        return models  # type: ignore[return-value]
