"""End-to-end placement + prediction pipeline (paper Section 2.4).

Runs Steps 0-8 on a :class:`~repro.voltage.dataset.VoltageDataset`:
normalize, solve the constrained group lasso at lambda, threshold with
T, refit OLS on the selected sensors, and package the result as a
:class:`PlacementModel` that predicts every monitored block's voltage
from the selected sensors' readings.

Following the paper's experiments, fitting is *per core* by default:
core ``c``'s sensors are selected among the BA candidates inside core
``c`` to predict core ``c``'s blocks ("the number of chosen sensors for
one core", Table 1).  A global mode that pools all candidates and
blocks is also provided.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from repro.obs import get_registry, span
from repro.core.predictor import VoltagePredictor
from repro.core.selection import DEFAULT_THRESHOLD, SelectionResult
from repro.voltage.dataset import VoltageDataset
from repro.utils.validation import check_positive

__all__ = [
    "PipelineConfig",
    "ScopeModel",
    "PlacementModel",
    "fit_placement",
    "placement_model_from_cols",
]


@dataclass(frozen=True)
class PipelineConfig:
    """Configuration of a placement fit.

    Parameters
    ----------
    budget:
        The paper's lambda, applied per fitting scope (per core in
        per-core mode, once globally otherwise).
    threshold:
        The paper's T for selecting sensors from ``||beta_m||_2``.
    per_core:
        Fit one model per core (paper behaviour) or one global model.
    rtol:
        Budget-matching tolerance of the constrained GL solver (> 0).
    solver_max_iter, solver_tol:
        Inner FISTA controls (``solver_tol > 0``).
    probe_tol:
        Tolerance (> 0) for the bracket-probe solves inside the
        constrained solver; the accepted solution is always
        re-polished at ``solver_tol``.  ``None`` runs every probe at
        ``solver_tol``.
    screen:
        When ``True``, the constrained solves use sequential
        strong-rule candidate screening with a KKT safeguard
        (:class:`~repro.core.group_lasso.StrongRuleScreener`): each
        solve runs on a small survivor slice of the candidates and the
        dense ``M×M`` Gram is never materialized.  Selected sets match
        the unscreened path; ``False`` (default) keeps the fitting
        path bit-identical to previous releases.
    """

    budget: float
    threshold: float = DEFAULT_THRESHOLD
    per_core: bool = True
    rtol: float = 1e-2
    solver_max_iter: int = 20000
    solver_tol: float = 1e-7
    probe_tol: Optional[float] = 1e-5
    screen: bool = False

    def __post_init__(self) -> None:
        check_positive(self.budget, "budget")
        check_positive(self.threshold, "threshold")
        check_positive(self.rtol, "rtol")
        check_positive(self.solver_tol, "solver_tol")
        if self.probe_tol is not None:
            check_positive(self.probe_tol, "probe_tol")


@dataclass
class ScopeModel:
    """Placement + predictor for one fitting scope (one core or global).

    Attributes
    ----------
    core_index:
        The core this scope covers (-1 for the global scope).
    candidate_cols:
        Columns of the dataset's X this scope could select from.
    block_cols:
        Columns of the dataset's F this scope predicts.
    selection:
        The group-lasso selection outcome (norms, budget, solution).
    predictor:
        The OLS prediction model over the selected sensors.
    """

    core_index: int
    candidate_cols: np.ndarray
    block_cols: np.ndarray
    selection: SelectionResult
    predictor: VoltagePredictor

    @property
    def selected_cols(self) -> np.ndarray:
        """Selected sensor columns in *dataset* X indexing."""
        return self.candidate_cols[self.selection.selected]

    @property
    def n_sensors(self) -> int:
        """Sensors used by this scope."""
        return self.selection.n_selected


@dataclass
class PlacementModel:
    """The fitted monitoring system for a whole chip.

    Attributes
    ----------
    scopes:
        One :class:`ScopeModel` per core (per-core mode) or a single
        global scope.
    config:
        The configuration it was fitted with.
    n_blocks:
        Total number of monitored blocks (dataset K).
    """

    scopes: List[ScopeModel]
    config: PipelineConfig
    n_blocks: int
    _fallback_cache: Optional["Dict[int, PlacementModel]"] = field(
        default=None, repr=False, compare=False
    )

    @property
    def n_sensors(self) -> int:
        """Total sensors placed across the chip."""
        return sum(s.n_sensors for s in self.scopes)

    @property
    def n_inputs(self) -> int:
        """Minimum candidate-vector length :meth:`predict` accepts.

        One past the highest candidate column any scope reads; inputs
        may be longer (trailing unread candidates are ignored).
        """
        if not self.scopes:
            return 0
        return max(int(s.candidate_cols.max()) for s in self.scopes) + 1

    @property
    def sensor_candidate_cols(self) -> np.ndarray:
        """All selected sensor columns, in dataset X indexing, sorted."""
        if not self.scopes:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate([s.selected_cols for s in self.scopes]))

    def sensor_nodes(self, dataset: VoltageDataset) -> np.ndarray:
        """Grid node ids of all placed sensors."""
        return dataset.candidate_nodes[self.sensor_candidate_cols]

    def sensors_per_core(self) -> "dict[int, int]":
        """Sensor count per scope core index."""
        return {s.core_index: s.n_sensors for s in self.scopes}

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict all block voltages from ``(N, M)`` candidate voltages.

        Only the selected columns are read — at runtime these are the
        physical sensor measurements; the rest of X may be garbage.

        Returns ``(N, K)`` predictions in dataset block-column order.
        """
        registry = get_registry()
        _t0 = _time.perf_counter() if registry.enabled else 0.0
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[np.newaxis, :]
        if X.ndim != 2 or X.shape[1] < self.n_inputs:
            raise ValueError(
                f"predict expects (N, M) candidate voltages with "
                f"M >= {self.n_inputs} (the model reads candidate columns "
                f"up to index {self.n_inputs - 1}); got shape {X.shape}"
            )
        out = np.empty((X.shape[0], self.n_blocks))
        filled = np.zeros(self.n_blocks, dtype=bool)
        for scope in self.scopes:
            sub = X[:, scope.candidate_cols]
            out[:, scope.block_cols] = scope.predictor.predict_from_candidates(sub)
            filled[scope.block_cols] = True
        if not filled.all():
            missing = int((~filled).sum())
            raise RuntimeError(
                f"{missing} block columns are not covered by any scope"
            )
        if registry.enabled:
            registry.timer("predict.placement").record(
                _time.perf_counter() - _t0
            )
            registry.counter("predict.samples").inc(X.shape[0])
        return out

    def alarm(self, X: np.ndarray, threshold: float) -> np.ndarray:
        """Chip-level emergency flag per sample (Table 2 semantics)."""
        return np.any(self.predict(X) < threshold, axis=1)

    def block_states(self, X: np.ndarray, threshold: float) -> np.ndarray:
        """Per-(sample, block) predicted emergency states."""
        return self.predict(X) < threshold

    def without_sensor(self, candidate_col: int) -> "PlacementModel":
        """The placement refitted as if one sensor never existed.

        The scope owning ``candidate_col`` gets its predictor refit on
        the remaining sensors from the OLS statistics cached at fit
        time (no training data needed); every other scope is shared
        unchanged.  A scope losing its last sensor degrades to the
        intercept-only model (predicting training means).

        Parameters
        ----------
        candidate_col:
            Dataset candidate column (X indexing) of the sensor to
            remove — must be one of :attr:`sensor_candidate_cols`.
        """
        candidate_col = int(candidate_col)
        for i, scope in enumerate(self.scopes):
            hit = np.nonzero(scope.selected_cols == candidate_col)[0]
            if hit.size == 0:
                continue
            position = int(hit[0])
            new_scope = ScopeModel(
                core_index=scope.core_index,
                candidate_cols=scope.candidate_cols,
                block_cols=scope.block_cols,
                selection=replace(
                    scope.selection,
                    selected=np.delete(scope.selection.selected, position),
                ),
                predictor=scope.predictor.drop_feature(position),
            )
            scopes = list(self.scopes)
            scopes[i] = new_scope
            return PlacementModel(
                scopes=scopes, config=self.config, n_blocks=self.n_blocks
            )
        raise ValueError(
            f"candidate column {candidate_col} is not a selected sensor "
            f"of this placement"
        )

    def fallback_models(self) -> "Dict[int, PlacementModel]":
        """Leave-one-sensor-out fallback models, keyed by candidate column.

        Built lazily on first call from the OLS Gram cached in each
        scope's predictor and memoized on the model; runtime monitors
        fail over to ``fallback_models()[col]`` when the sensor at
        dataset candidate column ``col`` is detected dead, so a lost
        sensor degrades accuracy instead of poisoning every block
        prediction.  Fallbacks can chain through
        :meth:`without_sensor` for multiple failures.
        """
        if self._fallback_cache is None:
            self._fallback_cache = {
                int(col): self.without_sensor(int(col))
                for col in self.sensor_candidate_cols
            }
        return self._fallback_cache


def fit_placement(dataset: VoltageDataset, config: PipelineConfig) -> PlacementModel:
    """Fit the full monitoring system on a training dataset.

    A one-budget fit of the
    :class:`~repro.core.path_engine.LambdaPathEngine`, the single
    fitting driver behind sweeps, sensor-count targeting and this
    function alike.

    Parameters
    ----------
    dataset:
        Training data (X, F) with per-core provenance.
    config:
        Pipeline configuration (lambda, T, per-core mode).

    Returns
    -------
    PlacementModel

    Raises
    ------
    ValueError
        In per-core mode, if a core has blocks to monitor but no BA
        candidates to select from.
    """
    # Deferred: path_engine imports this module.
    from repro.core.path_engine import LambdaPathEngine

    with span(
        "fit.placement", budget=config.budget, per_core=config.per_core
    ) as sp:
        model = LambdaPathEngine(dataset, config).fit(config.budget)
        sp.set_attribute("n_sensors", model.n_sensors)
    return model


def placement_model_from_cols(
    dataset: VoltageDataset, selected_cols: np.ndarray
) -> PlacementModel:
    """Fit the OLS readout for an externally chosen sensor set.

    The bridge between alternative placement algorithms
    (:mod:`repro.baselines.placer`) and everything downstream of a
    group-lasso fit: the returned :class:`PlacementModel` has real
    per-scope :class:`~repro.core.predictor.VoltagePredictor` models
    (with cached OLS refit statistics, so leave-one-sensor-out
    :meth:`~PlacementModel.fallback_models` work) and serves through
    :class:`~repro.monitor.fleet.FleetMonitor` unchanged.  Each scope's
    ``selection`` carries a 0/1 membership indicator as its group
    norms and no group-lasso solution (``gl_result=None``).

    Parameters
    ----------
    dataset:
        Training data (X, F) with per-core provenance.
    selected_cols:
        Candidate columns (dataset X indexing) of the placed sensors.
        Duplicates are collapsed.  Fitting is per core, and the model
        carries a bookkeeping config whose ``budget`` is the sensor
        count.

    Raises
    ------
    ValueError
        If ``selected_cols`` is empty or out of range, a core has no
        selected sensor (its blocks would be unpredictable), or a
        column belongs to no core with blocks.
    """
    cols = np.unique(np.asarray(selected_cols, dtype=np.int64))
    if cols.size == 0:
        raise ValueError("selected_cols must name at least one sensor")
    if cols.min() < 0 or cols.max() >= dataset.n_candidates:
        raise ValueError(
            f"selected_cols out of range: dataset has "
            f"{dataset.n_candidates} candidates"
        )
    config = PipelineConfig(budget=float(cols.size))
    scope_specs = dataset.scopes()

    claimed = np.zeros(dataset.n_candidates, dtype=bool)
    scopes: List[ScopeModel] = []
    for core_index, candidate_cols, block_cols in scope_specs:
        local = np.nonzero(np.isin(candidate_cols, cols))[0]
        if local.size == 0:
            raise ValueError(
                f"scope {core_index} has {block_cols.size} blocks but no "
                "selected sensor among its candidates"
            )
        claimed[candidate_cols[local]] = True
        norms = np.zeros(candidate_cols.size)
        norms[local] = 1.0
        selection = SelectionResult(
            selected=local,
            group_norms=norms,
            budget=float(local.size),
            threshold=config.threshold,
            gl_result=None,
        )
        predictor = VoltagePredictor.fit(
            dataset.X[:, candidate_cols],
            dataset.F[:, block_cols],
            selected=local,
            sensor_nodes=dataset.candidate_nodes[candidate_cols[local]],
        )
        scopes.append(
            ScopeModel(
                core_index=core_index,
                candidate_cols=candidate_cols,
                block_cols=block_cols,
                selection=selection,
                predictor=predictor,
            )
        )
    orphans = cols[~claimed[cols]]
    if orphans.size:
        raise ValueError(
            f"selected columns {orphans.tolist()} belong to no fitting "
            "scope (core without blocks, or unassigned candidates)"
        )
    return PlacementModel(scopes=scopes, config=config, n_blocks=dataset.n_blocks)
