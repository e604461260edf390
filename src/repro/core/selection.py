"""Sensor selection from group-lasso coefficients (paper Steps 3-5).

Normalizes the data, runs the constrained group lasso at the chosen
``lambda``, and thresholds the column norms ``||beta_m||_2`` against T
(the paper uses T = 1e-3) to obtain the selected sensor index set S.

For λ paths (sweeps, bisections) the expensive part of each call is the
Gram computation inside the solver; :func:`prepare_stats` builds the
standardized problem and its :class:`~repro.core.group_lasso.SufficientStats`
once so repeated calls at different budgets never recompute it (see
:mod:`repro.core.path_engine`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.group_lasso import (
    GroupLassoResult,
    SufficientStats,
    WarmState,
    group_lasso_constrained,
)
from repro.core.normalization import Standardizer
from repro.utils.validation import check_matrix, check_positive

__all__ = [
    "SelectionResult",
    "select_sensors",
    "prepare_stats",
    "threshold_selection",
    "DEFAULT_THRESHOLD",
]

#: The paper's selection threshold T.
DEFAULT_THRESHOLD = 1e-3


@dataclass
class SelectionResult:
    """Outcome of group-lasso sensor selection.

    Attributes
    ----------
    selected:
        Sorted indices of the selected sensors (into the candidate
        columns of X) — the paper's set S.
    group_norms:
        ``(M,)`` column norms ``||beta_m||_2`` of the GL solution (the
        quantity plotted in the paper's Fig. 1).
    budget:
        The lambda used.
    threshold:
        The T used.
    gl_result:
        The underlying group-lasso solution (coefficients are *biased*
        by the constraint — use them for selection only, never for
        prediction; see paper Section 2.3).  ``None`` for selections
        that did not come from a group-lasso solve (placements imported
        through
        :func:`~repro.core.pipeline.placement_model_from_cols`), in
        which case ``group_norms`` is a 0/1 membership indicator.
    """

    selected: np.ndarray
    group_norms: np.ndarray
    budget: float
    threshold: float
    gl_result: Optional[GroupLassoResult]

    @property
    def n_selected(self) -> int:
        """Q — number of selected sensors."""
        return self.selected.shape[0]

    def warm_state(self) -> WarmState:
        """Warm-start seed for a constrained solve at a nearby budget."""
        if self.gl_result is None:
            raise RuntimeError(
                "selection has no group-lasso solution to warm-start from"
            )
        return WarmState(
            coef=self.gl_result.coef, penalty=self.gl_result.penalty
        )


def prepare_stats(
    X: np.ndarray, F: np.ndarray, lazy: bool = False
) -> Tuple[np.ndarray, np.ndarray, SufficientStats]:
    """Standardize ``(X, F)`` and build the solver sufficient statistics.

    Returns ``(z, g, stats)``: the standardized matrices exactly as
    :func:`select_sensors` computes them internally, plus their
    :class:`~repro.core.group_lasso.SufficientStats`.  Passing these
    back into :func:`select_sensors` (or the constrained solver) makes
    every solve of a λ path reuse one Gram computation, with
    bit-identical coefficients.

    With ``lazy=True`` the statistics skip the dense ``M×M`` Gram
    (``S = ZᵀZ``) and retain ``z`` instead; they are only usable with
    strong-rule screening (``screen=``), which assembles small Gram
    slices on demand.
    """
    X = check_matrix(X, "X")
    F = check_matrix(F, "F", n_rows=X.shape[0])
    z = Standardizer().fit_transform(X)
    g = Standardizer().fit_transform(F)
    return z, g, SufficientStats.from_arrays(z, g, lazy=lazy)


def threshold_selection(
    gl: GroupLassoResult, budget: float, threshold: float
) -> SelectionResult:
    """Paper Step 5: threshold ``||beta_m||_2`` against T.

    Raises
    ------
    ValueError
        If no sensor survives the threshold — the budget is too small
        to be useful; increase lambda.
    """
    norms = gl.group_norms()
    selected = np.nonzero(norms > threshold)[0]
    if selected.size == 0:
        raise ValueError(
            f"no sensors selected at lambda={budget} with T={threshold}; "
            f"max ||beta_m|| = {norms.max():.3g} — increase lambda"
        )
    return SelectionResult(
        selected=selected,
        group_norms=norms,
        budget=budget,
        threshold=threshold,
        gl_result=gl,
    )


def select_sensors(
    X: np.ndarray,
    F: np.ndarray,
    budget: float,
    threshold: float = DEFAULT_THRESHOLD,
    rtol: float = 1e-2,
    solver_max_iter: int = 20000,
    solver_tol: float = 1e-7,
    stats: Optional[SufficientStats] = None,
    warm: Optional[WarmState] = None,
    probe_tol: Optional[float] = None,
    screen=None,
) -> SelectionResult:
    """Run paper Steps 3-5: normalize, solve GL, threshold ``||beta_m||``.

    Parameters
    ----------
    X:
        ``(N, M)`` raw candidate-sensor voltages.
    F:
        ``(N, K)`` raw critical-node voltages.
    budget:
        The paper's hyper-parameter lambda: total group-norm budget.
        Small values select few sensors.
    threshold:
        The paper's T; candidates with ``||beta_m||_2 > T`` are
        selected.
    rtol, solver_max_iter, solver_tol:
        Numerical controls forwarded to the constrained solver.
    stats:
        Optional sufficient statistics of the *standardized* problem,
        as returned by :func:`prepare_stats` for the same ``(X, F)``.
        Skips every Gram recomputation inside the solve.
    warm:
        Optional warm-start state from a selection on the same data at
        a nearby budget (:meth:`SelectionResult.warm_state`).
    probe_tol:
        Optional looser tolerance for bracket probes inside the
        constrained solve (the result is re-polished at
        ``solver_tol``); ``None`` keeps every solve at ``solver_tol``.
    screen:
        Strong-rule screening control, forwarded to
        :func:`~repro.core.group_lasso.group_lasso_constrained`:
        ``None``/``False`` off (default), ``True`` a fresh screener, or
        a :class:`~repro.core.group_lasso.StrongRuleScreener` carrying
        sequential state along a λ path.

    Returns
    -------
    SelectionResult

    Raises
    ------
    ValueError
        If no sensor survives the threshold — the budget is too small
        to be useful; increase lambda.
    """
    check_positive(budget, "budget")
    check_positive(threshold, "threshold")
    X = check_matrix(X, "X")
    F = check_matrix(F, "F", n_rows=X.shape[0])

    z = Standardizer().fit_transform(X)
    g = Standardizer().fit_transform(F)
    gl = group_lasso_constrained(
        z,
        g,
        budget=budget,
        rtol=rtol,
        solver_max_iter=solver_max_iter,
        solver_tol=solver_tol,
        stats=stats,
        warm=warm,
        probe_tol=probe_tol,
        screen=screen,
    )
    return threshold_selection(gl, budget, threshold)
