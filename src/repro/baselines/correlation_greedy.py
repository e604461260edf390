"""Greedy correlation-based selection (group-OMP ablation).

An ablation for "why group lasso rather than a simple greedy filter":
forward selection that repeatedly adds the candidate whose (normalized)
voltage explains the most residual energy of the critical-node
responses — multi-response orthogonal matching pursuit at the group
level.  Greedy selection is myopic: it can over-concentrate on one
noisy region whose candidates are mutually redundant, which is exactly
the failure mode the group-lasso's joint optimization avoids.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.normalization import Standardizer
from repro.utils.validation import check_integer, check_matrix

__all__ = ["greedy_correlation_order"]


def greedy_correlation_order(
    X: np.ndarray, F: np.ndarray, n_sensors: int
) -> np.ndarray:
    """Group-OMP pick order (unsorted; the greedy prefix is nested).

    At each step the candidate with the largest residual correlation
    energy ``||R^T z_m||_2 / ||z_m||_2`` is added, and the residual R is
    re-orthogonalized against the selected set by an exact OLS refit.
    Score ties go to the lower candidate index (first argmax).  The
    order is nested: its first q entries are the greedy solution for
    budget q.

    Parameters
    ----------
    X:
        ``(N, M)`` raw candidate voltages.
    F:
        ``(N, K)`` raw critical-node voltages.
    n_sensors:
        Number of picks to rank (Q).

    Returns
    -------
    np.ndarray
        ``(Q,)`` candidate indices in pick order, best first.
    """
    X = check_matrix(X, "X")
    F = check_matrix(F, "F", n_rows=X.shape[0])
    check_integer(n_sensors, "n_sensors", minimum=1)
    if n_sensors > X.shape[1]:
        raise ValueError(
            f"cannot select {n_sensors} sensors from {X.shape[1]} candidates"
        )

    Z = Standardizer().fit_transform(X)
    G = Standardizer().fit_transform(F)
    col_norms = np.linalg.norm(Z, axis=0)
    col_norms[col_norms < 1e-12] = np.inf  # constant columns never win

    selected: List[int] = []
    residual = G.copy()
    for _ in range(n_sensors):
        scores = np.linalg.norm(residual.T @ Z, axis=0) / col_norms
        scores[selected] = -1.0
        choice = int(np.argmax(scores))
        selected.append(choice)
        # Exact refit on the selected set keeps the residual orthogonal.
        Zs = Z[:, selected]
        coef, *_ = np.linalg.lstsq(Zs, G, rcond=None)
        residual = G - Zs @ coef
    return np.asarray(selected, dtype=np.int64)
