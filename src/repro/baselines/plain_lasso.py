"""Plain (ungrouped) lasso selection — the grouping ablation.

The paper groups each candidate's K coefficients into one unit so that
sparsity acts at the *sensor* level.  This module drops the grouping:
an element-wise L1 penalty lets individual (block, sensor) coefficients
vanish independently, and a sensor is "selected" if *any* of its
coefficients survives.  Because L1 scatters the surviving coefficients
across many columns, plain lasso needs noticeably more sensors for the
same fit — demonstrating why the paper uses group lasso.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.group_lasso import SufficientStats  # shared sufficient statistics
from repro.core.normalization import Standardizer
from repro.utils.validation import check_matrix, check_non_negative, check_positive

__all__ = [
    "PlainLassoResult",
    "lasso_magnitude_ranking",
    "lasso_penalized",
]


@dataclass
class PlainLassoResult:
    """Solution of an element-wise-L1 multi-response lasso.

    Attributes
    ----------
    coef:
        ``(K, M)`` coefficients.
    penalty:
        The L1 weight used.
    n_iterations:
        Coordinate sweeps performed.
    converged:
        Whether the tolerance was met.
    """

    coef: np.ndarray
    penalty: float
    n_iterations: int = 0
    converged: bool = True

    def group_norms(self) -> np.ndarray:
        """Column norms, comparable with the group-lasso's."""
        return np.linalg.norm(self.coef, axis=0)

    def nonzero_count(self) -> int:
        """Number of individually non-zero coefficients."""
        return int(np.count_nonzero(self.coef))

    def sensors_used(self, threshold: float = 0.0) -> np.ndarray:
        """Columns with any coefficient magnitude above ``threshold``."""
        return np.nonzero(np.abs(self.coef).max(axis=0) > threshold)[0]


def lasso_penalized(
    Z: np.ndarray,
    G: np.ndarray,
    mu: float,
    max_iter: int = 1000,
    tol: float = 1e-8,
    warm_start: Optional[np.ndarray] = None,
) -> PlainLassoResult:
    """Solve ``min 1/2 ||G - Z B^T||_F^2 + mu * sum_{k,m} |B_{k,m}|``.

    Coordinate descent over feature columns with element-wise
    soft-thresholding (each response decouples given the residual
    correlation).

    Parameters
    ----------
    Z:
        ``(N, M)`` normalized features.
    G:
        ``(N, K)`` normalized responses.
    mu:
        Element-wise L1 weight.
    max_iter, tol:
        Convergence controls (sweep count / max coefficient change).
    warm_start:
        Optional initial ``(K, M)`` coefficients.
    """
    check_non_negative(mu, "mu")
    check_positive(tol, "tol")
    stats = SufficientStats.from_arrays(Z, G)
    S, A, diag_S = stats.S, stats.A, stats.diag_S
    n_features = stats.n_features
    n_responses = stats.n_responses

    if warm_start is not None:
        B = np.array(warm_start, dtype=float, copy=True)
        if B.shape != (n_responses, n_features):
            raise ValueError("warm_start has wrong shape")
    else:
        B = np.zeros((n_responses, n_features))

    converged = False
    sweeps = 0
    while sweeps < max_iter:
        max_delta = 0.0
        active_idx = np.nonzero(np.any(B != 0.0, axis=0))[0]
        for m in range(n_features):
            s_mm = diag_S[m]
            if s_mm <= 1e-15:
                B[:, m] = 0.0
                continue
            if active_idx.size:
                c = A[m] - B[:, active_idx] @ S[active_idx, m]
            else:
                c = A[m].copy()
            if np.any(B[:, m]):
                c = c + B[:, m] * s_mm
            new_col = np.sign(c) * np.maximum(np.abs(c) - mu, 0.0) / s_mm
            delta = float(np.max(np.abs(new_col - B[:, m])))
            if delta > 0:
                B[:, m] = new_col
                active_idx = np.nonzero(np.any(B != 0.0, axis=0))[0]
            max_delta = max(max_delta, delta)
        sweeps += 1
        scale = max(1.0, float(np.max(np.abs(B))) if B.size else 1.0)
        if max_delta <= tol * scale:
            converged = True
            break
    return PlainLassoResult(coef=B, penalty=mu, n_iterations=sweeps, converged=converged)


def lasso_magnitude_ranking(
    X: np.ndarray, F: np.ndarray, mu: float
) -> np.ndarray:
    """All candidates ranked by descending surviving-coefficient magnitude.

    Solves the element-wise lasso at ``mu`` and orders columns by their
    largest absolute coefficient (stable sort: magnitude ties go to the
    lower candidate index).

    Parameters
    ----------
    X, F:
        Raw data matrices (normalized internally).
    mu:
        L1 penalty weight.

    Returns
    -------
    np.ndarray
        ``(M,)`` candidate indices, largest surviving magnitude first.
    """
    X = check_matrix(X, "X")
    F = check_matrix(F, "F", n_rows=X.shape[0])
    z = Standardizer().fit_transform(X)
    g = Standardizer().fit_transform(F)
    result = lasso_penalized(z, g, mu)
    magnitudes = np.abs(result.coef).max(axis=0)
    return np.argsort(-magnitudes, kind="stable").astype(np.int64)
