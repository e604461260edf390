"""Pivoted-QR / DEIM sensor placement (PySensors-style).

Column-pivoted QR on the standardized training map matrix ``Z``
(``N x M``, one column per candidate) greedily picks, at each step,
the candidate whose voltage trace has the largest residual norm after
orthogonalization against the already-picked columns — the QR-DEIM
oversampling strategy of Manohar et al. (IEEE CSM 2018) and PySensors
2.0 (arXiv 2509.08017), applied to the snapshot columns directly.
The pivot sequence is computed once and is nested: its first q pivots
are the rank-q choice, so the :class:`~repro.baselines.placer.Placer`
base takes the budget-q placement from the front of the ranking.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import qr

from repro.baselines.placer import Placer, register_placer
from repro.core.normalization import Standardizer
from repro.utils.validation import check_matrix

__all__ = ["qr_pivot_ranking", "QRPivotPlacer"]


def qr_pivot_ranking(X: np.ndarray) -> np.ndarray:
    """All candidates ranked by column-pivoted QR on standardized data.

    Parameters
    ----------
    X:
        ``(N, M)`` raw candidate voltages (standardized internally so
        pivoting ranks information content, not droop amplitude).

    Returns
    -------
    np.ndarray
        ``(M,)`` candidate indices in pivot order: largest residual
        norm first.  Beyond the numerical rank of ``Z`` the residuals
        are ~0 and LAPACK's pivot order among them is followed as-is.
    """
    X = check_matrix(X, "X")
    Z = Standardizer().fit_transform(X)
    _, _, pivots = qr(Z, mode="economic", pivoting=True)
    return pivots.astype(np.int64)


@register_placer
class QRPivotPlacer(Placer):
    """Sensors at the leading column pivots of the training map matrix."""

    name = "qr_pivot"

    def _rank_scope(self, X, F, budget, rng, constraints, meta):
        return qr_pivot_ranking(X)
