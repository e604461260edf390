"""OLS-coefficient-magnitude selection — the paper's Section 2.2 pitfall.

"One intuitive idea is to select the sensors with large components in
alpha ... Unfortunately, this idea may not always work because of the
complexity in feature selection."  This module implements exactly that
intuitive idea (fit unconstrained OLS on all normalized candidates,
rank candidates by their coefficient-column norm, keep the top Q) so
the failure mode can be measured against group lasso.

Under the strong collinearity of power-grid voltages, unconstrained OLS
splits weight arbitrarily among near-duplicate candidates, so column
magnitude stops tracking importance — the effect the paper cites
Guyon & Elisseeff (2003) for.
"""

from __future__ import annotations

import numpy as np

from repro.core.normalization import Standardizer
from repro.utils.validation import check_matrix

__all__ = ["ols_magnitude_ranking"]


def ols_magnitude_ranking(X: np.ndarray, F: np.ndarray) -> np.ndarray:
    """All candidates ranked by descending OLS coefficient magnitude.

    Equal magnitudes are broken toward the lower candidate index
    (stable sort on the negated key) — the library-wide tie-break
    policy (:mod:`repro.baselines.placer`).

    Parameters
    ----------
    X:
        ``(N, M)`` raw candidate voltages.
    F:
        ``(N, K)`` raw critical-node voltages.

    Returns
    -------
    np.ndarray
        ``(M,)`` candidate indices, largest ``||alpha_m||_2`` first.
    """
    X = check_matrix(X, "X")
    F = check_matrix(F, "F", n_rows=X.shape[0])
    z = Standardizer().fit_transform(X)
    g = Standardizer().fit_transform(F)
    coef, *_ = np.linalg.lstsq(z, g, rcond=None)  # (M, K)
    magnitudes = np.linalg.norm(coef, axis=1)
    return np.argsort(-magnitudes, kind="stable").astype(np.int64)
