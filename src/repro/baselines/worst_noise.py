"""Worst-noise placement heuristic.

The simplest placement: put sensors on the BA candidates that dip
lowest during training — a pure noise-seeking strategy, useful as a
floor for the comparisons and as the tie-break inside the Eagle-Eye
reproduction.
"""

from __future__ import annotations

import numpy as np

__all__ = ["worst_noise_ranking"]


def worst_noise_ranking(X: np.ndarray) -> np.ndarray:
    """All candidates ranked by ascending training minimum (noisiest first).

    Equal minima are broken toward the lower candidate index (stable
    sort) — the library-wide tie-break policy
    (:mod:`repro.baselines.placer`).

    Parameters
    ----------
    X:
        ``(N, M)`` candidate voltages.

    Returns
    -------
    np.ndarray
        ``(M,)`` candidate indices, deepest droop first.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be (N, M)")
    worst = X.min(axis=0)
    return np.argsort(worst, kind="stable").astype(np.int64)
