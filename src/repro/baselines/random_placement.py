"""Random sensor placement — the null baseline.

Any principled placement must beat sensors thrown uniformly at random
into the blank area; this module provides that control.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import RngLike, make_rng
from repro.utils.validation import check_integer

__all__ = ["random_selection"]


def random_selection(
    n_candidates: int, n_sensors: int, rng: RngLike = None
) -> np.ndarray:
    """Uniformly sample ``n_sensors`` distinct candidate indices.

    Parameters
    ----------
    n_candidates:
        Size of the candidate pool (M).
    n_sensors:
        Sensors to draw.
    rng:
        Seed or generator.
    """
    check_integer(n_candidates, "n_candidates", minimum=1)
    check_integer(n_sensors, "n_sensors", minimum=1)
    if n_sensors > n_candidates:
        raise ValueError(
            f"cannot select {n_sensors} sensors from {n_candidates} candidates"
        )
    rng = make_rng(rng)
    return np.sort(rng.choice(n_candidates, size=n_sensors, replace=False))
