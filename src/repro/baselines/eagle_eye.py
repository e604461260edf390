"""Eagle-Eye-style sensor placement (the paper's comparator, [13]).

Eagle-Eye (Wang et al., ICCAD 2013) is a statistical framework that
places sensors to minimize the *miss error*: the probability that an FA
emergency goes undetected.  Its placement "tends to select the sensor
candidates with worst voltage noise" (paper Section 3.1), and its
runtime detection is the sensors' *own* voltages crossing the
threshold — there is no prediction model.

The original implementation is not available; this module reproduces
the decision procedure the paper describes and compares against:

* a greedy max-coverage selection over training maps — each step adds
  the candidate whose own-voltage alarms cover the most not-yet-covered
  emergency samples (directly minimizing training miss error, i.e.
  Eagle-Eye's objective), with ties broken toward the worst-noise
  candidate;
* runtime alarm = any selected sensor measuring below the threshold.

Place with ``get_placer("eagle_eye")`` (threshold from
``PlacementConstraints.emergency_threshold``) and detect with
:class:`EagleEyeModel` built from the placement's columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.utils.validation import check_integer, check_positive

__all__ = ["EagleEyeModel", "greedy_coverage_order"]


@dataclass
class EagleEyeModel:
    """The Eagle-Eye runtime detector over a placement.

    Attributes
    ----------
    selected_cols:
        Selected candidate columns (dataset X indexing), sorted.
    threshold:
        Emergency threshold in volts used for alarms.
    """

    selected_cols: np.ndarray
    threshold: float

    def __post_init__(self) -> None:
        self.selected_cols = np.asarray(self.selected_cols, dtype=np.int64)

    @property
    def n_sensors(self) -> int:
        """Number of placed sensors."""
        return self.selected_cols.shape[0]

    def alarm(self, X: np.ndarray) -> np.ndarray:
        """Per-sample alarm: any selected sensor below the threshold.

        Parameters
        ----------
        X:
            ``(N, M)`` candidate voltages; only selected columns are
            read (they are the physical sensors at runtime).
        """
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[np.newaxis, :]
        return np.any(X[:, self.selected_cols] < self.threshold, axis=1)

    def block_states(
        self,
        X: np.ndarray,
        sensor_positions: np.ndarray,
        block_positions: np.ndarray,
    ) -> np.ndarray:
        """Per-(sample, block) states via nearest-sensor assignment.

        Eagle-Eye has no prediction model, so a per-block reading must
        come from a sensor-to-block mapping; the natural one assigns
        each block to its nearest placed sensor (Voronoi regions).

        Parameters
        ----------
        X:
            ``(N, M)`` candidate voltages.
        sensor_positions:
            ``(n_sensors, 2)`` positions of the selected sensors, in
            ``selected_cols`` order.
        block_positions:
            ``(K, 2)`` positions of the monitored critical nodes.

        Returns
        -------
        np.ndarray
            ``(N, K)`` boolean emergency states.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[np.newaxis, :]
        sensor_positions = np.asarray(sensor_positions, dtype=float)
        block_positions = np.asarray(block_positions, dtype=float)
        if sensor_positions.shape != (self.n_sensors, 2):
            raise ValueError(
                f"sensor_positions must be ({self.n_sensors}, 2), "
                f"got {sensor_positions.shape}"
            )
        alarms = X[:, self.selected_cols] < self.threshold
        d2 = (
            (block_positions[:, np.newaxis, :] - sensor_positions[np.newaxis, :, :])
            ** 2
        ).sum(axis=-1)
        nearest = d2.argmin(axis=1)
        return alarms[:, nearest]


def greedy_coverage_order(
    X: np.ndarray,
    emergency: np.ndarray,
    n_sensors: int,
    threshold: float,
) -> np.ndarray:
    """Eagle-Eye greedy max-coverage pick order (unsorted, nested).

    Each step adds the candidate whose own-voltage alarms cover the
    most not-yet-covered emergency samples.  Gain ties prefer the
    worst-noise candidate; remaining ties (equal gain *and* equal
    training minimum) go to the lower candidate index.  When no
    candidate adds coverage, the order continues with the worst-noise
    ranking of the unpicked candidates (Eagle-Eye's noise-seeking
    preference), so the first q entries are always the budget-q greedy
    solution.

    Parameters
    ----------
    X:
        ``(N, M)`` candidate voltages.
    emergency:
        ``(N,)`` ground-truth "FA emergency exists" flags.
    n_sensors:
        Number of picks to rank (Q).
    threshold:
        Alarm threshold in volts.

    Returns
    -------
    np.ndarray
        ``(Q,)`` candidate indices in pick order, best first.
    """
    X = np.asarray(X, dtype=float)
    check_integer(n_sensors, "n_sensors", minimum=1)
    check_positive(threshold, "threshold")
    if X.ndim != 2:
        raise ValueError("X must be (N, M)")
    n_samples, n_candidates = X.shape
    if n_sensors > n_candidates:
        raise ValueError(
            f"cannot select {n_sensors} sensors from {n_candidates} candidates"
        )
    emergency = np.asarray(emergency, dtype=bool)
    if emergency.shape != (n_samples,):
        raise ValueError("emergency must be (N,)")

    detects = X < threshold  # (N, M): sensor m alarms in sample n
    worst_noise = X.min(axis=0)  # tie-break key: lower = noisier
    uncovered = emergency.copy()
    selected: List[int] = []
    available = np.ones(n_candidates, dtype=bool)

    for _ in range(n_sensors):
        gains = detects[uncovered].sum(axis=0).astype(float)
        gains[~available] = -1.0
        best_gain = gains.max()
        if best_gain <= 0:
            # No candidate covers any remaining emergency: fall back to
            # worst-noise ordering among the available candidates.
            order = np.argsort(worst_noise, kind="stable")
            fill = [int(m) for m in order if available[m]]
            needed = n_sensors - len(selected)
            for m in fill[:needed]:
                selected.append(m)
                available[m] = False
            break
        # Among max-gain candidates prefer the worst-noise one (argmin
        # returns the first minimum, so double ties go to the lower
        # index).
        tied = np.nonzero(gains == best_gain)[0]
        choice = int(tied[np.argmin(worst_noise[tied])])
        selected.append(choice)
        available[choice] = False
        uncovered &= ~detects[:, choice]

    return np.asarray(selected, dtype=np.int64)
