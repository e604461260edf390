"""Voltage-emergency detection.

An emergency is a supply voltage falling below the safe noise margin
(the paper uses 0.85 V with VDD = 1.0 V).  This module provides the
thresholding primitives shared by the proposed approach, the Eagle-Eye
baseline, and the error-rate metrics.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive

__all__ = ["emergency_matrix", "any_emergency"]


def emergency_matrix(voltages: np.ndarray, threshold: float) -> np.ndarray:
    """Element-wise emergency mask: ``voltages < threshold``.

    Parameters
    ----------
    voltages:
        Voltage array of any shape (V).
    threshold:
        Threshold in volts (not a fraction).
    """
    check_positive(threshold, "threshold")
    return np.asarray(voltages) < threshold


def any_emergency(voltages: np.ndarray, threshold: float) -> np.ndarray:
    """Per-sample (row) emergency flag for a ``(n_samples, k)`` array.

    Returns ``(n_samples,)`` booleans: True when any monitored location
    is below ``threshold`` in that sample — the chip-level "there is an
    emergency somewhere in FA" state used in the Table 2 comparison.
    """
    mask = emergency_matrix(voltages, threshold)
    if mask.ndim != 2:
        raise ValueError("voltages must be 2-D (n_samples, n_locations)")
    return mask.any(axis=1)
