"""Argument-validation helpers shared across the library.

These helpers centralize the defensive checks used at public API
boundaries so that error messages are uniform and informative.  They all
raise :class:`ValueError` (or :class:`TypeError` where appropriate) with a
message that names the offending argument.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "check_matrix",
    "check_vector",
    "check_integer",
]


def check_positive(value: float, name: str) -> float:
    """Validate that ``value`` is strictly positive and finite.

    Parameters
    ----------
    value:
        The numeric value to check.
    name:
        The argument name used in the error message.

    Returns
    -------
    float
        The validated value, unchanged.
    """
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(value: float, name: str) -> float:
    """Validate that ``value`` is >= 0 and finite."""
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_in_range(
    value: float,
    name: str,
    low: float,
    high: float,
    inclusive: bool = True,
) -> float:
    """Validate that ``value`` lies in ``[low, high]`` (or ``(low, high)``).

    Parameters
    ----------
    value:
        The numeric value to check.
    name:
        Argument name for the error message.
    low, high:
        Range bounds.
    inclusive:
        When True (default) the bounds themselves are allowed.
    """
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if inclusive:
        if not (low <= value <= high):
            raise ValueError(f"{name} must be in [{low}, {high}], got {value!r}")
    else:
        if not (low < value < high):
            raise ValueError(f"{name} must be in ({low}, {high}), got {value!r}")
    return value


def check_integer(value, name: str, minimum: Optional[int] = None) -> int:
    """Validate that ``value`` is an integer (optionally >= ``minimum``)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_matrix(
    arr,
    name: str,
    n_rows: Optional[int] = None,
    n_cols: Optional[int] = None,
) -> np.ndarray:
    """Validate a 2-D, finite, float array and return it as ``np.ndarray``.

    Parameters
    ----------
    arr:
        Array-like to validate.
    name:
        Argument name for error messages.
    n_rows, n_cols:
        Optional exact shape requirements.
    """
    arr = np.asarray(arr, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got {arr.ndim}-D shape {arr.shape}")
    if n_rows is not None and arr.shape[0] != n_rows:
        raise ValueError(f"{name} must have {n_rows} rows, got {arr.shape[0]}")
    if n_cols is not None and arr.shape[1] != n_cols:
        raise ValueError(f"{name} must have {n_cols} columns, got {arr.shape[1]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def check_vector(arr, name: str, length: Optional[int] = None) -> np.ndarray:
    """Validate a 1-D, finite, float array and return it as ``np.ndarray``."""
    arr = np.asarray(arr, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got {arr.ndim}-D shape {arr.shape}")
    if length is not None and arr.shape[0] != length:
        raise ValueError(f"{name} must have length {length}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr
