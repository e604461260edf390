"""Zero-mean / unit-variance normalization (paper Section 2.2).

Group lasso requires the candidate voltages x and critical voltages f
to be normalized before fitting; :class:`Standardizer` performs the
forward transform and the inverse needed to recover physical voltages
from predictions.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["Standardizer"]


class Standardizer:
    """Column-wise standardization to zero mean and unit variance.

    Columns with (near-)zero variance are left at unit scale and
    reported through :attr:`constant_columns`; they carry no
    information for the regression and would otherwise blow up the
    transform.

    Parameters
    ----------
    eps:
        Variance floor below which a column is treated as constant.
    """

    def __init__(self, eps: float = 1e-12) -> None:
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.eps = eps
        self.mean_: Optional[np.ndarray] = None
        self.scale_: Optional[np.ndarray] = None
        self.constant_columns: Optional[np.ndarray] = None

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self.mean_ is not None

    def fit(self, data: np.ndarray) -> "Standardizer":
        """Estimate per-column mean and standard deviation.

        Parameters
        ----------
        data:
            ``(n_samples, n_columns)`` training matrix.
        """
        data = np.asarray(data, dtype=float)
        if data.ndim != 2:
            raise ValueError("data must be 2-D (n_samples, n_columns)")
        if data.shape[0] < 2:
            raise ValueError("need at least 2 samples to standardize")
        self.mean_ = data.mean(axis=0)
        std = data.std(axis=0)
        self.constant_columns = std < np.sqrt(self.eps)
        scale = std.copy()
        scale[self.constant_columns] = 1.0
        self.scale_ = scale
        return self

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError("Standardizer is not fitted; call fit() first")

    def transform(self, data: np.ndarray) -> np.ndarray:
        """Normalize ``data`` with the fitted statistics."""
        self._require_fitted()
        data = np.asarray(data, dtype=float)
        if data.shape[-1] != self.mean_.shape[0]:
            raise ValueError(
                f"data has {data.shape[-1]} columns, expected {self.mean_.shape[0]}"
            )
        # In place on the centred copy: the same division on the same
        # values as ``(data - mean) / scale``, without a second
        # data-sized temporary.
        out = data - self.mean_
        out /= self.scale_
        return out

    def fit_transform(self, data: np.ndarray) -> np.ndarray:
        """Fit on ``data`` and return its normalized version."""
        return self.fit(data).transform(data)

    def inverse_transform(self, normalized: np.ndarray) -> np.ndarray:
        """Map normalized values back to physical units."""
        self._require_fitted()
        normalized = np.asarray(normalized, dtype=float)
        if normalized.shape[-1] != self.mean_.shape[0]:
            raise ValueError(
                f"data has {normalized.shape[-1]} columns, "
                f"expected {self.mean_.shape[0]}"
            )
        return normalized * self.scale_ + self.mean_
