"""Pure-numpy droop regressor: a ridge readout over patch-pooled features.

:class:`PatchConvRegressor` fits closed-form ridge regression over the
feature matrix.  Its "convolution" lives in the feature extractor's
fixed Gaussian patch-pooling (each dynamic channel arrives at three
spatial scales); the model learns only the linear readout, exactly
like a one-layer CNN with frozen kernels.  Fast, and hard to overfit
on small training sweeps.

It standardizes features internally (the extractor mixes amperes,
millimetres and unitless knobs), is deterministic given its inputs,
and trains in one dense linear solve — no iterative optimizer, no
framework dependency.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.obs import span

__all__ = ["PatchConvRegressor"]


def _check_xy(X: np.ndarray, y: np.ndarray) -> None:
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise ValueError(f"y must be ({X.shape[0]},), got {y.shape}")
    if X.shape[0] == 0:
        raise ValueError("cannot fit on an empty training set")


class PatchConvRegressor:
    """Ridge readout over patch-pooled current-map features.

    Parameters
    ----------
    alpha:
        L2 penalty on the (standardized-space) weights.
    """

    kind = "patchconv"

    def __init__(self, alpha: float = 1e-3) -> None:
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        self.alpha = float(alpha)
        self._coef: Optional[np.ndarray] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "PatchConvRegressor":
        _check_xy(X, y)
        with span("surrogate.fit", model=self.kind, n_rows=X.shape[0]):
            self._mean = X.mean(axis=0)
            scale = X.std(axis=0)
            # Constant columns (e.g. a single-variant sweep) carry no
            # information; a unit scale keeps them harmlessly at zero.
            scale[scale == 0.0] = 1.0
            self._scale = scale
            Z = (X - self._mean) / scale
            self._y_mean = float(y.mean())
            yc = y - self._y_mean
            gram = Z.T @ Z
            gram[np.diag_indices_from(gram)] += self.alpha * Z.shape[0]
            self._coef = np.linalg.solve(gram, Z.T @ yc)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._coef is None:
            raise RuntimeError("fit() must be called before predict()")
        return ((X - self._mean) / self._scale) @ self._coef + self._y_mean
