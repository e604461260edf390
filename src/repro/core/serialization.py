"""Saving and loading fitted placement models.

The :class:`~repro.core.pipeline.PlacementModel` is the design
artifact: sensor locations plus the per-core prediction coefficients.
Design-time fitting takes minutes of simulation; the fitted model is a
few kilobytes.  This module persists it so runtime tooling (monitors,
firmware generators) can load it without the training stack.

Only what prediction needs is stored: per scope, the candidate/block
column maps, the selected indices, the sensor grid nodes, the OLS
coefficients/intercepts, and the centered OLS sufficient statistics
(so loaded models can still build leave-one-sensor-out fallback models
for runtime failover).  The group-lasso internals (norms, solver
state) are design-time diagnostics and are not round-tripped; loaded
models carry a minimal selection record.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

import numpy as np

from repro.core.group_lasso import GroupLassoResult
from repro.core.ols import LinearModel, OLSRefitStats
from repro.core.pipeline import PipelineConfig, PlacementModel, ScopeModel
from repro.core.predictor import VoltagePredictor
from repro.core.selection import SelectionResult

__all__ = ["save_placement", "load_placement"]

_FORMAT_VERSION = 1


def save_placement(path: str, model: PlacementModel) -> None:
    """Persist a fitted placement as a compressed ``.npz``.

    Parameters
    ----------
    path:
        Target file path; parent directories are created.
    model:
        The fitted placement.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)

    arrays: Dict[str, np.ndarray] = {}
    scopes_meta: List[Dict] = []
    for i, scope in enumerate(model.scopes):
        prefix = f"scope{i}_"
        arrays[prefix + "candidate_cols"] = scope.candidate_cols
        arrays[prefix + "block_cols"] = scope.block_cols
        arrays[prefix + "selected"] = scope.selection.selected
        arrays[prefix + "group_norms"] = scope.selection.group_norms
        arrays[prefix + "coef"] = scope.predictor.model.coef
        arrays[prefix + "intercept"] = scope.predictor.model.intercept
        if scope.predictor.sensor_nodes is not None:
            arrays[prefix + "sensor_nodes"] = scope.predictor.sensor_nodes
        stats = scope.predictor.refit_stats
        if stats is not None:
            arrays[prefix + "refit_x_mean"] = stats.x_mean
            arrays[prefix + "refit_f_mean"] = stats.f_mean
            arrays[prefix + "refit_sxx"] = stats.sxx
            arrays[prefix + "refit_sxf"] = stats.sxf
        scopes_meta.append(
            {
                "core_index": scope.core_index,
                "has_sensor_nodes": scope.predictor.sensor_nodes is not None,
                "has_refit_stats": stats is not None,
                "refit_n": stats.n if stats is not None else 0,
                "budget": scope.selection.budget,
                "threshold": scope.selection.threshold,
            }
        )

    meta = {
        "version": _FORMAT_VERSION,
        "n_blocks": model.n_blocks,
        "config": {
            "budget": model.config.budget,
            "threshold": model.config.threshold,
            "per_core": model.config.per_core,
        },
        "scopes": scopes_meta,
    }
    np.savez_compressed(
        path,
        meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
        **arrays,
    )


def load_placement(path: str) -> PlacementModel:
    """Load a placement saved by :func:`save_placement`.

    The returned model predicts and alarms exactly like the original;
    its selection records carry the stored norms with a placeholder
    group-lasso result (solver internals are not persisted).

    Raises
    ------
    ValueError
        For incompatible format versions.
    """
    with np.load(path) as npz:
        meta = json.loads(bytes(npz["meta"].tobytes()).decode("utf-8"))
        if meta.get("version") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported placement format version {meta.get('version')!r}"
            )
        # Older files also carry a solver "method" key, which is ignored.
        config = PipelineConfig(
            budget=meta["config"]["budget"],
            threshold=meta["config"]["threshold"],
            per_core=meta["config"]["per_core"],
        )
        scopes: List[ScopeModel] = []
        for i, scope_meta in enumerate(meta["scopes"]):
            prefix = f"scope{i}_"
            coef = np.asarray(npz[prefix + "coef"], dtype=float)
            intercept = np.asarray(npz[prefix + "intercept"], dtype=float)
            selected = np.asarray(npz[prefix + "selected"], dtype=np.int64)
            group_norms = np.asarray(npz[prefix + "group_norms"], dtype=float)
            sensor_nodes = (
                np.asarray(npz[prefix + "sensor_nodes"], dtype=np.int64)
                if scope_meta["has_sensor_nodes"]
                else None
            )
            refit_stats = None
            if scope_meta.get("has_refit_stats"):
                refit_stats = OLSRefitStats(
                    n=int(scope_meta["refit_n"]),
                    x_mean=np.asarray(npz[prefix + "refit_x_mean"], dtype=float),
                    f_mean=np.asarray(npz[prefix + "refit_f_mean"], dtype=float),
                    sxx=np.asarray(npz[prefix + "refit_sxx"], dtype=float),
                    sxf=np.asarray(npz[prefix + "refit_sxf"], dtype=float),
                )
            predictor = VoltagePredictor(
                model=LinearModel(coef=coef, intercept=intercept),
                selected=selected,
                sensor_nodes=sensor_nodes,
                refit_stats=refit_stats,
            )
            selection = SelectionResult(
                selected=selected,
                group_norms=group_norms,
                budget=scope_meta["budget"],
                threshold=scope_meta["threshold"],
                gl_result=GroupLassoResult(
                    coef=np.zeros((coef.shape[0], group_norms.shape[0])),
                    penalty=float("nan"),
                    budget=scope_meta["budget"],
                ),
            )
            scopes.append(
                ScopeModel(
                    core_index=scope_meta["core_index"],
                    candidate_cols=np.asarray(
                        npz[prefix + "candidate_cols"], dtype=np.int64
                    ),
                    block_cols=np.asarray(npz[prefix + "block_cols"], dtype=np.int64),
                    selection=selection,
                    predictor=predictor,
                )
            )
    return PlacementModel(
        scopes=scopes, config=config, n_blocks=int(meta["n_blocks"])
    )
