"""Experiment Fig. 3: placement maps, proposed vs Eagle-Eye.

Reproduces the paper's Figure 3: with seven sensors available in one
core, Eagle-Eye clusters most of them around the (noisiest) execution
unit, while the proposed approach spreads sensors across the units
whose voltages it must predict — correlation-seeking rather than
noise-seeking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.baselines import PlacementConstraints, get_placer
from repro.core.lambda_sweep import fit_for_sensor_count
from repro.experiments.data_generation import GeneratedData
from repro.floorplan.blocks import UnitKind
from repro.utils.ascii_plot import scatter_grid

__all__ = ["Fig3Result", "run_fig3", "render_fig3"]


@dataclass
class Fig3Result:
    """Sensor locations of both approaches in one core.

    Attributes
    ----------
    core_index:
        The displayed core.
    n_sensors:
        Sensors per core used (paper: 7).
    proposed_nodes, eagle_eye_nodes:
        Grid node ids of each approach's sensors in this core.
    proposed_unit_counts, eagle_eye_unit_counts:
        How many of each approach's sensors sit nearest to each unit
        family — the quantitative form of the paper's clustering
        observation.
    noisiest_unit:
        The unit family whose blocks droop deepest (the paper's
        blue-colored execution unit).
    """

    core_index: int
    n_sensors: int
    proposed_nodes: np.ndarray
    eagle_eye_nodes: np.ndarray
    proposed_unit_counts: Dict[str, int]
    eagle_eye_unit_counts: Dict[str, int]
    noisiest_unit: str
    _render_ctx: Optional[dict] = None


def _nearest_unit(data: GeneratedData, node: int) -> UnitKind:
    """Unit family of the block nearest to a grid node."""
    x, y = data.chip.grid.node_position(node)
    best = None
    best_d = float("inf")
    for block in data.chip.floorplan.blocks:
        c = block.rect.center
        d = (c.x - x) ** 2 + (c.y - y) ** 2
        if d < best_d:
            best_d = d
            best = block
    assert best is not None
    return best.unit


def run_fig3(
    data: GeneratedData,
    n_sensors: int = 7,
    core_index: int = 0,
) -> Fig3Result:
    """Place ``n_sensors`` per core with both approaches; inspect one core.

    Parameters
    ----------
    data:
        Generated datasets.
    n_sensors:
        Sensors per core (paper: 7).
    core_index:
        The core whose placement is reported.
    """
    dataset = data.train
    threshold = data.chip.config.emergency_threshold

    proposed = fit_for_sensor_count(dataset, target_per_core=float(n_sensors))
    eagle = get_placer("eagle_eye").place(
        dataset,
        n_sensors,
        constraints=PlacementConstraints(emergency_threshold=threshold),
    )

    # Restrict to the displayed core.
    prop_scope = next(
        s for s in proposed.scopes if s.core_index == core_index
    )
    prop_nodes = dataset.candidate_nodes[prop_scope.selected_cols]
    ee_nodes = dataset.candidate_nodes[eagle.per_core_cols[core_index]]

    def unit_counts(nodes: np.ndarray) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for node in nodes:
            unit = _nearest_unit(data, int(node)).value
            counts[unit] = counts.get(unit, 0) + 1
        return counts

    # The noisiest unit: unit family of the deepest-drooping block.
    block_cols = np.nonzero(dataset.block_cores == core_index)[0]
    worst_block_col = block_cols[
        int(np.argmin(dataset.F[:, block_cols].min(axis=0)))
    ]
    noisiest = data.chip.floorplan.block(
        dataset.block_names[worst_block_col]
    ).unit.value

    return Fig3Result(
        core_index=core_index,
        n_sensors=n_sensors,
        proposed_nodes=np.asarray(prop_nodes, dtype=np.int64),
        eagle_eye_nodes=np.asarray(ee_nodes, dtype=np.int64),
        proposed_unit_counts=unit_counts(prop_nodes),
        eagle_eye_unit_counts=unit_counts(ee_nodes),
        noisiest_unit=noisiest,
        _render_ctx={"data": data},
    )


def render_fig3(result: Fig3Result) -> str:
    """ASCII placement maps for both approaches plus unit tallies."""
    ctx = result._render_ctx
    if ctx is None:
        raise RuntimeError("Fig3Result was created without render context")
    data: GeneratedData = ctx["data"]
    core_rect = data.chip.floorplan.core_rects[result.core_index]

    def core_map(sensor_nodes: np.ndarray, title: str) -> str:
        points: List[Tuple[float, float, str]] = []
        for block in data.chip.floorplan.blocks_in_core(result.core_index):
            # Sketch each block with its unit character on a sub-grid.
            r = block.rect
            for fx in (0.25, 0.5, 0.75):
                for fy in (0.3, 0.7):
                    points.append(
                        (
                            r.x + fx * r.width - core_rect.x,
                            r.y + fy * r.height - core_rect.y,
                            block.unit.display_char.lower(),
                        )
                    )
        for node in sensor_nodes:
            x, y = data.chip.grid.node_position(int(node))
            points.append((x - core_rect.x, y - core_rect.y, "X"))
        return scatter_grid(
            core_rect.width,
            core_rect.height,
            points,
            width=60,
            height=18,
            title=title,
        )

    legend = ", ".join(
        f"{k.display_char.lower()}={k.value}"
        for k in UnitKind
        if data.chip.floorplan.blocks_of_unit(k)
    )

    def tally(counts: Dict[str, int]) -> str:
        return ", ".join(f"{unit}: {n}" for unit, n in sorted(counts.items()))

    near_noisy_prop = result.proposed_unit_counts.get(result.noisiest_unit, 0)
    near_noisy_ee = result.eagle_eye_unit_counts.get(result.noisiest_unit, 0)
    return "\n\n".join(
        [
            f"Fig. 3 — {result.n_sensors} sensors in core "
            f"{result.core_index} (X = sensor, blocks lettered by unit; "
            f"{legend})",
            core_map(result.proposed_nodes, "Proposed (group lasso):"),
            f"  units: {tally(result.proposed_unit_counts)}",
            core_map(result.eagle_eye_nodes, "Eagle-Eye (worst-noise coverage):"),
            f"  units: {tally(result.eagle_eye_unit_counts)}",
            (
                f"noisiest unit = {result.noisiest_unit}; sensors near it: "
                f"Eagle-Eye {near_noisy_ee}/{result.n_sensors}, "
                f"proposed {near_noisy_prop}/{result.n_sensors}"
            ),
        ]
    )
