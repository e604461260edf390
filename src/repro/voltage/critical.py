"""Noise-critical node identification.

The paper monitors, for each function block, "one noise critical node
... which has the worst noise during a sampling simulation period".
This module picks that node per block from simulated voltage maps.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.floorplan.candidates import NodeClassification

__all__ = ["select_critical_nodes"]


def select_critical_nodes(
    voltages: np.ndarray,
    classification: NodeClassification,
) -> Dict[str, int]:
    """Pick the worst-noise node inside each block.

    The criterion is the lowest voltage reached across all provided
    maps (deepest droop), matching the paper's setup.

    Parameters
    ----------
    voltages:
        ``(n_samples, n_nodes)`` sampled voltage maps covering all grid
        nodes.
    classification:
        FA/BA node classification for the same grid.

    Returns
    -------
    dict
        ``block name -> grid node index`` of that block's critical node.

    Raises
    ------
    ValueError
        If any block has no grid nodes.
    """
    voltages = np.asarray(voltages)
    if voltages.ndim != 2:
        raise ValueError("voltages must be (n_samples, n_nodes)")
    if voltages.shape[1] != classification.n_nodes:
        raise ValueError(
            f"voltages cover {voltages.shape[1]} nodes but classification "
            f"has {classification.n_nodes}"
        )
    empty = classification.empty_blocks()
    if empty:
        raise ValueError(f"blocks without grid nodes: {', '.join(empty[:5])}")

    worst = voltages.min(axis=0)
    critical: Dict[str, int] = {}
    for name, nodes in classification.block_nodes.items():
        nodes_arr = np.asarray(nodes, dtype=np.int64)
        critical[name] = int(nodes_arr[np.argmin(worst[nodes_arr])])
    return critical

