"""Classification of power-grid nodes against a floorplan.

The power grid covers the whole chip; each grid node is either inside a
function block (FA — a potential noise-critical node) or in the blank
area (BA — a sensor-candidate location, per the paper's assumption that
"all the nodes in the BA [are] candidate nodes for sensors").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.floorplan.floorplan import Floorplan
from repro.floorplan.geometry import Rect

__all__ = ["NodeClassification", "classify_nodes"]


@dataclass
class NodeClassification:
    """Result of mapping grid nodes onto a floorplan.

    Attributes
    ----------
    block_of_node:
        For each node index, the name of the containing block or ``None``
        for BA nodes.
    block_nodes:
        Node indices inside each block, keyed by block name.  Every block
        is present as a key (possibly with an empty list if the grid is
        too coarse to land a node inside it).
    ba_nodes:
        Sorted node indices in the blank area (the sensor candidates,
        the paper's M locations).
    core_of_node:
        For each node index, the index of the containing core or ``-1``.
    ba_nodes_by_core:
        BA candidate node indices grouped by core index; candidates not
        inside any core rect are under key ``-1``.
    """

    block_of_node: List[Optional[str]]
    block_nodes: Dict[str, List[int]]
    ba_nodes: List[int]
    core_of_node: List[int]
    ba_nodes_by_core: Dict[int, List[int]] = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        """Total number of classified grid nodes."""
        return len(self.block_of_node)

    @property
    def n_candidates(self) -> int:
        """Number of BA sensor candidates (the paper's M)."""
        return len(self.ba_nodes)

    def candidates_in_core(self, core_index: int) -> List[int]:
        """BA candidate node indices lying inside ``core_index``'s rect."""
        return list(self.ba_nodes_by_core.get(core_index, []))

    def empty_blocks(self) -> List[str]:
        """Names of blocks that contain no grid node (grid too coarse)."""
        return sorted(name for name, nodes in self.block_nodes.items() if not nodes)


def classify_nodes(
    floorplan: Floorplan, coords: Sequence[Sequence[float]]
) -> NodeClassification:
    """Classify grid node coordinates as FA (per block) or BA.

    Parameters
    ----------
    floorplan:
        The chip floorplan.
    coords:
        ``(n_nodes, 2)`` array of node (x, y) positions in mm.

    Returns
    -------
    NodeClassification
        The FA/BA partition of the nodes.

    Notes
    -----
    A node belongs to the first core rect that contains it, and to the
    first block in floorplan order that contains it among the blocks it
    may hit: a node inside core ``c``'s rect hits ``c``'s own blocks
    first, then the uncore ones; any other node only uncore ones.
    Containment is :meth:`Rect.contains`'s: lower/left edges inclusive,
    upper/right edges exclusive.  Each core rect is one boolean mask
    over all nodes, and each block one mask over the nodes it may hit.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise ValueError(f"coords must be (n, 2), got shape {coords.shape}")
    xs, ys = coords[:, 0], coords[:, 1]
    blocks = floorplan.blocks

    def inside(rect: Rect, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return (rect.x <= x) & (x < rect.x2) & (rect.y <= y) & (y < rect.y2)

    # Later writes win, so each group of rects goes in reverse order:
    # the first containing core rect, and the first eligible block, is
    # kept.  Uncore blocks go first, so a core's own block overrides
    # them, and each core's blocks see only that core's nodes.
    core_of = np.full(len(coords), -1, dtype=np.int64)
    for idx in reversed(range(len(floorplan.core_rects))):
        core_of[inside(floorplan.core_rects[idx], xs, ys)] = idx
    blocks_by_core: Dict[int, List[int]] = {}
    for j, blk in enumerate(blocks):
        blocks_by_core.setdefault(blk.core_index, []).append(j)
    hit = np.full(len(coords), -1, dtype=np.int64)
    for j in reversed(blocks_by_core.pop(-1, [])):
        hit[inside(blocks[j].rect, xs, ys)] = j
    for core, block_ids in blocks_by_core.items():
        nodes = np.flatnonzero(core_of == core)
        cx, cy = xs[nodes], ys[nodes]
        for j in reversed(block_ids):
            hit[nodes[inside(blocks[j].rect, cx, cy)]] = j

    names = [b.name for b in blocks]
    fa = np.flatnonzero(hit >= 0)
    fa_by_block = np.split(
        fa[np.argsort(hit[fa], kind="stable")],
        np.cumsum(np.bincount(hit[fa], minlength=len(blocks)))[:-1],
    )
    ba = np.flatnonzero(hit < 0)
    ba_core = core_of[ba]
    cores, first = np.unique(ba_core, return_index=True)
    return NodeClassification(
        block_of_node=[names[j] if j >= 0 else None for j in hit.tolist()],
        block_nodes={
            name: nodes.tolist() for name, nodes in zip(names, fa_by_block)
        },
        ba_nodes=ba.tolist(),
        core_of_node=core_of.tolist(),
        # Keyed in order of each core's first candidate node.
        ba_nodes_by_core={
            int(c): ba[ba_core == c].tolist() for c in cores[np.argsort(first)]
        },
    )
