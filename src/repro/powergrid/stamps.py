"""Modified-nodal-analysis (MNA) matrix assembly.

Builds the sparse conductance (G) and capacitance (C) matrices for a
:class:`~repro.powergrid.grid.PowerGrid`.  Pad branches are *not* folded
into G here because their companion-model conductance depends on the
integration timestep; the transient and DC solvers stamp pads
themselves.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.powergrid.grid import PowerGrid

__all__ = [
    "stamp_grid_conductance",
    "stamp_capacitance",
    "pad_companion_conductance",
    "pad_resistive_conductance",
]


def stamp_grid_conductance(grid: "PowerGrid") -> sp.csc_matrix:
    """Assemble the branch-conductance Laplacian G (n x n, CSC).

    Each branch of conductance ``g`` between nodes ``a`` and ``b``
    contributes ``+g`` to both diagonal entries and ``-g`` to the two
    off-diagonal entries — the standard resistor stamp.
    """
    n = grid.n_nodes
    a = grid.edge_nodes[:, 0]
    b = grid.edge_nodes[:, 1]
    g = grid.edge_conductance
    rows = np.concatenate([a, b, a, b])
    cols = np.concatenate([a, b, b, a])
    vals = np.concatenate([g, g, -g, -g])
    return sp.csc_matrix((vals, (rows, cols)), shape=(n, n))


def stamp_capacitance(grid: "PowerGrid") -> sp.csc_matrix:
    """Assemble the diagonal node-capacitance matrix C (n x n, CSC).

    Decap is modeled node-to-ground on the supply net: on-die decoupling
    capacitors hold the local rail at its operating point and supply
    charge during fast current transients.
    """
    return sp.diags(grid.node_cap, format="csc")


def pad_companion_conductance(grid: "PowerGrid", h: float) -> np.ndarray:
    """Backward-Euler companion conductance for each pad's series R-L.

    Discretizing ``v_pkg = R*i + L*di/dt`` with backward Euler turns the
    pad branch into a conductance ``g_eq = 1 / (R + L/h)`` from the pad
    node to the ideal supply, plus a history current handled by the
    transient solver.

    Parameters
    ----------
    grid:
        The power grid whose pads to stamp.
    h:
        Integration timestep in seconds.

    Returns
    -------
    np.ndarray
        ``(n_pads,)`` equivalent conductances.
    """
    if h <= 0:
        raise ValueError(f"timestep must be positive, got {h}")
    return np.array([1.0 / (p.resistance + p.inductance / h) for p in grid.pads])


def pad_resistive_conductance(grid: "PowerGrid") -> np.ndarray:
    """DC (resistive-only) pad conductances, ``1/R`` per pad.

    Used by the IR-drop analysis where inductors are shorts.
    """
    return np.array([1.0 / p.resistance for p in grid.pads])
