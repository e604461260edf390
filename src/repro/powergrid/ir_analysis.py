"""Static (DC) IR-drop analysis of the power grid.

Average-power IR maps and worst-drop reports.  The transient solver
does not call this module: ``TransientSolver.initial_state`` builds,
factorizes and caches the same DC system itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.powergrid.grid import PowerGrid
from repro.powergrid.stamps import pad_resistive_conductance, stamp_grid_conductance

__all__ = ["solve_dc", "IRReport", "ir_drop_report"]


def solve_dc(grid: PowerGrid, load: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Solve the DC operating point for static sink currents.

    At DC the pad inductors are shorts, so each pad contributes its
    resistive conductance from the node to the ideal supply.

    Parameters
    ----------
    grid:
        The power grid.
    load:
        ``(n_nodes,)`` sink currents in amperes (positive = drawn from
        the grid).

    Returns
    -------
    (voltages, pad_currents):
        Node voltages ``(n_nodes,)`` and per-pad branch currents
        ``(n_pads,)`` flowing from the supply into the grid.
    """
    load = np.asarray(load, dtype=float)
    if load.shape != (grid.n_nodes,):
        raise ValueError(f"load must be ({grid.n_nodes},), got {load.shape}")
    if not grid.pads:
        raise ValueError("DC analysis requires at least one pad")

    conductance = stamp_grid_conductance(grid)
    pad_nodes = np.array([p.node for p in grid.pads], dtype=np.int64)
    pad_g = pad_resistive_conductance(grid)
    pad_diag = np.zeros(grid.n_nodes)
    np.add.at(pad_diag, pad_nodes, pad_g)
    system = (conductance + sp.diags(pad_diag, format="csc")).tocsc()

    rhs = -load.copy()
    np.add.at(rhs, pad_nodes, pad_g * grid.vdd)
    voltages = spla.spsolve(system, rhs)
    pad_currents = pad_g * (grid.vdd - voltages[pad_nodes])
    return voltages, pad_currents


@dataclass(frozen=True)
class IRReport:
    """Summary of a DC IR-drop analysis.

    Attributes
    ----------
    worst_node:
        Node index with the largest drop.
    worst_drop:
        Largest drop ``vdd - v`` in volts.
    mean_drop:
        Average drop across all nodes (V).
    total_current:
        Total load current (A).
    voltages:
        Full node-voltage vector (V).
    """

    worst_node: int
    worst_drop: float
    mean_drop: float
    total_current: float
    voltages: np.ndarray


def ir_drop_report(grid: PowerGrid, load: np.ndarray) -> IRReport:
    """Run a DC solve and summarize the IR-drop picture.

    Parameters
    ----------
    grid:
        The power grid.
    load:
        ``(n_nodes,)`` static sink currents (A).
    """
    voltages, _ = solve_dc(grid, load)
    drops = grid.vdd - voltages
    worst = int(np.argmax(drops))
    return IRReport(
        worst_node=worst,
        worst_drop=float(drops[worst]),
        mean_drop=float(drops.mean()),
        total_current=float(np.asarray(load, dtype=float).sum()),
        voltages=voltages,
    )
