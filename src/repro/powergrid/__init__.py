"""Power-grid modeling and simulation.

The electrical substrate of the reproduction: an RC mesh with R-L supply
pads, MNA matrix assembly, DC IR-drop analysis, and a sparse
backward-Euler transient solver that generates the full-chip voltage
traces from which training voltage maps are sampled.
"""

from repro.powergrid.grid import PowerGrid
from repro.powergrid.ir_analysis import IRReport, ir_drop_report, solve_dc
from repro.powergrid.pads import Pad, peripheral_pads, uniform_pad_array
from repro.powergrid.stamps import (
    pad_companion_conductance,
    pad_resistive_conductance,
    stamp_capacitance,
    stamp_grid_conductance,
)
from repro.powergrid.transient import TransientResult, TransientSolver
from repro.powergrid.variation import (
    with_cap_variation,
    with_open_branches,
    with_resistance_variation,
)

__all__ = [
    "PowerGrid",
    "IRReport",
    "ir_drop_report",
    "solve_dc",
    "Pad",
    "peripheral_pads",
    "uniform_pad_array",
    "pad_companion_conductance",
    "pad_resistive_conductance",
    "stamp_capacitance",
    "stamp_grid_conductance",
    "TransientResult",
    "TransientSolver",
    "with_cap_variation",
    "with_open_branches",
    "with_resistance_variation",
]
