#!/usr/bin/env python
"""Applying the methodology to a custom chip design.

Shows the substrate APIs directly — building your own floorplan, power
grid and workloads instead of using the canned experiment setups — for
users who want to evaluate sensor placement on their own design:

* a 4-core chip with a custom block template and peripheral (wire-bond)
  power delivery,
* a DC IR-drop analysis of the grid,
* dataset assembly and placement fitting on the custom design.

Run with::

    python examples/custom_chip.py
"""

from __future__ import annotations

import numpy as np

from repro.core import PipelineConfig, fit_placement
from repro.experiments.data_generation import build_dataset
from repro.floorplan import (
    UnitKind,
    classify_nodes,
    make_xeon_e5_floorplan,
)
from repro.powergrid import (
    PowerGrid,
    TransientSolver,
    ir_drop_report,
    peripheral_pads,
)
from repro.voltage.maps import VoltageMapSet
from repro.voltage.sampling import sample_maps
from repro.workload import (
    CurrentMapper,
    McPATLikePowerModel,
    generate_activity,
    get_benchmark,
)


def main() -> None:
    # --- 1. custom floorplan: 4 cores, 8 blocks each ------------------
    template = [
        [UnitKind.L2_CACHE, UnitKind.L1_CACHE, UnitKind.LOAD_STORE, UnitKind.EXECUTION],
        [UnitKind.FRONTEND, UnitKind.OOO, UnitKind.EXECUTION, UnitKind.FPU],
    ]
    floorplan = make_xeon_e5_floorplan(
        core_cols=2,
        core_rows=2,
        core_width=3.0,
        core_height=2.0,
        channel=0.5,
        periphery=0.6,
        block_gap=0.14,
        template=template,
        name="custom-4core",
    )
    print(floorplan.summary())

    # --- 2. custom grid with peripheral power delivery ----------------
    grid = PowerGrid.regular_mesh(
        floorplan.chip.width,
        floorplan.chip.height,
        pitch=0.15,
        sheet_resistance=0.05,
        cap_per_mm2=1.2e-9,
        pads=[],  # replaced below
    )
    grid.pads = peripheral_pads(grid, spacing=1.5, resistance=0.015)
    print(grid.summary())

    # DC sanity check: average-power IR drop.
    classification = classify_nodes(floorplan, grid.coords)
    mapper = CurrentMapper(floorplan, classification, grid.n_nodes, vdd=grid.vdd)
    power_model = McPATLikePowerModel(floorplan)
    avg_activity = generate_activity(floorplan, get_benchmark("ferret"), 200, rng=1)
    avg_power = power_model.block_power(avg_activity).power.mean(axis=0)
    static_load = mapper.distribution @ (avg_power / grid.vdd)
    report = ir_drop_report(grid, static_load)
    print(
        f"DC IR drop: worst {1000 * report.worst_drop:.1f} mV at node "
        f"{report.worst_node}, mean {1000 * report.mean_drop:.1f} mV, "
        f"total {report.total_current:.1f} A"
    )

    # --- 3. simulate two workloads and assemble a dataset -------------
    solver = TransientSolver(grid, timestep=2e-10)
    volts, labels = [], []
    names = ["streamcluster", "lu"]
    for i, name in enumerate(names):
        traces = generate_activity(floorplan, get_benchmark(name), 400, rng=100 + i)
        load = mapper.bound(power_model.block_power(traces))
        result = solver.simulate(load, n_steps=350, warmup_steps=50)
        volts.append(result.voltages.astype(np.float32))
        labels.append(np.full(result.voltages.shape[0], i))
    maps = VoltageMapSet(
        voltages=np.vstack(volts),
        benchmark_of_sample=np.concatenate(labels),
        benchmark_names=names,
    )
    print(maps.summary())

    # Wrap into the chip-model container expected by build_dataset.
    from repro.experiments.data_generation import ChipModel
    from repro.experiments.config import ChipConfig

    chip = ChipModel(
        config=ChipConfig(core_cols=2, core_rows=2, template="small"),
        floorplan=floorplan,
        grid=grid,
        classification=classification,
        solver=solver,
        mapper=mapper,
        power_model=power_model,
    )
    dataset = build_dataset(chip, sample_maps(maps, 600, rng=3))
    print(dataset.summary())

    # --- 4. fit the placement on the custom design --------------------
    model = fit_placement(dataset, PipelineConfig(budget=1.0))
    print(
        f"\nplaced {model.n_sensors} sensors on {floorplan.name}: "
        f"{model.sensors_per_core()}"
    )
    for scope in model.scopes:
        for node in scope.predictor.sensor_nodes:
            x, y = grid.node_position(int(node))
            print(f"  core {scope.core_index}: sensor at ({x:.2f}, {y:.2f}) mm")


if __name__ == "__main__":
    main()
