"""Tests for repro.powergrid.variation (grid variation/degradation)."""

import numpy as np
import pytest

from repro.powergrid.grid import PowerGrid
from repro.powergrid.ir_analysis import solve_dc
from repro.powergrid.variation import (
    with_cap_variation,
    with_open_branches,
    with_resistance_variation,
)


@pytest.fixture()
def grid():
    return PowerGrid.regular_mesh(3.0, 2.0, pitch=0.5, pad_pitch=1.0)


class TestResistanceVariation:
    def test_input_not_mutated(self, grid):
        before = grid.edge_conductance.copy()
        with_resistance_variation(grid, 0.2, rng=0)
        assert np.array_equal(grid.edge_conductance, before)

    def test_zero_sigma_identity(self, grid):
        varied = with_resistance_variation(grid, 0.0, rng=0)
        assert np.allclose(varied.edge_conductance, grid.edge_conductance)

    def test_spread_matches_sigma(self, grid):
        varied = with_resistance_variation(grid, 0.3, rng=1)
        logs = np.log(grid.edge_conductance / varied.edge_conductance)
        assert abs(logs.std() - 0.3) < 0.08

    def test_still_solvable(self, grid):
        varied = with_resistance_variation(grid, 0.5, rng=2)
        v, _ = solve_dc(varied, np.full(varied.n_nodes, 0.01))
        assert np.all(np.isfinite(v))

    def test_deterministic(self, grid):
        a = with_resistance_variation(grid, 0.2, rng=7)
        b = with_resistance_variation(grid, 0.2, rng=7)
        assert np.array_equal(a.edge_conductance, b.edge_conductance)

    def test_rejects_negative_sigma(self, grid):
        with pytest.raises(ValueError):
            with_resistance_variation(grid, -0.1)


class TestOpenBranches:
    def test_branch_count_reduced(self, grid):
        degraded = with_open_branches(grid, 0.1, rng=0)
        expected = grid.n_edges - int(round(0.1 * grid.n_edges))
        assert degraded.n_edges == expected

    def test_zero_fraction_identity(self, grid):
        degraded = with_open_branches(grid, 0.0, rng=0)
        assert degraded.n_edges == grid.n_edges

    def test_degradation_deepens_droop(self, grid):
        load = np.full(grid.n_nodes, 0.02)
        v_nom, _ = solve_dc(grid, load)
        degraded = with_open_branches(grid, 0.15, rng=3)
        v_deg, _ = solve_dc(degraded, load)
        assert v_deg.min() <= v_nom.min() + 1e-12

    def test_rejects_excessive_fraction(self, grid):
        with pytest.raises(ValueError):
            with_open_branches(grid, 0.6)


class TestCapVariation:
    def test_caps_scaled(self, grid):
        varied = with_cap_variation(grid, 0.2, rng=0)
        assert varied.node_cap.shape == grid.node_cap.shape
        # Caps are ~1e-10 F: compare with zero absolute tolerance.
        assert not np.allclose(varied.node_cap, grid.node_cap, atol=0.0)
        assert np.all(varied.node_cap > 0)

    def test_total_roughly_preserved(self, grid):
        varied = with_cap_variation(grid, 0.1, rng=1)
        assert varied.total_decap == pytest.approx(grid.total_decap, rel=0.1)


class TestPlacementRobustness:
    def test_placement_survives_moderate_variation(self, tiny_data):
        # A placement fitted on the nominal grid must keep predicting
        # on a +-10% resistance-varied grid within a small degradation.
        from repro.core import PipelineConfig, fit_placement
        from repro.powergrid.transient import TransientSolver
        from repro.voltage.metrics import mean_relative_error
        from repro.workload import (
            McPATLikePowerModel,
            generate_activity,
            get_benchmark,
        )

        chip = tiny_data.chip
        model = fit_placement(tiny_data.train, PipelineConfig(budget=1.0))
        err_nominal = mean_relative_error(
            model.predict(tiny_data.eval.X), tiny_data.eval.F
        )

        varied = with_resistance_variation(chip.grid, 0.1, rng=9)
        solver = TransientSolver(varied, chip.config.timestep)
        traces = generate_activity(
            chip.floorplan, get_benchmark("x264"), 150, rng=55
        )
        load = chip.mapper.bound(
            McPATLikePowerModel(chip.floorplan).block_power(traces)
        )
        result = solver.simulate(load, n_steps=100, warmup_steps=50)
        X = result.voltages[:, tiny_data.train.candidate_nodes]
        F = result.voltages[:, tiny_data.train.critical_nodes]
        err_varied = mean_relative_error(model.predict(X), F)
        assert err_varied < 10 * max(err_nominal, 1e-4)
