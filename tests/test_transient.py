"""Tests for repro.powergrid.transient (backward-Euler integration)."""

import numpy as np
import pytest

from repro.powergrid.grid import PowerGrid
from repro.powergrid.ir_analysis import solve_dc
from repro.powergrid.pads import Pad
from repro.powergrid.transient import TransientSolver


def rc_grid(r_pad=0.1, cap=1e-9, inductance=0.0):
    """Single load node fed through a pad: a clean first-order RC."""
    return PowerGrid(
        coords=np.array([[0.0, 0.0]]),
        edge_nodes=np.empty((0, 2), dtype=np.int64),
        edge_conductance=np.empty(0),
        node_cap=np.array([cap]),
        pads=[Pad(node=0, resistance=r_pad, inductance=inductance)],
        vdd=1.0,
    )


def mesh_grid():
    return PowerGrid.regular_mesh(2.0, 2.0, pitch=0.5, pad_pitch=1.0)


class TestConstruction:
    def test_requires_pads(self):
        grid = rc_grid()
        grid.pads = []
        with pytest.raises(ValueError, match="pad"):
            TransientSolver(grid, 1e-10)

    def test_rejects_bad_timestep(self):
        with pytest.raises(ValueError):
            TransientSolver(rc_grid(), 0.0)

    def test_rejects_two_pads_on_one_node(self):
        grid = rc_grid()
        grid.pads = [
            Pad(node=0, resistance=0.1, inductance=0.0),
            Pad(node=0, resistance=0.2, inductance=0.0),
        ]
        with pytest.raises(ValueError, match="share a grid node"):
            TransientSolver(grid, 1e-10)


class TestSteadyState:
    def test_holds_dc_operating_point(self):
        # Starting at the DC point of a constant load, stay there.
        grid = mesh_grid()
        load = np.full(grid.n_nodes, 0.02)
        v_dc, _ = solve_dc(grid, load)
        solver = TransientSolver(grid, 1e-10)
        result = solver.simulate(lambda s: load, n_steps=50)
        assert np.allclose(result.voltages[-1], v_dc, atol=1e-9)

    def test_zero_load_stays_at_vdd(self):
        grid = mesh_grid()
        solver = TransientSolver(grid, 1e-10)
        result = solver.simulate(
            lambda s: np.zeros(grid.n_nodes), n_steps=20
        )
        assert np.allclose(result.voltages, grid.vdd, atol=1e-12)


class TestRCStepResponse:
    def test_matches_analytic_exponential(self):
        # Resistive pad (no L) + node cap: step load => exponential
        # settling with tau = R*C toward V = vdd - R*I.
        r, c, i_load = 0.5, 1e-9, 0.1
        grid = rc_grid(r_pad=r, cap=c)
        h = 1e-11  # tau/50
        solver = TransientSolver(grid, h)
        n = 200
        result = solver.simulate(
            lambda s: np.array([i_load]),
            n_steps=n,
            v0=np.array([1.0]),
            pad_current0=np.array([0.0]),
        )
        tau = r * c
        t = result.times
        analytic = 1.0 - r * i_load * (1.0 - np.exp(-t / tau))
        assert np.allclose(result.trace_of(0), analytic, atol=2e-3)

    def test_inductor_causes_undershoot(self):
        # With series L, a current step rings below the resistive floor.
        r, c, i_load = 0.05, 1e-10, 1.0
        grid_l = rc_grid(r_pad=r, cap=c, inductance=2e-10)
        solver = TransientSolver(grid_l, 5e-12)
        res = solver.simulate(
            lambda s: np.array([i_load]),
            n_steps=1500,
            v0=np.array([1.0]),
            pad_current0=np.array([0.0]),
        )
        resistive_floor = 1.0 - r * i_load
        assert res.min_voltage() < resistive_floor - 0.01


class TestRecording:
    def test_record_every(self):
        grid = mesh_grid()
        solver = TransientSolver(grid, 1e-10)
        res = solver.simulate(lambda s: np.zeros(grid.n_nodes), n_steps=10, record_every=3)
        assert res.n_records == 4  # steps 0,3,6,9

    def test_record_subset_of_nodes(self):
        grid = mesh_grid()
        solver = TransientSolver(grid, 1e-10)
        res = solver.simulate(
            lambda s: np.zeros(grid.n_nodes), n_steps=5, record_nodes=[2, 7]
        )
        assert res.voltages.shape == (5, 2)
        assert np.array_equal(res.recorded_nodes, [2, 7])
        assert res.trace_of(7).shape == (5,)
        with pytest.raises(KeyError):
            res.trace_of(3)

    def test_warmup_discarded(self):
        grid = mesh_grid()
        solver = TransientSolver(grid, 1e-10)
        res = solver.simulate(
            lambda s: np.zeros(grid.n_nodes), n_steps=5, warmup_steps=7
        )
        assert res.n_records == 5
        # first recorded time is after the warmup steps
        assert res.times[0] == pytest.approx(8 * 1e-10)

    def test_load_array_form(self):
        grid = mesh_grid()
        solver = TransientSolver(grid, 1e-10)
        loads = np.zeros((10, grid.n_nodes))
        res = solver.simulate(loads, n_steps=10)
        assert res.n_records == 10

    def test_load_array_too_short_raises(self):
        grid = mesh_grid()
        solver = TransientSolver(grid, 1e-10)
        loads = np.zeros((5, grid.n_nodes))
        with pytest.raises(ValueError, match="steps"):
            solver.simulate(loads, n_steps=10)

    def test_rejects_bad_args(self):
        grid = mesh_grid()
        solver = TransientSolver(grid, 1e-10)
        with pytest.raises(ValueError):
            solver.simulate(lambda s: np.zeros(grid.n_nodes), n_steps=0)
        with pytest.raises(ValueError):
            solver.simulate(lambda s: np.zeros(grid.n_nodes), n_steps=5, record_every=0)
        with pytest.raises(ValueError):
            solver.simulate(
                lambda s: np.zeros(grid.n_nodes), n_steps=5, warmup_steps=-1
            )


class TestPhysicalSanity:
    def test_voltages_bounded_by_vdd_with_resistive_pads(self):
        # Without pad inductance, sink loads can never push any node
        # above VDD (pure RC network driven by a DC source).
        grid = PowerGrid.regular_mesh(
            2.0, 2.0, pitch=0.5, pad_pitch=1.0, pad_inductance=0.0
        )
        solver = TransientSolver(grid, 1e-10)
        rng = np.random.default_rng(3)
        res = solver.simulate(
            lambda s: rng.uniform(0, 0.05, grid.n_nodes), n_steps=100
        )
        assert res.voltages.max() <= grid.vdd + 1e-9

    def test_inductive_overshoot_on_load_release(self):
        # With pad inductance, releasing a heavy load overshoots VDD —
        # the classic di/dt overshoot event.
        grid = mesh_grid()
        solver = TransientSolver(grid, 1e-10)
        heavy = np.full(grid.n_nodes, 0.05)
        res = solver.simulate(
            lambda s: heavy if s < 50 else np.zeros(grid.n_nodes),
            n_steps=200,
        )
        assert res.voltages.max() > grid.vdd

    def test_deeper_load_deeper_droop(self):
        grid = mesh_grid()
        solver = TransientSolver(grid, 1e-10)
        light = solver.simulate(
            lambda s: np.full(grid.n_nodes, 0.01), n_steps=50
        ).min_voltage()
        heavy = solver.simulate(
            lambda s: np.full(grid.n_nodes, 0.05), n_steps=50
        ).min_voltage()
        assert heavy < light
