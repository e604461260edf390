"""Tests for repro.workload.current_map."""

import numpy as np
import pytest

from repro.floorplan.candidates import classify_nodes
from repro.powergrid.grid import PowerGrid
from repro.workload.current_map import CurrentMapper, build_distribution_matrix
from repro.workload.power_model import BlockPowerTraces


@pytest.fixture(scope="module")
def chip(small_floorplan):
    grid = PowerGrid.regular_mesh(
        small_floorplan.chip.width, small_floorplan.chip.height, pitch=0.2
    )
    cls = classify_nodes(small_floorplan, grid.coords)
    return small_floorplan, grid, cls


class TestDistributionMatrix:
    def test_columns_sum_to_one(self, chip):
        fp, grid, cls = chip
        D = build_distribution_matrix(fp, cls, grid.n_nodes)
        col_sums = np.asarray(D.sum(axis=0)).ravel()
        assert np.allclose(col_sums, 1.0)

    def test_shape(self, chip):
        fp, grid, cls = chip
        D = build_distribution_matrix(fp, cls, grid.n_nodes)
        assert D.shape == (grid.n_nodes, fp.n_blocks)

    def test_only_block_nodes_loaded(self, chip):
        fp, grid, cls = chip
        D = build_distribution_matrix(fp, cls, grid.n_nodes)
        loaded = np.asarray(D.sum(axis=1)).ravel() > 0
        for node in cls.ba_nodes:
            assert not loaded[node]

    def test_raises_on_empty_block(self, chip):
        fp, grid, cls = chip
        # Coarse classification: a single far-away node sees no blocks.
        sparse_cls = classify_nodes(fp, [[0.01, 0.01]])
        with pytest.raises(ValueError, match="grid too coarse|without grid nodes"):
            build_distribution_matrix(fp, sparse_cls, 1)


class TestCurrentMapper:
    def make_power(self, fp, n_steps=5, watts=2.0):
        return BlockPowerTraces(
            power=np.full((n_steps, fp.n_blocks), watts),
            block_names=[b.name for b in fp.blocks],
            benchmark="synthetic",
        )

    def test_total_current_conserved(self, chip):
        fp, grid, cls = chip
        mapper = CurrentMapper(fp, cls, grid.n_nodes, vdd=1.0)
        load = mapper.bound(self.make_power(fp, watts=2.0))
        currents = load.currents_at(0)
        assert currents.sum() == pytest.approx(2.0 * fp.n_blocks)

    def test_vdd_scaling(self, chip):
        fp, grid, cls = chip
        mapper = CurrentMapper(fp, cls, grid.n_nodes, vdd=0.5)
        load = mapper.bound(self.make_power(fp, watts=1.0))
        assert load.currents_at(0).sum() == pytest.approx(fp.n_blocks / 0.5)

    def test_callable_interface(self, chip):
        fp, grid, cls = chip
        load = CurrentMapper(fp, cls, grid.n_nodes).bound(self.make_power(fp))
        assert np.array_equal(load(3), load.currents_at(3))

    def test_step_clamped_to_last(self, chip):
        fp, grid, cls = chip
        load = CurrentMapper(fp, cls, grid.n_nodes).bound(
            self.make_power(fp, n_steps=4)
        )
        assert np.array_equal(load.currents_at(100), load.currents_at(3))

    def test_bind_shape_check(self, chip):
        fp, grid, cls = chip
        mapper = CurrentMapper(fp, cls, grid.n_nodes)
        bad = BlockPowerTraces(
            power=np.ones((3, fp.n_blocks + 1)),
            block_names=["x"] * (fp.n_blocks + 1),
            benchmark="bad",
        )
        with pytest.raises(ValueError, match="power must be"):
            mapper.bound(bad)
