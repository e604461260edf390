"""Tests for repro.floorplan.candidates."""

import itertools

import numpy as np
import pytest

from repro.experiments.config import FAST_SETUP, PAPER_SETUP, ChipConfig
from repro.experiments.data_generation import build_chip
from repro.floorplan.candidates import NodeClassification, classify_nodes
from repro.floorplan.blocks import FunctionBlock, UnitKind
from repro.floorplan.floorplan import Floorplan
from repro.floorplan.geometry import Point, Rect


def tiny_plan():
    return Floorplan(
        chip=Rect(0, 0, 4, 2),
        blocks=[
            FunctionBlock("blk0", UnitKind.EXECUTION, Rect(0.5, 0.5, 1, 1), 0),
            FunctionBlock("blk1", UnitKind.L1_CACHE, Rect(2.5, 0.5, 1, 1), 0),
        ],
        core_rects=[Rect(0.25, 0.25, 3.5, 1.5)],
    )


class TestClassifyNodes:
    def test_partition_is_complete_and_disjoint(self):
        fp = tiny_plan()
        coords = [[x * 0.25, y * 0.25] for x in range(17) for y in range(9)]
        cls = classify_nodes(fp, coords)
        fa = {i for nodes in cls.block_nodes.values() for i in nodes}
        ba = set(cls.ba_nodes)
        assert fa.isdisjoint(ba)
        assert fa | ba == set(range(len(coords)))

    def test_block_membership(self):
        fp = tiny_plan()
        coords = [[1.0, 1.0], [3.0, 1.0], [0.1, 0.1]]
        cls = classify_nodes(fp, coords)
        assert cls.block_of_node[0] == "blk0"
        assert cls.block_of_node[1] == "blk1"
        assert cls.block_of_node[2] is None
        assert cls.block_nodes["blk0"] == [0]
        assert cls.ba_nodes == [2]

    def test_core_assignment(self):
        fp = tiny_plan()
        coords = [[1.0, 1.0], [0.1, 0.1]]
        cls = classify_nodes(fp, coords)
        assert cls.core_of_node[0] == 0
        assert cls.core_of_node[1] == -1

    def test_candidates_by_core(self):
        fp = tiny_plan()
        coords = [[2.0, 1.0], [0.05, 0.05]]  # first in core channel, second outside
        cls = classify_nodes(fp, coords)
        assert cls.candidates_in_core(0) == [0]
        assert cls.ba_nodes_by_core[-1] == [1]

    def test_empty_blocks_reported(self):
        fp = tiny_plan()
        cls = classify_nodes(fp, [[0.05, 0.05]])
        assert set(cls.empty_blocks()) == {"blk0", "blk1"}

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            classify_nodes(tiny_plan(), np.zeros((3, 3)))

    def test_counts(self):
        fp = tiny_plan()
        coords = [[1.0, 1.0], [3.0, 1.0], [0.1, 0.1], [3.9, 1.9]]
        cls = classify_nodes(fp, coords)
        assert cls.n_nodes == 4
        assert cls.n_candidates == 2


class TestAgainstRealFloorplan:
    def test_xeon_grid_classification(self, xeon_floorplan):
        # Regular grid at 0.2 mm must give every block at least one node
        # and every core a healthy candidate pool.
        xs = np.arange(0, xeon_floorplan.chip.width + 1e-9, 0.2)
        ys = np.arange(0, xeon_floorplan.chip.height + 1e-9, 0.2)
        coords = np.array([[x, y] for y in ys for x in xs])
        cls = classify_nodes(xeon_floorplan, coords)
        assert cls.empty_blocks() == []
        for core in range(xeon_floorplan.n_cores):
            assert len(cls.candidates_in_core(core)) > 50


def classify_nodes_reference(floorplan, coords):
    """The node-by-node loop over ``Rect.contains`` that the vectorized
    :func:`classify_nodes` replaced, kept verbatim as its reference."""
    coords = np.asarray(coords, dtype=float)

    block_of_node = []
    block_nodes = {b.name: [] for b in floorplan.blocks}
    ba_nodes = []
    core_of_node = []
    ba_nodes_by_core = {}

    # Pre-split blocks by core for the bounding-box early-out.
    blocks_by_core = {}
    for blk in floorplan.blocks:
        blocks_by_core.setdefault(blk.core_index, []).append(blk)

    for idx in range(coords.shape[0]):
        point = Point(float(coords[idx, 0]), float(coords[idx, 1]))
        core = floorplan.core_of_point(point)
        core_of_node.append(core)
        hit = None
        # Nodes inside a core rect can only hit that core's blocks;
        # others can only hit uncore blocks.
        for blk in blocks_by_core.get(core, []):
            if blk.rect.contains(point):
                hit = blk
                break
        if hit is None and core != -1:
            # A node in a core channel may still fall in an uncore block
            # overlaying the channel in exotic floorplans; check those too.
            for blk in blocks_by_core.get(-1, []):
                if blk.rect.contains(point):
                    hit = blk
                    break
        if hit is None and core == -1:
            for blk in blocks_by_core.get(-1, []):
                if blk.rect.contains(point):
                    hit = blk
                    break
        if hit is not None:
            block_of_node.append(hit.name)
            block_nodes[hit.name].append(idx)
        else:
            block_of_node.append(None)
            ba_nodes.append(idx)
            ba_nodes_by_core.setdefault(core, []).append(idx)

    return NodeClassification(
        block_of_node=block_of_node,
        block_nodes=block_nodes,
        ba_nodes=ba_nodes,
        core_of_node=core_of_node,
        ba_nodes_by_core=ba_nodes_by_core,
    )


def assert_same_classification(got, ref):
    """Equal in all five fields, including list order, dict key order
    and the Python types of the entries."""
    assert got.block_of_node == ref.block_of_node
    assert list(got.block_nodes.items()) == list(ref.block_nodes.items())
    assert got.ba_nodes == ref.ba_nodes
    assert got.core_of_node == ref.core_of_node
    assert list(got.ba_nodes_by_core.items()) == list(ref.ba_nodes_by_core.items())
    for value in (got.ba_nodes, got.core_of_node, *got.block_nodes.values(),
                  *got.ba_nodes_by_core.values(), list(got.ba_nodes_by_core)):
        assert all(type(v) is int for v in value)


def edge_points(rects):
    """Corners and edge midpoints of every rect, each coordinate also
    moved to its neighbouring float on either side."""

    def around(v):
        return (np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf))

    points = []
    for r in rects:
        for x in (r.x, r.x2, r.x + r.width / 2.0):
            for y in (r.y, r.y2, r.y + r.height / 2.0):
                points.extend(itertools.product(around(x), around(y)))
    return np.array(points)


def mixed_plan():
    """Two overlapping core rects (the strip x in [2, 2.25) belongs to
    core 0, the first), an uncore block straddling them, a core-1 block
    inside core 0's rect (never hit), a core-1 block half in the shared
    strip (hit only right of it) and an uncore block outside both."""
    return Floorplan(
        chip=Rect(0.0, 0.0, 4.0, 3.0),
        blocks=[
            FunctionBlock("c0_exe", UnitKind.EXECUTION, Rect(0.25, 0.25, 1.0, 1.0), 0),
            FunctionBlock("c1_in_c0", UnitKind.FPU, Rect(0.25, 1.5, 0.5, 0.25), 1),
            FunctionBlock("bridge", UnitKind.L2_CACHE, Rect(1.5, 1.0, 1.0, 0.5), -1),
            FunctionBlock("c1_edge", UnitKind.FPU, Rect(2.0, 1.625, 0.5, 0.25), 1),
            FunctionBlock("c1_l1", UnitKind.L1_CACHE, Rect(2.75, 0.25, 1.0, 0.5), 1),
            FunctionBlock("io", UnitKind.L2_CACHE, Rect(0.5, 2.25, 3.0, 0.5), -1),
        ],
        core_rects=[Rect(0.0, 0.0, 2.25, 2.0), Rect(2.0, 0.0, 2.0, 2.0)],
    )


#: The other chips that data is generated on, beside the paper and
#: fast profiles (which are also the e2e harness's full and quick
#: chips): the ``--datagen`` bench's small 2 x 2 (its quick run uses
#: the fast chip), the surrogate study's 4-core and 2-core xeon chips
#: at 0.04 and 0.1 mm, and the 1-core chip the e2e harness builds to
#: probe the kernel.
BENCH_CHIPS = [
    ChipConfig(core_cols=2, core_rows=2, template="small", pad_pitch=1.5),
    ChipConfig(core_cols=2, core_rows=2, template="xeon", grid_pitch=0.04),
    ChipConfig(core_cols=2, core_rows=1, template="xeon", grid_pitch=0.1),
    ChipConfig(core_cols=1, core_rows=1, template="small"),
]


class TestVectorizedMatchesLoop:
    @pytest.mark.parametrize(
        "config", [PAPER_SETUP.chip, FAST_SETUP.chip, *BENCH_CHIPS],
        ids=lambda c: f"{c.template}-{c.core_cols}x{c.core_rows}-{c.grid_pitch}",
    )
    def test_chip_grids(self, config):
        chip = build_chip(config)
        ref = classify_nodes_reference(chip.floorplan, chip.grid.coords)
        assert_same_classification(chip.classification, ref)

    def test_random_and_edge_points(self, xeon_floorplan):
        fp = xeon_floorplan
        rng = np.random.default_rng(11)
        random_points = rng.uniform(
            [-0.5, -0.5], [fp.chip.width + 0.5, fp.chip.height + 0.5], (4000, 2)
        )
        rects = fp.core_rects + [b.rect for b in fp.blocks]
        coords = np.vstack([random_points, edge_points(rects)])
        assert_same_classification(
            classify_nodes(fp, coords), classify_nodes_reference(fp, coords)
        )

    def test_eligibility_and_uncore_blocks(self):
        fp = mixed_plan()
        rng = np.random.default_rng(12)
        coords = np.vstack([
            rng.uniform([0.0, 0.0], [4.0, 3.0], (3000, 2)),
            edge_points(fp.core_rects + [b.rect for b in fp.blocks]),
        ])
        got = classify_nodes(fp, coords)
        assert_same_classification(got, classify_nodes_reference(fp, coords))
        assert got.block_nodes["c1_in_c0"] == []
        assert got.block_nodes["bridge"] and got.block_nodes["io"]
        edge_x = coords[got.block_nodes["c1_edge"], 0]
        assert edge_x.size and edge_x.min() >= 2.25
        assert set(got.ba_nodes_by_core) == {-1, 0, 1}

    @pytest.mark.parametrize("coords", [np.zeros((0, 2)), [[0.05, 0.05]]])
    def test_degenerate_inputs(self, coords):
        fp = mixed_plan()
        assert_same_classification(
            classify_nodes(fp, coords), classify_nodes_reference(fp, coords)
        )
