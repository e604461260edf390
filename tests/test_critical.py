"""Tests for repro.voltage.critical."""

import numpy as np
import pytest

from repro.floorplan.candidates import NodeClassification
from repro.voltage.critical import select_critical_nodes


def make_classification():
    """4 nodes: blockA has nodes 0,1; blockB has node 2; node 3 is BA."""
    return NodeClassification(
        block_of_node=["A", "A", "B", None],
        block_nodes={"A": [0, 1], "B": [2]},
        ba_nodes=[3],
        core_of_node=[0, 0, 0, 0],
        ba_nodes_by_core={0: [3]},
    )


class TestSelectCriticalNodes:
    def test_picks_worst_noise_node(self):
        cls = make_classification()
        voltages = np.array(
            [
                [0.95, 0.90, 0.92, 0.99],
                [0.96, 0.85, 0.93, 0.98],  # node 1 dips lowest in A
            ]
        )
        critical = select_critical_nodes(voltages, cls)
        assert critical == {"A": 1, "B": 2}

    def test_rejects_shape_mismatch(self):
        cls = make_classification()
        with pytest.raises(ValueError):
            select_critical_nodes(np.ones((2, 7)), cls)

    def test_rejects_empty_block(self):
        cls = make_classification()
        cls.block_nodes["C"] = []
        with pytest.raises(ValueError, match="without grid nodes"):
            select_critical_nodes(np.ones((2, 4)), cls)

