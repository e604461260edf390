"""Mapping block power onto grid-node load currents.

Builds the sparse *distribution matrix* D so that a block-power vector
``p`` (W) becomes a node-current vector ``i = D @ p / VDD`` (A), with
each block's power spread uniformly over the grid nodes inside its
outline — the standard region-based load model for chip-level
power-grid analysis.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro.floorplan.candidates import NodeClassification
from repro.floorplan.floorplan import Floorplan
from repro.workload.power_model import BlockPowerTraces
from repro.utils.validation import check_positive

__all__ = [
    "build_distribution_matrix",
    "CurrentMapper",
    "TraceLoad",
    "TraceLoadBatch",
]


def build_distribution_matrix(
    floorplan: Floorplan,
    classification: NodeClassification,
    n_nodes: int,
) -> sp.csr_matrix:
    """Build the ``(n_nodes, n_blocks)`` power-distribution matrix.

    Entry ``(i, j)`` is ``1 / |nodes(block_j)|`` when node ``i`` lies in
    block ``j`` and 0 otherwise, so column sums are exactly 1 and total
    chip current is conserved.

    Parameters
    ----------
    floorplan:
        The floorplan (defines block column order).
    classification:
        Node classification of the grid against this floorplan.
    n_nodes:
        Number of grid nodes (rows).

    Raises
    ------
    ValueError
        If any block contains no grid node — then its power would be
        silently dropped; use a finer grid pitch instead.
    """
    empty = classification.empty_blocks()
    if empty:
        raise ValueError(
            f"{len(empty)} block(s) contain no grid node (grid too coarse): "
            f"{', '.join(empty[:5])}..."
            if len(empty) > 5
            else f"blocks without grid nodes: {', '.join(empty)}"
        )
    rows = []
    cols = []
    vals = []
    for j, block in enumerate(floorplan.blocks):
        nodes = classification.block_nodes[block.name]
        share = 1.0 / len(nodes)
        for node in nodes:
            rows.append(node)
            cols.append(j)
            vals.append(share)
    return sp.csr_matrix(
        (vals, (rows, cols)), shape=(n_nodes, len(floorplan.blocks))
    )


class TraceLoad:
    """A stateless, picklable load: one benchmark's node-current trace.

    Bundles the distribution matrix, one benchmark's block-power array
    and VDD, so it can be handed to either
    :meth:`TransientSolver.simulate` (via :meth:`__call__`) or
    :meth:`TransientSolver.simulate_many` (via
    :meth:`currents_between`, which converts a whole step range with a
    single sparse-dense matmul instead of one matvec per step).

    Steps past the end of the trace clamp to the last step.
    """

    __slots__ = ("distribution", "power", "vdd")

    def __init__(
        self, distribution: sp.csr_matrix, power: np.ndarray, vdd: float
    ) -> None:
        check_positive(vdd, "vdd")
        power = np.asarray(power, dtype=float)
        if power.ndim != 2 or power.shape[1] != distribution.shape[1]:
            raise ValueError(
                f"power must be (n_steps, {distribution.shape[1]}), "
                f"got {power.shape}"
            )
        self.distribution = distribution
        self.power = power
        self.vdd = float(vdd)

    @property
    def n_steps(self) -> int:
        """Steps available in the power trace."""
        return self.power.shape[0]

    def currents_at(self, step: int) -> np.ndarray:
        """Node sink currents (A) for ``step`` (clamped to the trace)."""
        p = self.power[min(step, self.power.shape[0] - 1)]
        return self.distribution @ (p / self.vdd)

    def __call__(self, step: int) -> np.ndarray:
        """Alias for :meth:`currents_at` (TransientSolver load API)."""
        return self.currents_at(step)

    def currents_between(self, start: int, stop: int) -> np.ndarray:
        """Node currents for steps ``[start, stop)`` as one matmul.

        Returns a ``(stop - start, n_nodes)`` array.  CSR matrix-matrix
        products accumulate each output column in the same order as the
        matvec, so each row is bit-identical to
        ``currents_at(step)``.
        """
        if stop <= start:
            raise ValueError(f"empty step range [{start}, {stop})")
        rows = np.minimum(
            np.arange(start, stop), self.power.shape[0] - 1
        )
        p = self.power[rows] / self.vdd
        return np.ascontiguousarray((self.distribution @ p.T).T)


class TraceLoadBatch:
    """All benchmarks' loads fused for lockstep simulation.

    Wraps :class:`TraceLoad` objects that share one distribution matrix
    and VDD, and converts a step range of *every* benchmark with a
    single sparse-dense matmul (:meth:`currents_chunk`) — the chunk
    provider protocol of
    :meth:`repro.powergrid.transient.TransientSolver.simulate_many`.
    Indexing (``batch[b]``) still yields the individual loads, which
    the solver uses for per-benchmark DC initial states.
    """

    __slots__ = ("loads", "distribution", "vdd")

    def __init__(self, loads: Sequence[TraceLoad]) -> None:
        loads = list(loads)
        if not loads:
            raise ValueError("TraceLoadBatch requires at least one load")
        first = loads[0]
        for load in loads[1:]:
            if load.distribution is not first.distribution:
                raise ValueError(
                    "all loads in a batch must share one distribution matrix"
                )
            if load.vdd != first.vdd:
                raise ValueError("all loads in a batch must share one vdd")
        self.loads = loads
        self.distribution = first.distribution
        self.vdd = first.vdd

    def __len__(self) -> int:
        return len(self.loads)

    def __getitem__(self, index: int) -> TraceLoad:
        return self.loads[index]

    def currents_chunk(self, start: int, stop: int) -> np.ndarray:
        """Node currents of all loads for steps ``[start, stop)``.

        Returns a ``(n_nodes, (stop - start) * n_loads)`` array whose
        column ``s * n_loads + b`` is load ``b`` at step ``start + s``.
        CSR matrix-matrix products accumulate every output column in
        matvec order, so each column is bit-identical to the
        corresponding ``loads[b].currents_at(step)``.
        """
        if stop <= start:
            raise ValueError(f"empty step range [{start}, {stop})")
        n_b = len(self.loads)
        steps = np.arange(start, stop)
        stacked = np.empty((self.distribution.shape[1], (stop - start) * n_b))
        for b, load in enumerate(self.loads):
            rows = np.minimum(steps, load.power.shape[0] - 1)
            stacked[:, b::n_b] = (load.power[rows] / self.vdd).T
        return self.distribution @ stacked


class CurrentMapper:
    """Converts block-power traces into node-current loads.

    Holds the distribution matrix of one chip; :meth:`bound` packages a
    benchmark's power traces as a :class:`TraceLoad` that
    :meth:`repro.powergrid.transient.TransientSolver.simulate` (and
    ``simulate_many``) consume step by step, avoiding the memory cost
    of materializing the full ``(n_steps, n_nodes)`` current array.

    Parameters
    ----------
    floorplan, classification, n_nodes:
        See :func:`build_distribution_matrix`.
    vdd:
        Supply voltage used for the P = V*I conversion.  Using nominal
        VDD (rather than instantaneous node voltage) linearizes the load
        — the standard constant-current load model.
    """

    def __init__(
        self,
        floorplan: Floorplan,
        classification: NodeClassification,
        n_nodes: int,
        vdd: float = 1.0,
    ) -> None:
        check_positive(vdd, "vdd")
        self.vdd = vdd
        self.distribution = build_distribution_matrix(
            floorplan, classification, n_nodes
        )

    def bound(self, traces: BlockPowerTraces) -> TraceLoad:
        """Package ``traces`` as a stateless, picklable :class:`TraceLoad`.

        The mapper itself stays untouched, so one mapper serves every
        benchmark of a lockstep batch (the batched generation path
        depends on that).
        """
        return TraceLoad(self.distribution, traces.power, self.vdd)
