"""Training datasets: candidate voltages X and critical voltages F.

A :class:`VoltageDataset` holds the paper's two data matrices in
samples-first layout: ``X`` is ``(N, M)`` — voltages at the M blank-area
sensor candidates — and ``F`` is ``(N, K)`` — worst supply voltages at
the K noise-critical nodes in the function area — plus all the
provenance needed to drive per-core fitting and per-benchmark
evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

import numpy as np

from repro.utils.rng import RngLike, make_rng

__all__ = ["VoltageDataset"]


@dataclass
class VoltageDataset:
    """The paper's (X, F) training data with provenance.

    Attributes
    ----------
    X:
        ``(N, M)`` candidate-sensor voltages (V).
    F:
        ``(N, K)`` critical-node voltages (V).
    candidate_nodes:
        ``(M,)`` grid node index of each candidate column.
    candidate_cores:
        ``(M,)`` core index of each candidate (-1 = outside all cores).
    critical_nodes:
        ``(K,)`` grid node index of each critical-node column.
    block_names:
        ``(K,)`` block name per critical column.
    block_cores:
        ``(K,)`` core index per critical column.
    benchmark_of_sample:
        ``(N,)`` index into ``benchmark_names`` per sample row.
    benchmark_names:
        Benchmarks present in the dataset.
    vdd:
        Nominal supply voltage (V).
    """

    X: np.ndarray
    F: np.ndarray
    candidate_nodes: np.ndarray
    candidate_cores: np.ndarray
    critical_nodes: np.ndarray
    block_names: List[str]
    block_cores: np.ndarray
    benchmark_of_sample: np.ndarray
    benchmark_names: List[str]
    vdd: float = 1.0

    def __post_init__(self) -> None:
        # Keep float32 data at float32 (persisted datasets record their
        # storage precision); anything else coerces to float64.
        self.X = np.asarray(self.X)
        self.F = np.asarray(self.F)
        if self.X.dtype not in (np.float32, np.float64):
            self.X = np.asarray(self.X, dtype=float)
        if self.F.dtype not in (np.float32, np.float64):
            self.F = np.asarray(self.F, dtype=float)
        self.candidate_nodes = np.asarray(self.candidate_nodes, dtype=np.int64)
        self.candidate_cores = np.asarray(self.candidate_cores, dtype=np.int64)
        self.critical_nodes = np.asarray(self.critical_nodes, dtype=np.int64)
        self.block_cores = np.asarray(self.block_cores, dtype=np.int64)
        self.benchmark_of_sample = np.asarray(self.benchmark_of_sample, dtype=np.int64)
        if self.X.ndim != 2 or self.F.ndim != 2:
            raise ValueError("X and F must be 2-D")
        if self.X.shape[0] != self.F.shape[0]:
            raise ValueError("X and F must have the same number of samples")
        if self.candidate_nodes.shape[0] != self.X.shape[1]:
            raise ValueError("candidate_nodes must match X's column count")
        if self.candidate_cores.shape[0] != self.X.shape[1]:
            raise ValueError("candidate_cores must match X's column count")
        if self.critical_nodes.shape[0] != self.F.shape[1]:
            raise ValueError("critical_nodes must match F's column count")
        if len(self.block_names) != self.F.shape[1]:
            raise ValueError("block_names must match F's column count")
        if self.block_cores.shape[0] != self.F.shape[1]:
            raise ValueError("block_cores must match F's column count")
        if self.benchmark_of_sample.shape[0] != self.X.shape[0]:
            raise ValueError("benchmark_of_sample must match sample count")

    # ------------------------------------------------------------------
    # Shapes (paper notation)
    # ------------------------------------------------------------------
    @property
    def n_samples(self) -> int:
        """N — number of sampled voltage maps."""
        return self.X.shape[0]

    @property
    def n_candidates(self) -> int:
        """M — number of BA sensor candidates."""
        return self.X.shape[1]

    @property
    def n_blocks(self) -> int:
        """K — number of monitored critical nodes."""
        return self.F.shape[1]

    @property
    def core_ids(self) -> List[int]:
        """Sorted core indices present among the blocks."""
        return sorted(set(self.block_cores.tolist()))

    # ------------------------------------------------------------------
    # Subsetting
    # ------------------------------------------------------------------
    def core_view(self, core_index: int) -> Tuple[np.ndarray, np.ndarray]:
        """Column indices ``(candidate_cols, block_cols)`` of one core.

        The paper fits the placement per core: sensors of core ``c`` are
        selected from the BA candidates inside core ``c``'s outline to
        predict core ``c``'s blocks.
        """
        cand = np.nonzero(self.candidate_cores == core_index)[0]
        blocks = np.nonzero(self.block_cores == core_index)[0]
        return cand, blocks

    def scopes(
        self, per_core: bool = True
    ) -> List[Tuple[int, np.ndarray, np.ndarray]]:
        """``(core_index, candidate_cols, block_cols)`` of every fit scope.

        Per-core mode visits :attr:`core_ids` in order (each has at
        least one block, since the ids come from ``block_cores``); the
        global scope is ``core_index = -1`` over every column.  Shared
        by the group-lasso fit and every :class:`~repro.baselines.Placer`.

        Raises
        ------
        ValueError
            If a core has blocks but no sensor candidates.
        """
        if not per_core:
            return [
                (
                    -1,
                    np.arange(self.n_candidates, dtype=np.int64),
                    np.arange(self.n_blocks, dtype=np.int64),
                )
            ]
        specs = []
        for core in self.core_ids:
            candidate_cols, block_cols = self.core_view(core)
            if candidate_cols.size == 0:
                raise ValueError(
                    f"core {core} has {block_cols.size} blocks but no "
                    "sensor candidates; use a finer grid or global mode"
                )
            specs.append((core, candidate_cols, block_cols))
        return specs

    def subset_samples(self, rows: Sequence[int]) -> "VoltageDataset":
        """Dataset restricted to the given sample rows."""
        rows = np.asarray(rows, dtype=np.int64)
        return replace(
            self,
            X=self.X[rows],
            F=self.F[rows],
            benchmark_of_sample=self.benchmark_of_sample[rows],
        )

    def subset_benchmark(self, name: str) -> "VoltageDataset":
        """Dataset restricted to one benchmark's samples."""
        try:
            idx = self.benchmark_names.index(name)
        except ValueError:
            raise KeyError(f"unknown benchmark {name!r}") from None
        rows = np.nonzero(self.benchmark_of_sample == idx)[0]
        if rows.size == 0:
            raise KeyError(f"benchmark {name!r} has no samples in this dataset")
        return self.subset_samples(rows)

    def train_test_split(
        self, test_fraction: float = 0.25, rng: RngLike = None
    ) -> Tuple["VoltageDataset", "VoltageDataset"]:
        """Random row split into (train, test) datasets.

        Parameters
        ----------
        test_fraction:
            Fraction of samples assigned to the test set, in (0, 1).
        rng:
            Seed or generator.
        """
        if not 0.0 < test_fraction < 1.0:
            raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
        rng = make_rng(rng)
        n = self.n_samples
        n_test = max(1, int(round(n * test_fraction)))
        if n_test >= n:
            raise ValueError("test fraction leaves no training samples")
        perm = rng.permutation(n)
        test_rows = np.sort(perm[:n_test])
        train_rows = np.sort(perm[n_test:])
        return self.subset_samples(train_rows), self.subset_samples(test_rows)

    def summary(self) -> str:
        """One-line description for logs."""
        return (
            f"VoltageDataset: N={self.n_samples} samples, "
            f"M={self.n_candidates} candidates, K={self.n_blocks} blocks, "
            f"{len(self.benchmark_names)} benchmarks, VDD={self.vdd} V"
        )
