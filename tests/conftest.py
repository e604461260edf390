"""Shared fixtures for the test suite.

Heavy fixtures (simulated chip data) are session-scoped so the whole
suite pays for them once; synthetic-dataset fixtures are cheap and
deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.utils.ckernel as ckernel
from repro.experiments.config import ChipConfig, DataConfig, ExperimentSetup
from repro.experiments.data_generation import GeneratedData, generate_dataset
from repro.floorplan import make_small_floorplan, make_xeon_e5_floorplan
from repro.voltage.dataset import VoltageDataset

#: Minimal profile used by tests that need genuinely simulated data.
TINY_SETUP = ExperimentSetup(
    chip=ChipConfig(
        core_cols=2,
        core_rows=1,
        template="small",
        grid_pitch=0.2,
        pad_pitch=1.5,
    ),
    train=DataConfig(
        benchmarks=("x264", "canneal"),
        steps_per_benchmark=160,
        warmup_steps=30,
        record_every=1,
        n_samples=300,
        seed=21,
    ),
    eval=DataConfig(
        benchmarks=("x264", "canneal"),
        steps_per_benchmark=120,
        warmup_steps=30,
        record_every=1,
        n_samples=220,
        seed=22,
    ),
    name="tiny",
)


@pytest.fixture(scope="session")
def tiny_data() -> GeneratedData:
    """Simulated train/eval datasets on a 2-core demo chip."""
    return generate_dataset(TINY_SETUP)


@pytest.fixture(scope="session")
def small_floorplan():
    """A 2-core, 6-blocks-per-core floorplan."""
    return make_small_floorplan(n_cores=2)


@pytest.fixture(scope="session")
def xeon_floorplan():
    """The full 8-core, 30-blocks-per-core floorplan."""
    return make_xeon_e5_floorplan()


def make_synthetic_dataset(
    n_samples: int = 400,
    n_candidates: int = 24,
    n_blocks: int = 6,
    n_cores: int = 2,
    noise: float = 0.002,
    seed: int = 0,
) -> VoltageDataset:
    """Build a controlled synthetic dataset with known structure.

    Block voltages are exact linear functions (plus small noise) of a
    few "driver" candidates, so selection quality is checkable: the
    drivers of core ``c``'s blocks live among core ``c``'s candidates.
    """
    rng = np.random.default_rng(seed)
    if n_candidates % n_cores or n_blocks % n_cores:
        raise ValueError("candidates and blocks must split evenly over cores")
    cand_per_core = n_candidates // n_cores
    blocks_per_core = n_blocks // n_cores

    candidate_cores = np.repeat(np.arange(n_cores), cand_per_core)
    block_cores = np.repeat(np.arange(n_cores), blocks_per_core)

    # Latent low-rank structure + idiosyncratic noise, voltages near 0.93.
    latent = rng.normal(size=(n_samples, 3 * n_cores)) * 0.02
    mix = rng.normal(size=(3 * n_cores, n_candidates)) * 0.5
    X = 0.93 + latent @ mix + 0.001 * rng.normal(size=(n_samples, n_candidates))

    drivers = {}
    F = np.empty((n_samples, n_blocks))
    for k in range(n_blocks):
        core = block_cores[k]
        pool = np.nonzero(candidate_cores == core)[0]
        picks = rng.choice(pool, size=2, replace=False)
        w = rng.uniform(0.4, 0.6, size=2)
        F[:, k] = (
            X[:, picks] @ w
            + (1 - w.sum()) * 0.93
            + noise * rng.normal(size=n_samples)
        )
        drivers[k] = picks
    dataset = VoltageDataset(
        X=X,
        F=F,
        candidate_nodes=np.arange(n_candidates) + 1000,
        candidate_cores=candidate_cores,
        critical_nodes=np.arange(n_blocks) + 5000,
        block_names=[f"core{block_cores[k]}/blk{k}" for k in range(n_blocks)],
        block_cores=block_cores,
        benchmark_of_sample=np.arange(n_samples) % 2,
        benchmark_names=["bm_a", "bm_b"],
        vdd=1.0,
    )
    dataset.drivers = drivers  # test-only attribute
    return dataset


def replay_cycle_by_cycle(fleet, streams: np.ndarray) -> np.ndarray:
    """Serve ``(S, T, Q)`` readings through ``fleet``'s scalar state machine.

    The per-cycle reference of ``FleetMonitor.run_batch`` for a fleet
    without a fault policy: every cycle of every stream is predicted
    alone by ``fleet.predictor_for(s).predict`` and its minimum fed to
    ``fleet._advance_single``.  Returns the ``(S, T)`` alarm flags;
    episodes and statistics accumulate on ``fleet`` as ``run_batch``
    would leave them.
    """
    n_streams, n_cycles, _ = streams.shape
    flags = np.zeros((n_streams, n_cycles), dtype=bool)
    for t in range(n_cycles):
        for s in range(n_streams):
            pred = fleet.predictor_for(s).predict(streams[s, t : t + 1])[0]
            fleet._advance_single(
                s, float(pred.min()), int(pred.argmin()), fleet.cycles
            )
            flags[s, t] = fleet._alarm[s]
        fleet._cycle += 1
    return flags


def disable_kernel(monkeypatch) -> None:
    """Force every numpy reference loop for the rest of the test, as
    ``REPRO_DISABLE_CKERNEL`` does."""
    monkeypatch.setenv(ckernel.DISABLE_ENV_VAR, "1")
    monkeypatch.setattr(ckernel, "_lib", None)
    monkeypatch.setattr(ckernel, "_lib_failed", False)
    assert ckernel.get_lib() is None


def assert_same_outcome(a, b) -> None:
    """Two fleets logged the same episodes and per-stream statistics
    (cycles, alarm cycles, episode count, minimum prediction)."""
    assert a.events == b.events
    for s in range(a.n_streams):
        assert a.stream_stats(s) == b.stream_stats(s)


@pytest.fixture
def synthetic_dataset() -> VoltageDataset:
    """A fresh controlled synthetic dataset."""
    return make_synthetic_dataset()
