"""Tests for the batched transient engine and the dataset cache.

Covers the compiled multi-RHS kernel (repro.powergrid.fastsolve), the
lockstep ``simulate_many`` path and the map pools of ``generate_maps``
and the fused train+eval batch against the per-benchmark ``simulate``
reference, the fused load batch, and the config-hash dataset cache.
"""

import json
import os
import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.config import ChipConfig, DataConfig, ExperimentSetup
from repro.experiments.data_generation import (
    _benchmark_load,
    _simulate_suites,
    build_chip,
    dataset_cache_path,
    generate_dataset,
    generate_maps,
)
from repro.powergrid.fastsolve import build_lu_kernel
from repro.workload.current_map import TraceLoad, TraceLoadBatch
from tests.conftest import TINY_SETUP

DATA = DataConfig(
    benchmarks=("x264", "canneal"),
    steps_per_benchmark=60,
    warmup_steps=10,
    record_every=2,
    n_samples=50,
    seed=5,
)

CACHE_SETUP = ExperimentSetup(
    chip=TINY_SETUP.chip,
    train=DataConfig(
        benchmarks=("x264", "canneal"),
        steps_per_benchmark=40,
        warmup_steps=10,
        record_every=2,
        n_samples=30,
        seed=31,
    ),
    eval=DataConfig(
        benchmarks=("x264", "canneal"),
        steps_per_benchmark=40,
        warmup_steps=10,
        record_every=2,
        n_samples=20,
        seed=32,
    ),
    name="cache-test",
)


@pytest.fixture(scope="module")
def chip(tiny_data):
    return tiny_data.chip


@pytest.fixture(scope="module")
def batch(chip):
    return TraceLoadBatch(
        [_benchmark_load(chip, b, DATA) for b in DATA.benchmarks]
    )


def _reference(chip, load, **kwargs):
    return chip.solver.simulate(
        load,
        n_steps=DATA.steps_per_benchmark,
        warmup_steps=DATA.warmup_steps,
        record_every=DATA.record_every,
        **kwargs,
    )


class TestKernel:
    def test_kernel_compiles_here(self, chip):
        # The container ships a C toolchain; a silent fallback would
        # let the bit-identity tests below pass vacuously.
        assert chip.solver.uses_kernel

    def test_matches_superlu(self, chip):
        lu = chip.solver._lu
        kernel = build_lu_kernel(lu)
        assert kernel is not None
        rhs = np.random.default_rng(7).standard_normal(lu.shape[0])
        ref = lu.solve(rhs)
        scale = float(np.max(np.abs(ref)))
        assert np.max(np.abs(kernel.solve(rhs) - ref)) < 1e-9 * scale

    def test_batch_width_invariance(self, chip):
        kernel = chip.solver._kernel
        rhs = np.random.default_rng(8).standard_normal((kernel.n, 5))
        batched = kernel.solve(rhs)
        for b in range(5):
            single = kernel.solve(np.ascontiguousarray(rhs[:, b]))
            assert np.array_equal(batched[:, b], single)

    def test_disable_env_forces_fallback(self, monkeypatch, chip):
        import repro.utils.ckernel as ckernel

        monkeypatch.setenv(ckernel.DISABLE_ENV_VAR, "1")
        monkeypatch.setattr(ckernel, "_lib", None)
        monkeypatch.setattr(ckernel, "_lib_failed", False)
        assert ckernel.get_lib() is None
        assert build_lu_kernel(chip.solver._lu) is None


class TestSimulateMany:
    def test_bit_identical_to_simulate(self, chip, batch):
        results = chip.solver.simulate_many(
            batch,
            n_steps=DATA.steps_per_benchmark,
            warmup_steps=DATA.warmup_steps,
            record_every=DATA.record_every,
        )
        for b, load in enumerate(batch.loads):
            ref = _reference(chip, load)
            assert np.array_equal(results[b].voltages, ref.voltages)
            assert np.array_equal(results[b].times, ref.times)

    def test_chunk_steps_invariance(self, chip, batch):
        kwargs = dict(
            n_steps=DATA.steps_per_benchmark,
            warmup_steps=DATA.warmup_steps,
            record_every=DATA.record_every,
        )
        a = chip.solver.simulate_many(batch, chunk_steps=7, **kwargs)
        b = chip.solver.simulate_many(batch, chunk_steps=64, **kwargs)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.voltages, rb.voltages)

    def test_record_nodes_match_reference(self, chip, batch):
        nodes = [0, 5, 7]
        results = chip.solver.simulate_many(
            batch,
            n_steps=DATA.steps_per_benchmark,
            warmup_steps=DATA.warmup_steps,
            record_every=DATA.record_every,
            record_nodes=nodes,
        )
        ref = _reference(chip, batch[0], record_nodes=nodes)
        assert np.array_equal(results[0].voltages, ref.voltages)
        assert np.array_equal(results[0].recorded_nodes, np.asarray(nodes))

    def test_single_load(self, chip, batch):
        results = chip.solver.simulate_many(
            [batch[0]],
            n_steps=DATA.steps_per_benchmark,
            warmup_steps=DATA.warmup_steps,
            record_every=DATA.record_every,
        )
        ref = _reference(chip, batch[0])
        assert np.array_equal(results[0].voltages, ref.voltages)

    def test_record_out_is_used_in_place(self, chip, batch):
        n_records = (
            DATA.steps_per_benchmark + DATA.record_every - 1
        ) // DATA.record_every
        pool = np.empty(
            (len(batch) * n_records, chip.grid.n_nodes), dtype=np.float32
        )
        views = [
            pool[b * n_records : (b + 1) * n_records]
            for b in range(len(batch))
        ]
        results = chip.solver.simulate_many(
            batch,
            n_steps=DATA.steps_per_benchmark,
            warmup_steps=DATA.warmup_steps,
            record_every=DATA.record_every,
            record_out=views,
        )
        for b, result in enumerate(results):
            assert result.voltages.base is pool
            ref = _reference(chip, batch[b])
            assert np.array_equal(
                result.voltages, ref.voltages.astype(np.float32)
            )

    def test_record_out_validation(self, chip, batch):
        with pytest.raises(ValueError, match="record_out"):
            chip.solver.simulate_many(
                batch,
                n_steps=DATA.steps_per_benchmark,
                record_out=[np.empty((1, 1))],
            )

    def test_rejects_empty_and_bad_state(self, chip, batch):
        with pytest.raises(ValueError, match="at least one"):
            chip.solver.simulate_many([], n_steps=10)
        with pytest.raises(ValueError, match="v0"):
            chip.solver.simulate_many(
                batch, n_steps=10, v0=np.zeros(3), pad_current0=np.zeros(3)
            )


class TestTraceLoadBatch:
    def test_chunk_columns_match_currents_at(self, batch):
        lo, hi = 3, 9
        n_b = len(batch)
        flat = batch.currents_chunk(lo, hi)
        assert flat.shape == (batch.distribution.shape[0], (hi - lo) * n_b)
        for s in range(hi - lo):
            for b in range(n_b):
                assert np.array_equal(
                    flat[:, s * n_b + b], batch[b].currents_at(lo + s)
                )

    def test_rejects_mixed_batches(self, batch):
        first = batch[0]
        other = TraceLoad(
            first.distribution.copy(), first.power, first.vdd
        )
        with pytest.raises(ValueError, match="distribution"):
            TraceLoadBatch([first, other])
        with pytest.raises(ValueError, match="vdd"):
            TraceLoadBatch(
                [first, TraceLoad(first.distribution, first.power, 2.0)]
            )
        with pytest.raises(ValueError, match="at least one"):
            TraceLoadBatch([])

    def test_trace_load_pickles(self, batch):
        load = pickle.loads(pickle.dumps(batch[0]))
        assert np.array_equal(load.currents_at(4), batch[0].currents_at(4))


def _max_ulp32(a, b):
    """Largest float32 ulp distance between two positive voltage arrays."""
    ai = np.asarray(a, dtype=np.float32).view(np.int32).astype(np.int64)
    bi = np.asarray(b, dtype=np.float32).view(np.int32).astype(np.int64)
    return int(np.max(np.abs(ai - bi), initial=0))


def _reference_pool(chip, data):
    """Per-benchmark ``simulate`` runs, stacked like a map pool, float32."""
    return np.vstack(
        [
            chip.solver.simulate(
                _benchmark_load(chip, benchmark, data),
                n_steps=data.steps_per_benchmark,
                record_every=data.record_every,
                warmup_steps=data.warmup_steps,
            ).voltages.astype(np.float32)
            for benchmark in data.benchmarks
        ]
    )


@pytest.fixture(scope="module", params=["kernel", "superlu"])
def engine(request, chip):
    """(chip, allowed float32 ulp) for each solve path of the engine."""
    if request.param == "kernel":
        return chip, 0
    fallback = build_chip(TINY_SETUP.chip)
    fallback.solver._kernel = None  # SuperLU's blocked multi-RHS solve
    return fallback, 1


class TestEngineVsReference:
    """Map pools of the lockstep engine against per-benchmark
    ``simulate`` runs: 0 float32 ulp on the compiled kernel, at most 1
    on the SuperLU fallback."""

    def test_generate_maps_matches_reference(self, engine):
        chip, allowed = engine
        pool = generate_maps(chip, DATA).voltages
        reference = _reference_pool(chip, DATA)
        assert pool.shape == reference.shape
        assert _max_ulp32(pool, reference) <= allowed

    def test_fused_batch_matches_reference(self, engine):
        chip, allowed = engine
        suites = [CACHE_SETUP.train, CACHE_SETUP.eval]
        pools = _simulate_suites(chip, suites, verbose=False)
        for pool, data in zip(pools, suites):
            reference = _reference_pool(chip, data)
            assert pool.voltages.shape == reference.shape
            assert _max_ulp32(pool.voltages, reference) <= allowed


class TestDatasetCache:
    def test_disabled_without_root(self, monkeypatch):
        monkeypatch.delenv("REPRO_DATASET_CACHE", raising=False)
        assert dataset_cache_path(CACHE_SETUP) is None

    def test_env_var_sets_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_DATASET_CACHE", str(tmp_path))
        path = dataset_cache_path(CACHE_SETUP)
        assert path is not None
        assert path.startswith(str(tmp_path))
        assert CACHE_SETUP.cache_key() in path

    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = str(tmp_path)
        first = generate_dataset(CACHE_SETUP, cache_dir=cache)
        assert not first.from_cache
        second = generate_dataset(CACHE_SETUP, cache_dir=cache)
        assert second.from_cache
        assert np.array_equal(first.train.X, second.train.X)
        assert np.array_equal(first.train.F, second.train.F)
        assert np.array_equal(first.eval.X, second.eval.X)
        assert first.critical == second.critical

    def test_config_change_moves_key(self, tmp_path):
        cache = str(tmp_path)
        generate_dataset(CACHE_SETUP, cache_dir=cache)
        changed = replace(
            CACHE_SETUP,
            train=replace(CACHE_SETUP.train, seed=CACHE_SETUP.train.seed + 1),
        )
        assert dataset_cache_path(
            changed, cache
        ) != dataset_cache_path(CACHE_SETUP, cache)
        assert not generate_dataset(changed, cache_dir=cache).from_cache

    def test_corrupt_meta_regenerates(self, tmp_path):
        cache = str(tmp_path)
        generate_dataset(CACHE_SETUP, cache_dir=cache)
        meta = os.path.join(
            dataset_cache_path(CACHE_SETUP, cache), "meta.json"
        )
        with open(meta, "w", encoding="utf-8") as fh:
            fh.write("{not json")
        result = generate_dataset(CACHE_SETUP, cache_dir=cache)
        assert not result.from_cache
        with open(meta, "r", encoding="utf-8") as fh:
            assert json.load(fh)["cache_key"] == CACHE_SETUP.cache_key()

    @pytest.mark.parametrize("keep", [0.5, 0.0], ids=["truncated", "empty"])
    def test_unreadable_archive_regenerates(self, tmp_path, keep):
        # An archive cut short (half of it, or all of it) is a miss: the
        # next call regenerates and leaves a readable entry behind.
        cache = str(tmp_path)
        first = generate_dataset(CACHE_SETUP, cache_dir=cache)
        archive = os.path.join(
            dataset_cache_path(CACHE_SETUP, cache), "train.npz"
        )
        with open(archive, "r+b") as fh:
            fh.truncate(int(os.path.getsize(archive) * keep))
        again = generate_dataset(CACHE_SETUP, cache_dir=cache)
        assert not again.from_cache
        assert np.array_equal(first.train.X, again.train.X)
        assert generate_dataset(CACHE_SETUP, cache_dir=cache).from_cache

    def test_interrupted_rewrite_is_a_miss(self, tmp_path, monkeypatch):
        # A rewrite drops the old meta.json before touching the
        # archives, so one that dies midway cannot leave a valid entry.
        import repro.experiments.data_generation as data_generation

        cache = str(tmp_path)
        generate_dataset(CACHE_SETUP, cache_dir=cache)

        def fail(path, dataset):
            raise OSError("disk full")

        monkeypatch.setattr(data_generation, "save_dataset", fail)
        with pytest.raises(OSError, match="disk full"):
            generate_dataset(CACHE_SETUP, cache_dir=cache, refresh=True)
        monkeypatch.undo()
        assert not generate_dataset(CACHE_SETUP, cache_dir=cache).from_cache

    def test_refresh_regenerates_identically(self, tmp_path):
        cache = str(tmp_path)
        first = generate_dataset(CACHE_SETUP, cache_dir=cache)
        again = generate_dataset(CACHE_SETUP, cache_dir=cache, refresh=True)
        assert not again.from_cache
        assert np.array_equal(first.train.X, again.train.X)
