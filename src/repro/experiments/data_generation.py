"""End-to-end training-data generation (paper Section 3, steps 1-4).

Chains the substrates together:

1. activity traces per benchmark (GEM5 stand-in),
2. block power via the McPAT-like model,
3. full-chip power-grid transient simulation,
4. voltage-map sampling,

then identifies the noise-critical node of every block and assembles
the (X, F) training dataset.

Maps come from one engine: every benchmark of a suite integrates in
lockstep through :meth:`TransientSolver.simulate_many`, one multi-RHS
LU solve per timestep.  When the train and eval suites share their
step geometry and the compiled kernel runs (whose results do not
depend on the batch width), both suites ride one fused batch.

Generated datasets are cached on disk keyed by the configuration hash
(:meth:`ExperimentSetup.cache_key`): point ``cache_dir`` (or the
``REPRO_DATASET_CACHE`` environment variable) at a directory and
repeated :func:`generate_dataset` calls skip simulation entirely.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import get_registry, span
from repro.experiments.config import ChipConfig, DataConfig, ExperimentSetup
from repro.floorplan.candidates import NodeClassification, classify_nodes
from repro.floorplan.floorplan import Floorplan
from repro.floorplan.xeon_like import (
    SMALL_CORE_TEMPLATE,
    XEON_CORE_TEMPLATE,
    make_xeon_e5_floorplan,
)
from repro.powergrid.grid import PowerGrid
from repro.powergrid.transient import TransientSolver
from repro.voltage.critical import select_critical_nodes
from repro.voltage.dataset import VoltageDataset
from repro.voltage.maps import VoltageMapSet
from repro.voltage.persistence import load_dataset, save_dataset
from repro.voltage.sampling import sample_maps
from repro.workload.activity import generate_activity
from repro.workload.benchmarks import get_benchmark
from repro.workload.current_map import CurrentMapper, TraceLoad, TraceLoadBatch
from repro.workload.power_model import McPATLikePowerModel, PowerModelConfig
from repro.utils.rng import seed_for

__all__ = [
    "ChipModel",
    "build_chip",
    "generate_maps",
    "build_dataset",
    "generate_dataset",
    "dataset_cache_path",
    "simulate_benchmark_trace",
]

#: Environment variable naming the default dataset cache directory.
CACHE_ENV_VAR = "REPRO_DATASET_CACHE"

#: On-disk layout version of one cache entry (meta.json + npz files).
_CACHE_FORMAT = 1


@dataclass
class ChipModel:
    """The assembled physical model of one chip configuration.

    Attributes
    ----------
    config:
        The generating :class:`ChipConfig`.
    floorplan:
        The chip floorplan.
    grid:
        The power grid covering it.
    classification:
        FA/BA classification of the grid nodes.
    solver:
        A ready transient solver (matrix factorized once, shared by all
        benchmark simulations).
    mapper:
        Block-power -> node-current mapper.
    power_model:
        The activity -> power model.
    """

    config: ChipConfig
    floorplan: Floorplan
    grid: PowerGrid
    classification: NodeClassification
    solver: TransientSolver
    mapper: CurrentMapper
    power_model: McPATLikePowerModel


def build_chip(config: ChipConfig) -> ChipModel:
    """Construct floorplan, grid, classification and solver for a config."""
    with span(
        "datagen.build_chip", template=config.template, n_cores=config.n_cores
    ):
        template = (
            XEON_CORE_TEMPLATE if config.template == "xeon" else SMALL_CORE_TEMPLATE
        )
        if config.template == "small":
            floorplan = make_xeon_e5_floorplan(
                core_cols=config.core_cols,
                core_rows=config.core_rows,
                core_width=2.4,
                core_height=1.6,
                channel=0.4,
                periphery=0.4,
                block_gap=0.08,
                template=template,
                name=f"small-{config.n_cores}core",
            )
        else:
            floorplan = make_xeon_e5_floorplan(
                core_cols=config.core_cols,
                core_rows=config.core_rows,
                template=template,
                name=f"xeon-e5-like-{config.n_cores}core",
            )
        grid = PowerGrid.regular_mesh(
            floorplan.chip.width,
            floorplan.chip.height,
            pitch=config.grid_pitch,
            sheet_resistance=config.sheet_resistance,
            cap_per_mm2=config.cap_per_mm2,
            vdd=config.vdd,
            pad_pitch=config.pad_pitch,
            pad_resistance=config.pad_resistance,
            pad_inductance=config.pad_inductance,
        )
        classification = classify_nodes(floorplan, grid.coords)
        solver = TransientSolver(grid, timestep=config.timestep)
        mapper = CurrentMapper(
            floorplan, classification, grid.n_nodes, vdd=config.vdd
        )
        power_model = McPATLikePowerModel(
            floorplan,
            PowerModelConfig(
                core_peak_power=config.core_peak_power,
                leakage_fraction=config.leakage_fraction,
            ),
        )
        return ChipModel(
            config=config,
            floorplan=floorplan,
            grid=grid,
            classification=classification,
            solver=solver,
            mapper=mapper,
            power_model=power_model,
        )


def _benchmark_load(
    chip: ChipModel, benchmark: str, data: DataConfig
) -> TraceLoad:
    """Activity -> power -> stateless node-current load for one benchmark."""
    spec = get_benchmark(benchmark)
    total_steps = data.warmup_steps + data.steps_per_benchmark
    traces = generate_activity(
        chip.floorplan,
        spec,
        n_steps=total_steps,
        rng=seed_for(f"{benchmark}-{data.seed}"),
        ramp_steps=data.ramp_steps,
        block_jitter=data.block_jitter,
        core_coupling=data.core_coupling,
        gating_scope=data.gating_scope,
        phase_concentration=data.phase_concentration,
        burst_boost=data.burst_boost,
    )
    power = chip.power_model.block_power(traces)
    return chip.mapper.bound(power)


def _record_pool(
    chip: ChipModel, data: DataConfig, n_loads: int
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """One pooled float32 record array + its per-load row-block views.

    The views go to :meth:`TransientSolver.simulate_many` as
    ``record_out``, so recorded maps land directly in their final pool
    rows — no post-hoc stacking copy (which, at ~65 MB per suite,
    otherwise rivals the solve time).
    """
    n_records = data.maps_per_benchmark
    pool = np.empty(
        (n_loads * n_records, chip.grid.n_nodes), dtype=np.float32
    )
    views = [
        pool[i * n_records : (i + 1) * n_records] for i in range(n_loads)
    ]
    return pool, views


def _simulate_suites(
    chip: ChipModel, suites: Sequence[DataConfig], verbose: bool
) -> List[VoltageMapSet]:
    """Simulate every benchmark of ``suites`` as one lockstep batch.

    The suites share the step geometry (steps, warmup, record cadence)
    of the first one.  Two suites (train + eval) ride the same
    multi-RHS solves, halving the factor traversals of a full dataset
    generation; :func:`generate_dataset` fuses them only on the
    compiled kernel, whose results do not depend on the batch width.
    Returns one map pool per suite, in ``suites`` order.
    """
    registry = get_registry()
    geometry = suites[0]
    loads = TraceLoadBatch(
        [
            _benchmark_load(chip, benchmark, data)
            for data in suites
            for benchmark in data.benchmarks
        ]
    )
    pools = [_record_pool(chip, data, len(data.benchmarks)) for data in suites]
    with span(
        "datagen.batch_solve",
        n_benchmarks=len(loads),
        n_steps=geometry.steps_per_benchmark,
        fused=len(suites) > 1,
    ):
        results = chip.solver.simulate_many(
            loads,
            n_steps=geometry.steps_per_benchmark,
            record_every=geometry.record_every,
            warmup_steps=geometry.warmup_steps,
            record_out=[view for _, views in pools for view in views],
        )
    registry.counter("datagen.batch_solve").inc()
    if len(suites) > 1:
        registry.counter("datagen.fused_batch").inc()
    map_sets = []
    for data, (pool, views) in zip(suites, pools):
        names = list(data.benchmarks)
        times = [r.times for r in results[: len(names)]]
        results = results[len(names) :]
        map_sets.append(_assemble_maps(names, data, pool, views, times, verbose))
    return map_sets


def generate_maps(
    chip: ChipModel, data: DataConfig, verbose: bool = False
) -> VoltageMapSet:
    """Simulate every benchmark of ``data`` and pool the sampled maps.

    Parameters
    ----------
    chip, data:
        The chip model and generation configuration.
    verbose:
        Print per-benchmark progress.
    """
    return _simulate_suites(chip, [data], verbose)[0]


def _assemble_maps(
    names: List[str],
    data: DataConfig,
    pool: np.ndarray,
    views: List[np.ndarray],
    times: List[np.ndarray],
    verbose: bool,
) -> VoltageMapSet:
    """Wrap one suite's pooled record array (``views`` are its
    per-benchmark row blocks, in ``names`` order) into a map set."""
    registry = get_registry()
    for idx, (benchmark, v) in enumerate(zip(names, views)):
        registry.event(
            "datagen.benchmark",
            benchmark=benchmark,
            n_maps=int(v.shape[0]),
            n_steps=data.steps_per_benchmark,
            min_voltage=float(v.min()),
        )
        if verbose:
            print(
                f"  [{idx + 1}/{len(names)}] {benchmark}: {v.shape[0]} maps, "
                f"min {v.min():.3f} V"
            )
    return VoltageMapSet(
        voltages=pool,
        benchmark_of_sample=np.repeat(
            np.arange(len(names), dtype=np.int64), [v.shape[0] for v in views]
        ),
        benchmark_names=names,
        times=np.concatenate(times),
    )


def build_dataset(
    chip: ChipModel,
    maps: VoltageMapSet,
    critical: Optional[Dict[str, int]] = None,
) -> VoltageDataset:
    """Assemble the (X, F) dataset from sampled maps.

    X holds every BA candidate node, F each block's critical node.

    Parameters
    ----------
    chip:
        The chip model (provides candidate/block bookkeeping).
    maps:
        Sampled voltage maps covering all grid nodes.
    critical:
        Optional pre-computed critical-node map (block name -> node).
        When omitted it is derived from ``maps`` — pass the *training*
        assignment when building evaluation datasets so both use the
        same monitored nodes.
    """
    cls = chip.classification
    if critical is None:
        critical = select_critical_nodes(maps.voltages, cls)
    block_names = [b.name for b in chip.floorplan.blocks]
    critical_nodes = np.asarray(
        [critical[name] for name in block_names], dtype=np.int64
    )
    block_cores = np.asarray(
        [b.core_index for b in chip.floorplan.blocks], dtype=np.int64
    )
    candidate_nodes = np.asarray(cls.ba_nodes, dtype=np.int64)
    candidate_cores = np.asarray(
        [cls.core_of_node[n] for n in candidate_nodes], dtype=np.int64
    )
    return VoltageDataset(
        X=np.asarray(maps.voltages[:, candidate_nodes], dtype=float),
        F=np.asarray(maps.voltages[:, critical_nodes], dtype=float),
        candidate_nodes=candidate_nodes,
        candidate_cores=candidate_cores,
        critical_nodes=critical_nodes,
        block_names=block_names,
        block_cores=block_cores,
        benchmark_of_sample=maps.benchmark_of_sample,
        benchmark_names=list(maps.benchmark_names),
        vdd=chip.config.vdd,
    )


@dataclass
class GeneratedData:
    """Everything the experiments need: chip, datasets, critical nodes."""

    chip: ChipModel
    train: VoltageDataset
    eval: VoltageDataset
    critical: Dict[str, int]
    #: The generating setup (None for hand-assembled instances).
    setup: Optional[ExperimentSetup] = None
    #: True when the datasets were loaded from the on-disk cache.
    from_cache: bool = False


# ----------------------------------------------------------------------
# On-disk dataset cache
# ----------------------------------------------------------------------

def dataset_cache_path(
    setup: ExperimentSetup, cache_dir: Optional[str] = None
) -> Optional[str]:
    """Cache-entry directory for ``setup``, or ``None`` when caching is off.

    The entry lives at ``<root>/<name>-<cache_key>``, where ``root`` is
    ``cache_dir`` or the ``REPRO_DATASET_CACHE`` environment variable.
    Any configuration change moves the key, so a stale entry is simply
    never looked at again (invalidation by construction).
    """
    root = cache_dir if cache_dir is not None else os.environ.get(CACHE_ENV_VAR)
    if not root:
        return None
    return os.path.join(root, f"{setup.name}-{setup.cache_key()}")


def _load_cached_dataset(
    setup: ExperimentSetup, directory: str
) -> Optional[Tuple[VoltageDataset, VoltageDataset, Dict[str, int]]]:
    """Load one cache entry; ``None`` on miss or any validation failure."""
    meta_path = os.path.join(directory, "meta.json")
    try:
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
        if meta.get("format") != _CACHE_FORMAT:
            return None
        if meta.get("cache_key") != setup.cache_key():
            return None
        # float32 values load losslessly into float64, so a cache hit
        # returns datasets bit-identical to fresh generation.
        train = load_dataset(os.path.join(directory, "train.npz"), dtype=np.float64)
        eval_ds = load_dataset(os.path.join(directory, "eval.npz"), dtype=np.float64)
        critical = {str(k): int(v) for k, v in meta["critical"].items()}
        return train, eval_ds, critical
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        # A truncated or empty archive (a write cut short) reads as
        # BadZipFile / EOFError: a miss, regenerated and rewritten.
        return None


def _store_cached_dataset(
    setup: ExperimentSetup,
    directory: str,
    train: VoltageDataset,
    eval_ds: VoltageDataset,
    critical: Dict[str, int],
) -> None:
    """Write one cache entry; meta.json lands last so readers never see
    a partially written entry as valid.  A rewrite removes the old
    meta.json first, so it cannot vouch for half-rewritten archives."""
    os.makedirs(directory, exist_ok=True)
    meta_path = os.path.join(directory, "meta.json")
    if os.path.exists(meta_path):
        os.remove(meta_path)
    save_dataset(os.path.join(directory, "train.npz"), train)
    save_dataset(os.path.join(directory, "eval.npz"), eval_ds)
    meta = {
        "format": _CACHE_FORMAT,
        "cache_key": setup.cache_key(),
        "name": setup.name,
        "critical": {k: int(v) for k, v in critical.items()},
    }
    tmp_path = os.path.join(directory, "meta.json.tmp")
    with open(tmp_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    os.replace(tmp_path, meta_path)


def generate_dataset(
    setup: ExperimentSetup,
    verbose: bool = False,
    *,
    cache_dir: Optional[str] = None,
    refresh: bool = False,
) -> GeneratedData:
    """Generate (or load from cache) the train/eval datasets of a setup.

    The critical-node assignment is derived from the *training* maps
    and reused for evaluation, as a deployed monitoring system would.

    Parameters
    ----------
    setup:
        The experiment profile.
    verbose:
        Print per-benchmark progress.
    cache_dir:
        Dataset cache root; defaults to the ``REPRO_DATASET_CACHE``
        environment variable, and caching is disabled when neither is
        set.  Entries are keyed by :meth:`ExperimentSetup.cache_key`,
        so any configuration change regenerates.
    refresh:
        Regenerate even when a valid cache entry exists (the fresh
        result overwrites the entry).
    """
    registry = get_registry()
    directory = dataset_cache_path(setup, cache_dir)

    if directory is not None and not refresh:
        cached = _load_cached_dataset(setup, directory)
        if cached is not None:
            registry.counter("datagen.cache_hit").inc()
            registry.event(
                "datagen.cache", outcome="hit", profile=setup.name, path=directory
            )
            if verbose:
                print(f"dataset cache hit: {directory}")
            train_ds, eval_ds, critical = cached
            chip = build_chip(setup.chip)
            return GeneratedData(
                chip=chip,
                train=train_ds,
                eval=eval_ds,
                critical=critical,
                setup=setup,
                from_cache=True,
            )
    if directory is not None:
        registry.counter("datagen.cache_miss").inc()
        registry.event(
            "datagen.cache", outcome="miss", profile=setup.name, path=directory
        )

    with span("datagen.dataset", profile=setup.name) as sp:
        chip = build_chip(setup.chip)
        if verbose:
            print(chip.floorplan.summary())
            print(chip.grid.summary())

        # When both configs share the step geometry and the solve path
        # does not depend on the batch width, train and eval suites ride
        # one fused lockstep batch — half the factor traversals.
        fused = (
            setup.train.steps_per_benchmark == setup.eval.steps_per_benchmark
            and setup.train.warmup_steps == setup.eval.warmup_steps
            and setup.train.record_every == setup.eval.record_every
            and chip.solver.uses_kernel
        )
        eval_pool: Optional[VoltageMapSet] = None
        if fused:
            if verbose:
                print("simulating train+eval benchmarks (fused batch)...")
            with span("datagen.fused_maps"):
                train_pool, eval_pool = _simulate_suites(
                    chip, [setup.train, setup.eval], verbose
                )
        else:
            if verbose:
                print("simulating training benchmarks...")
            with span("datagen.train_maps"):
                train_pool = generate_maps(chip, setup.train, verbose=verbose)
        n_train = min(setup.train.n_samples, train_pool.n_samples)
        train_maps = sample_maps(train_pool, n_train, rng=setup.train.seed)
        critical = select_critical_nodes(train_maps.voltages, chip.classification)
        train_ds = build_dataset(chip, train_maps, critical)
        del train_pool, train_maps

        if eval_pool is None:
            if verbose:
                print("simulating evaluation benchmarks...")
            with span("datagen.eval_maps"):
                eval_pool = generate_maps(chip, setup.eval, verbose=verbose)
        n_eval = min(setup.eval.n_samples, eval_pool.n_samples)
        eval_maps = sample_maps(eval_pool, n_eval, rng=setup.eval.seed)
        eval_ds = build_dataset(chip, eval_maps, critical)
        del eval_pool, eval_maps

        sp.set_attribute("n_train", train_ds.n_samples)
        sp.set_attribute("n_eval", eval_ds.n_samples)

    if directory is not None:
        _store_cached_dataset(setup, directory, train_ds, eval_ds, critical)
        if verbose:
            print(f"dataset cached at: {directory}")
    return GeneratedData(
        chip=chip,
        train=train_ds,
        eval=eval_ds,
        critical=critical,
        setup=setup,
        from_cache=False,
    )


def simulate_benchmark_trace(
    chip: ChipModel,
    benchmark: str,
    n_steps: int,
    seed: int = 0,
    warmup_steps: Optional[int] = None,
    base: Optional[DataConfig] = None,
) -> "tuple[np.ndarray, np.ndarray]":
    """Simulate a time-ordered full-map trace of one benchmark.

    Used by the Fig. 2 reproduction, which needs consecutive (not
    randomly sampled) voltage maps to plot predicted vs real traces.

    Parameters
    ----------
    chip, benchmark, n_steps, seed:
        What to simulate.
    warmup_steps:
        Warmup override; defaults to ``base.warmup_steps`` when a base
        config is given, else 50.
    base:
        The experiment's :class:`DataConfig` — its warmup/ramp/phase
        settings carry over so the trace reproduces the same dynamics
        as the training maps (only benchmark, length and seed change).

    Returns
    -------
    (voltages, times):
        ``(n_steps, n_nodes)`` float array and matching times.
    """
    overrides = dict(
        benchmarks=(benchmark,),
        steps_per_benchmark=n_steps,
        record_every=1,
        n_samples=n_steps,
        seed=seed,
    )
    if base is not None:
        data = replace(
            base,
            warmup_steps=base.warmup_steps if warmup_steps is None else warmup_steps,
            **overrides,
        )
    else:
        data = DataConfig(
            warmup_steps=50 if warmup_steps is None else warmup_steps,
            **overrides,
        )
    result = chip.solver.simulate(
        _benchmark_load(chip, benchmark, data),
        n_steps=data.steps_per_benchmark,
        record_every=data.record_every,
        warmup_steps=data.warmup_steps,
    )
    # Rounded through float32 like the map pools, so a trace carries
    # the precision of the training maps.
    return result.voltages.astype(np.float32).astype(float), result.times
