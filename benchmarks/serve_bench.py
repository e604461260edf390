"""Load generator for the sharded serving fleet.

``python benchmarks/run_bench.py --serve`` drives this module.  One
run measures, on identical frames:

* **reference** — a single in-process
  :meth:`~repro.monitor.fleet.FleetMonitor.run_batch` over the whole
  ``(S, T, Q)`` tensor (the floor any transport must answer to);
* **transport** — at 1 shard, the fleet (frames and results in a
  shared slot block, slot indices over a pipe) against a classic
  ``multiprocessing.Queue`` worker that pickles every chunk both ways
  (same process count, same batching);
* **scaling** — the fleet at shard counts {1, 2, 4, N_cpu},
  recording streams/sec and p50/p99 end-to-end slot latency per point;
* **hot swap** — a rolling model swap mid-stream, checked for zero
  dropped frames and zero divergent alarm cycles against an in-process
  reference applying :meth:`FleetMonitor.swap_model` at the same cycle.

Every path is also checked **bit-identical** to the reference (alarm
flags and minimum predictions); any mismatch is a problem and fails
the benchmark.  Parallel *speedup*, by contrast, is gated only when
the machine can physically deliver it (``cpu_count >= 4``) — on
smaller boxes the scaling curve is recorded as data, not judged.
The committed ``BENCH_serve.json`` was produced by::

    python benchmarks/run_bench.py --serve --out BENCH_serve.json
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import Any, Dict, List, Optional

import numpy as np

import repro.obs as obs
from repro.core.pipeline import PipelineConfig, fit_placement
from repro.core.serialization import load_placement, save_placement
from repro.monitor.fleet import FleetMonitor
from repro.serve import ShardedFleet

#: Scaling targets: the ISSUE's >= 2.5x at 4 shards only binds when
#: the host has at least this many cores.
SCALING_MIN_CPUS = 4
SCALING_TARGET = 2.5


def _queue_worker(model_file, threshold, debounce, n_streams, q_in, q_out):
    """The pickle-transport baseline: one FleetMonitor behind two Queues."""
    model = load_placement(model_file)
    fleet = FleetMonitor(
        model, threshold, debounce=debounce, n_streams=n_streams
    )
    while True:
        item = q_in.get()
        if item is None:
            break
        base, chunk = item
        v_min = np.empty((n_streams, chunk.shape[1]))
        flags = fleet.run_batch(chunk, v_min_out=v_min)
        q_out.put((base, flags, v_min))
    fleet.finish()
    q_out.put(None)


def _run_queue_baseline(
    model_file: str,
    threshold: float,
    debounce: int,
    frames: np.ndarray,
    slot_ticks: int,
) -> Dict[str, Any]:
    """Time the mp.Queue worker over ``frames``; returns wall + outputs."""
    import multiprocessing

    ctx = multiprocessing.get_context(
        "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else "spawn"
    )
    S, T, _ = frames.shape
    q_in: Any = ctx.Queue()
    q_out: Any = ctx.Queue()
    proc = ctx.Process(
        target=_queue_worker,
        args=(model_file, threshold, debounce, S, q_in, q_out),
        daemon=True,
    )
    proc.start()

    flags = np.zeros((S, T), dtype=bool)
    v_min = np.empty((S, T))
    t0 = time.perf_counter()
    n_chunks = 0
    for lo in range(0, T, slot_ticks):
        q_in.put((lo, frames[:, lo : lo + slot_ticks, :]))
        n_chunks += 1
    q_in.put(None)
    received = 0
    while received < n_chunks:
        item = q_out.get()
        if item is None:
            break
        base, flags_i, v_min_i = item
        flags[:, base : base + flags_i.shape[1]] = flags_i
        v_min[:, base : base + v_min_i.shape[1]] = v_min_i
        received += 1
    wall_s = time.perf_counter() - t0
    proc.join(30.0)
    return {"wall_s": wall_s, "flags": flags, "v_min": v_min}


def _percentiles_ms(latencies_ns: List[int]) -> Dict[str, float]:
    lat = np.asarray(latencies_ns, dtype=np.float64) / 1e6
    return {
        "p50_ms": float(np.percentile(lat, 50)),
        "p99_ms": float(np.percentile(lat, 99)),
        "max_ms": float(lat.max()),
    }


def run_serve(quick: bool = False) -> Dict[str, Any]:
    """The ``--serve`` benchmark report (``repro.bench/v1``, mode serve)."""
    from run_bench import _monitor_dataset

    n_streams, n_cycles = (16, 384) if quick else (64, 1536)
    slot_ticks = 32
    ring_slots = 8
    debounce = 3
    problems: List[Dict] = []

    data = _monitor_dataset()
    model = fit_placement(data, PipelineConfig(budget=1.0))
    cols = model.sensor_candidate_cols

    rng = np.random.default_rng(23)
    base = np.tile(data.X, (int(np.ceil(n_cycles / data.X.shape[0])), 1))
    base = base[:n_cycles]
    candidates = (
        base[np.newaxis]
        + rng.normal(0.0, 2e-4, size=(n_streams,) + base.shape)
    )
    frames = np.ascontiguousarray(candidates[:, :, cols])
    threshold = float(np.quantile(model.predict(base), 0.10))

    # Reference: one in-process run_batch over the whole tensor.
    ref = FleetMonitor(model, threshold, debounce=debounce, n_streams=n_streams)
    ref_v_min = np.empty((n_streams, n_cycles))
    t0 = time.perf_counter()
    ref_flags = ref.run_batch(frames, v_min_out=ref_v_min)
    ref_s = time.perf_counter() - t0
    ref.finish()
    reference = {
        "run_batch_s": ref_s,
        "streams_per_s": n_streams / ref_s,
        "frames_per_s": n_streams * n_cycles / ref_s,
    }

    cpu_count = os.cpu_count() or 1
    shard_counts = [1, 2, 4]
    if cpu_count > 4 and cpu_count <= n_streams:
        shard_counts.append(cpu_count)
    shard_counts = [n for n in shard_counts if n <= n_streams]

    registry = obs.MetricsRegistry()
    points: List[Dict[str, Any]] = []
    with obs.use_registry(registry), tempfile.TemporaryDirectory(
        prefix="repro-serve-bench-"
    ) as tmp:
        for n_shards in shard_counts:
            # Worker startup (process spawn + model load) happens at
            # construction, outside the timed window; the timed run is
            # cold on both sides, so flags/v_min must match the cold
            # in-process reference bit-for-bit over the whole tensor.
            fleet = ShardedFleet(
                model,
                threshold,
                n_streams=n_streams,
                n_shards=n_shards,
                debounce=debounce,
                slot_ticks=slot_ticks,
                ring_slots=ring_slots,
            )
            t0 = time.perf_counter()
            flags, v_min = fleet.run_frames(frames)
            wall_s = time.perf_counter() - t0
            result = fleet.finish()
            identical = bool(
                np.array_equal(ref_flags, flags)
                and np.array_equal(ref_v_min, v_min)
            )
            point = {
                "shards": n_shards,
                "wall_s": wall_s,
                "streams_per_s": n_streams / wall_s,
                "frames_per_s": n_streams * n_cycles / wall_s,
                "slots": len(result.latencies_ns),
                "bit_identical": identical,
            }
            point.update(_percentiles_ms(result.latencies_ns))
            points.append(point)
            if not identical:
                problems.append(
                    {"kind": "serve_identity_mismatch", "shards": n_shards}
                )
        one_shard = points[0]["wall_s"]
        for point in points:
            point["speedup_vs_1shard"] = one_shard / point["wall_s"]

        # Transport baseline: same 1-process topology, pickle transport.
        model_file = os.path.join(tmp, "model.npz")
        save_placement(model_file, model)
        queue_run = _run_queue_baseline(
            model_file, threshold, debounce, frames, slot_ticks
        )
        queue_identical = bool(
            np.array_equal(ref_flags, queue_run["flags"])
            and np.array_equal(ref_v_min, queue_run["v_min"])
        )
        transport = {
            "queue_pickle_s": queue_run["wall_s"],
            "fleet_s": one_shard,
            "speedup": queue_run["wall_s"] / one_shard,
            "queue_bit_identical": queue_identical,
        }
        if not queue_identical:
            problems.append({"kind": "queue_baseline_identity_mismatch"})

        hot_swap = _run_hot_swap_trial(
            model, threshold, debounce, frames, slot_ticks, ring_slots
        )
        if hot_swap["dropped_frames"] or hot_swap["divergent_cycles"]:
            problems.append(
                {
                    "kind": "hot_swap_failure",
                    "dropped_frames": hot_swap["dropped_frames"],
                    "divergent_cycles": hot_swap["divergent_cycles"],
                }
            )

    counters = {
        name: value
        for name, value in registry.snapshot()["counters"].items()
        if name.startswith("serve.")
    }

    point4 = next((p for p in points if p["shards"] == 4), None)
    scaling_gated = cpu_count >= SCALING_MIN_CPUS and point4 is not None
    if scaling_gated and point4["speedup_vs_1shard"] < SCALING_TARGET:
        problems.append(
            {
                "kind": "scaling_below_target",
                "speedup_vs_1shard": point4["speedup_vs_1shard"],
                "target": SCALING_TARGET,
                "cpu_count": cpu_count,
            }
        )

    bit_identical = all(p["bit_identical"] for p in points) and bool(
        hot_swap["bit_identical"]
    )
    return {
        "mode": "serve",
        "profile": "quick" if quick else "full",
        "cpu_count": cpu_count,
        "scaling_gated": scaling_gated,
        "n_streams": n_streams,
        "n_cycles": n_cycles,
        "n_sensors": int(np.asarray(cols).size),
        "slot_ticks": slot_ticks,
        "ring_slots": ring_slots,
        "reference": reference,
        "transport": transport,
        "points": points,
        "hot_swap": hot_swap,
        "bit_identical": bit_identical,
        "counters": counters,
        "problems": problems,
    }


def _run_hot_swap_trial(
    model,
    threshold: float,
    debounce: int,
    frames: np.ndarray,
    slot_ticks: int,
    ring_slots: int,
) -> Dict[str, Any]:
    """Rolling hot-swap mid-stream vs an in-process swap at the same cycle.

    The published v1 model is the serialization round-trip of v0 —
    float64-exact, so the reference (which swaps via
    :meth:`FleetMonitor.swap_model` at the identical cycle boundary)
    must match bit-for-bit; any divergent alarm cycle or missing frame
    is a hot-swap protocol bug, not measurement noise.
    """
    n_streams, n_cycles, _ = frames.shape
    swap_at = (n_cycles // (2 * slot_ticks)) * slot_ticks

    with tempfile.TemporaryDirectory(prefix="repro-serve-swap-") as tmp:
        roundtrip_file = os.path.join(tmp, "model_roundtrip.npz")
        save_placement(roundtrip_file, model)
        model_v1 = load_placement(roundtrip_file)

    ref = FleetMonitor(
        model, threshold, debounce=debounce, n_streams=n_streams
    )
    ref_v_min = np.empty((n_streams, n_cycles))
    ref_flags = np.zeros((n_streams, n_cycles), dtype=bool)
    ref_flags[:, :swap_at] = ref.run_batch(
        frames[:, :swap_at, :], v_min_out=ref_v_min[:, :swap_at]
    )
    ref.swap_model(model_v1)
    ref_flags[:, swap_at:] = ref.run_batch(
        frames[:, swap_at:, :], v_min_out=ref_v_min[:, swap_at:]
    )
    ref.finish()

    fleet = ShardedFleet(
        model,
        threshold,
        n_streams=n_streams,
        n_shards=2,
        debounce=debounce,
        slot_ticks=slot_ticks,
        ring_slots=ring_slots,
    )
    fleet.submit(frames[:, :swap_at, :])
    version = fleet.hot_swap(model_v1)
    fleet.submit(frames[:, swap_at:, :])
    fleet.drain()
    slots = fleet.take_completed()
    result = fleet.finish()

    flags = np.zeros((n_streams, n_cycles), dtype=bool)
    v_min = np.empty((n_streams, n_cycles))
    for base, n_ticks, flags_i, v_min_i, _ in slots:
        flags[:, base : base + n_ticks] = flags_i
        v_min[:, base : base + n_ticks] = v_min_i
    versions = [s[4] for s in slots]

    expected_frames = n_streams * n_cycles
    divergent = int(np.sum(np.any(flags != ref_flags, axis=0)))
    return {
        "swap_version": version,
        "swap_at_cycle": swap_at,
        "dropped_frames": expected_frames - result.frames,
        "divergent_cycles": divergent,
        "bit_identical": bool(
            divergent == 0 and np.array_equal(v_min, ref_v_min)
        ),
        "slots_old_model": sum(1 for v in versions if v == 0),
        "slots_new_model": sum(1 for v in versions if v == version),
    }
