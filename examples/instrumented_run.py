#!/usr/bin/env python
"""Observability tour: spans, metrics, events, and a manifest.

Enables the process-global :mod:`repro.obs` registry, runs the whole
pipeline (data generation -> lambda sweep -> runtime monitoring), and
shows everything the instrumentation captured: nested span timings,
group-lasso convergence statistics per lambda, monitor emergency
events, per-batch serving latency percentiles, and finally a JSON
run manifest plus the ASCII timing-summary table.

Run with::

    python examples/instrumented_run.py
"""

from __future__ import annotations

import json

import numpy as np

import repro.obs as obs
from repro.core.lambda_sweep import sweep_lambda
from repro.experiments import FAST_SETUP, generate_dataset
from repro.monitor import FleetMonitor
from repro.utils.io import to_jsonable


def main() -> None:
    # 1. Turn observability on: a fresh enabled registry becomes the
    #    process-global default, and a JSONL sink streams every event.
    registry = obs.enable()
    sink = obs.JsonlSink("instrumented_run_events.jsonl")
    registry.add_sink(sink)

    # 2. Everything below is already instrumented — datagen emits
    #    per-benchmark spans, the solver emits per-lambda convergence
    #    events, the monitor emits emergency events.
    with obs.span("example.instrumented_run"):
        data = generate_dataset(FAST_SETUP)
        points = sweep_lambda(data.train, budgets=[0.5, 1.0, 2.0], rng=0)

        best = min(points, key=lambda p: p.relative_error)
        print(
            f"best sweep point: lambda={best.budget:g} -> "
            f"{best.n_sensors_total} sensors, "
            f"rel. error {best.relative_error:.4f}"
        )

        # One stream is a fleet of one, served in 32-cycle batches.
        monitor = FleetMonitor(
            best.model, threshold=FAST_SETUP.chip.emergency_threshold
        )
        readings = data.eval.X[:200][:, monitor.sensor_cols]
        for lo in range(0, readings.shape[0], 32):
            monitor.run_batch(readings[np.newaxis, lo : lo + 32])
        stats = monitor.finish()
        latency = registry.timer("monitor.run_batch").summary()
        print(
            f"monitored {stats.cycles} cycles in {latency.count} batches: "
            f"{stats.events} emergencies, batch latency "
            f"p50={latency.p50 * 1e6:.0f}us p90={latency.p90 * 1e6:.0f}us"
        )

    # 3. Solver telemetry: iterations and final residual per lambda.
    print("\ngroup-lasso convergence (one row per constrained solve):")
    for entry in obs.convergence_stats(registry)[:5]:
        print(
            f"  lambda={entry['budget']:<6g} iters={entry['iterations']:<6d} "
            f"residual={entry['final_residual']:.2e} "
            f"converged={entry['converged']}"
        )

    # 4. The run manifest — what `repro-experiments --trace-out` writes.
    manifest = obs.build_manifest(
        registry,
        profile=FAST_SETUP.name,
        dataset={"train": data.train.summary(), "eval": data.eval.summary()},
    )
    print(f"\nmanifest: {len(manifest['spans'])} spans, "
          f"{len(manifest['group_lasso'])} solver records")
    print(json.dumps(to_jsonable(manifest["event_counts"]), indent=2))

    # 5. End-of-run timing table (wall time per instrumented operation).
    print("\n" + obs.render_timing_summary(registry, top=12))

    sink.close()
    print(f"\n{sink.n_emitted} events streamed to {sink.path}")
    obs.disable()


if __name__ == "__main__":
    main()
