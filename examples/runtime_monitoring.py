#!/usr/bin/env python
"""Runtime emergency monitoring on a live voltage trace.

Emulates the deployed system of the paper: after design-time fitting,
only the Q placed sensors are read each cycle and the model predicts
every function block's supply voltage, raising an alarm when any
predicted voltage crosses the noise margin.  Compares the model's
alarms against ground truth from the full-chip simulation and against
an Eagle-Eye placement reading its own sensors.

A second act demonstrates the batched serving subsystem: a
:class:`~repro.monitor.FleetMonitor` monitors many independent chips
(streams) in one vectorized pass, a sensor fault is injected mid-run,
and the monitor detects it and fails over to the precomputed
leave-one-sensor-out fallback model without interrupting service; the
registry's timing table then shows where the fleet spent its time.

Run with::

    python examples/runtime_monitoring.py
"""

from __future__ import annotations

import numpy as np

import repro.obs as obs
from repro.baselines import EagleEyeModel, PlacementConstraints, get_placer
from repro.core import PipelineConfig, fit_placement
from repro.experiments import FAST_SETUP, generate_dataset, simulate_benchmark_trace
from repro.monitor import FaultPolicy, FleetMonitor, StuckAtFault
from repro.voltage.metrics import detection_error_rates


def main() -> None:
    data = generate_dataset(FAST_SETUP)
    threshold = FAST_SETUP.chip.emergency_threshold

    # Design time: fit both monitoring systems on the training maps.
    model = fit_placement(data.train, PipelineConfig(budget=1.0))
    placement = get_placer("eagle_eye").place(
        data.train,
        max(1, model.n_sensors // len(model.scopes)),
        constraints=PlacementConstraints(emergency_threshold=threshold),
    )
    eagle = EagleEyeModel(placement.selected_cols, threshold)
    print(
        f"proposed: {model.n_sensors} sensors | "
        f"eagle-eye: {eagle.n_sensors} sensors | "
        f"threshold {threshold:.2f} V"
    )

    # Runtime: stream a fresh benchmark execution step by step.
    benchmark = "x264" if "x264" in data.train.benchmark_names else data.train.benchmark_names[0]
    voltages, times = simulate_benchmark_trace(
        data.chip, benchmark, n_steps=250, seed=123
    )
    X_stream = voltages[:, data.train.candidate_nodes]
    F_stream = voltages[:, data.train.critical_nodes]
    truth = np.any(F_stream < threshold, axis=1)

    print(f"\nstreaming {benchmark}: {len(times)} cycles")
    alarms_model = model.alarm(X_stream, threshold)
    alarms_eagle = eagle.alarm(X_stream)

    # Show a short event log around the first true emergency.
    emergencies = np.nonzero(truth)[0]
    if emergencies.size:
        first = int(emergencies[0])
        lo, hi = max(0, first - 3), min(len(times), first + 4)
        print(f"\nevent log around first emergency (cycle {first}):")
        print("cycle | worst FA voltage | truth | model alarm | eagle alarm")
        for t in range(lo, hi):
            print(
                f"{t:5d} | {F_stream[t].min():13.4f} V | "
                f"{'EMERG' if truth[t] else '  ok '} | "
                f"{'ALARM' if alarms_model[t] else '  -  '}       | "
                f"{'ALARM' if alarms_eagle[t] else '  -  '}"
            )
    else:
        print("\n(no emergency occurred in this trace)")

    for name, alarms in (("proposed", alarms_model), ("eagle-eye", alarms_eagle)):
        rates = detection_error_rates(truth, alarms)
        print(
            f"\n{name}: ME={rates.miss if not np.isnan(rates.miss) else float('nan'):.4f} "
            f"WAE={rates.wrong_alarm:.4f} TE={rates.total:.4f} "
            f"({rates.n_emergencies} true emergency cycles)"
        )

    # ------------------------------------------------------------------
    # Act 2: batched fleet serving with fault injection and failover.
    # ------------------------------------------------------------------
    cols = model.sensor_candidate_cols
    n_streams, n_cycles = 8, len(times)
    rng = np.random.default_rng(7)
    # Each "chip" in the fleet replays the same workload with its own
    # measurement noise; stream 3 has a sensor stuck at a fixed code.
    streams = (
        X_stream[np.newaxis, :, cols]
        + rng.normal(0.0, 2e-4, size=(n_streams, n_cycles, cols.size))
    )
    fault_start = n_cycles // 3
    fault = StuckAtFault(channel=1, start=fault_start, value=float(vdd_mid(streams)))
    streams[3] = fault.apply(streams[3])

    lo, hi = float(streams.min()), float(streams.max())
    policy = FaultPolicy(
        v_lo=lo - 0.05, v_hi=hi + 0.05, frozen_window=8, frozen_eps=0.0
    )
    # The registry collects the monitor's latency timers and failover
    # counters while the fleet runs.
    registry = obs.enable()
    fleet = FleetMonitor(
        model, threshold, debounce=2, n_streams=n_streams, policy=policy,
        shard="fleet-demo",
    )
    fleet.run_batch(streams)
    stats = fleet.finish()
    print("\n" + obs.render_timing_summary(registry, "Fleet telemetry", top=4))
    obs.disable()

    print(
        f"\nfleet: {stats.n_streams} streams x {n_cycles} cycles | "
        f"{stats.events} episodes | {stats.failovers} failover(s) | "
        f"{stats.degraded_streams} degraded stream(s)"
    )
    for s in range(n_streams):
        for failure in fleet.failures[s]:
            latency = failure.cycle - fault_start
            print(
                f"  stream {s}: sensor at candidate col "
                f"{failure.candidate_col} failed '{failure.screen}' screen "
                f"at cycle {failure.cycle} (+{latency} after onset); "
                f"now serving the leave-one-out fallback model "
                f"({fleet.model_for(s).n_sensors} sensors)"
            )


def vdd_mid(streams: np.ndarray) -> float:
    """A plausible stuck code: the midpoint of the observed range."""
    return 0.5 * (float(streams.min()) + float(streams.max()))


if __name__ == "__main__":
    main()
