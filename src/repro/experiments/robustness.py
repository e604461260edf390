"""Scoring inputs for the placement tournament's robustness columns.

The tournament (:mod:`repro.experiments.tournament`) scores every
placer on two robustness axes, and this module builds both:

* **varied dies** — :func:`simulate_varied_die` re-simulates an
  evaluation workload on a perturbed copy of the nominal grid
  (resistance spread, open branches), the deviation every fabricated
  die shows from the design-time simulation the placement was fitted
  on;
* **sensor faults** — :func:`run_sensor_fault_study` injects each
  fault mode of :data:`FAULT_MODES` into each placed sensor's stream
  and measures detection latency and the post-failover error.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from repro.core.pipeline import PipelineConfig, PlacementModel, fit_placement
from repro.experiments.data_generation import GeneratedData, _benchmark_load
from repro.monitor.faults import (
    DriftFault,
    DropoutFault,
    FaultPolicy,
    GlitchFault,
    SensorFault,
    StuckAtFault,
)
from repro.monitor.fleet import FleetMonitor
from repro.powergrid.transient import TransientSolver
from repro.powergrid.variation import with_open_branches, with_resistance_variation
from repro.voltage.dataset import VoltageDataset
from repro.voltage.metrics import mean_relative_error
from repro.utils.rng import seed_for

__all__ = [
    "simulate_varied_die",
    "FAULT_MODES",
    "check_fault_modes",
    "SensorFaultTrial",
    "SensorFaultResult",
    "run_sensor_fault_study",
]


def simulate_varied_die(
    data: GeneratedData,
    index: int,
    benchmark: str,
    n_steps: int,
    resistance_sigma: float,
    open_fraction: float,
    seed_prefix: str = "",
) -> Tuple[np.ndarray, np.ndarray]:
    """Re-simulate ``benchmark`` on varied die ``index`` of the nominal grid.

    The die perturbs the nominal grid with
    :func:`with_resistance_variation` (plus :func:`with_open_branches`
    when ``open_fraction > 0``).  Its load comes from the same builder
    as the datasets', run with the generating setup's evaluation
    :class:`~repro.experiments.config.DataConfig` — its workload
    options and its warm-up — for ``n_steps`` recorded steps, so a
    die's error differs from the nominal one by the die alone.  Seeds
    derive from ``seed_prefix`` and the die index
    (``{prefix}rvar-{i}``, ``{prefix}open-{i}``, ``{prefix}act-{i}``),
    so each caller keeps its own stream of dies.

    Returns
    -------
    tuple
        ``(X, F)``: the recorded voltages at the training dataset's
        candidate and critical nodes.

    Raises
    ------
    ValueError
        If ``data`` carries no generating setup.
    """
    if data.setup is None:
        raise ValueError(
            "simulate_varied_die needs GeneratedData.setup: a varied die "
            "runs the generating setup's evaluation workload"
        )
    chip = data.chip
    grid = with_resistance_variation(
        chip.grid, resistance_sigma, rng=seed_for(f"{seed_prefix}rvar-{index}")
    )
    if open_fraction > 0:
        grid = with_open_branches(
            grid, open_fraction, rng=seed_for(f"{seed_prefix}open-{index}")
        )
    workload = replace(
        data.setup.eval,
        steps_per_benchmark=n_steps,
        seed=seed_for(f"{seed_prefix}act-{index}"),
    )
    result = TransientSolver(grid, chip.config.timestep).simulate(
        _benchmark_load(chip, benchmark, workload),
        n_steps=n_steps,
        warmup_steps=workload.warmup_steps,
    )
    return (
        result.voltages[:, data.train.candidate_nodes],
        result.voltages[:, data.train.critical_nodes],
    )


@dataclass
class SensorFaultTrial:
    """One (fault mode, sensor) trial of the sensor-fault study.

    Attributes
    ----------
    mode:
        Fault mode name (``dropout`` / ``stuck`` / ``drift`` /
        ``glitch``).
    candidate_col:
        Dataset candidate column of the faulted sensor.
    screen:
        Which screen detected it (empty string if undetected).
    detect_latency:
        Cycles from fault onset to detection (``nan`` if undetected).
    degraded_error:
        Relative prediction error of the model actually served after
        failover.
    fallback_error:
        Relative error of the precomputed leave-one-out fallback for
        that sensor (should equal ``degraded_error`` for a single
        failure — the failover is exact, not approximate).
    """

    mode: str
    candidate_col: int
    screen: str
    detect_latency: float
    degraded_error: float
    fallback_error: float


@dataclass
class SensorFaultResult:
    """Sensor-fault study outcome: detection + degradation per trial."""

    trials: List[SensorFaultTrial]
    baseline_error: float
    n_sensors: int

    @property
    def worst_degraded_error(self) -> float:
        """Worst post-failover relative error across trials."""
        return max(t.degraded_error for t in self.trials)

    @property
    def all_detected(self) -> bool:
        """Whether every injected fault was detected."""
        return all(np.isfinite(t.detect_latency) for t in self.trials)


#: Fault modes the sensor-fault study can inject (see :func:`_fault_for_mode`).
FAULT_MODES = ("dropout", "stuck", "drift", "glitch")


def check_fault_modes(modes: Tuple[str, ...]) -> None:
    """Raise ``ValueError`` naming each entry of ``modes`` not in :data:`FAULT_MODES`."""
    unknown = [m for m in modes if m not in FAULT_MODES]
    if unknown:
        raise ValueError(
            f"unknown fault mode(s) {', '.join(map(repr, unknown))}; "
            f"expected one of {FAULT_MODES}"
        )


def _fault_for_mode(
    mode: str, channel: int, start: int, policy: FaultPolicy
) -> SensorFault:
    """A representative injector of ``mode`` on ``channel``.

    ``mode`` is one of :data:`FAULT_MODES`: callers check their modes
    with :func:`check_fault_modes` before any replay.
    """
    if mode == "dropout":
        return DropoutFault(channel=channel, start=start)
    if mode == "stuck":
        return StuckAtFault(
            channel=channel, start=start, value=0.5 * (policy.v_lo + policy.v_hi)
        )
    if mode == "drift":
        # Ramp toward (and past) the upper plausibility bound.
        span = policy.v_hi - policy.v_lo
        return DriftFault(
            channel=channel, start=start, anchor=policy.v_hi - 0.25 * span,
            rate=span / 64.0,
        )
    return GlitchFault(channel=channel, start=start, lsb=0.0625)


def run_sensor_fault_study(
    dataset: VoltageDataset,
    eval_dataset: Optional[VoltageDataset] = None,
    budget: float = 1.0,
    model: Optional[PlacementModel] = None,
    policy: Optional[FaultPolicy] = None,
    modes: tuple = FAULT_MODES,
    fault_start: int = 20,
    n_cycles: int = 200,
) -> SensorFaultResult:
    """Measure fault-detection latency and post-failover accuracy.

    For every placed sensor and every fault mode, replays the
    evaluation sensor stream with that single sensor corrupted through
    the real :mod:`repro.monitor.faults` injectors, serves it through a
    :class:`~repro.monitor.fleet.FleetMonitor` with online screening,
    and records how fast the fault is caught and how much accuracy the
    leave-one-out failover costs relative to the healthy model.

    Parameters
    ----------
    dataset:
        Training data the placement is fitted on.
    eval_dataset:
        Held-out data for streams and error measurement (defaults to
        ``dataset``).
    budget:
        Lambda for the fit (ignored when ``model`` given).
    model:
        Optional pre-fitted placement to reuse.
    policy:
        Fault screens; defaults to a band around the observed sensor
        range with an 8-cycle frozen window.
    modes:
        Fault modes to inject.
    fault_start:
        Cycle the fault switches on.
    n_cycles:
        Stream length per trial.
    """
    check_fault_modes(modes)
    if model is None:
        model = fit_placement(dataset, PipelineConfig(budget=budget))
    ev = dataset if eval_dataset is None else eval_dataset
    cols = model.sensor_candidate_cols
    readings = ev.X[:, cols]
    if readings.shape[0] < n_cycles:
        reps = int(np.ceil(n_cycles / readings.shape[0]))
        readings = np.tile(readings, (reps, 1))
    readings = readings[:n_cycles]
    if policy is None:
        lo, hi = float(readings.min()), float(readings.max())
        margin = 0.05 * max(hi - lo, 1e-3)
        policy = FaultPolicy(
            v_lo=lo - margin, v_hi=hi + margin, frozen_window=8,
            frozen_eps=0.0,
        )
    baseline_error = mean_relative_error(model.predict(ev.X), ev.F)
    fallbacks = model.fallback_models()

    trials: List[SensorFaultTrial] = []
    for mode in modes:
        for q, col in enumerate(cols):
            fault = _fault_for_mode(mode, q, fault_start, policy)
            stream = fault.apply(readings)
            fleet = FleetMonitor(
                model, threshold=1e-6, n_streams=1, policy=policy
            )
            fleet.run_batch(stream[np.newaxis])
            fleet.finish()
            failures = fleet.failures[0]
            detected = bool(failures)
            served = fleet.model_for(0)
            degraded = mean_relative_error(served.predict(ev.X), ev.F)
            fallback = mean_relative_error(
                fallbacks[int(col)].predict(ev.X), ev.F
            )
            trials.append(
                SensorFaultTrial(
                    mode=mode,
                    candidate_col=int(col),
                    screen=failures[0].screen if detected else "",
                    detect_latency=(
                        float(failures[0].cycle - fault_start)
                        if detected
                        else float("nan")
                    ),
                    degraded_error=degraded,
                    fallback_error=fallback,
                )
            )
    return SensorFaultResult(
        trials=trials,
        baseline_error=baseline_error,
        n_sensors=model.n_sensors,
    )

