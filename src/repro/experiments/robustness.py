"""Placement robustness to manufacturing variation (extension).

The placement and prediction model are fitted on the *nominal* grid
(design-time simulation), but every fabricated die deviates from
nominal.  This study re-simulates evaluation workloads on randomly
varied grids (resistance spread, open branches) and measures how the
fitted model's accuracy and detection quality degrade — the question a
production deployment actually faces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.pipeline import PipelineConfig, PlacementModel, fit_placement
from repro.experiments.data_generation import GeneratedData
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
from repro.voltage.emergencies import any_emergency
from repro.voltage.metrics import detection_error_rates, mean_relative_error
from repro.workload.activity import generate_activity
from repro.workload.benchmarks import get_benchmark
from repro.utils.rng import seed_for
from repro.utils.tables import format_table

__all__ = [
    "RobustnessResult",
    "simulate_varied_die",
    "run_robustness_study",
    "render_robustness",
    "FAULT_MODES",
    "check_fault_modes",
    "SensorFaultTrial",
    "SensorFaultResult",
    "run_sensor_fault_study",
    "render_sensor_faults",
]


@dataclass
class RobustnessResult:
    """Accuracy/detection across varied-grid instances.

    Attributes
    ----------
    nominal_error:
        Evaluation relative error on the nominal grid.
    instance_errors:
        Relative error per varied grid instance.
    instance_total_rates:
        Detection TE per instance (``nan`` when an instance run shows
        no emergencies).
    resistance_sigma, open_fraction:
        The variation magnitudes applied.
    n_sensors:
        Sensors in the (nominal-fitted) placement.
    """

    nominal_error: float
    instance_errors: List[float]
    instance_total_rates: List[float]
    resistance_sigma: float
    open_fraction: float
    n_sensors: int

    @property
    def worst_error(self) -> float:
        """Worst relative error across instances."""
        return max(self.instance_errors)

    @property
    def mean_error(self) -> float:
        """Mean relative error across instances."""
        return float(np.mean(self.instance_errors))


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
    when ``open_fraction > 0``); the workload runs 50 warm-up steps and
    ``n_steps`` recorded steps.  Seeds derive from ``seed_prefix`` and
    the die index (``{prefix}rvar-{i}``, ``{prefix}open-{i}``,
    ``{prefix}act-{i}-{benchmark}``), so each caller keeps its own
    stream of dies.

    Returns
    -------
    tuple
        ``(X, F)``: the recorded voltages at the training dataset's
        candidate and critical nodes.
    """
    chip = data.chip
    grid = with_resistance_variation(
        chip.grid, resistance_sigma, rng=seed_for(f"{seed_prefix}rvar-{index}")
    )
    if open_fraction > 0:
        grid = with_open_branches(
            grid, open_fraction, rng=seed_for(f"{seed_prefix}open-{index}")
        )
    traces = generate_activity(
        chip.floorplan,
        get_benchmark(benchmark),
        n_steps=n_steps + 50,
        rng=seed_for(f"{seed_prefix}act-{index}-{benchmark}"),
    )
    load = chip.mapper.bound(chip.power_model.block_power(traces))
    result = TransientSolver(grid, chip.config.timestep).simulate(
        load, n_steps=n_steps, warmup_steps=50
    )
    return (
        result.voltages[:, data.train.candidate_nodes],
        result.voltages[:, data.train.critical_nodes],
    )


def run_robustness_study(
    data: GeneratedData,
    n_instances: int = 3,
    resistance_sigma: float = 0.1,
    open_fraction: float = 0.02,
    budget: float = 1.0,
    benchmark: Optional[str] = None,
    n_steps: int = 300,
    model: Optional[PlacementModel] = None,
) -> RobustnessResult:
    """Evaluate a nominal-fitted placement on varied grid instances.

    Parameters
    ----------
    data:
        Generated datasets (nominal chip + training data).
    n_instances:
        Number of varied die instances to simulate.
    resistance_sigma:
        Lognormal branch-resistance spread per instance.
    open_fraction:
        Fraction of branches opened per instance (EM/via failures).
    budget:
        Lambda for the nominal fit (ignored when ``model`` given).
    benchmark:
        Workload run on each instance (defaults to the suite's first).
    n_steps:
        Recorded steps per instance run.
    model:
        Optional pre-fitted placement to reuse.
    """
    if n_instances < 1:
        raise ValueError("n_instances must be >= 1")
    chip = data.chip
    if model is None:
        model = fit_placement(data.train, PipelineConfig(budget=budget))
    if benchmark is None:
        benchmark = data.train.benchmark_names[0]
    threshold = chip.config.emergency_threshold

    nominal_error = mean_relative_error(
        model.predict(data.eval.X), data.eval.F
    )

    instance_errors: List[float] = []
    instance_te: List[float] = []
    for inst in range(n_instances):
        X, F = simulate_varied_die(
            data, inst, benchmark, n_steps, resistance_sigma, open_fraction
        )
        instance_errors.append(mean_relative_error(model.predict(X), F))
        truth = any_emergency(F, threshold)
        if truth.any():
            rates = detection_error_rates(
                truth, model.alarm(X, threshold)
            )
            instance_te.append(rates.total)
        else:
            instance_te.append(float("nan"))

    return RobustnessResult(
        nominal_error=nominal_error,
        instance_errors=instance_errors,
        instance_total_rates=instance_te,
        resistance_sigma=resistance_sigma,
        open_fraction=open_fraction,
        n_sensors=model.n_sensors,
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


def render_sensor_faults(result: SensorFaultResult) -> str:
    """Render the sensor-fault study table."""
    rows = []
    for t in result.trials:
        rows.append(
            [
                t.mode,
                str(t.candidate_col),
                t.screen or "MISSED",
                "n/a" if np.isnan(t.detect_latency) else f"{t.detect_latency:.0f}",
                f"{100 * t.degraded_error:.4f}",
            ]
        )
    table = format_table(
        headers=["fault", "sensor col", "screen", "latency (cyc)", "rel err %"],
        rows=rows,
        title=(
            "Sensor faults — detection and leave-one-out failover "
            f"({result.n_sensors} sensors)"
        ),
    )
    return table + (
        f"\nhealthy rel err {100 * result.baseline_error:.4f}% | "
        f"worst degraded {100 * result.worst_degraded_error:.4f}% | "
        f"all faults detected: {result.all_detected}"
    )


def render_robustness(result: RobustnessResult) -> str:
    """Render the robustness study table."""
    rows = []
    for i, (err, te) in enumerate(
        zip(result.instance_errors, result.instance_total_rates)
    ):
        rows.append(
            [
                f"instance {i}",
                f"{100 * err:.4f}",
                "n/a" if np.isnan(te) else f"{te:.4f}",
            ]
        )
    table = format_table(
        headers=["die", "rel err %", "detection TE"],
        rows=rows,
        title=(
            "Robustness — nominal-fitted placement on varied dies "
            f"(R sigma {result.resistance_sigma:g}, "
            f"{100 * result.open_fraction:.0f}% opens, "
            f"{result.n_sensors} sensors)"
        ),
    )
    return table + (
        f"\nnominal rel err {100 * result.nominal_error:.4f}% | "
        f"varied mean {100 * result.mean_error:.4f}%, "
        f"worst {100 * result.worst_error:.4f}%"
    )
