"""Placement-algorithm tournament across the scenario suite.

Races registered :class:`~repro.baselines.placer.Placer` names under
identical conditions — each placer is built with ``get_placer(name)``
and places exactly once, on the training data — and scores each
placement on the three scenario axes the library already simulates:

* **benchmarks** — nominal held-out evaluation maps: aggregated
  relative error plus the paper's ME/WAE/TE detection rates, overall
  and per benchmark;
* **variation** — re-simulated evaluation workloads on varied grid
  instances (:func:`~repro.experiments.robustness.simulate_varied_die`:
  resistance spread + open branches), each instance simulated *once*
  and shared by every placer;
* **faults** — the trials of
  :func:`~repro.experiments.robustness.run_sensor_fault_study`: every
  (fault mode, placed sensor) pair injected into a
  :class:`~repro.monitor.fleet.FleetMonitor` stream, aggregated into
  the detected fraction and the *degraded-mode error*: the error of
  the model actually served after failover, measured on clean
  evaluation data (worst case over sensors = the cost of losing your
  worst sensor).

Placers are ranked by ``overall_error`` — the mean of the nominal and
per-variation-instance relative errors (degraded-mode error is
reported but not ranked on, so robustness/accuracy trade-offs stay
visible).  The result serializes to a ``repro.bench/v1`` document
(mode ``"tournament"``; see :mod:`repro.obs.benchjson`) and renders as
a markdown leaderboard — ``python benchmarks/run_bench.py
--tournament`` writes both to ``results/``.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.baselines import Placement, PlacementConstraints, Placer, get_placer
from repro.core.pipeline import PlacementModel, placement_model_from_cols
from repro.experiments.data_generation import GeneratedData
from repro.experiments.robustness import (
    check_fault_modes,
    run_sensor_fault_study,
    simulate_varied_die,
)
from repro.voltage.emergencies import any_emergency
from repro.voltage.metrics import detection_error_rates, mean_relative_error
from repro.utils.tables import format_table
from repro.utils.validation import check_integer, check_non_negative

__all__ = [
    "DEFAULT_PLACERS",
    "TournamentConfig",
    "VariationInstance",
    "TournamentEntry",
    "TournamentResult",
    "simulate_variation_instances",
    "run_tournament",
    "render_leaderboard_markdown",
]

#: Default field: the paper's group lasso, the modern competitors, and
#: every classic baseline including the random floor.
DEFAULT_PLACERS = (
    "group_lasso",
    "qr_pivot",
    "frame_potential",
    "robust",
    "correlation",
    "eagle_eye",
    "ols_magnitude",
    "plain_lasso",
    "worst_noise",
    "random",
)


@dataclass(frozen=True)
class TournamentConfig:
    """Scenario grid and placement settings of one tournament.

    Attributes
    ----------
    placers:
        Registry names to race.
    budget:
        Sensors per core for every placer.
    n_variation:
        Varied-grid die instances to simulate (0 disables the axis).
    resistance_sigma, open_fraction:
        Variation magnitudes per instance.
    variation_steps:
        Recorded steps per instance simulation.
    fault_modes:
        Fault injectors exercised per placed sensor (the modes of
        :func:`~repro.experiments.robustness.run_sensor_fault_study`).
    fault_start, fault_cycles:
        Onset cycle and stream length of each fault trial.
    seed:
        Seed for stochastic placers (threaded via the constraints).
    """

    placers: Tuple[str, ...] = DEFAULT_PLACERS
    budget: int = 2
    n_variation: int = 3
    resistance_sigma: float = 0.1
    open_fraction: float = 0.02
    variation_steps: int = 200
    fault_modes: Tuple[str, ...] = ("dropout", "stuck")
    fault_start: int = 16
    fault_cycles: int = 160
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.placers:
            raise ValueError("placers must be non-empty")
        check_integer(self.budget, "budget", minimum=1)
        check_integer(self.n_variation, "n_variation", minimum=0)
        check_integer(self.variation_steps, "variation_steps", minimum=1)
        check_integer(self.fault_cycles, "fault_cycles", minimum=1)
        check_integer(self.fault_start, "fault_start", minimum=0)
        check_non_negative(self.resistance_sigma, "resistance_sigma")
        check_non_negative(self.open_fraction, "open_fraction")
        if self.fault_start >= self.fault_cycles:
            raise ValueError("fault_start must be < fault_cycles")
        check_fault_modes(self.fault_modes)


@dataclass
class VariationInstance:
    """One varied die: the workload re-simulated on a perturbed grid."""

    index: int
    benchmark: str
    X: np.ndarray
    F: np.ndarray


@dataclass
class TournamentEntry:
    """One placer's scores across the scenario grid."""

    placer: str
    n_sensors: int
    selected_cols: np.ndarray
    place_s: float
    nominal: Dict[str, float]
    per_benchmark: Dict[str, Dict[str, float]]
    variation_errors: List[float]
    variation_total_rates: List[float]
    faults: Dict[str, Dict[str, float]]
    overall_error: float
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def worst_degraded_error(self) -> float:
        """Worst degraded-mode error over all fault modes (nan if none)."""
        if not self.faults:
            return float("nan")
        return max(m["worst_degraded_error"] for m in self.faults.values())

    @property
    def detected_fraction(self) -> float:
        """Fraction of injected faults detected, over all modes."""
        if not self.faults:
            return float("nan")
        return float(
            np.mean([m["detected_fraction"] for m in self.faults.values()])
        )


@dataclass
class TournamentResult:
    """Ranked tournament outcome (entries sorted best first)."""

    entries: List[TournamentEntry]
    config: TournamentConfig
    threshold: float
    benchmarks: List[str]
    variation_benchmarks: List[str]
    problems: List[str]
    profile: str = ""

    def entry(self, placer: str) -> TournamentEntry:
        """The entry of ``placer`` (KeyError if it failed/absent)."""
        for e in self.entries:
            if e.placer == placer:
                return e
        raise KeyError(f"no tournament entry for placer {placer!r}")

    def leaderboard(self) -> Dict[str, Any]:
        """The ``repro.bench/v1`` leaderboard document (mode tournament)."""
        entries = []
        for rank, e in enumerate(self.entries, start=1):
            entries.append(
                {
                    "rank": rank,
                    "placer": e.placer,
                    "n_sensors": int(e.n_sensors),
                    "selected_cols": [int(c) for c in e.selected_cols],
                    "place_s": round(float(e.place_s), 6),
                    "nominal": {k: _json_float(v) for k, v in e.nominal.items()},
                    "per_benchmark": {
                        bm: {k: _json_float(v) for k, v in row.items()}
                        for bm, row in e.per_benchmark.items()
                    },
                    "variation": {
                        "errors": [_json_float(v) for v in e.variation_errors],
                        "total_rates": [
                            _json_float(v) for v in e.variation_total_rates
                        ],
                        "mean_error": _json_float(
                            float(np.mean(e.variation_errors))
                            if e.variation_errors
                            else float("nan")
                        ),
                        "worst_error": _json_float(
                            max(e.variation_errors)
                            if e.variation_errors
                            else float("nan")
                        ),
                    },
                    "faults": {
                        mode: {k: _json_float(v) for k, v in row.items()}
                        for mode, row in e.faults.items()
                    },
                    "worst_degraded_error": _json_float(e.worst_degraded_error),
                    "detected_fraction": _json_float(e.detected_fraction),
                    "overall_error": _json_float(e.overall_error),
                }
            )
        return {
            "mode": "tournament",
            "profile": self.profile,
            "budget": int(self.config.budget),
            # Placement is always per core; the key keeps the committed
            # leaderboards and the golden fixture comparable.
            "per_core": True,
            "emergency_threshold": _json_float(self.threshold),
            "placers": list(self.config.placers),
            "scenarios": {
                "benchmarks": list(self.benchmarks),
                "n_variation": len(self.variation_benchmarks),
                "variation_benchmarks": list(self.variation_benchmarks),
                "resistance_sigma": self.config.resistance_sigma,
                "open_fraction": self.config.open_fraction,
                "fault_modes": list(self.config.fault_modes),
            },
            "entries": entries,
            "problems": list(self.problems),
        }

    def render(self) -> str:
        """ASCII leaderboard table for terminal output."""
        rows = []
        for rank, e in enumerate(self.entries, start=1):
            rows.append(
                [
                    str(rank),
                    e.placer,
                    str(e.n_sensors),
                    f"{100 * e.nominal['relative_error']:.4f}",
                    _fmt_rate(e.nominal["total"]),
                    (
                        f"{100 * float(np.mean(e.variation_errors)):.4f}"
                        if e.variation_errors
                        else "n/a"
                    ),
                    _fmt_pct(e.worst_degraded_error),
                    _fmt_rate(e.detected_fraction),
                    f"{100 * e.overall_error:.4f}",
                ]
            )
        table = format_table(
            headers=[
                "#", "placer", "sensors", "nominal %", "TE",
                "var mean %", "degraded %", "detected", "overall %",
            ],
            rows=rows,
            title=(
                f"Placement tournament — budget {self.config.budget} "
                f"per core, {len(self.benchmarks)} benchmarks, "
                f"{len(self.variation_benchmarks)} variation instances, "
                f"{len(self.config.fault_modes)} fault modes"
            ),
        )
        if self.problems:
            table += "\nproblems:\n" + "\n".join(
                f"  - {p}" for p in self.problems
            )
        return table


def _json_float(value: float) -> Optional[float]:
    """Finite float, or ``None`` for nan/inf (valid strict JSON)."""
    value = float(value)
    return value if np.isfinite(value) else None


def _fmt_rate(value: float) -> str:
    return "n/a" if not np.isfinite(value) else f"{value:.4f}"


def _fmt_pct(value: float) -> str:
    return "n/a" if not np.isfinite(value) else f"{100 * value:.4f}"


def simulate_variation_instances(
    data: GeneratedData, config: TournamentConfig
) -> List[VariationInstance]:
    """Simulate the varied-die instances once, for all placers to share.

    Instance ``i`` is :func:`simulate_varied_die` die ``i`` (seed prefix
    ``tournament-``), running one benchmark workload cycled through the
    training suite.
    """
    names = data.train.benchmark_names
    instances: List[VariationInstance] = []
    for inst in range(config.n_variation):
        benchmark = names[inst % len(names)]
        X, F = simulate_varied_die(
            data,
            inst,
            benchmark,
            config.variation_steps,
            config.resistance_sigma,
            config.open_fraction,
            seed_prefix="tournament-",
        )
        instances.append(
            VariationInstance(index=inst, benchmark=benchmark, X=X, F=F)
        )
    return instances


def _detection_row(
    truth: np.ndarray, alarm: np.ndarray
) -> Dict[str, float]:
    """ME/WAE/TE of ``alarm`` against ``truth`` (nan-safe)."""
    rates = detection_error_rates(truth, alarm)
    return {
        "miss": rates.miss,
        "wrong_alarm": rates.wrong_alarm,
        "total": rates.total,
    }


def _score_faults(
    model: PlacementModel, data: GeneratedData, config: TournamentConfig
) -> Dict[str, Dict[str, float]]:
    """Degraded-mode scores per fault mode.

    Aggregates the :func:`run_sensor_fault_study` trials of ``model``
    on the evaluation stream — one per (mode, placed sensor) — into the
    worst and mean post-failover error and the detected fraction.
    """
    study = run_sensor_fault_study(
        data.train,
        data.eval,
        model=model,
        modes=config.fault_modes,
        fault_start=config.fault_start,
        n_cycles=config.fault_cycles,
    )
    out: Dict[str, Dict[str, float]] = {}
    for mode in config.fault_modes:
        trials = [t for t in study.trials if t.mode == mode]
        degraded = [t.degraded_error for t in trials]
        detected = sum(1 for t in trials if t.screen)
        out[mode] = {
            "worst_degraded_error": max(degraded),
            "mean_degraded_error": float(np.mean(degraded)),
            "detected_fraction": detected / len(trials),
        }
    return out


def _evaluate_placer(
    placer: Placer,
    data: GeneratedData,
    constraints: PlacementConstraints,
    variations: List[VariationInstance],
    config: TournamentConfig,
) -> TournamentEntry:
    """Place, fit the readout, and score one placer on every scenario."""
    train, ev = data.train, data.eval
    threshold = data.chip.config.emergency_threshold

    t0 = _time.perf_counter()
    placement: Placement = placer.place(
        train, config.budget, constraints=constraints
    )
    place_s = _time.perf_counter() - t0
    model = placement_model_from_cols(train, placement.selected_cols)

    pred = model.predict(ev.X)
    truth = any_emergency(ev.F, threshold)
    alarm = np.any(pred < threshold, axis=1)
    nominal = {"relative_error": mean_relative_error(pred, ev.F)}
    nominal.update(_detection_row(truth, alarm))

    per_benchmark: Dict[str, Dict[str, float]] = {}
    for bm in ev.benchmark_names:
        sub = ev.subset_benchmark(bm)
        pred_b = model.predict(sub.X)
        row = {"relative_error": mean_relative_error(pred_b, sub.F)}
        row.update(
            _detection_row(
                any_emergency(sub.F, threshold),
                np.any(pred_b < threshold, axis=1),
            )
        )
        per_benchmark[bm] = row

    variation_errors: List[float] = []
    variation_te: List[float] = []
    for inst in variations:
        pred_v = model.predict(inst.X)
        variation_errors.append(mean_relative_error(pred_v, inst.F))
        truth_v = any_emergency(inst.F, threshold)
        variation_te.append(
            detection_error_rates(
                truth_v, np.any(pred_v < threshold, axis=1)
            ).total
            if truth_v.any()
            else float("nan")
        )

    faults = _score_faults(model, data, config) if config.fault_modes else {}

    overall = float(np.mean([nominal["relative_error"]] + variation_errors))
    return TournamentEntry(
        placer=placer.name,
        n_sensors=placement.n_sensors,
        selected_cols=placement.selected_cols,
        place_s=place_s,
        nominal=nominal,
        per_benchmark=per_benchmark,
        variation_errors=variation_errors,
        variation_total_rates=variation_te,
        faults=faults,
        overall_error=overall,
        meta=placement.meta,
    )


def run_tournament(
    data: GeneratedData, config: Optional[TournamentConfig] = None
) -> TournamentResult:
    """Race every configured placer across the scenario grid.

    Parameters
    ----------
    data:
        Generated chip + train/eval datasets; placements fit on
        ``data.train``, scores come from ``data.eval`` and the derived
        variation/fault scenarios.
    config:
        Scenario grid settings (defaults to :class:`TournamentConfig`).

    Returns
    -------
    TournamentResult
        Entries ranked by ``overall_error`` ascending (ties by name).
        A placer that raises is reported in ``problems`` and excluded
        from the ranking instead of failing the tournament.
    """
    if config is None:
        config = TournamentConfig()
    constraints = PlacementConstraints(
        emergency_threshold=data.chip.config.emergency_threshold,
        seed=config.seed,
    )
    variations = simulate_variation_instances(data, config)

    entries: List[TournamentEntry] = []
    problems: List[str] = []
    for name in config.placers:
        try:
            entries.append(
                _evaluate_placer(
                    get_placer(name), data, constraints, variations, config
                )
            )
        except Exception as exc:  # noqa: BLE001 — one bad placer must not kill the race
            problems.append(f"{name}: {type(exc).__name__}: {exc}")

    entries.sort(
        key=lambda e: (
            e.overall_error if np.isfinite(e.overall_error) else np.inf,
            e.placer,
        )
    )
    return TournamentResult(
        entries=entries,
        config=config,
        threshold=data.chip.config.emergency_threshold,
        benchmarks=list(data.eval.benchmark_names),
        variation_benchmarks=[v.benchmark for v in variations],
        problems=problems,
        profile=data.setup.name if data.setup is not None else "",
    )


def render_leaderboard_markdown(result: TournamentResult) -> str:
    """The committed markdown leaderboard (``results/leaderboard.md``)."""
    cfg = result.config
    lines = [
        "# Placement tournament leaderboard",
        "",
        f"Profile `{result.profile or 'custom'}` — budget {cfg.budget} "
        f"per core, emergency threshold {result.threshold:.4f} V.",
        f"Scenarios: {len(result.benchmarks)} benchmarks "
        f"({', '.join(result.benchmarks)}), "
        f"{len(result.variation_benchmarks)} variation instances "
        f"(R sigma {cfg.resistance_sigma:g}, "
        f"{100 * cfg.open_fraction:g}% opens), "
        f"fault modes: {', '.join(cfg.fault_modes)}.",
        "",
        "Ranked by overall relative error (mean of nominal + variation"
        " instances). Degraded = worst post-failover error over every"
        " (fault mode, sensor) pair, measured on clean evaluation data.",
        "",
        "| # | placer | sensors | nominal err % | ME | WAE | TE "
        "| var mean % | var worst % | degraded worst % | detected "
        "| overall % |",
        "|---|--------|---------|---------------|----|-----|----"
        "|------------|-------------|------------------|----------"
        "|-----------|",
    ]
    for rank, e in enumerate(result.entries, start=1):
        var_mean = (
            f"{100 * float(np.mean(e.variation_errors)):.4f}"
            if e.variation_errors
            else "n/a"
        )
        var_worst = (
            f"{100 * max(e.variation_errors):.4f}"
            if e.variation_errors
            else "n/a"
        )
        lines.append(
            f"| {rank} | {e.placer} | {e.n_sensors} "
            f"| {100 * e.nominal['relative_error']:.4f} "
            f"| {_fmt_rate(e.nominal['miss'])} "
            f"| {_fmt_rate(e.nominal['wrong_alarm'])} "
            f"| {_fmt_rate(e.nominal['total'])} "
            f"| {var_mean} | {var_worst} "
            f"| {_fmt_pct(e.worst_degraded_error)} "
            f"| {_fmt_rate(e.detected_fraction)} "
            f"| {100 * e.overall_error:.4f} |"
        )
    if result.problems:
        lines += ["", "Excluded placers:", ""]
        lines += [f"- `{p}`" for p in result.problems]
    lines.append("")
    return "\n".join(lines)
