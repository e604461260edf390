"""Experiment Fig. 4: error rates vs total sensor count (one benchmark).

Reproduces the paper's Figure 4 (shown there for BM4): sweeping the
total number of allocated sensors, the proposed approach dominates
Eagle-Eye on miss and total error throughout, while at small sensor
counts Eagle-Eye can edge out on wrong-alarm error (its own-voltage
alarms fire only on genuinely low local voltage).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.baselines import EagleEyeModel, PlacementConstraints, get_placer
from repro.core.lambda_sweep import fit_for_sensor_count
from repro.experiments.data_generation import GeneratedData
from repro.voltage.emergencies import any_emergency
from repro.voltage.metrics import ErrorRates, detection_error_rates
from repro.utils.ascii_plot import multi_line_plot
from repro.utils.tables import format_table

__all__ = ["Fig4Result", "run_fig4", "render_fig4"]


@dataclass
class Fig4Result:
    """Error-rate curves vs sensor count for one benchmark.

    Attributes
    ----------
    benchmark:
        The evaluated benchmark (paper: BM4).
    sensors_per_core:
        Swept per-core sensor counts.
    total_sensors:
        Actual chip-total sensors of the proposed model at each point.
    eagle_eye, proposed:
        Error rates per sweep point, aligned with ``sensors_per_core``.
    """

    benchmark: str
    sensors_per_core: List[int]
    total_sensors: List[int]
    eagle_eye: List[ErrorRates]
    proposed: List[ErrorRates]


def run_fig4(
    data: GeneratedData,
    benchmark: Optional[str] = None,
    sensor_counts: Sequence[int] = (1, 2, 3, 5, 7),
) -> Fig4Result:
    """Sweep sensor counts for both approaches on one benchmark.

    Parameters
    ----------
    data:
        Generated datasets.
    benchmark:
        Benchmark to evaluate (defaults to the 4th of the suite,
        mirroring the paper's BM4).
    sensor_counts:
        Per-core sensor counts to sweep.
    """
    if benchmark is None:
        names = data.eval.benchmark_names
        benchmark = names[3] if len(names) > 3 else names[-1]
    threshold = data.chip.config.emergency_threshold
    sub = data.eval.subset_benchmark(benchmark)
    truth = any_emergency(sub.F, threshold)

    placer = get_placer("eagle_eye")
    constraints = PlacementConstraints(emergency_threshold=threshold)
    ee_rates: List[ErrorRates] = []
    prop_rates: List[ErrorRates] = []
    totals: List[int] = []
    for q in sensor_counts:
        placement = placer.place(data.train, int(q), constraints=constraints)
        eagle = EagleEyeModel(placement.selected_cols, threshold)
        model = fit_for_sensor_count(data.train, target_per_core=float(q))
        ee_rates.append(detection_error_rates(truth, eagle.alarm(sub.X)))
        prop_rates.append(
            detection_error_rates(truth, model.alarm(sub.X, threshold))
        )
        totals.append(model.n_sensors)
    return Fig4Result(
        benchmark=benchmark,
        sensors_per_core=[int(q) for q in sensor_counts],
        total_sensors=totals,
        eagle_eye=ee_rates,
        proposed=prop_rates,
    )


def render_fig4(result: Fig4Result) -> str:
    """ASCII curves + table of the Fig. 4 sweep."""
    x = result.sensors_per_core
    plot = multi_line_plot(
        [
            [r.miss for r in result.eagle_eye],
            [r.miss for r in result.proposed],
            [r.total for r in result.eagle_eye],
            [r.total for r in result.proposed],
        ],
        x=x,
        width=64,
        height=14,
        title=f"Fig. 4 — error rates vs sensors/core ({result.benchmark})",
        y_label="rate",
        labels=["EE ME", "Prop ME", "EE TE", "Prop TE"],
    )
    rows = []
    for i, q in enumerate(x):
        ee = result.eagle_eye[i]
        pr = result.proposed[i]
        rows.append(
            [
                q,
                result.total_sensors[i],
                ee.miss,
                pr.miss,
                ee.wrong_alarm,
                pr.wrong_alarm,
                ee.total,
                pr.total,
            ]
        )
    table = format_table(
        headers=[
            "sensors/core",
            "total (prop)",
            "EE ME",
            "Prop ME",
            "EE WAE",
            "Prop WAE",
            "EE TE",
            "Prop TE",
        ],
        rows=rows,
    )
    return plot + "\n\n" + table
