"""Detection operating-curve study: error rates vs noise margin.

The paper fixes the emergency threshold at 0.85 V.  Designers, however,
choose the margin, and the ME/WAE balance of any detector moves with
it: a tighter margin (higher threshold) makes emergencies common and
shallow; a looser one makes them rare and deep.  This study sweeps the
threshold and traces each approach's (ME, WAE) operating points — the
detection analog of an ROC curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.baselines import EagleEyeModel, PlacementConstraints, get_placer
from repro.core.lambda_sweep import fit_for_sensor_count
from repro.core.pipeline import PlacementModel
from repro.experiments.data_generation import GeneratedData
from repro.voltage.emergencies import any_emergency
from repro.voltage.metrics import ErrorRates, detection_error_rates
from repro.utils.tables import format_table

__all__ = ["ThresholdSweepResult", "run_threshold_sweep", "render_threshold_sweep"]


@dataclass
class ThresholdSweepResult:
    """Operating points across emergency thresholds.

    Attributes
    ----------
    thresholds:
        Swept thresholds (V).
    prevalence:
        Evaluation emergency prevalence at each threshold.
    eagle_eye, proposed:
        Error rates at each threshold.  Both detectors use placements
        fitted once (placement does not depend on the margin in the
        paper's flow); Eagle-Eye's *alarm* threshold tracks the swept
        margin.
    sensors_per_core:
        The fixed sensor budget.
    """

    thresholds: List[float]
    prevalence: List[float]
    eagle_eye: List[ErrorRates]
    proposed: List[ErrorRates]
    sensors_per_core: int


def run_threshold_sweep(
    data: GeneratedData,
    thresholds: Optional[Sequence[float]] = None,
    sensors_per_core: int = 2,
    proposed_model: Optional[PlacementModel] = None,
) -> ThresholdSweepResult:
    """Sweep the emergency threshold at a fixed sensor budget.

    Parameters
    ----------
    data:
        Generated datasets.
    thresholds:
        Margins to sweep (V); defaults to a band around the config's
        threshold.
    sensors_per_core:
        Sensor budget for both approaches.
    proposed_model:
        Optional pre-fitted placement to reuse.
    """
    base = data.chip.config.emergency_threshold
    if thresholds is None:
        thresholds = [base - 0.02, base - 0.01, base, base + 0.01, base + 0.02]
    if proposed_model is None:
        proposed_model = fit_for_sensor_count(
            data.train, target_per_core=float(sensors_per_core)
        )

    placer = get_placer("eagle_eye")
    prevalence: List[float] = []
    ee_rates: List[ErrorRates] = []
    prop_rates: List[ErrorRates] = []
    for thr in thresholds:
        thr = float(thr)
        # Eagle-Eye's placement objective depends on the margin, so it
        # re-places per threshold (cheap greedy); ours does not.
        placement = placer.place(
            data.train,
            sensors_per_core,
            constraints=PlacementConstraints(emergency_threshold=thr),
        )
        eagle = EagleEyeModel(placement.selected_cols, thr)
        truth = any_emergency(data.eval.F, thr)
        prevalence.append(float(truth.mean()))
        ee_rates.append(detection_error_rates(truth, eagle.alarm(data.eval.X)))
        prop_rates.append(
            detection_error_rates(truth, proposed_model.alarm(data.eval.X, thr))
        )
    return ThresholdSweepResult(
        thresholds=[float(t) for t in thresholds],
        prevalence=prevalence,
        eagle_eye=ee_rates,
        proposed=prop_rates,
        sensors_per_core=sensors_per_core,
    )


def render_threshold_sweep(result: ThresholdSweepResult) -> str:
    """Render the operating-curve table."""
    rows = []
    for i, thr in enumerate(result.thresholds):
        ee = result.eagle_eye[i]
        pr = result.proposed[i]
        rows.append(
            [
                f"{thr:.3f}",
                f"{result.prevalence[i]:.4f}",
                ee.miss,
                pr.miss,
                ee.wrong_alarm,
                pr.wrong_alarm,
                ee.total,
                pr.total,
            ]
        )
    return format_table(
        headers=[
            "margin (V)",
            "prevalence",
            "EE ME",
            "Prop ME",
            "EE WAE",
            "Prop WAE",
            "EE TE",
            "Prop TE",
        ],
        rows=rows,
        title=(
            "Operating curve — error rates vs noise margin "
            f"({result.sensors_per_core} sensors/core)"
        ),
    )
