"""Experiment Table 2: per-benchmark ME/WAE/TE, Eagle-Eye vs proposed.

Reproduces the paper's Table 2 with 2 sensors per core: across the 19
benchmarks, the proposed model roughly halves miss-error and
total-error rates vs Eagle-Eye, while wrong-alarm rates stay below
1e-3 and miss error dominates the total error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.baselines import EagleEyeModel, PlacementConstraints, get_placer
from repro.core.lambda_sweep import fit_for_sensor_count
from repro.core.pipeline import PlacementModel
from repro.experiments.data_generation import GeneratedData
from repro.voltage.emergencies import any_emergency
from repro.voltage.metrics import (
    ErrorRates,
    blockwise_error_rates,
    detection_error_rates,
)
from repro.utils.tables import format_table

__all__ = ["Table2Result", "run_table2", "render_table2"]


@dataclass
class Table2Result:
    """Per-benchmark detection error rates for both approaches.

    Attributes
    ----------
    sensors_per_core:
        Sensors per core used (paper: 2).
    eagle_eye, proposed:
        ``benchmark -> ErrorRates`` for each approach, on the
        evaluation dataset.
    proposed_model, eagle_eye_model:
        The fitted artifacts (for reuse by other experiments).
    """

    sensors_per_core: int
    eagle_eye: Dict[str, ErrorRates]
    proposed: Dict[str, ErrorRates]
    proposed_model: PlacementModel
    eagle_eye_model: EagleEyeModel
    eagle_eye_block: Optional[ErrorRates] = None
    proposed_block: Optional[ErrorRates] = None

    def mean_rates(self, which: str) -> "tuple[float, float, float]":
        """Benchmark-mean (ME, WAE, TE) for ``which`` in {'eagle_eye',
        'proposed'} (NaN rates from emergency-free benchmarks skipped)."""
        table = self.eagle_eye if which == "eagle_eye" else self.proposed
        me = [r.miss for r in table.values() if not np.isnan(r.miss)]
        wae = [r.wrong_alarm for r in table.values() if not np.isnan(r.wrong_alarm)]
        te = [r.total for r in table.values()]
        return (
            float(np.mean(me)) if me else float("nan"),
            float(np.mean(wae)) if wae else float("nan"),
            float(np.mean(te)),
        )


def run_table2(
    data: GeneratedData,
    sensors_per_core: int = 2,
    proposed_model: Optional[PlacementModel] = None,
) -> Table2Result:
    """Fit both approaches and score them per benchmark.

    Parameters
    ----------
    data:
        Generated datasets; fitting uses the training data, scoring the
        evaluation data (fresh workload realizations).
    sensors_per_core:
        Sensor budget (paper Table 2: 2 per core).
    proposed_model:
        Optional pre-fitted placement (e.g. reused from another
        experiment) — must use ~``sensors_per_core`` sensors.
    """
    threshold = data.chip.config.emergency_threshold
    if proposed_model is None:
        proposed_model = fit_for_sensor_count(
            data.train, target_per_core=float(sensors_per_core)
        )
    placement = get_placer("eagle_eye").place(
        data.train,
        sensors_per_core,
        constraints=PlacementConstraints(emergency_threshold=threshold),
    )
    eagle = EagleEyeModel(placement.selected_cols, threshold)

    ee_rates: Dict[str, ErrorRates] = {}
    prop_rates: Dict[str, ErrorRates] = {}
    for name in data.eval.benchmark_names:
        sub = data.eval.subset_benchmark(name)
        truth = any_emergency(sub.F, threshold)
        ee_rates[name] = detection_error_rates(truth, eagle.alarm(sub.X))
        prop_rates[name] = detection_error_rates(
            truth, proposed_model.alarm(sub.X, threshold)
        )

    # Secondary, finer granularity: per-(sample, block) states, with a
    # nearest-sensor (Voronoi) block mapping for Eagle-Eye.
    true_states = data.eval.F < threshold
    prop_states = proposed_model.block_states(data.eval.X, threshold)
    grid = data.chip.grid
    sensor_pos = grid.coords[data.eval.candidate_nodes[eagle.selected_cols]]
    block_pos = grid.coords[data.eval.critical_nodes]
    ee_states = eagle.block_states(data.eval.X, sensor_pos, block_pos)
    return Table2Result(
        sensors_per_core=sensors_per_core,
        eagle_eye=ee_rates,
        proposed=prop_rates,
        proposed_model=proposed_model,
        eagle_eye_model=eagle,
        eagle_eye_block=blockwise_error_rates(true_states, ee_states),
        proposed_block=blockwise_error_rates(true_states, prop_states),
    )


def render_table2(result: Table2Result) -> str:
    """Render the paper-style Table 2 plus summary rows."""
    rows = []
    for i, name in enumerate(result.eagle_eye, start=1):
        ee = result.eagle_eye[name]
        pr = result.proposed[name]
        rows.append(
            [
                f"BM{i} ({name})",
                ee.miss,
                ee.wrong_alarm,
                ee.total,
                pr.miss,
                pr.wrong_alarm,
                pr.total,
            ]
        )
    table = format_table(
        headers=["Benchmark", "EE ME", "EE WAE", "EE TE", "Prop ME", "Prop WAE", "Prop TE"],
        rows=rows,
        title=(
            f"Table 2 — error rates with {result.sensors_per_core} "
            "sensors per core (evaluation runs)"
        ),
        digits=4,
    )
    ee_me, ee_wae, ee_te = result.mean_rates("eagle_eye")
    pr_me, pr_wae, pr_te = result.mean_rates("proposed")
    ratio_me = pr_me / ee_me if ee_me else float("nan")
    ratio_te = pr_te / ee_te if ee_te else float("nan")
    summary = (
        f"\nmeans: Eagle-Eye ME={ee_me:.4f} WAE={ee_wae:.5f} TE={ee_te:.4f} | "
        f"proposed ME={pr_me:.4f} WAE={pr_wae:.5f} TE={pr_te:.4f}"
        f"\nproposed/Eagle-Eye: ME ratio = {ratio_me:.2f}, TE ratio = {ratio_te:.2f}"
        " (paper: ~0.5 for both)"
    )
    if result.eagle_eye_block is not None and result.proposed_block is not None:
        eb, pb = result.eagle_eye_block, result.proposed_block
        summary += (
            "\nper-block states (secondary granularity; EE via nearest-sensor"
            " mapping):"
            f"\n  Eagle-Eye ME={eb.miss:.4f} WAE={eb.wrong_alarm:.5f} "
            f"TE={eb.total:.5f} | proposed ME={pb.miss:.4f} "
            f"WAE={pb.wrong_alarm:.5f} TE={pb.total:.5f}"
        )
    return table + summary
