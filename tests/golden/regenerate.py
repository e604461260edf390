#!/usr/bin/env python
"""Regenerate the golden regression fixtures.

Three fixtures, all fully deterministic:

* ``golden_monitor.json`` — synthetic dataset, fitted placement, a
  monitored stream with real alarm episodes, and a fault-injection run
  with failovers (:func:`build_golden`; replayed by
  ``tests/test_golden.py``).
* ``golden_leaderboard.json`` — the placement tournament on the tiny
  experiment profile: every registered placer raced across benchmarks,
  variation instances and fault scenarios
  (:func:`build_tournament_golden`; replayed by
  ``tests/test_tournament.py``).  Wall-clock fields (``place_s``) are
  recorded but exempt from comparison.
* ``golden_surrogate.json`` — one fast-profile surrogate sweep (train,
  conformal calibration, pool screening, exact top-k verification and
  whole-pool exact evaluation) pinning predictions, bounds, the
  screened ranking, and recall (:func:`build_surrogate_golden`;
  replayed by ``tests/test_surrogate.py``).  Wall-clock is not
  recorded in the fixture at all.

Comparison happens under the tolerance policy in
``tests/golden/README.md``.  Regenerate (only after an intentional
behaviour change; review the diff)::

    python tests/golden/regenerate.py
"""

from __future__ import annotations

import json
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
for p in (os.path.join(_ROOT, "src"), _ROOT):
    if p not in sys.path:
        sys.path.insert(0, p)

import numpy as np

GOLDEN_PATH = os.path.join(_HERE, "golden_monitor.json")
TOURNAMENT_GOLDEN_PATH = os.path.join(_HERE, "golden_leaderboard.json")
SURROGATE_GOLDEN_PATH = os.path.join(_HERE, "golden_surrogate.json")

#: Surrogate sweep constants — deliberately spelled out here (not
#: imported from the bench profiles) so retuning a benchmark profile
#: cannot silently move the fixture.  Changing any is a fixture change.
SURROGATE_CHIP = dict(
    core_cols=2, core_rows=1, template="small",
    grid_pitch=0.2, pad_pitch=1.5,
)
SURROGATE_DATA = dict(
    benchmarks=("x264", "canneal"),
    steps_per_benchmark=120, warmup_steps=24, record_every=2, seed=11,
)
SURROGATE_SWEEP = dict(
    n_train=48, n_pool=80, top_k=20, seed=5, exact_pool=True,
)

#: Tournament scenario constants — changing any is a fixture change.
TOURNAMENT_N_VARIATION = 2
TOURNAMENT_VARIATION_STEPS = 120

#: Scenario constants — changing any of these is a fixture change.
DATASET_SEED = 3
BUDGET = 1.0
N_CYCLES = 150
DEBOUNCE = 2
STREAM_SEED = 21
THRESHOLD_QUANTILE = 0.2
FAULT_CHANNELS = (1, 3)  # dropout on 1, stuck-at on 3
FAULT_STARTS = (30, 60)
FROZEN_WINDOW = 8


def build_golden() -> dict:
    """Run the deterministic scenario and return its observables."""
    from repro.core import PipelineConfig, fit_placement
    from repro.monitor import (
        DropoutFault,
        FaultPolicy,
        FleetMonitor,
        StuckAtFault,
    )
    from repro.voltage.metrics import mean_relative_error, rms_relative_error
    from tests.conftest import make_synthetic_dataset

    ds = make_synthetic_dataset(seed=DATASET_SEED)
    model = fit_placement(ds, PipelineConfig(budget=BUDGET))
    cols = model.sensor_candidate_cols

    rng = np.random.default_rng(STREAM_SEED)
    reps = -(-N_CYCLES // ds.X.shape[0])
    stream = np.tile(ds.X, (reps, 1))[:N_CYCLES][:, cols]
    stream = stream + rng.normal(0, 3e-4, stream.shape)
    threshold = float(np.quantile(model.predict(ds.X), THRESHOLD_QUANTILE))

    fleet = FleetMonitor(model, threshold, debounce=DEBOUNCE, n_streams=1)
    fleet.run_batch(stream[np.newaxis])
    stats = fleet.finish()

    policy = FaultPolicy(
        v_lo=float(stream.min()) - 0.05,
        v_hi=float(stream.max()) + 0.05,
        frozen_window=FROZEN_WINDOW,
        frozen_eps=0.0,
    )
    faulted = DropoutFault(channel=FAULT_CHANNELS[0], start=FAULT_STARTS[0]).apply(
        stream
    )
    faulted = StuckAtFault(
        channel=FAULT_CHANNELS[1], start=FAULT_STARTS[1],
        value=float(stream.mean()),
    ).apply(faulted)
    degraded = FleetMonitor(
        model, threshold, debounce=DEBOUNCE, n_streams=1, policy=policy
    )
    degraded.run_batch(faulted[np.newaxis])
    degraded_stats = degraded.finish()

    return {
        "scenario": {
            "dataset_seed": DATASET_SEED,
            "budget": BUDGET,
            "n_cycles": N_CYCLES,
            "debounce": DEBOUNCE,
            "stream_seed": STREAM_SEED,
            "threshold_quantile": THRESHOLD_QUANTILE,
        },
        "placement": {
            "selected_sensors": [int(c) for c in cols],
            "n_sensors": model.n_sensors,
            "mean_relative_error": mean_relative_error(
                model.predict(ds.X), ds.F
            ),
            "rms_relative_error": rms_relative_error(
                model.predict(ds.X), ds.F
            ),
        },
        "monitor": {
            "threshold": threshold,
            "alarm_cycles": stats.alarm_cycles,
            "min_predicted": stats.min_predicted,
            "episodes": [
                {
                    "start_cycle": ev.start_cycle,
                    "end_cycle": ev.end_cycle,
                    "min_predicted": ev.min_predicted,
                    "worst_block": ev.worst_block,
                }
                for ev in fleet.events[0]
            ],
        },
        "failover": {
            "failovers": degraded_stats.failovers,
            "degraded_streams": degraded_stats.degraded_streams,
            "failures": [
                {
                    "position": f.position,
                    "candidate_col": f.candidate_col,
                    "cycle": f.cycle,
                    "screen": f.screen,
                }
                for f in degraded.failures[0]
            ],
            "degraded_mean_relative_error": mean_relative_error(
                degraded.model_for(0).predict(ds.X), ds.F
            ),
        },
    }


def build_tournament_golden(data=None) -> dict:
    """Run the tiny-profile tournament and return its leaderboard doc.

    ``data`` lets the test suite pass its session-cached
    ``generate_dataset(TINY_SETUP)`` result; standalone regeneration
    builds it fresh (deterministic either way).
    """
    from repro.experiments.data_generation import generate_dataset
    from repro.experiments.tournament import TournamentConfig, run_tournament
    from tests.conftest import TINY_SETUP

    if data is None:
        data = generate_dataset(TINY_SETUP)
    config = TournamentConfig(
        n_variation=TOURNAMENT_N_VARIATION,
        variation_steps=TOURNAMENT_VARIATION_STEPS,
    )
    return run_tournament(data, config).leaderboard()


def build_surrogate_golden() -> dict:
    """Run the pinned fast-profile surrogate sweep; return observables.

    Everything recorded is deterministic: predictions/bounds are exact
    linear algebra over simulated float32 voltage maps, the screened
    ranking is a stable argsort, and no wall-clock field enters the
    fixture.
    """
    from repro.experiments.config import ChipConfig, DataConfig
    from repro.experiments.data_generation import build_chip
    from repro.surrogate import (
        PatchConvRegressor,
        ScenarioSpace,
        SweepConfig,
        run_sweep,
    )

    chip = build_chip(ChipConfig(**SURROGATE_CHIP))
    data = DataConfig(**SURROGATE_DATA)
    space = ScenarioSpace(benchmarks=SURROGATE_DATA["benchmarks"])
    result = run_sweep(chip, space, data, SweepConfig(**SURROGATE_SWEEP))

    return {
        "scenario": {
            "chip": dict(SURROGATE_CHIP),
            "data": {
                k: list(v) if isinstance(v, tuple) else v
                for k, v in SURROGATE_DATA.items()
            },
            "sweep": dict(SURROGATE_SWEEP),
            "model": PatchConvRegressor.kind,
            "alpha": result.config.alpha,
            "guard_margin": result.config.guard_margin,
        },
        "n_blocks": result.n_blocks,
        "fit_error_rms": result.fit_error_rms,
        "calibration": result.calibration.to_dict(),
        "coverage": result.coverage,
        "screen": {
            "topk_indices": [int(i) for i in result.topk_indices],
            "pool_scores": [float(s) for s in result.pool_scores],
            "pool_bounds": [float(b) for b in result.pool_bounds],
        },
        "verify": {
            "rank_agreement": result.rank_agreement,
            "nominal_violations": result.nominal_violations,
            "guard_violations": result.guard_violations,
            "verdicts": [
                {
                    "rank": v.rank,
                    "scenario": v.scenario.key(),
                    "predicted_worst": v.predicted_worst,
                    "bound_worst": v.bound_worst,
                    "exact_worst": v.exact_worst,
                    "nominal_violations": v.nominal_violations,
                    "guard_violations": v.guard_violations,
                }
                for v in result.verdicts
            ],
        },
        "exact_pool": {
            "exact_scores": [float(s) for s in result.exact_scores],
            "true_worst_index": int(np.argmax(result.exact_scores)),
            "recall_at_k": result.recall_at_k(),
            "worst_case_hit": bool(result.worst_case_hit()),
        },
    }


def main() -> None:
    golden = build_golden()
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"golden fixture written to {GOLDEN_PATH}")
    print(
        f"  sensors: {golden['placement']['selected_sensors']}  "
        f"episodes: {len(golden['monitor']['episodes'])}  "
        f"failovers: {golden['failover']['failovers']}"
    )

    leaderboard = build_tournament_golden()
    with open(TOURNAMENT_GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(leaderboard, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"golden fixture written to {TOURNAMENT_GOLDEN_PATH}")
    print(
        "  ranking: "
        + " > ".join(e["placer"] for e in leaderboard["entries"])
    )

    surrogate = build_surrogate_golden()
    with open(SURROGATE_GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(surrogate, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"golden fixture written to {SURROGATE_GOLDEN_PATH}")
    print(
        f"  recall@{surrogate['scenario']['sweep']['top_k']}: "
        f"{surrogate['exact_pool']['recall_at_k']:.2f}  "
        f"worst_case_hit: {surrogate['exact_pool']['worst_case_hit']}  "
        f"guard_violations: {surrogate['verify']['guard_violations']}"
    )


if __name__ == "__main__":
    main()
