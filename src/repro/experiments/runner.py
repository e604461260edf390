"""Command-line runner regenerating every table and figure.

Usage::

    python -m repro.experiments.runner all
    python -m repro.experiments.runner table1 fig3 --fast
    repro-experiments table2 --out results/
    repro-experiments fig1 --fast --trace-out manifest.json

Each experiment prints a paper-style rendering and (with ``--out``)
persists its numbers as JSON for later inspection.  Every run is
instrumented through :mod:`repro.obs`: an end-of-run timing summary is
printed, ``--trace-out`` writes a run manifest (profile, per-experiment
span timings, dataset summary, group-lasso convergence stats), and
``--trace-jsonl`` streams every structured event as JSON lines.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict, List, Optional

import repro.obs as obs
from repro.experiments import ablations
from repro.experiments.config import FAST_SETUP, PAPER_SETUP, ExperimentSetup
from repro.experiments.data_generation import GeneratedData, generate_dataset
from repro.experiments.fig1_beta_norms import render_fig1, run_fig1
from repro.experiments.fig2_trace_prediction import render_fig2, run_fig2
from repro.experiments.fig3_placement_map import render_fig3, run_fig3
from repro.experiments.fig4_error_vs_sensors import render_fig4, run_fig4
from repro.experiments.table1_lambda_sweep import render_table1, run_table1
from repro.experiments.table2_error_rates import render_table2, run_table2
from repro.utils.io import save_results, to_jsonable

__all__ = ["EXPERIMENTS", "run_experiment", "main"]

EXPERIMENTS = (
    "fig1",
    "table1",
    "fig2",
    "fig3",
    "table2",
    "fig4",
    "ablations",
)


def _result_payload(name: str, obj) -> Dict:
    """Best-effort JSON payload for an experiment result object."""
    return {"experiment": name, "result": to_jsonable(obj)}


def run_experiment(
    name: str, data: GeneratedData, out_dir: Optional[str] = None
) -> str:
    """Run one experiment by name; returns its rendered report.

    Parameters
    ----------
    name:
        One of :data:`EXPERIMENTS`.
    data:
        The pre-generated train/eval datasets.
    out_dir:
        Optional directory for the experiment's JSON payload.
    """
    with obs.span(f"experiment.{name}"):
        return _run_experiment(name, data, out_dir)


def _run_experiment(
    name: str, data: GeneratedData, out_dir: Optional[str]
) -> str:
    t0 = time.time()
    if name == "fig1":
        result = run_fig1(data)
        text = render_fig1(result)
        payload = {
            "budgets": result.budgets,
            "norms": {str(b): result.norms[b] for b in result.budgets},
            "selected": {str(b): result.selected[b] for b in result.budgets},
        }
    elif name == "table1":
        result = run_table1(data)
        text = render_table1(result)
        payload = {
            "budgets": result.budgets,
            "sensors_per_core": result.sensors_per_core,
            "relative_errors_holdout": [p.relative_error for p in result.points],
            "relative_errors_eval": result.eval_relative_errors,
        }
    elif name == "fig2":
        result = run_fig2(data)
        text = render_fig2(result)
        payload = {
            "benchmark": result.benchmark,
            "block": result.block_name,
            "times": result.times,
            "real": result.real,
            "predicted": {str(q): v for q, v in result.predicted.items()},
            "errors": {str(q): v for q, v in result.errors.items()},
        }
    elif name == "fig3":
        result = run_fig3(data)
        text = render_fig3(result)
        payload = {
            "n_sensors": result.n_sensors,
            "proposed_nodes": result.proposed_nodes,
            "eagle_eye_nodes": result.eagle_eye_nodes,
            "proposed_unit_counts": result.proposed_unit_counts,
            "eagle_eye_unit_counts": result.eagle_eye_unit_counts,
            "noisiest_unit": result.noisiest_unit,
        }
    elif name == "table2":
        result = run_table2(data)
        text = render_table2(result)
        payload = {
            "sensors_per_core": result.sensors_per_core,
            "eagle_eye": result.eagle_eye,
            "proposed": result.proposed,
        }
    elif name == "fig4":
        result = run_fig4(data)
        text = render_fig4(result)
        payload = {
            "benchmark": result.benchmark,
            "sensors_per_core": result.sensors_per_core,
            "total_sensors": result.total_sensors,
            "eagle_eye": result.eagle_eye,
            "proposed": result.proposed,
        }
    elif name == "ablations":
        placement = ablations.run_placement_comparison(data)
        bias = ablations.run_gl_bias_ablation(data)
        grouping = ablations.run_grouping_ablation(data)
        text = "\n\n".join(
            [
                ablations.render_placement_comparison(placement),
                ablations.render_gl_bias(bias),
                ablations.render_grouping(grouping),
            ]
        )
        payload = {
            "placement": placement,
            "gl_bias": bias,
            "grouping": grouping,
        }
    else:
        raise ValueError(f"unknown experiment {name!r}; choose from {EXPERIMENTS}")

    elapsed = time.time() - t0
    text += f"\n[{name} completed in {elapsed:.1f}s]"
    if out_dir is not None:
        save_results(
            os.path.join(out_dir, f"{name}.json"), _result_payload(name, payload)
        )
    return text


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help=f"experiments to run: {', '.join(EXPERIMENTS)}, or 'all'",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="use the reduced FAST profile (seconds instead of minutes)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="directory for JSON result files (created if missing)",
    )
    parser.add_argument(
        "--report",
        action="store_true",
        help="after running, aggregate --out JSONs into REPORT.md",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="MANIFEST.json",
        help="write a run manifest (per-experiment timings, dataset "
        "summary, solver convergence stats) to this JSON file",
    )
    parser.add_argument(
        "--trace-jsonl",
        default=None,
        metavar="EVENTS.jsonl",
        help="stream structured events (solver convergence, datagen "
        "progress, monitor emergencies) as JSON lines to this file",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="dataset cache directory (defaults to $REPRO_DATASET_CACHE; "
        "repeated runs of the same profile skip simulation)",
    )
    args = parser.parse_args(argv)
    if args.report and args.out is None:
        parser.error("--report requires --out")

    names = list(EXPERIMENTS) if "all" in args.experiments else args.experiments
    for name in names:
        if name not in EXPERIMENTS:
            parser.error(f"unknown experiment {name!r}")

    setup: ExperimentSetup = FAST_SETUP if args.fast else PAPER_SETUP
    sink: Optional[obs.JsonlSink] = None
    with obs.use_registry(obs.MetricsRegistry()) as registry:
        if args.trace_jsonl is not None:
            sink = obs.JsonlSink(args.trace_jsonl)
            registry.add_sink(sink)
        print(f"profile: {setup.name}")
        t0 = time.time()
        data = generate_dataset(setup, verbose=True, cache_dir=args.cache_dir)
        print(f"data generated in {time.time() - t0:.1f}s: {data.train.summary()}")

        try:
            for name in names:
                print("\n" + "=" * 78)
                print(run_experiment(name, data, out_dir=args.out))
        finally:
            if sink is not None:
                sink.close()

        if args.report:
            from repro.experiments.report import write_report

            path = write_report(args.out, title=f"Reproduction run ({setup.name})")
            print(f"\nreport written to {path}")

        if args.trace_out is not None:
            manifest = obs.build_manifest(
                registry,
                profile=setup.name,
                dataset={
                    "train": data.train.summary(),
                    "eval": data.eval.summary(),
                    "n_train": data.train.n_samples,
                    "n_eval": data.eval.n_samples,
                },
                extra={"experiments_requested": names},
            )
            save_results(args.trace_out, manifest)
            print(f"\ntrace manifest written to {args.trace_out}")

        print("\n" + obs.render_timing_summary(registry))
    return 0


if __name__ == "__main__":
    sys.exit(main())
