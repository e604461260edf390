"""Benchmarks: the data-generation engine, the placement tournament and
the droop surrogate.

The end-to-end benchmark (``BENCHMARK.json``, ``benchmarks/e2e/``)
times the paper's pipeline, the λ path, large-M screening and fleet
serving.  The three modes here give evidence it does not: the datagen
engine at the paper's sampling scale and its dataset cache, the placer
leaderboard, and the surrogate sweep.  Exactly one mode flag is
required.

**Datagen mode** (``--datagen``) times end-to-end
:func:`generate_dataset` (lockstep multi-RHS batching, compiled
triangular-solve kernel, fused train+eval batch) and exercises the
config-hash dataset cache cold and warm, checking that a cache hit
returns the generated datasets bit for bit.  The engine's agreement
with the per-benchmark ``simulate`` reference is a pytest
(``tests/test_batched_engine.py``).  The committed
``BENCH_datagen.json`` was produced by::

    python benchmarks/run_bench.py --datagen --out BENCH_datagen.json

**Tournament mode** (``--tournament``) races every registered sensor
placer (:mod:`repro.baselines`) across the scenario grid — nominal
benchmarks, varied-grid instances, and sensor-fault trials — via
:func:`repro.experiments.tournament.run_tournament`, and writes the
``repro.bench/v1`` leaderboard plus a markdown rendering.  The
committed ``results/leaderboard.json`` / ``results/leaderboard.md``
were produced by::

    python benchmarks/run_bench.py --tournament \\
        --out results/leaderboard.json --markdown results/leaderboard.md

**Surrogate mode** (``--surrogate``) benchmarks the learned worst-case
droop surrogate (:mod:`repro.surrogate`) via
:func:`repro.experiments.surrogate_study.run_surrogate_study`: a
dense-grid throughput sweep (screening scenarios/minute vs the exact
batched transient engine, with exact verification of the predicted
top-k against their conformal guard bounds) and a small-grid recall
sweep (exact-evaluating the whole pool to measure true top-k recall
and worst-case capture).  Exits nonzero on a guard-bound violation, a
missed worst case, or — full profile only — screening below the 50x
speedup target.  The committed ``BENCH_surrogate.json`` was produced
by::

    python benchmarks/run_bench.py --surrogate --out BENCH_surrogate.json

CI runs each mode as a smoke::

    python benchmarks/run_bench.py --datagen --quick
    python benchmarks/run_bench.py --tournament --quick
    python benchmarks/run_bench.py --surrogate --quick

and each exits nonzero on a cache malfunction, a placer that failed to
produce a placement, or a surrogate bound violation / missed worst
case.

Every mode funnels through one :func:`emit_bench` tail that stamps the
``repro.bench/v1`` schema and a ``provenance`` block (the same fields
``benchmarks/e2e`` records: git SHA, library versions, BLAS threads,
CPU count, whether the compiled kernel ran), validates the report
(:func:`repro.obs.benchjson.validate_bench`), writes it when ``--out``
is given, and maps the report's ``problems`` to the exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
for _path in (os.path.join(_ROOT, "src"), os.path.join(_HERE, "e2e")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import numpy as np

import repro.obs as obs
from provenance import runtime_provenance, source_provenance
from repro.obs.benchjson import stamp_bench, validate_bench
from repro.experiments.config import (
    ChipConfig,
    DataConfig,
    ExperimentSetup,
    FAST_SETUP,
)
from repro.experiments.data_generation import generate_dataset

#: Datagen benchmark setup: all 19 benchmarks at the paper's sampling
#: scale (pool of ~22,800 maps, 10,000 sampled per split) on a reduced
#: chip, so one generation takes seconds.  Train and eval share the
#: step geometry, so the engine fuses both suites into one lockstep
#: batch.
DATAGEN_SETUP = ExperimentSetup(
    chip=ChipConfig(
        core_cols=2, core_rows=2, template="small",
        grid_pitch=0.2, pad_pitch=1.5,
    ),
    train=DataConfig(
        steps_per_benchmark=2400, warmup_steps=100,
        record_every=2, n_samples=10000, seed=2015,
    ),
    eval=DataConfig(
        steps_per_benchmark=2400, warmup_steps=100,
        record_every=2, n_samples=10000, seed=7151,
    ),
    name="datagen-bench",
)

#: CI smoke variant of :data:`DATAGEN_SETUP` (seconds, same checks).
DATAGEN_QUICK_SETUP = ExperimentSetup(
    chip=ChipConfig(
        core_cols=2, core_rows=1, template="small",
        grid_pitch=0.2, pad_pitch=1.5,
    ),
    train=DataConfig(
        steps_per_benchmark=240, warmup_steps=40,
        record_every=2, n_samples=2000, seed=2015,
    ),
    eval=DataConfig(
        steps_per_benchmark=240, warmup_steps=40,
        record_every=2, n_samples=2000, seed=7151,
    ),
    name="datagen-quick",
)


#: CI smoke variant of the tournament: a tiny two-core chip and short
#: workloads so the whole race (all placers x scenarios) runs in
#: seconds while still exercising every placer end to end.
TOURNAMENT_QUICK_SETUP = ExperimentSetup(
    chip=ChipConfig(
        core_cols=2, core_rows=1, template="small",
        grid_pitch=0.2, pad_pitch=1.5,
    ),
    train=DataConfig(
        benchmarks=("x264", "canneal"),
        steps_per_benchmark=160, warmup_steps=30,
        n_samples=300, seed=21,
    ),
    eval=DataConfig(
        benchmarks=("x264", "canneal"),
        steps_per_benchmark=120, warmup_steps=30,
        n_samples=220, seed=22,
    ),
    name="tournament-quick",
)


def emit_bench(report: Dict, out: Optional[str] = None) -> int:
    """Shared tail of every benchmark mode; returns the exit code.

    Stamps the schema and a ``provenance`` block into ``report`` and
    validates it against :mod:`repro.obs.benchjson` *unconditionally*
    (even when no ``--out`` path was given, so CI smoke runs catch a
    mode that drifts from the schema), writes it when ``out`` is set,
    prints ``report["problems"]`` and returns 1 when there are any —
    one code path per mode, so a new mode cannot skip validation.
    """
    stamp_bench(report)
    report["provenance"] = {
        **runtime_provenance(report.get("uses_kernel")),
        **source_provenance(_ROOT),
    }
    issues = validate_bench(report)
    if issues:
        raise SystemExit("invalid bench report: " + "; ".join(issues))
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {out}")
    problems = report["problems"]
    if problems:
        print(f"{len(problems)} problem(s):")
        for problem in problems:
            print(f"  {problem}")
        return 1
    return 0


def _compare_datasets(reference, candidate) -> Dict:
    """Equality report between two GeneratedData instances."""
    return {
        "bit_identical": bool(
            np.array_equal(reference.train.X, candidate.train.X)
            and np.array_equal(reference.train.F, candidate.train.F)
            and np.array_equal(reference.eval.X, candidate.eval.X)
            and np.array_equal(reference.eval.F, candidate.eval.F)
        ),
        "critical_equal": reference.critical == candidate.critical,
    }


def run_datagen(quick: bool = False) -> Dict:
    """Benchmark generate_dataset, then its dataset cache cold and warm."""
    import tempfile

    setup = DATAGEN_QUICK_SETUP if quick else DATAGEN_SETUP
    problems: List[Dict] = []

    with obs.use_registry(obs.MetricsRegistry()) as registry:
        t0 = time.perf_counter()
        optimized = generate_dataset(setup)
        optimized_s = time.perf_counter() - t0

        with tempfile.TemporaryDirectory() as cache_root:
            t0 = time.perf_counter()
            cold = generate_dataset(setup, cache_dir=cache_root)
            cache_cold_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            warm = generate_dataset(setup, cache_dir=cache_root)
            cache_warm_s = time.perf_counter() - t0
        snapshot = registry.snapshot()
        counters = dict(snapshot["counters"])
        timers = {
            name: state
            for name, state in snapshot["timers"].items()
            if name.startswith("datagen.")
        }

    cache_equality = _compare_datasets(optimized, warm)
    if not cold.from_cache and not warm.from_cache:
        problems.append({"kind": "cache_never_hit"})
    if not cache_equality["bit_identical"] or not cache_equality["critical_equal"]:
        problems.append({"kind": "cache_roundtrip_mismatch", **cache_equality})
    # Storing the entry should not dominate generation (generous bound:
    # the 1-CPU CI runners are noisy).
    if cache_cold_s > 2.0 * optimized_s + 2.0:
        problems.append(
            {
                "kind": "cold_cache_regression",
                "cache_cold_s": cache_cold_s,
                "optimized_s": optimized_s,
            }
        )

    return {
        "mode": "datagen",
        "profile": setup.name,
        "n_benchmarks": len(setup.train.benchmarks) + len(setup.eval.benchmarks),
        "steps_per_benchmark": setup.train.steps_per_benchmark,
        "n_train": optimized.train.n_samples,
        "n_eval": optimized.eval.n_samples,
        "uses_kernel": optimized.chip.solver.uses_kernel,
        "optimized_s": optimized_s,
        "cache_cold_s": cache_cold_s,
        "cache_warm_s": cache_warm_s,
        "cache_speedup": cache_cold_s / cache_warm_s,
        "cache_equality": cache_equality,
        "counters": {
            k: v for k, v in counters.items() if k.startswith("datagen.")
        },
        "timers": timers,
        "problems": problems,
    }



def run_tournament_bench(quick: bool = False):
    """Race every registered placer and return (result, report doc).

    Full mode runs the ``fast`` experiment profile with the default
    scenario grid (3 variation instances, dropout + stuck faults);
    quick mode shrinks the chip/workloads and the grid for CI smoke.
    A placer that raises lands in the report's ``problems`` list (and
    the CLI exits nonzero) instead of aborting the race.
    """
    from repro.experiments.tournament import TournamentConfig, run_tournament

    setup = TOURNAMENT_QUICK_SETUP if quick else FAST_SETUP
    config = (
        TournamentConfig(n_variation=2, variation_steps=120)
        if quick
        else TournamentConfig()
    )

    t0 = time.perf_counter()
    data = generate_dataset(setup)
    datagen_s = time.perf_counter() - t0

    with obs.use_registry(obs.MetricsRegistry()) as registry:
        t0 = time.perf_counter()
        result = run_tournament(data, config)
        tournament_s = time.perf_counter() - t0
        counters = {
            name: value
            for name, value in registry.snapshot()["counters"].items()
            if name.startswith(("placer.", "tournament."))
        }

    report = result.leaderboard()
    report["datagen_s"] = datagen_s
    report["tournament_s"] = tournament_s
    report["counters"] = counters
    return result, report



def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the data-generation engine, the placement "
        "tournament or the droop surrogate."
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke mode: reduced problem sizes, same checks",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="BENCH.json",
        help="write the JSON report to this path",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--datagen",
        action="store_true",
        help="benchmark the data-generation engine and its dataset "
        "cache; exits nonzero on cache problems",
    )
    mode.add_argument(
        "--tournament",
        action="store_true",
        help="race every registered sensor placer across benchmarks, "
        "variation instances and fault scenarios; exits nonzero if any "
        "placer fails",
    )
    mode.add_argument(
        "--surrogate",
        action="store_true",
        help="benchmark the learned droop surrogate: screening "
        "throughput vs the exact engine on a dense grid, plus exact "
        "top-k recall on a small grid; exits nonzero on a guard-bound "
        "violation, a missed worst case, or (full profile) screening "
        "below the 50x target",
    )
    parser.add_argument(
        "--markdown",
        default=None,
        metavar="leaderboard.md",
        help="with --tournament: also write the markdown leaderboard "
        "to this path",
    )
    args = parser.parse_args(argv)
    if args.markdown and not args.tournament:
        parser.error("--markdown requires --tournament")

    if args.surrogate:
        from repro.experiments.surrogate_study import run_surrogate_study

        report = run_surrogate_study(quick=args.quick)
        tp = report["throughput"]
        rc = report["recall"]
        print(
            f"surrogate profile: {report['profile']}  model: {tp['model']}"
        )
        print(
            f"throughput [{tp['profile']}]: screen "
            f"{tp['screen_scenarios_per_min']:,.0f}/min vs exact "
            f"{tp['exact_scenarios_per_min']:,.0f}/min  "
            f"speedup {tp['speedup']:.1f}x  "
            f"guard_violations={tp['guard_violations']}  "
            f"nominal_coverage={tp['nominal_coverage']:.3f}"
        )
        print(
            f"recall [{rc['profile']}]: recall@{rc['top_k']} "
            f"{rc['recall_at_k']:.2f}  worst_case_hit="
            f"{bool(rc['worst_case_hit'])}  "
            f"guard_violations={rc['guard_violations']}  "
            f"rank_agreement={rc['rank_agreement']:.2f}"
        )
        return emit_bench(report, args.out)

    if args.tournament:
        from repro.experiments.tournament import render_leaderboard_markdown

        result, report = run_tournament_bench(quick=args.quick)
        print(result.render())
        print(
            f"datagen: {report['datagen_s']:.2f}s  "
            f"tournament: {report['tournament_s']:.2f}s"
        )
        if args.markdown:
            with open(args.markdown, "w", encoding="utf-8") as fh:
                fh.write(render_leaderboard_markdown(result))
            print(f"markdown leaderboard written to {args.markdown}")
        return emit_bench(report, args.out)

    report = run_datagen(quick=args.quick)
    print(
        f"datagen profile: {report['profile']}  "
        f"kernel: {report['uses_kernel']}  "
        f"generate: {report['optimized_s']:.2f}s"
    )
    print(
        f"cache: cold {report['cache_cold_s']:.2f}s  "
        f"warm {report['cache_warm_s']:.2f}s  "
        f"({report['cache_speedup']:.0f}x)  "
        f"round trip bit_identical="
        f"{report['cache_equality']['bit_identical']}"
    )
    return emit_bench(report, args.out)


if __name__ == "__main__":
    sys.exit(main())
