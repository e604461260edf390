"""Benchmarks: λ-path engine sweep, and the data-generation engine.

**Sweep mode** (default) runs
:func:`repro.core.lambda_sweep.sweep_lambda` twice over the same
budgets — once through the shared-Gram, warm-started
:class:`~repro.core.path_engine.LambdaPathEngine` and once through the
sequential baseline (``warm_start=False``, ``probe_tol=None``: every
budget refit from scratch on a fresh engine, every probe solved at the
strict tolerance) — and records wall times, the speedup, and a
per-budget fidelity report (sensor counts, Jaccard overlap of the
selected sets, relative errors) to a JSON file.

The committed ``BENCH_sweep.json`` at the repo root was produced by::

    python benchmarks/run_bench.py --out BENCH_sweep.json

**Datagen mode** (``--datagen``) times end-to-end
:func:`generate_dataset` through the sequential reference path
(``batch=False``) and through the optimized engine (lockstep multi-RHS
batching, compiled triangular-solve kernel, fused train+eval batch),
verifies the voltage datasets agree (bit-identical when the compiled
kernel is active; otherwise within 1 float32 ulp, the documented
SuperLU multi-RHS rounding difference), and exercises the config-hash
dataset cache cold and warm.  The committed ``BENCH_datagen.json`` was
produced by::

    python benchmarks/run_bench.py --datagen --out BENCH_datagen.json

**Monitor mode** (``--monitor``) benchmarks the batched serving path:
``S`` independent sensor streams are monitored once by ``S`` looped
single-stream :class:`~repro.monitor.runtime.VoltageMonitor` instances
(cycle-at-a-time Python loop) and once by one
:meth:`~repro.monitor.fleet.FleetMonitor.run_batch` call over the whole
``(S, T, Q)`` tensor.  It verifies the two paths agree **bit-for-bit**
(alarm flags, episode lists, alarm-cycle counts, minimum predictions),
exercises the sensor-fault failover path (one stuck-at sensor must be
detected and served by the exact leave-one-out fallback), and exits
nonzero if the batch path is below the 5x throughput target at
``S >= 16`` or any identity/failover check fails.  The committed
``BENCH_monitor.json`` was produced by::

    python benchmarks/run_bench.py --monitor --out BENCH_monitor.json

**Tournament mode** (``--tournament``) races every registered sensor
placer (:mod:`repro.baselines`) across the scenario grid — nominal
benchmarks, varied-grid instances, and sensor-fault trials — via
:func:`repro.experiments.tournament.run_tournament`, and writes the
``repro.bench/v1`` leaderboard plus a markdown rendering.  The
committed ``results/leaderboard.json`` / ``results/leaderboard.md``
were produced by::

    python benchmarks/run_bench.py --tournament \
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

CI runs five smoke modes::

    python benchmarks/run_bench.py --quick --check-convergence
    python benchmarks/run_bench.py --datagen --quick
    python benchmarks/run_bench.py --monitor --quick
    python benchmarks/run_bench.py --tournament --quick
    python benchmarks/run_bench.py --surrogate --quick

the latter four exit nonzero on an optimized-vs-reference mismatch, a
monitor identity/failover/throughput failure, a placer that failed
to produce a placement, or a surrogate bound violation / missed worst
case.

Every mode funnels through one :func:`emit_bench` tail that stamps the
``repro.bench/v1`` schema, validates the report
(:func:`repro.obs.benchjson.validate_bench`), writes it when ``--out``
is given, and maps outstanding problems to the exit code.

Profile selection for sweep mode follows the benchmark harness:
``REPRO_PROFILE=paper`` runs at full paper scale, the default ``fast``
profile runs in seconds.  Datagen mode uses its own dedicated setups
(paper-scale sample counts on a reduced chip).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np

import repro.obs as obs
from repro.obs.benchjson import stamp_bench, validate_bench
from repro.core.lambda_sweep import SweepPoint, sweep_lambda
from repro.core.pipeline import PipelineConfig
from repro.experiments.config import (
    ChipConfig,
    DataConfig,
    ExperimentSetup,
    FAST_SETUP,
    PAPER_SETUP,
)
from repro.experiments.data_generation import generate_dataset

#: The benchmark λ grid: the paper-relevant sparse regime (Table 1
#: operates at a handful of sensors per core).  Budgets near the OLS
#: slack bound are deliberately excluded — there the optimum is
#: degenerate (many interchangeable near-zero groups) and selected sets
#: are not comparable across solvers; see docs/performance.md.
FULL_BUDGETS = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0)
QUICK_BUDGETS = (1.0, 2.0, 3.0)

#: Sweep split seed — fixed so baseline and engine score identically.
SWEEP_RNG = 0

#: Datagen benchmark setup: all 19 benchmarks at the paper's sampling
#: scale (pool of ~22,800 maps, 10,000 sampled per split) on a reduced
#: chip so the reference path finishes in tens of seconds.  Train and
#: eval share the step geometry, so the optimized engine can fuse both
#: suites into one lockstep batch.
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


def emit_bench(
    report: Dict,
    out: Optional[str] = None,
    problems: Optional[List[Dict]] = None,
    fail_on_problems: bool = True,
    problem_label: str = "problem",
) -> int:
    """Shared tail of every benchmark mode; returns the exit code.

    Stamps and validates ``report`` against :mod:`repro.obs.benchjson`
    *unconditionally* (even when no ``--out`` path was given, so CI
    smoke runs catch a mode that drifts from the schema), writes it
    when ``out`` is set, prints the problem list, and maps problems to
    exit code 1 when ``fail_on_problems`` — one code path per mode, so
    a new mode cannot skip validation.

    Parameters
    ----------
    report:
        The mode's JSON-ready report.
    out:
        Optional path to write the validated report to.
    problems:
        The list that gates the exit code; defaults to
        ``report["problems"]``.
    fail_on_problems:
        Return 1 when problems are present (sweep mode passes
        ``--check-convergence`` here).
    problem_label:
        Noun used when printing the problem count.
    """
    stamp_bench(report)
    issues = validate_bench(report)
    if issues:
        raise SystemExit("invalid bench report: " + "; ".join(issues))
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {out}")
    if problems is None:
        problems = report.get("problems", [])
    if problems:
        print(f"{len(problems)} {problem_label}(s):")
        for problem in problems:
            print(f"  {problem}")
        if fail_on_problems:
            return 1
    return 0


def _solver_problems(points: Sequence[SweepPoint]) -> List[Dict]:
    """Non-converged or budget-violating scope solves, if any."""
    problems: List[Dict] = []
    for point in points:
        for scope in point.model.scopes:
            gl = scope.selection.gl_result
            rtol = point.model.config.rtol
            if not gl.converged:
                problems.append(
                    {
                        "budget": point.budget,
                        "core": scope.core_index,
                        "kind": "not_converged",
                        "n_iterations": gl.n_iterations,
                        "final_residual": gl.final_residual,
                    }
                )
            if gl.norm_sum() > gl.budget * (1.0 + rtol) + 1e-12:
                problems.append(
                    {
                        "budget": point.budget,
                        "core": scope.core_index,
                        "kind": "budget_violation",
                        "norm_sum": gl.norm_sum(),
                        "allowed": gl.budget * (1.0 + rtol),
                    }
                )
    return problems


def _point_summary(point: SweepPoint) -> Dict:
    return {
        "budget": point.budget,
        "n_sensors": point.n_sensors_total,
        "sensors_per_core": point.sensors_per_core,
        "relative_error": point.relative_error,
        "max_abs_error": point.max_abs_error,
        "sensor_cols": point.model.sensor_candidate_cols.tolist(),
    }


def run(
    budgets: Sequence[float],
    n_jobs: int = 1,
    skip_baseline: bool = False,
    profile: Optional[str] = None,
) -> Dict:
    """Run the benchmark and return the JSON-ready report."""
    profile = profile or os.environ.get("REPRO_PROFILE", "fast").lower()
    setup = PAPER_SETUP if profile == "paper" else FAST_SETUP
    t0 = time.perf_counter()
    data = generate_dataset(setup)
    datagen_s = time.perf_counter() - t0

    report: Dict = {
        "profile": setup.name,
        "budgets": list(budgets),
        "n_jobs": n_jobs,
        "datagen_s": datagen_s,
    }

    with obs.use_registry(obs.MetricsRegistry()) as registry:
        t0 = time.perf_counter()
        engine_points = sweep_lambda(
            data.train,
            list(budgets),
            base_config=PipelineConfig(budget=float(budgets[0])),
            rng=SWEEP_RNG,
            n_jobs=n_jobs,
            warm_start=True,
        )
        engine_s = time.perf_counter() - t0
        counters = {
            name: value
            for name, value in registry.snapshot()["counters"].items()
            if name in ("path.gram_reuse", "sweep.warm_start_hits")
        }

    report["engine_s"] = engine_s
    report["counters"] = counters
    report["engine_points"] = [_point_summary(p) for p in engine_points]
    problems = _solver_problems(engine_points)
    report["solver_problems"] = problems

    if not skip_baseline:
        baseline_config = PipelineConfig(
            budget=float(budgets[0]), probe_tol=None
        )
        with obs.use_registry(obs.MetricsRegistry()):
            t0 = time.perf_counter()
            baseline_points = sweep_lambda(
                data.train,
                list(budgets),
                base_config=baseline_config,
                rng=SWEEP_RNG,
                warm_start=False,
            )
            baseline_s = time.perf_counter() - t0
        report["baseline_s"] = baseline_s
        report["speedup"] = baseline_s / engine_s
        report["baseline_points"] = [_point_summary(p) for p in baseline_points]
        fidelity = []
        for base, eng in zip(baseline_points, engine_points):
            sb = set(base.model.sensor_candidate_cols.tolist())
            se = set(eng.model.sensor_candidate_cols.tolist())
            fidelity.append(
                {
                    "budget": base.budget,
                    "n_sensors_baseline": base.n_sensors_total,
                    "n_sensors_engine": eng.n_sensors_total,
                    "jaccard": len(sb & se) / max(1, len(sb | se)),
                    "relative_error_baseline": base.relative_error,
                    "relative_error_engine": eng.relative_error,
                }
            )
        report["fidelity"] = fidelity
        problems.extend(_solver_problems(baseline_points))
    return report


def _max_ulp32(a: np.ndarray, b: np.ndarray) -> int:
    """Largest float32 ulp distance between two voltage arrays.

    Voltages are strictly positive, so the integer representations of
    the float32 values are monotone and their difference counts ulps.
    """
    ai = np.asarray(a, dtype=np.float32).view(np.int32)
    bi = np.asarray(b, dtype=np.float32).view(np.int32)
    return int(np.max(np.abs(ai.astype(np.int64) - bi.astype(np.int64)), initial=0))


def _compare_datasets(reference, optimized) -> Dict:
    """Equality report between two GeneratedData instances."""
    x_ulp = max(
        _max_ulp32(reference.train.X, optimized.train.X),
        _max_ulp32(reference.eval.X, optimized.eval.X),
    )
    f_ulp = max(
        _max_ulp32(reference.train.F, optimized.train.F),
        _max_ulp32(reference.eval.F, optimized.eval.F),
    )
    return {
        "bit_identical": bool(
            np.array_equal(reference.train.X, optimized.train.X)
            and np.array_equal(reference.train.F, optimized.train.F)
            and np.array_equal(reference.eval.X, optimized.eval.X)
            and np.array_equal(reference.eval.F, optimized.eval.F)
        ),
        "max_ulp32": max(x_ulp, f_ulp),
        "critical_equal": reference.critical == optimized.critical,
        "shapes_equal": bool(
            reference.train.X.shape == optimized.train.X.shape
            and reference.eval.X.shape == optimized.eval.X.shape
        ),
    }


def run_datagen(quick: bool = False, n_jobs: int = 1) -> Dict:
    """Benchmark generate_dataset: reference vs optimized, plus cache.

    With ``n_jobs > 1`` the optimized path fans benchmarks out over
    worker processes; each worker's registry snapshot is merged back
    into the benchmark registry, so the report's ``timers`` section
    holds merged per-worker solve timings and ``workers`` the per-child
    breakdown.
    """
    import tempfile

    from repro.obs.manifest import worker_stats

    setup = DATAGEN_QUICK_SETUP if quick else DATAGEN_SETUP
    problems: List[Dict] = []

    with obs.use_registry(obs.MetricsRegistry()) as registry:
        t0 = time.perf_counter()
        reference = generate_dataset(setup, batch=False)
        reference_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        optimized = generate_dataset(setup, n_jobs=n_jobs)
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
        workers = worker_stats(registry)

    equality = _compare_datasets(reference, optimized)
    cache_equality = _compare_datasets(optimized, warm)
    uses_kernel = optimized.chip.solver.uses_kernel

    # With the compiled kernel every path performs identical arithmetic;
    # the SuperLU fallback's blocked multi-RHS solve may differ by one
    # float32 ulp per recorded value.
    allowed_ulp = 0 if uses_kernel else 1
    if not equality["shapes_equal"] or not equality["critical_equal"]:
        problems.append({"kind": "structure_mismatch", **equality})
    elif equality["max_ulp32"] > allowed_ulp:
        problems.append(
            {
                "kind": "dataset_mismatch",
                "max_ulp32": equality["max_ulp32"],
                "allowed_ulp32": allowed_ulp,
            }
        )
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
        "uses_kernel": uses_kernel,
        "n_jobs": n_jobs,
        "reference_s": reference_s,
        "optimized_s": optimized_s,
        "speedup": reference_s / optimized_s,
        "cache_cold_s": cache_cold_s,
        "cache_warm_s": cache_warm_s,
        "cache_speedup": cache_cold_s / cache_warm_s,
        "equality": equality,
        "cache_equality": cache_equality,
        "counters": {
            k: v for k, v in counters.items() if k.startswith("datagen.")
        },
        "timers": timers,
        "workers": workers,
        "problems": problems,
    }


def _monitor_dataset(
    n_samples: int = 600,
    n_candidates: int = 24,
    n_blocks: int = 8,
    n_cores: int = 2,
    seed: int = 7,
):
    """Deterministic synthetic training data for the monitor benchmark.

    Low-rank candidate voltages around 0.93 V with each block an exact
    linear function of two same-core candidates plus small noise — the
    same construction the test suite uses, rebuilt here so the
    benchmark has no test-package dependency.
    """
    from repro.voltage.dataset import VoltageDataset

    rng = np.random.default_rng(seed)
    cand_per_core = n_candidates // n_cores
    blocks_per_core = n_blocks // n_cores
    candidate_cores = np.repeat(np.arange(n_cores), cand_per_core)
    block_cores = np.repeat(np.arange(n_cores), blocks_per_core)
    latent = rng.normal(size=(n_samples, 3 * n_cores)) * 0.02
    mix = rng.normal(size=(3 * n_cores, n_candidates)) * 0.5
    X = 0.93 + latent @ mix + 0.001 * rng.normal(size=(n_samples, n_candidates))
    F = np.empty((n_samples, n_blocks))
    for k in range(n_blocks):
        pool = np.nonzero(candidate_cores == block_cores[k])[0]
        picks = rng.choice(pool, size=2, replace=False)
        w = rng.uniform(0.4, 0.6, size=2)
        F[:, k] = (
            X[:, picks] @ w + (1 - w.sum()) * 0.93
            + 0.002 * rng.normal(size=n_samples)
        )
    return VoltageDataset(
        X=X,
        F=F,
        candidate_nodes=np.arange(n_candidates) + 1000,
        candidate_cores=candidate_cores,
        critical_nodes=np.arange(n_blocks) + 5000,
        block_names=[f"core{block_cores[k]}/blk{k}" for k in range(n_blocks)],
        block_cores=block_cores,
        benchmark_of_sample=np.arange(n_samples) % 2,
        benchmark_names=["bm_a", "bm_b"],
        vdd=1.0,
    )


def run_monitor(quick: bool = False) -> Dict:
    """Benchmark batched fleet serving vs looped single-stream monitors."""
    from repro.core.pipeline import fit_placement
    from repro.monitor.faults import FaultPolicy, StuckAtFault
    from repro.monitor.fleet import CompiledPredictor, FleetMonitor
    from repro.monitor.runtime import VoltageMonitor

    n_streams, n_cycles = (16, 400) if quick else (64, 2000)
    debounce = 3
    problems: List[Dict] = []

    data = _monitor_dataset()
    model = fit_placement(data, PipelineConfig(budget=1.0))
    cols = model.sensor_candidate_cols

    # S stream replays: evaluation rows + per-stream measurement noise,
    # with threshold set so real alarm episodes occur.
    rng = np.random.default_rng(11)
    base = np.tile(data.X, (int(np.ceil(n_cycles / data.X.shape[0])), 1))
    base = base[:n_cycles]
    candidates = (
        base[np.newaxis]
        + rng.normal(0.0, 2e-4, size=(n_streams,) + base.shape)
    )
    sensor_streams = np.ascontiguousarray(candidates[:, :, cols])
    threshold = float(np.quantile(model.predict(base), 0.10))

    # Baseline: S looped per-stream VoltageMonitor.run calls.
    t0 = time.perf_counter()
    loop_monitors = []
    loop_flags = np.empty((n_streams, n_cycles), dtype=bool)
    for s in range(n_streams):
        mon = VoltageMonitor(model, threshold, debounce=debounce)
        loop_flags[s] = mon.run(candidates[s])
        mon.finish()
        loop_monitors.append(mon)
    loop_s = time.perf_counter() - t0

    # Batched: one run_batch over the whole (S, T, Q) tensor.
    fleet = FleetMonitor(model, threshold, debounce=debounce, n_streams=n_streams)
    t0 = time.perf_counter()
    batch_flags = fleet.run_batch(sensor_streams)
    batch_s = time.perf_counter() - t0
    fleet_stats = fleet.finish()

    flags_equal = bool(np.array_equal(loop_flags, batch_flags))
    events_equal = all(
        loop_monitors[s].events == fleet.events[s] for s in range(n_streams)
    )
    stats_equal = all(
        loop_monitors[s].stats.alarm_cycles
        == fleet.stream_stats(s).alarm_cycles
        and loop_monitors[s].stats.min_predicted
        == fleet.stream_stats(s).min_predicted
        for s in range(n_streams)
    )
    if not (flags_equal and events_equal and stats_equal):
        problems.append(
            {
                "kind": "monitor_identity_mismatch",
                "flags_equal": flags_equal,
                "events_equal": events_equal,
                "stats_equal": stats_equal,
            }
        )
    speedup = loop_s / batch_s
    if n_streams >= 16 and speedup < 5.0:
        problems.append(
            {
                "kind": "monitor_speedup_below_target",
                "speedup": speedup,
                "target": 5.0,
            }
        )

    # Failover check: one stuck sensor must be detected and the stream
    # served by exactly the precomputed leave-one-out fallback.
    policy = FaultPolicy(
        v_lo=float(sensor_streams.min()) - 0.05,
        v_hi=float(sensor_streams.max()) + 0.05,
        frozen_window=8,
        frozen_eps=0.0,
    )
    fault = StuckAtFault(channel=0, start=n_cycles // 4, value=0.93)
    with obs.use_registry(obs.MetricsRegistry()) as registry:
        faulty = FleetMonitor(model, threshold, debounce=debounce,
                              n_streams=1, policy=policy)
        faulty.run_batch(fault.apply(sensor_streams[0])[np.newaxis])
        faulty_stats = faulty.finish()
        fault_counters = {
            k: v
            for k, v in registry.snapshot()["counters"].items()
            if k.startswith("monitor.")
        }
    failover_ok = (
        len(faulty.failures[0]) == 1
        and np.isfinite(faulty_stats.min_predicted)
        and faulty.model_for(0) is model.fallback_models()[int(cols[0])]
    )
    expected = CompiledPredictor.from_model(
        model.fallback_models()[int(cols[0])], sensor_cols=cols
    )
    served = faulty.predictor_for(0)
    failover_exact = bool(
        np.array_equal(served.coef_t, expected.coef_t)
        and np.array_equal(served.intercept, expected.intercept)
    )
    if not (failover_ok and failover_exact):
        problems.append(
            {
                "kind": "monitor_failover_mismatch",
                "n_failures": len(faulty.failures[0]),
                "failover_is_fallback": failover_ok,
                "failover_exact": failover_exact,
            }
        )

    total_cycles = n_streams * n_cycles
    return {
        "mode": "monitor",
        "profile": "quick" if quick else "full",
        "n_streams": n_streams,
        "n_cycles": n_cycles,
        "n_sensors": int(cols.size),
        "n_blocks": model.n_blocks,
        "debounce": debounce,
        "threshold": threshold,
        "loop_s": loop_s,
        "batch_s": batch_s,
        "speedup": speedup,
        "loop_cycles_per_s": total_cycles / loop_s,
        "batch_cycles_per_s": total_cycles / batch_s,
        "events_total": fleet_stats.events,
        "alarm_cycles_total": fleet_stats.alarm_cycles,
        "identity": {
            "flags_equal": flags_equal,
            "events_equal": events_equal,
            "stats_equal": stats_equal,
        },
        "failover": {
            "failures": [
                {
                    "cycle": f.cycle,
                    "screen": f.screen,
                    "candidate_col": f.candidate_col,
                }
                for f in faulty.failures[0]
            ],
            "is_precomputed_fallback": failover_ok,
            "compiled_exact": failover_exact,
            "counters": fault_counters,
        },
        "problems": problems,
    }


def _screen_problem(
    n_candidates: int,
    n_samples: int = 240,
    n_responses: int = 4,
    n_active: int = 8,
    seed: int = 0,
):
    """Synthetic sparse selection problem with ``n_candidates`` groups.

    Columns are centered and unit-normalized (what the pipeline's
    standardizer produces), so the solver sees its usual scaling.
    """
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n_samples, n_candidates))
    Z -= Z.mean(axis=0)
    Z /= np.linalg.norm(Z, axis=0)
    active = rng.choice(n_candidates, size=n_active, replace=False)
    coef = np.zeros((n_responses, n_candidates))
    coef[:, active] = rng.standard_normal((n_responses, n_active))
    G = Z @ coef.T + 0.01 * rng.standard_normal((n_samples, n_responses))
    return Z, G


def _screen_sweep(Z, G, budgets, screen: bool):
    """Warm-started constrained sweep; returns (selected_sets, results).

    Builds its own sufficient statistics (lazy when screening) so a
    tracemalloc window around the call sees the full per-path memory
    footprint, Gram included.
    """
    from repro.core.group_lasso import (
        StrongRuleScreener,
        SufficientStats,
        WarmState,
        group_lasso_constrained,
    )
    from repro.core.selection import DEFAULT_THRESHOLD

    stats = SufficientStats.from_arrays(Z, G, lazy=screen)
    screener = StrongRuleScreener(stats) if screen else None
    warm = None
    sets, results = [], []
    for budget in budgets:
        res = group_lasso_constrained(
            Z, G, budget, stats=stats, warm=warm, screen=screener
        )
        warm = WarmState(coef=res.coef.copy(), penalty=res.penalty)
        sets.append(
            tuple(np.nonzero(res.group_norms() > DEFAULT_THRESHOLD)[0].tolist())
        )
        results.append(res)
    return sets, results


def _uncaught_kkt(Z, G, results) -> int:
    """Exact post-hoc KKT audit of screened solutions.

    Counts inactive groups whose dual residual norm exceeds the
    penalty beyond solver noise — a screened-out group the safeguard
    should have re-admitted.  Zero on a healthy run.
    """
    from repro.core.group_lasso import SufficientStats

    stats = SufficientStats.from_arrays(Z, G, lazy=True)
    uncaught = 0
    for res in results:
        if res.penalty <= 0:
            continue
        active = res.active_groups()
        c_norms = np.linalg.norm(stats.dual_residual(res.coef, active), axis=1)
        mask = np.ones(c_norms.shape[0], dtype=bool)
        mask[active] = False
        uncaught += int(np.sum(c_norms[mask] > res.penalty * (1.0 + 1e-6)))
    return uncaught


def run_screen(quick: bool = False) -> Dict:
    """Benchmark strong-rule screening: memory and wall-clock vs dense.

    Two stages.  The *compare* stage runs the same warm-started budget
    sweep twice — dense statistics vs screened lazy statistics — at a
    size where the dense path is still tractable, and checks the
    selected sets are identical.  The *large* stage runs screened-only
    at a candidate count whose dense Gram would not fit
    (10⁵ candidates ⇒ an 80,000 MB ``S``), records the measured peak
    against that analytic requirement, and audits the solutions for
    uncaught KKT violations.
    """
    import tracemalloc

    budgets = (0.5, 1.0, 2.0, 3.0)
    compare_m = 600 if quick else 3000
    large_m = 20000 if quick else 100000
    problems: List[Dict] = []

    def timed_peak(fn):
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            out = fn()
            elapsed = time.perf_counter() - t0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return out, elapsed, peak / 2**20

    with obs.use_registry(obs.MetricsRegistry()) as registry:
        Z, G = _screen_problem(compare_m, seed=0)
        (dense_sets, _), dense_s, dense_peak_mb = timed_peak(
            lambda: _screen_sweep(Z, G, budgets, screen=False)
        )
        (scr_sets, scr_results), screened_s, scr_peak_mb = timed_peak(
            lambda: _screen_sweep(Z, G, budgets, screen=True)
        )
        sets_identical = dense_sets == scr_sets
        compare_uncaught = _uncaught_kkt(Z, G, scr_results)
        compare = {
            "n_candidates": compare_m,
            "budgets": list(budgets),
            "dense_s": dense_s,
            "screened_s": screened_s,
            "speedup": dense_s / screened_s,
            "dense_peak_mb": dense_peak_mb,
            "screened_peak_mb": scr_peak_mb,
            "memory_reduction": dense_peak_mb / max(scr_peak_mb, 1e-9),
            "sets_identical": sets_identical,
            "uncaught_kkt_violations": compare_uncaught,
        }
        if not sets_identical:
            problems.append(
                {
                    "kind": "screen_set_mismatch",
                    "dense": [list(s) for s in dense_sets],
                    "screened": [list(s) for s in scr_sets],
                }
            )

        Zl, Gl = _screen_problem(large_m, seed=1)
        (large_sets, large_results), large_s, large_peak_mb = timed_peak(
            lambda: _screen_sweep(Zl, Gl, budgets, screen=True)
        )
        large_uncaught = _uncaught_kkt(Zl, Gl, large_results)
        dense_gram_mb = large_m * large_m * 8 / 2**20
        large = {
            "n_candidates": large_m,
            "budgets": list(budgets),
            "screened_s": large_s,
            "screened_peak_mb": large_peak_mb,
            "dense_gram_mb": dense_gram_mb,
            "memory_reduction": dense_gram_mb / max(large_peak_mb, 1e-9),
            "n_selected": [len(s) for s in large_sets],
            "uncaught_kkt_violations": large_uncaught,
        }
        counters = {
            name: registry.counter(name).value
            for name in ("path.screen_dropped", "path.kkt_violations")
        }

    total_uncaught = compare_uncaught + large_uncaught
    if total_uncaught:
        problems.append(
            {"kind": "screen_kkt_uncaught", "count": total_uncaught}
        )
    if not quick:
        if large["memory_reduction"] < 5.0:
            problems.append(
                {
                    "kind": "screen_memory_reduction_below_target",
                    "measured": large["memory_reduction"],
                    "target": 5.0,
                }
            )
        if compare["speedup"] <= 1.0:
            problems.append(
                {
                    "kind": "screen_no_speedup",
                    "measured": compare["speedup"],
                }
            )

    return {
        "mode": "screen",
        "profile": "quick" if quick else "full",
        "compare": compare,
        "large": large,
        "counters": counters,
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
        description="Benchmark the λ-path engine against the sequential "
        "sweep baseline."
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke mode: fewer budgets, engine only (no slow baseline)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="BENCH_sweep.json",
        help="write the JSON report to this path",
    )
    parser.add_argument(
        "--n-jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker threads for independent scopes' λ paths (sweep "
        "mode) or worker processes for benchmark shares (datagen mode)",
    )
    parser.add_argument(
        "--check-convergence",
        action="store_true",
        help="exit nonzero if any constrained solve failed to converge "
        "or violated its budget",
    )
    parser.add_argument(
        "--datagen",
        action="store_true",
        help="benchmark the data-generation engine instead of the λ "
        "sweep; exits nonzero on reference mismatch or cache problems",
    )
    parser.add_argument(
        "--monitor",
        action="store_true",
        help="benchmark batched fleet serving vs looped single-stream "
        "monitors; exits nonzero on an identity/failover/throughput "
        "failure",
    )
    parser.add_argument(
        "--screen",
        action="store_true",
        help="benchmark strong-rule candidate screening: peak memory "
        "and wall-clock vs the dense path, set fidelity, and an exact "
        "KKT audit; exits nonzero on a mismatch or missed target",
    )
    parser.add_argument(
        "--tournament",
        action="store_true",
        help="race every registered sensor placer across benchmarks, "
        "variation instances and fault scenarios; exits nonzero if any "
        "placer fails",
    )
    parser.add_argument(
        "--surrogate",
        action="store_true",
        help="benchmark the learned droop surrogate: screening "
        "throughput vs the exact engine on a dense grid, plus exact "
        "top-k recall on a small grid; exits nonzero on a guard-bound "
        "violation, a missed worst case, or (full profile) screening "
        "below the 50x target",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="benchmark the sharded serving fleet: streams/sec and "
        "p50/p99 latency over shard counts, fleet vs pickle-queue "
        "transport, and a rolling hot-swap trial; exits "
        "nonzero on any bit-identity or hot-swap failure",
    )
    parser.add_argument(
        "--markdown",
        default=None,
        metavar="leaderboard.md",
        help="with --tournament: also write the markdown leaderboard "
        "to this path",
    )
    args = parser.parse_args(argv)
    if args.n_jobs < 1:
        parser.error("--n-jobs must be >= 1")
    if sum(
        (
            args.datagen, args.monitor, args.screen, args.tournament,
            args.serve, args.surrogate,
        )
    ) > 1:
        parser.error(
            "--datagen, --monitor, --screen, --tournament, --serve and "
            "--surrogate are mutually exclusive"
        )
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

    if args.serve:
        from serve_bench import run_serve

        report = run_serve(quick=args.quick)
        print(
            f"serve profile: {report['profile']}  cpus: "
            f"{report['cpu_count']}  streams: {report['n_streams']}  "
            f"cycles: {report['n_cycles']}  slot_ticks: "
            f"{report['slot_ticks']}"
        )
        ref = report["reference"]
        print(
            f"reference run_batch: {ref['run_batch_s']:.3f}s "
            f"({ref['frames_per_s']:,.0f} frames/s)"
        )
        tr = report["transport"]
        print(
            f"transport @1 shard: queue+pickle {tr['queue_pickle_s']:.3f}s "
            f"vs fleet {tr['fleet_s']:.3f}s  speedup {tr['speedup']:.2f}x"
        )
        for point in report["points"]:
            print(
                f"  shards={point['shards']}: "
                f"{point['streams_per_s']:,.1f} streams/s  "
                f"p50 {point['p50_ms']:.2f} ms  p99 {point['p99_ms']:.2f} ms  "
                f"x{point['speedup_vs_1shard']:.2f} vs 1 shard  "
                f"bit_identical={point['bit_identical']}"
            )
        hs = report["hot_swap"]
        print(
            f"hot swap @cycle {hs['swap_at_cycle']}: "
            f"dropped={hs['dropped_frames']} "
            f"divergent={hs['divergent_cycles']} "
            f"old/new slots {hs['slots_old_model']}/{hs['slots_new_model']}  "
            f"bit_identical={hs['bit_identical']}"
        )
        if not report["scaling_gated"]:
            print(
                f"note: scaling target not gated (cpu_count="
                f"{report['cpu_count']} < {4}); curve recorded as data"
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

    if args.screen:
        report = run_screen(quick=args.quick)
        cmp_ = report["compare"]
        large = report["large"]
        print(
            f"screen profile: {report['profile']}  "
            f"compare M={cmp_['n_candidates']}  large M={large['n_candidates']}"
        )
        print(
            f"compare: dense {cmp_['dense_s']:.2f}s / "
            f"{cmp_['dense_peak_mb']:.1f} MB  screened "
            f"{cmp_['screened_s']:.2f}s / {cmp_['screened_peak_mb']:.1f} MB  "
            f"speedup {cmp_['speedup']:.2f}x  "
            f"memory {cmp_['memory_reduction']:.1f}x  "
            f"sets_identical={cmp_['sets_identical']}"
        )
        print(
            f"large: screened {large['screened_s']:.2f}s / "
            f"{large['screened_peak_mb']:.1f} MB vs dense Gram "
            f"{large['dense_gram_mb']:.0f} MB  "
            f"memory {large['memory_reduction']:.0f}x  "
            f"selected {large['n_selected']}"
        )
        print(
            f"counters: {report['counters']}  uncaught KKT: "
            f"{cmp_['uncaught_kkt_violations'] + large['uncaught_kkt_violations']}"
        )
        return emit_bench(report, args.out)

    if args.monitor:
        report = run_monitor(quick=args.quick)
        print(
            f"monitor profile: {report['profile']}  "
            f"streams: {report['n_streams']}  cycles: {report['n_cycles']}  "
            f"sensors: {report['n_sensors']}"
        )
        print(
            f"loop: {report['loop_s']:.2f}s "
            f"({report['loop_cycles_per_s']:,.0f} cyc/s)  "
            f"batch: {report['batch_s']:.3f}s "
            f"({report['batch_cycles_per_s']:,.0f} cyc/s)  "
            f"speedup: {report['speedup']:.1f}x"
        )
        ident = report["identity"]
        print(
            f"identity: flags={ident['flags_equal']} "
            f"events={ident['events_equal']} stats={ident['stats_equal']}  "
            f"episodes: {report['events_total']}"
        )
        fo = report["failover"]
        print(
            f"failover: detections={len(fo['failures'])} "
            f"precomputed_fallback={fo['is_precomputed_fallback']} "
            f"exact={fo['compiled_exact']}"
        )
        return emit_bench(report, args.out)

    if args.datagen:
        report = run_datagen(quick=args.quick, n_jobs=args.n_jobs)
        print(
            f"datagen profile: {report['profile']}  "
            f"kernel: {report['uses_kernel']}  n_jobs: {report['n_jobs']}"
        )
        print(
            f"reference: {report['reference_s']:.2f}s  "
            f"optimized: {report['optimized_s']:.2f}s  "
            f"speedup: {report['speedup']:.2f}x"
        )
        print(
            f"cache: cold {report['cache_cold_s']:.2f}s  "
            f"warm {report['cache_warm_s']:.2f}s  "
            f"({report['cache_speedup']:.0f}x)"
        )
        print(
            f"equality: bit_identical={report['equality']['bit_identical']} "
            f"max_ulp32={report['equality']['max_ulp32']}"
        )
        if report["workers"]:
            for worker in report["workers"]:
                timers = worker.get("snapshot", {}).get("timers", {})
                solve = timers.get("datagen.batch_solve", {})
                print(
                    f"  worker {worker.get('worker')}: "
                    f"{len(worker.get('benchmarks', []))} benchmarks, "
                    f"solve p99 {solve.get('p99_s', 0.0) * 1e3:.1f} ms"
                )
        return emit_bench(report, args.out)

    budgets = QUICK_BUDGETS if args.quick else FULL_BUDGETS
    report = run(budgets, n_jobs=args.n_jobs, skip_baseline=args.quick)

    print(f"profile: {report['profile']}  budgets: {report['budgets']}")
    print(f"engine: {report['engine_s']:.2f}s  counters: {report['counters']}")
    if "baseline_s" in report:
        print(
            f"baseline: {report['baseline_s']:.2f}s  "
            f"speedup: {report['speedup']:.2f}x"
        )
        for row in report["fidelity"]:
            print(
                f"  budget={row['budget']:<4g} "
                f"sensors {row['n_sensors_baseline']}->{row['n_sensors_engine']} "
                f"jaccard={row['jaccard']:.2f} "
                f"rel_err {row['relative_error_baseline']:.6f}"
                f"->{row['relative_error_engine']:.6f}"
            )

    return emit_bench(
        report,
        args.out,
        problems=report["solver_problems"],
        fail_on_problems=args.check_convergence,
        problem_label="solver problem",
    )


if __name__ == "__main__":
    sys.exit(main())
