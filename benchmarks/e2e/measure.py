"""Measure one workload in this process; write the raw result as JSON.

Started by ``run.py`` in a fresh interpreter per workload (so peak
memory and caches cannot leak between workloads)::

    python measure.py --workload paper-e2e --seed 0 --seconds 20 \\
        --trace 0 --spawn-time <epoch s> --result out.json

Sequence (counts in :data:`FULL_COUNTS`): imports, then ``setup``
three times, then two fresh interpreters that only import (``setup_s``
is the median import time plus the median setup), one warm-up repetition
(checked, not timed), then timed repetitions until the next one would
overrun ``--seconds``.  With ``--trace 1`` every repetition runs twice
on the same inputs: untraced, then traced under a fresh
``repro.obs`` registry with layer spans interposed; the two outputs
must be bit-identical.

Times are reported in *reference-host seconds*.  A fixed calibration
kernel (:func:`_calibration_s`, no program code) runs before and after
every timed repetition, set-up and import probe, and each time is
scaled by ``CALIB_REF_S / calibration`` before medians are taken.  On a
shared host whose speed drifts by a quarter within minutes this turned
run-to-run spreads of 14–32 % into 5–17 %; the raw wall and
calibration times of every repetition stay in the result file.
Workloads that run in one process are pinned to one CPU.
"""

from __future__ import annotations

import time

_T_START = time.time()

import argparse
import ctypes
import gc
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List

import repro.obs as obs
from layers import (
    NULL_TRACER,
    SHARE_GROUPS,
    LAYERS,
    Tracer,
    peak_rss_mb,
    reset_peak_rss,
)
from provenance import runtime_provenance
from workloads import WORKLOADS

#: Per-run counts: set-ups (their median is the set-up time), import
#: probes (extra interpreters started only to time the imports, since a
#: single import time swings by a fifth or more on a busy host), and
#: timed repetitions taken even when they overrun ``--seconds``: fewer
#: when traced, since a traced repetition runs twice and per-layer
#: metrics have no bound.  The quick profile is a smoke test.
FULL_COUNTS = {"setups": 3, "probes": 2, "min_reps": 4, "min_traced_reps": 2}
QUICK_COUNTS = {"setups": 1, "probes": 0, "min_reps": 1, "min_traced_reps": 1}
#: Calibration-kernel time (s) that defines the reference host: times
#: are reported as ``measured * CALIB_REF_S / calibration``.
CALIB_REF_S = 0.090
#: Spans of the first traced repetition kept in the result.
SPAN_LIMIT = 4000


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den > 0 else 0.0


def _calibration_s() -> float:
    """Seconds for a fixed kernel that touches no program code: a probe of
    the host's current speed.

    On a shared host the speed drifts by a quarter or more over minutes,
    mostly through memory-bandwidth contention, so the kernel is weighted
    towards streaming arrays larger than the caches (which tracked the
    workloads' slowdowns best), plus small dense products and an
    interpreter loop.  Its arrays are allocated and freed inside the
    timed region, so it leaves no resident memory behind.
    """
    import numpy as np

    t0 = time.perf_counter()
    Z = np.full((320, 20_000), 0.5)
    w = np.ones((20_000, 4))
    for _ in range(3):
        w = Z.T @ (Z @ w) * 1e-7
    V = np.full(1 << 20, 0.5)
    for _ in range(20):
        V = V * 0.5 + 1.0
    S = np.eye(300)
    B = np.ones((30, 300))
    for _ in range(100):
        B = np.tanh(B @ S)
    x = 0
    for i in range(100_000):
        x += i & 7
    del Z, V
    return time.perf_counter() - t0


def _release_memory() -> None:
    """Collect garbage and hand freed heap pages back to the OS, so each
    repetition's peak RSS starts from the same resident baseline."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def _child_mb(out: Any) -> float:
    """Private memory of the worker processes a repetition started, MB
    (read by the workload before it stops them; 0 when it started none)."""
    return float(out.get("child_mb", 0.0)) if isinstance(out, dict) else 0.0


def _tail_ratio(samples_ns: List[int]) -> float:
    """p90 / p50 of a latency sample (0 when there is none).

    A repetition has 128 slot latencies; p90 is the highest percentile
    with at least ten samples beyond it.
    """
    if not samples_ns:
        return 0.0
    ordered = sorted(samples_ns)
    p50 = ordered[len(ordered) // 2]
    p90 = ordered[int(0.9 * len(ordered))]
    return _ratio(p90, p50)


def layer_metrics(tracer: Tracer, registry: obs.MetricsRegistry,
                  traced_s: float, out: Any) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    selfs = tracer.self_times()
    snap = registry.snapshot()
    counters = snap["counters"]
    constrained = snap["timers"].get("fit.group_lasso", {}).get("count", 0)

    def group_s(metric: str) -> float:
        return sum(selfs.get(name, 0.0) for name in SHARE_GROUPS[metric])

    m: Dict[str, float] = {
        "trace.rep_s": traced_s,
        "trace.residual_frac": _ratio(traced_s - tracer.covered_s(), traced_s),
    }
    for metric in SHARE_GROUPS:
        m[metric] = _ratio(group_s(metric), traced_s)
    for layer in LAYERS:
        m[f"{layer}.peak_rss_mb"] = tracer.layer_peak_mb.get(layer, 0.0)
    m["serve.peak_rss_mb"] += _child_mb(out)

    node_steps = tracer.counts["powergrid.node_steps"]
    m["workload.block_steps"] = tracer.counts["workload.block_steps"]
    m["powergrid.node_steps"] = node_steps
    m["powergrid.node_steps_per_s"] = _ratio(
        node_steps, group_s("powergrid.transient_frac"))
    m["powergrid.batch_solves"] = counters.get("datagen.batch_solve", 0)
    m["powergrid.uses_kernel"] = tracer.counts["powergrid.uses_kernel"]

    iterations = counters.get("group_lasso.iterations", 0)
    solves = counters.get("group_lasso.solves", 0)
    dropped = counters.get("path.screen_dropped", 0)
    readmits = counters.get("path.kkt_violations", 0)
    m["core.constrained_solves"] = constrained
    m["core.gl_solves"] = solves
    m["core.probes_per_solve"] = _ratio(solves, constrained)
    m["core.gl_iterations"] = iterations
    m["core.iterations_per_probe"] = _ratio(iterations, solves)
    m["core.iterations_per_s"] = _ratio(iterations, group_s("core.path_frac"))
    m["core.gram_reuse"] = counters.get("path.gram_reuse", 0)
    m["core.warm_start_hits"] = counters.get("sweep.warm_start_hits", 0)
    m["core.screen_dropped"] = dropped
    m["core.kkt_readmits"] = readmits
    m["core.kkt_readmit_frac"] = _ratio(readmits, dropped)

    frames = counters.get("monitor.batch_cycles", 0)
    served = counters.get("serve.frames", 0)
    monitor_fps = _ratio(frames, group_s("monitor.frac"))
    serve_fps = _ratio(served, group_s("serve.frac"))
    m["monitor.frames"] = frames
    m["monitor.frames_per_s"] = monitor_fps
    m["monitor.failovers"] = counters.get("monitor.failovers", 0)
    m["monitor.emergencies"] = counters.get("monitor.emergencies", 0)
    m["serve.frames"] = served
    m["serve.frames_per_s"] = serve_fps
    m["serve.vs_inprocess"] = _ratio(serve_fps, monitor_fps)
    m["serve.backpressure_stalls"] = counters.get("serve.backpressure_stalls", 0)
    latencies = out if isinstance(out, dict) else {}
    m["monitor.chunk_p90_over_p50"] = _tail_ratio(latencies.get("chunk_ns", []))
    m["serve.slot_p90_over_p50"] = _tail_ratio(latencies.get("slot_ns", []))
    return {k: float(v) for k, v in m.items()}


def _import_probe_s() -> float:
    """Seconds a fresh interpreter takes to start and import everything."""
    proc = subprocess.run(
        [sys.executable, __file__, "--import-probe",
         "--spawn-time", repr(time.time())],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout)


def _reference_s(seconds: float, *calibrations: float) -> float:
    """``seconds`` rescaled to the reference host, using calibrations
    taken right around the measurement."""
    return seconds * CALIB_REF_S / statistics.fmean(calibrations)


def _pin_to_one_cpu() -> None:
    """Run on the highest-numbered allowed CPU: a single-threaded
    workload that migrates between CPUs shows a fifth more jitter."""
    if not hasattr(os, "sched_setaffinity"):
        return
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) > 1:
        os.sched_setaffinity(0, {cpus[-1]})


def measure(name: str, seed: int, seconds: float, trace: bool, quick: bool,
            spawn_time: float) -> Dict[str, Any]:
    import_runs = [_reference_s(time.time() - spawn_time, _calibration_s())]
    workload = WORKLOADS[name](quick)
    counts = QUICK_COUNTS if quick else FULL_COUNTS
    if workload.single_cpu:
        _pin_to_one_cpu()

    setup_runs = []
    state = None
    for _ in range(counts["setups"]):
        state = None
        _release_memory()
        before = _calibration_s()
        t0 = time.perf_counter()
        state = workload.setup(seed)
        setup_s = time.perf_counter() - t0
        setup_runs.append(_reference_s(setup_s, before, _calibration_s()))
    for _ in range(counts["probes"]):
        before = _calibration_s()
        probe_s = _import_probe_s()
        import_runs.append(_reference_s(probe_s, before, _calibration_s()))

    checks: List[Dict[str, Any]] = []
    digests: List[Dict[str, Any]] = []

    def finish_rep(rep: int, inp: Any, out: Any) -> None:
        for c in workload.check(state, inp, out):
            checks.append(dict(c, rep=rep))
        digests.append(dict(workload.digest(state, out), rep=rep))

    inp = workload.inputs(state, seed, 0)
    out = workload.run(state, inp, NULL_TRACER)
    finish_rep(0, inp, out)
    del inp, out

    reps: List[Dict[str, Any]] = []
    spans: List[Dict[str, Any]] = []
    # Whether every repetition's peak RSS was its own; where the
    # watermark cannot be reset it is the process-lifetime peak.
    watermark_reset = True
    window_start = time.perf_counter()
    rep = 1
    while True:
        iter_start = time.perf_counter()
        inp = workload.inputs(state, seed, rep)
        calib_before = _calibration_s()
        _release_memory()
        watermark_reset &= reset_peak_rss()
        t0 = time.perf_counter()
        out = workload.run(state, inp, NULL_TRACER)
        wall_s = time.perf_counter() - t0
        record: Dict[str, Any] = {"rep": rep, "wall_s": wall_s,
                                  "peak_rss_mb": peak_rss_mb() + _child_mb(out)}
        calib_after = _calibration_s()
        record["calib_s"] = [calib_before, calib_after]
        record["wall_ref_s"] = _reference_s(wall_s, calib_before, calib_after)
        if trace:
            untraced = workload.digest(state, out)
            del out
            _release_memory()
            tracer = Tracer()
            with obs.use_registry(obs.MetricsRegistry()) as registry:
                with tracer.interpose():
                    t0 = time.perf_counter()
                    out = workload.run(state, inp, tracer)
                    traced_s = time.perf_counter() - t0
            record["traced_s"] = traced_s
            record["layers"] = layer_metrics(tracer, registry, traced_s, out)
            same = workload.digest(state, out) == untraced
            checks.append({"name": "traced_equals_untraced", "ok": same,
                           "detail": None, "rep": rep})
            if not spans:
                spans = tracer.span_records(SPAN_LIMIT)
        finish_rep(rep, inp, out)
        del inp, out
        reps.append(record)
        rep += 1
        now = time.perf_counter()
        if (len(reps) >= counts["min_traced_reps" if trace else "min_reps"]
                and (now - window_start) + (now - iter_start) > seconds):
            break

    metrics: Dict[str, float]
    if trace:
        layers = [r["layers"] for r in reps]
        metrics = {k: _median([l[k] for l in layers]) for k in layers[0]}
        metrics["trace.overhead_frac"] = (
            _median([r["traced_s"] for r in reps])
            / _median([r["wall_s"] for r in reps]) - 1.0
        )
        residual = metrics["trace.residual_frac"]
        checks.append({"name": "trace_residual_at_most_5pct",
                       "ok": residual <= 0.05, "detail": residual, "rep": None})
    else:
        metrics = {
            "setup_s": _median(import_runs) + _median(setup_runs),
            "wall_s": _median([r["wall_ref_s"] for r in reps]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in reps]),
        }

    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "profile": "quick" if quick else "full",
        "import_runs_ref_s": import_runs,
        "setup_runs_ref_s": setup_runs,
        "reps": reps,
        "metrics": metrics,
        "checks": checks,
        "digests": digests,
        "spans": spans,
        "provenance": dict(runtime_provenance(_uses_kernel()),
                           profile="quick" if quick else "full", seed=seed,
                           run_seconds=seconds,
                           rss_watermark_reset=watermark_reset),
    }


def _uses_kernel() -> bool:
    """Whether transient solves here run on the compiled C kernel."""
    from repro.experiments.config import ChipConfig
    from repro.experiments.data_generation import build_chip

    chip = build_chip(ChipConfig(core_cols=1, core_rows=1, template="small"))
    return bool(chip.solver.uses_kernel)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--prepare", action="store_true",
                        help="only build the compiled kernel, then exit")
    parser.add_argument("--import-probe", action="store_true",
                        help="print seconds since --spawn-time, then exit")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--spawn-time", type=float, default=_T_START)
    parser.add_argument("--result")
    args = parser.parse_args(argv)
    if args.import_probe:
        print(repr(time.time() - args.spawn_time))
        return 0
    if args.prepare:
        _uses_kernel()
        return 0
    if args.workload is None or args.result is None or args.seconds is None:
        parser.error("--workload, --seconds and --result are required")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.quick, args.spawn_time)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
