"""End-to-end, layer-attributed benchmark of the reproduction.

Usage (from the repository root)::

    python benchmarks/e2e/run.py                      # all workloads, untraced + traced
    python benchmarks/e2e/run.py --workload paper-e2e --seed 3 --trace 0
    python benchmarks/e2e/run.py --quick              # fast profile, short runs
    python benchmarks/e2e/run.py --repeat 5 --out a.json

Each (workload, seed, trace) runs in a fresh ``measure.py`` subprocess
with ``REPRO_DATASET_CACHE`` removed (data generation is never a cache
hit) and the compiled-kernel cache and temporary files kept under
``.bench_build/e2e`` in the checkout.  Untraced runs report the
end-to-end metrics declared in ``BENCHMARK.json``; traced runs report
the per-layer ones.  Every metric is printed with its unit, the
outputs are checked (in the measuring process against independent
references; here against ``expected.json`` at seed 0), and the last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The run length is ``run_seconds`` of ``BENCHMARK.json`` (1 s under
``--quick``); ``--seconds`` may repeat it and is refused otherwise.
``--out`` writes every run (metrics, checks, repetitions, spans and
provenance, which records the run length) for ``compare.py``.  The exit code is 0 when every check
passed, 1 when one failed, and 2 when the program sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "e2e")
EXPECTED = os.path.join(HERE, "expected.json")

sys.path.insert(0, HERE)
from provenance import source_provenance  # noqa: E402

#: Workloads in run order (names match ``BENCHMARK.json``).
WORKLOAD_NAMES = ("paper-e2e", "lambda-path", "screen-large-m", "fleet-serve")
#: Run length under ``--quick``.
QUICK_SECONDS = 1
#: Repetitions per workload pinned in ``expected.json`` at seed 0.
EXPECTED_REPS = 3
#: Relative tolerance for floats compared against ``expected.json``.
EXPECTED_RTOL = 1e-6
#: Wall-clock budget of one measuring process.
CHILD_TIMEOUT_S = 170.0


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> Dict[str, str]:
    """Environment of a measuring process: no dataset cache, local scratch."""
    env = dict(os.environ)
    env.pop("REPRO_DATASET_CACHE", None)
    env["PYTHONPATH"] = SRC
    # One BLAS thread: on a small shared host a second thread buys
    # little and turns a co-tenant's load into multi-second stalls.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # A fixed glibc mmap threshold: the adaptive one moves large arrays
    # between heap and mmap as a run ages, which swung a repetition's
    # peak RSS by up to a fifth.
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    env["REPRO_KERNEL_CACHE"] = os.path.join(WORK, "kernels")
    env["TMPDIR"] = os.path.join(WORK, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def _run_child(args: List[str], env: Dict[str, str], timeout: float) -> None:
    cmd = [sys.executable, os.path.join(HERE, "measure.py"), *args]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"measuring process timed out after {timeout:.0f}s")
    if code != 0:
        raise RuntimeError(f"measuring process failed with exit code {code}")


def measure(workload: str, seed: int, seconds: float, trace: int, quick: bool,
            env: Dict[str, str]) -> Dict[str, Any]:
    """Run one measuring process and return its raw result."""
    result_path = os.path.join(WORK, f"result-{workload}-{seed}-{trace}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    args = [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--spawn-time", repr(time.time()),
        "--result", result_path,
    ]
    if quick:
        args.append("--quick")
    _run_child(args, env, CHILD_TIMEOUT_S)
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(result_path)
    return result


def _same(expected: Any, got: Any) -> bool:
    if isinstance(expected, float) and isinstance(got, (int, float)):
        return math.isclose(expected, got, rel_tol=EXPECTED_RTOL, abs_tol=1e-12)
    if isinstance(expected, list) and isinstance(got, list):
        return len(expected) == len(got) and all(
            _same(e, g) for e, g in zip(expected, got)
        )
    return expected == got


def pinned(digest: Dict[str, Any]) -> Dict[str, Any]:
    """The digest fields ``expected.json`` pins (array hashes are not:
    they guard traced-versus-untraced identity within one run)."""
    return {k: v for k, v in digest.items() if not k.endswith("_sha")}


def expected_checks(result: Dict[str, Any],
                    expected: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Seed-0 digests against the committed ``expected.json`` entries."""
    if result["seed"] != 0:
        return []
    reps = expected.get(result["profile"], {}).get(result["workload"], [])
    checks = []
    for want, got in zip(reps, result["digests"]):
        diff = [k for k in want if not _same(want[k], got.get(k))]
        checks.append({"name": "matches_expected", "ok": not diff,
                       "detail": diff, "rep": got["rep"]})
    return checks


def evaluate(result: Dict[str, Any], spec: Dict[str, Any],
             expected: Dict[str, Any]) -> Dict[str, Any]:
    """Attach units, the expected-output checks and the check counts."""
    declared = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(result["metrics"]):
        raise RuntimeError(
            f"{result['workload']}: emitted metrics "
            f"{sorted(result['metrics'])} differ from BENCHMARK.json "
            f"{sorted(units)}"
        )
    result["checks"] += expected_checks(result, expected)
    result["metrics"] = {
        name: {"value": result["metrics"][name], "unit": units[name]}
        for name in units
    }
    result["attempted"] = len(result["checks"])
    result["failed"] = sum(not c["ok"] for c in result["checks"])
    return result


def print_run(run: Dict[str, Any]) -> None:
    mode = "traced" if run["trace"] else "untraced"
    print(f"{run['workload']} seed={run['seed']} {mode} "
          f"({len(run['reps'])} reps, profile {run['profile']})")
    for name, m in run["metrics"].items():
        print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")
    print(f"  checks: {run['attempted'] - run['failed']}/{run['attempted']} passed")
    for c in run["checks"]:
        if not c["ok"]:
            print(f"  FAILED {c['name']} rep={c['rep']} detail={c['detail']}")


def summary_line(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The final JSON line; metrics are workload-qualified when several
    workloads ran, and medians across seeds when several seeds ran."""
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    qualify = len({r["workload"] for r in runs}) > 1
    values: Dict[str, List[float]] = {}
    units: Dict[str, str] = {}
    for r in runs:
        for name, m in r["metrics"].items():
            key = f"{r['workload']}/{name}" if qualify else name
            values.setdefault(key, []).append(m["value"])
            units[key] = m["unit"]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": float(statistics.median(v)), "unit": units[k]}
            for k, v in values.items()
        },
    }


def load_expected(path: str) -> Dict[str, Any]:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def write_expected(path: str, runs: List[Dict[str, Any]]) -> None:
    """Record the seed-0 untraced digests in the expected-output file."""
    expected = load_expected(path)
    for r in runs:
        if r["seed"] == 0 and not r["trace"]:
            expected.setdefault(r["profile"], {})[r["workload"]] = [
                pinned(d) for d in r["digests"][:EXPECTED_REPS]
            ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"expected outputs written to {path}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end, layer-attributed benchmark."
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 is the configuration in expected.json")
    parser.add_argument("--seconds", type=float, default=None,
                        help="accepted for benchmark runners that pass the "
                             "run length; it must equal BENCHMARK.json "
                             "run_seconds (or 1 with --quick), so results "
                             "are never measured at different lengths")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0 = untraced end-to-end metrics, 1 = traced "
                             "per-layer metrics (default: both)")
    parser.add_argument("--quick", action="store_true",
                        help="fast profile (small chips, M=20,000, 32 chunks) "
                             f"and {QUICK_SECONDS}s runs")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run seeds seed .. seed+N-1")
    parser.add_argument("--out", help="write all runs to this JSON file")
    parser.add_argument("--expected", default=EXPECTED,
                        help="expected seed-0 outputs (default: expected.json "
                             "beside this script)")
    parser.add_argument("--write-expected", action="store_true",
                        help="record this run's seed-0 outputs in --expected")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.repeat < 1:
        parser.error("--seed must be >= 0 and --repeat >= 1")

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: program sources not found under {SRC}; run from a "
              "full checkout of the repository", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = QUICK_SECONDS if args.quick else spec["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        parser.error(f"--seconds must be {seconds} (the declared run length)")
    expected = load_expected(args.expected)

    env = child_env()
    kernels = env["REPRO_KERNEL_CACHE"]
    if not (os.path.isdir(kernels)
            and any(f.endswith(".so") for f in os.listdir(kernels))):
        # Compile once per checkout, outside every timed region.
        _run_child(["--prepare"], env, CHILD_TIMEOUT_S)

    workloads = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    traces = [args.trace] if args.trace is not None else [0, 1]
    runs = []
    for workload in workloads:
        for seed in range(args.seed, args.seed + args.repeat):
            for trace in traces:
                run = evaluate(
                    measure(workload, seed, seconds, trace, args.quick, env),
                    spec, expected,
                )
                print_run(run)
                runs.append(run)

    if args.write_expected:
        write_expected(args.expected, runs)
    if args.out:
        provenance = dict(runs[0]["provenance"], **source_provenance(ROOT))
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"schema": "repro.e2e/v1", "provenance": provenance,
                       "runs": runs}, fh, indent=1)
            fh.write("\n")
        print(f"results written to {args.out}")
    summary = summary_line(runs)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
