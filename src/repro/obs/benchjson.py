"""Shared schema for the ``BENCH_*.json`` benchmark reports.

The ``benchmarks/run_bench.py`` modes (λ sweep, datagen, monitor,
screen, placement tournament, sharded serve) historically drifted in
field names — the sweep report did not even carry a ``mode`` stamp.
This module pins the contract down:

* :data:`BENCH_SCHEMA` — the schema tag ``run_bench.py`` stamps into
  every report it writes (:func:`stamp_bench`).
* :func:`infer_mode` — mode of a report, including legacy ones that
  predate the stamp (a committed ``BENCH_sweep.json`` is recognized by
  its ``engine_points``).
* :func:`validate_bench` — structural validation; ``run_bench.py``
  calls it before writing and refuses to emit malformed reports.
* :func:`normalize_bench` — flattens any mode into the common
  ``{counters, timers, scalars}`` shape that
  :mod:`repro.obs.report` diffs.
"""

from __future__ import annotations

from typing import Any, Dict, List

__all__ = [
    "BENCH_SCHEMA",
    "MODES",
    "infer_mode",
    "stamp_bench",
    "validate_bench",
    "normalize_bench",
]

#: Schema tag stamped into every bench report written from now on.
BENCH_SCHEMA = "repro.bench/v1"

#: The benchmark modes ``run_bench.py`` produces.
MODES = (
    "sweep", "datagen", "monitor", "screen", "tournament", "serve",
    "surrogate",
)

#: Fields every report of a mode must carry to be considered valid.
_REQUIRED_FIELDS = {
    "sweep": ("budgets", "engine_s", "counters", "engine_points"),
    "datagen": (
        "reference_s", "optimized_s", "speedup", "equality",
        "counters", "problems",
    ),
    "monitor": (
        "loop_s", "batch_s", "speedup", "identity", "failover", "problems",
    ),
    "screen": ("compare", "large", "counters", "problems"),
    "tournament": ("budget", "placers", "scenarios", "entries", "problems"),
    "serve": (
        "cpu_count", "reference", "points", "hot_swap",
        "bit_identical", "counters", "problems",
    ),
    "surrogate": (
        "throughput", "recall", "counters", "problems",
    ),
}


def infer_mode(doc: Dict[str, Any]) -> str:
    """The benchmark mode of ``doc``.

    Honors an explicit ``mode`` field; legacy sweep reports (written
    before the schema stamp existed) are recognized by their
    ``engine_points`` list.

    Raises
    ------
    ValueError
        If the mode is missing/unknown and cannot be inferred.
    """
    mode = doc.get("mode")
    if mode is None and "engine_points" in doc:
        return "sweep"
    if mode not in MODES:
        raise ValueError(
            f"cannot determine benchmark mode: mode={mode!r} and no "
            "recognizable legacy shape"
        )
    return str(mode)


def stamp_bench(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Stamp ``schema`` and ``mode`` into a report (in place; returned)."""
    doc["mode"] = infer_mode(doc)
    doc["schema"] = BENCH_SCHEMA
    return doc


def validate_bench(doc: Dict[str, Any]) -> List[str]:
    """Structural problems of a bench report (empty list = valid).

    Accepts both stamped (``schema``/``mode`` present) and legacy
    reports; a wrong schema tag, an undeterminable mode, missing
    required fields, or non-numeric counters are each one problem
    string.
    """
    problems: List[str] = []
    schema = doc.get("schema")
    if schema is not None and schema != BENCH_SCHEMA:
        problems.append(f"unknown schema {schema!r} (expected {BENCH_SCHEMA!r})")
    try:
        mode = infer_mode(doc)
    except ValueError as exc:
        problems.append(str(exc))
        return problems
    for field in _REQUIRED_FIELDS[mode]:
        if field not in doc:
            problems.append(f"{mode} report missing field {field!r}")
    counters = doc.get("counters")
    if counters is not None:
        if not isinstance(counters, dict):
            problems.append("'counters' must be a mapping")
        else:
            for name, value in counters.items():
                if not isinstance(value, (int, float)):
                    problems.append(
                        f"counter {name!r} has non-numeric value {value!r}"
                    )
    return problems


def _scalar(out: Dict[str, float], doc: Dict[str, Any], *names: str) -> None:
    """Copy numeric fields of ``doc`` into ``out`` when present."""
    for name in names:
        value = doc.get(name)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[name] = float(value)


def normalize_bench(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Flatten a bench report into ``{mode, counters, timers, scalars}``.

    ``counters`` are exact event counts, ``timers`` percentile-summary
    dicts (bench reports have none — manifests do), and ``scalars``
    everything else numeric: wall-clock seconds, speedups, and
    per-budget accuracy figures keyed ``relative_error[budget=2]``.
    The report CLI classifies entries by name, so the keys here are
    the contract.
    """
    mode = infer_mode(doc)
    counters: Dict[str, float] = {}
    timers: Dict[str, Dict[str, float]] = {}
    scalars: Dict[str, float] = {}

    if mode == "serve":
        counters.update(doc.get("counters", {}))
        _scalar(scalars, doc, "cpu_count")
        scalars["bit_identical"] = float(bool(doc.get("bit_identical")))
        reference = doc.get("reference", {})
        if isinstance(reference, dict):
            _scalar(scalars, reference, "run_batch_s", "streams_per_s")
        transport = doc.get("transport", {})
        if isinstance(transport, dict):
            _scalar(
                scalars, transport,
                "queue_pickle_s", "fleet_s", "speedup",
            )
        for point in doc.get("points", []):
            shards = point.get("shards")
            tag = f"[shards={shards}]" if isinstance(shards, int) else ""
            for field in (
                "streams_per_s", "frames_per_s", "speedup_vs_1shard",
            ):
                value = point.get(field)
                if isinstance(value, (int, float)) and not isinstance(
                    value, bool
                ):
                    scalars[f"{field}{tag}"] = float(value)
            # End-to-end slot latencies become timer summaries so the
            # report CLI's latency gate (p99 + 50%) applies to them.
            p50, p99, count = (
                point.get("p50_ms"), point.get("p99_ms"), point.get("slots")
            )
            if all(isinstance(v, (int, float)) for v in (p50, p99, count)):
                timers[f"serve.e2e{tag}"] = {
                    "p50_s": float(p50) / 1e3,
                    "p99_s": float(p99) / 1e3,
                    "count": float(count),
                }
        hot_swap = doc.get("hot_swap", {})
        if isinstance(hot_swap, dict):
            _scalar(
                scalars, hot_swap, "dropped_frames", "divergent_cycles",
            )
        scalars["problems"] = float(len(doc.get("problems", [])))
    elif mode == "sweep":
        counters.update(doc.get("counters", {}))
        _scalar(scalars, doc, "datagen_s", "engine_s", "baseline_s", "speedup")
        for point in doc.get("engine_points", []):
            budget = point.get("budget")
            tag = f"[budget={budget:g}]" if isinstance(budget, (int, float)) else ""
            for field in ("relative_error", "max_abs_error", "n_sensors"):
                value = point.get(field)
                if isinstance(value, (int, float)):
                    scalars[f"{field}{tag}"] = float(value)
        scalars["solver_problems"] = float(len(doc.get("solver_problems", [])))
    elif mode == "datagen":
        counters.update(doc.get("counters", {}))
        _scalar(
            scalars, doc,
            "reference_s", "optimized_s", "speedup",
            "cache_cold_s", "cache_warm_s", "cache_speedup",
        )
        equality = doc.get("equality", {})
        if isinstance(equality, dict):
            _scalar(scalars, equality, "max_ulp32")
        scalars["problems"] = float(len(doc.get("problems", [])))
    elif mode == "tournament":
        counters.update(doc.get("counters", {}))
        for entry in doc.get("entries", []):
            placer = entry.get("placer")
            tag = f"[placer={placer}]" if placer else ""
            for field in (
                "overall_error", "worst_degraded_error",
                "detected_fraction", "place_s",
            ):
                value = entry.get(field)
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    scalars[f"{field}{tag}"] = float(value)
            nominal = entry.get("nominal")
            if isinstance(nominal, dict):
                value = nominal.get("relative_error")
                if isinstance(value, (int, float)):
                    scalars[f"nominal_error{tag}"] = float(value)
        scalars["problems"] = float(len(doc.get("problems", [])))
    elif mode == "surrogate":
        counters.update(doc.get("counters", {}))
        throughput = doc.get("throughput", {})
        if isinstance(throughput, dict):
            _scalar(
                scalars, throughput,
                "screen_scenarios_per_min", "exact_scenarios_per_min",
                "speedup", "n_pool", "top_k",
                "guard_violations", "nominal_violations",
                "rank_agreement", "fit_error_rms",
                "nominal_coverage", "guard_coverage",
            )
        recall = doc.get("recall", {})
        if isinstance(recall, dict):
            # Prefixed so the recall sweep's figures cannot collide
            # with the throughput sweep's in the flat scalar namespace.
            sub: Dict[str, float] = {}
            _scalar(
                sub, recall,
                "recall_at_k", "worst_case_hit", "n_pool", "top_k",
                "guard_violations", "nominal_coverage",
            )
            scalars.update({f"recall.{k}": v for k, v in sub.items()})
        scalars["problems"] = float(len(doc.get("problems", [])))
    elif mode == "screen":
        counters.update(doc.get("counters", {}))
        compare = doc.get("compare", {})
        if isinstance(compare, dict):
            _scalar(
                scalars, compare,
                "dense_s", "screened_s", "speedup",
                "dense_peak_mb", "screened_peak_mb", "memory_reduction",
            )
        large = doc.get("large", {})
        if isinstance(large, dict):
            _scalar(
                scalars, large,
                "screened_s", "screened_peak_mb",
                "dense_gram_mb", "memory_reduction",
                "uncaught_kkt_violations",
            )
        scalars["problems"] = float(len(doc.get("problems", [])))
    else:  # monitor
        failover = doc.get("failover", {})
        if isinstance(failover, dict):
            counters.update(failover.get("counters", {}))
        _scalar(
            scalars, doc,
            "loop_s", "batch_s", "speedup",
            "loop_cycles_per_s", "batch_cycles_per_s",
            "events_total", "alarm_cycles_total",
        )
        scalars["problems"] = float(len(doc.get("problems", [])))

    return {
        "kind": "bench",
        "mode": mode,
        "counters": {str(k): float(v) for k, v in counters.items()},
        "timers": timers,
        "scalars": scalars,
    }
