"""Shared schema for the ``BENCH_*.json`` benchmark reports.

The ``benchmarks/run_bench.py`` modes (datagen, placement tournament,
surrogate) write reports of different shapes.  This module pins the
contract down:

* :data:`BENCH_SCHEMA` — the schema tag ``run_bench.py`` stamps into
  every report it writes (:func:`stamp_bench`).
* :func:`infer_mode` — the mode a report declares in its ``mode``
  field.
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
MODES = ("datagen", "tournament", "surrogate")

#: Fields every report of a mode must carry to be considered valid.
_REQUIRED_FIELDS = {
    "datagen": (
        "optimized_s", "cache_cold_s", "cache_warm_s", "cache_equality",
        "counters", "problems",
    ),
    "tournament": ("budget", "placers", "scenarios", "entries", "problems"),
    "surrogate": (
        "throughput", "recall", "counters", "problems",
    ),
}


def infer_mode(doc: Dict[str, Any]) -> str:
    """The benchmark mode ``doc`` declares in its ``mode`` field.

    Raises
    ------
    ValueError
        If the mode is missing or unknown.
    """
    mode = doc.get("mode")
    if mode not in MODES:
        raise ValueError(
            f"cannot determine benchmark mode: mode={mode!r} is not one "
            f"of {MODES}"
        )
    return str(mode)


def stamp_bench(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Stamp ``schema`` and ``mode`` into a report (in place; returned)."""
    doc["mode"] = infer_mode(doc)
    doc["schema"] = BENCH_SCHEMA
    return doc


def validate_bench(doc: Dict[str, Any]) -> List[str]:
    """Structural problems of a bench report (empty list = valid).

    Accepts reports with or without the ``schema`` stamp and the
    ``provenance`` block; a wrong schema tag, an unknown mode, missing
    required fields, non-numeric counters, or a ``provenance`` that is
    not a mapping are each one problem string.
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
    if "provenance" in doc and not isinstance(doc["provenance"], dict):
        problems.append("'provenance' must be a mapping")
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
    per-placer accuracy figures keyed ``overall_error[placer=random]``.
    The report CLI classifies entries by name, so the keys here are
    the contract.
    """
    mode = infer_mode(doc)
    counters: Dict[str, float] = dict(doc.get("counters", {}))
    scalars: Dict[str, float] = {}

    if mode == "datagen":
        _scalar(
            scalars, doc,
            "optimized_s", "cache_cold_s", "cache_warm_s", "cache_speedup",
        )
    elif mode == "tournament":
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
    else:  # surrogate
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

    return {
        "kind": "bench",
        "mode": mode,
        "counters": {str(k): float(v) for k, v in counters.items()},
        "timers": {},
        "scalars": scalars,
    }
