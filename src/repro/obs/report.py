"""Run-diff regression reporter: ``python -m repro.obs.report old new``.

Loads two run artifacts — run manifests (``repro.obs.manifest/v*``,
written by the experiment runner's ``--trace-out``) or benchmark
reports (``BENCH_*.json`` from ``benchmarks/run_bench.py``, any mode,
and the tournament's ``results/leaderboard.json``) — aligns their
counters, timers and scalar statistics, and emits an ASCII table plus
an optional JSON verdict flagging deltas beyond configurable
thresholds.

Classification is by metric name, split into tokens on every
non-alphanumeric character, and every regression-eligible class is
lower-is-better:

========== ============================================= ================
class      matched metrics                               default threshold
========== ============================================= ================
latency    timer ``p99_s`` (and manifest timer entries)  +50 %
iterations names containing ``iteration``                +25 %
accuracy   an ``error``, ``me``, ``wae``, ``te`` or       +10 %
           ``miss`` token (``overall_error[placer=…]``,
           ``nominal_error[…]``, ``fit_error_rms``, …)
problems   a ``problems`` token                          any increase
info       wall-clock seconds, speedups, plain counters  never flagged
========== ============================================= ================

Wall-clock scalars (``*_s``, speedups, cycles/s) are reported but never
flagged — CI runners are too noisy for absolute-time gates; the latency
gate applies to *timer percentiles*, whose per-operation distributions
are far more stable than end-to-end walls.

Exit status: 0 when no regression, 1 when at least one metric regressed
beyond its threshold, 2 on usage/load errors — including artifacts
whose metrics *cannot be aligned*: a missing or malformed ``metrics``
section, a non-numeric counter, or a NaN/infinite metric value each
abort with a "cannot align" message instead of producing a diff that
silently treats the bad value as "ok".  CI runs this non-blocking
(``|| true``) against the committed BENCH baselines and archives the
JSON verdict as a workflow artifact.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from typing import Any, Dict, List, Optional

from repro.obs.benchjson import normalize_bench, validate_bench
from repro.utils.tables import format_table

__all__ = [
    "REPORT_SCHEMA",
    "Thresholds",
    "load_run",
    "normalize_manifest",
    "diff_runs",
    "render_ascii",
    "main",
]

#: Schema tag of the JSON verdict this module writes.
REPORT_SCHEMA = "repro.obs.report/v1"

#: Name tokens that mark a metric as an accuracy statistic.
_ACCURACY_TOKENS = {"error", "me", "wae", "te", "miss"}

_TOKEN_SPLIT = re.compile(r"[^a-z0-9]+")


class Thresholds:
    """Relative-increase gates per metric class (lower is better).

    ``latency=0.5`` means a p99 that grows by more than 50 % is a
    regression.  ``problems`` has no tolerance: any increase flags.
    Each class also carries an absolute floor below which deltas are
    ignored, so near-zero baselines don't flag on noise.
    """

    def __init__(
        self,
        latency: float = 0.5,
        iterations: float = 0.25,
        accuracy: float = 0.10,
    ) -> None:
        self.relative = {
            "latency": float(latency),
            "iterations": float(iterations),
            "accuracy": float(accuracy),
            "problems": 0.0,
        }
        self.absolute_floor = {
            "latency": 1e-4,      # seconds of p99 movement worth flagging
            "iterations": 1.0,    # whole iterations
            "accuracy": 1e-9,
            "problems": 0.0,
        }

    def is_regression(self, cls: str, old: float, new: float) -> bool:
        """Whether ``old -> new`` regresses for class ``cls``."""
        if cls not in self.relative:
            return False
        delta = new - old
        if delta <= self.absolute_floor[cls]:
            return False
        return new > old * (1.0 + self.relative[cls])


def _classify(name: str) -> str:
    """Metric class of ``name`` (see module docstring)."""
    lowered = name.lower()
    tokens = set(_TOKEN_SPLIT.split(lowered))
    if "problems" in tokens:
        return "problems"
    if "iteration" in lowered or "iterations" in tokens:
        return "iterations"
    if "cache" in tokens:  # cache_miss is a hit-rate stat, not a miss *error*
        return "info"
    if tokens & _ACCURACY_TOKENS:
        return "accuracy"
    return "info"


def normalize_manifest(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Flatten a run manifest into ``{counters, timers, scalars}``.

    Timers come straight from the metrics snapshot (their summary
    fields carry ``p99_s``); Group-Lasso convergence events fold into
    total-iteration scalars; per-experiment wall times are carried as
    informational scalars.

    Raises
    ------
    ValueError
        With a "cannot align" message when the manifest carries no
        usable ``metrics`` section, a non-mapping counter/timer table,
        a non-numeric counter value, or a non-mapping timer summary —
        a diff over such a manifest would silently drop or misread
        metrics.
    """
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        raise ValueError(
            "manifest has no usable 'metrics' section — cannot align"
        )
    counters_raw = metrics.get("counters", {}) or {}
    if not isinstance(counters_raw, dict):
        raise ValueError("manifest 'counters' is not a mapping — cannot align")
    counters: Dict[str, float] = {}
    for name, value in counters_raw.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(
                f"cannot align: counter {name!r} has non-numeric value "
                f"{value!r}"
            )
        counters[str(name)] = float(value)
    timers_raw = metrics.get("timers", {}) or {}
    if not isinstance(timers_raw, dict):
        raise ValueError("manifest 'timers' is not a mapping — cannot align")
    for name, summary in timers_raw.items():
        if not isinstance(summary, dict):
            raise ValueError(
                f"cannot align: timer {name!r} summary is not a mapping"
            )
    scalars: Dict[str, float] = {}
    elapsed = doc.get("elapsed_s")
    if isinstance(elapsed, (int, float)):
        scalars["elapsed_s"] = float(elapsed)
    convergence = [
        e for e in (doc.get("group_lasso", []) or []) if isinstance(e, dict)
    ]
    if convergence:
        scalars["group_lasso.iterations"] = float(
            sum(e.get("iterations", 0) for e in convergence)
        )
        scalars["group_lasso.total_iterations"] = float(
            sum(e.get("total_iterations", 0) for e in convergence)
        )
    for timing in doc.get("experiments", []) or []:
        if not isinstance(timing, dict):
            continue
        name = timing.get("experiment")
        wall = timing.get("wall_s")
        if name and isinstance(wall, (int, float)):
            scalars[f"experiment.{name}.wall_s"] = float(wall)
    return {
        "kind": "manifest",
        "mode": "manifest",
        "counters": counters,
        "timers": dict(timers_raw),
        "scalars": scalars,
    }


def _check_alignable(path: str, run: Dict[str, Any]) -> Dict[str, Any]:
    """Reject normalized runs carrying NaN/infinite metric values.

    A NaN compares false against every threshold, so without this
    check a NaN p99 (or speedup, or error figure) would flow through
    :func:`diff_runs` and land on "ok" — the one verdict it must never
    produce.  Raises ``ValueError`` with the documented "cannot align"
    message (exit code 2 via :func:`main`).
    """
    def reject(metric: str, value: Any) -> None:
        raise ValueError(
            f"{path}: cannot align: metric {metric} has unusable value "
            f"{value!r}"
        )

    for kind in ("counters", "scalars"):
        for name, value in run[kind].items():
            if not math.isfinite(value):
                reject(f"{kind[:-1]}:{name}", value)
    for name, summary in run["timers"].items():
        for field in ("p99_s", "count"):
            value = summary.get(field)
            if value is None:
                continue
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not math.isfinite(value)
            ):
                reject(f"timer:{name}.{field}", value)
    return run


def load_run(path: str) -> Dict[str, Any]:
    """Load and normalize one run artifact (manifest or bench report).

    Raises
    ------
    ValueError
        On unreadable JSON, a bench report failing validation, or
        metrics that cannot be aligned (missing ``metrics`` section,
        non-numeric counters, NaN/infinite values).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: cannot load JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    schema = str(doc.get("schema", ""))
    if schema.startswith("repro.obs.manifest/") or (
        "metrics" in doc and "spans" in doc
    ):
        try:
            run = normalize_manifest(doc)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        return _check_alignable(path, run)
    problems = validate_bench(doc)
    if problems:
        detail = "; ".join(problems)
        raise ValueError(f"{path}: invalid bench report: {detail}")
    return _check_alignable(path, normalize_bench(doc))


def _diff_value(
    metric: str,
    cls: str,
    old: Optional[float],
    new: Optional[float],
    thresholds: Thresholds,
) -> Dict[str, Any]:
    """One aligned metric row of the diff."""
    if old is None:
        status = "added"
    elif new is None:
        status = "removed"
    elif thresholds.is_regression(cls, old, new):
        status = "regression"
    elif cls in thresholds.relative and old > new + thresholds.absolute_floor[cls]:
        status = "improved"
    else:
        status = "ok" if cls in thresholds.relative else "info"
    row: Dict[str, Any] = {
        "metric": metric,
        "class": cls,
        "old": old,
        "new": new,
        "status": status,
    }
    if old is not None and new is not None:
        row["delta"] = new - old
        row["ratio"] = (new / old) if old else None
    return row


def diff_runs(
    old: Dict[str, Any],
    new: Dict[str, Any],
    thresholds: Optional[Thresholds] = None,
) -> Dict[str, Any]:
    """Align two normalized runs and classify every delta.

    Returns the JSON-ready verdict: ``{schema, comparable, rows,
    regressions, verdict}``.  ``comparable`` is False when the runs are
    different kinds/modes (e.g. a datagen bench against a tournament
    leaderboard) — rows are still produced for whatever aligns, but the
    mismatch is called out so a wrong-baseline diff can't silently pass.
    """
    thresholds = thresholds or Thresholds()
    rows: List[Dict[str, Any]] = []

    for name in sorted(set(old["counters"]) | set(new["counters"])):
        rows.append(
            _diff_value(
                f"counter:{name}",
                _classify(name),
                old["counters"].get(name),
                new["counters"].get(name),
                thresholds,
            )
        )
    for name in sorted(set(old["scalars"]) | set(new["scalars"])):
        rows.append(
            _diff_value(
                f"scalar:{name}",
                _classify(name),
                old["scalars"].get(name),
                new["scalars"].get(name),
                thresholds,
            )
        )
    for name in sorted(set(old["timers"]) | set(new["timers"])):
        t_old = old["timers"].get(name) or {}
        t_new = new["timers"].get(name) or {}
        rows.append(
            _diff_value(
                f"timer:{name}.p99_s",
                "latency",
                t_old.get("p99_s"),
                t_new.get("p99_s"),
                thresholds,
            )
        )
        rows.append(
            _diff_value(
                f"timer:{name}.count",
                "info",
                t_old.get("count"),
                t_new.get("count"),
                thresholds,
            )
        )

    regressions = [r for r in rows if r["status"] == "regression"]
    comparable = old["mode"] == new["mode"]
    return {
        "schema": REPORT_SCHEMA,
        "old_mode": old["mode"],
        "new_mode": new["mode"],
        "comparable": comparable,
        "thresholds": dict(thresholds.relative),
        "rows": rows,
        "regressions": regressions,
        "verdict": "regression" if regressions else "ok",
    }


def render_ascii(report: Dict[str, Any], all_rows: bool = False) -> str:
    """ASCII rendering of a diff verdict.

    Shows regressions and improvements always; ``all_rows`` adds the
    ok/info rows (the CLI's ``--all``).
    """
    shown = [
        r
        for r in report["rows"]
        if all_rows or r["status"] in ("regression", "improved", "added", "removed")
    ]
    lines: List[str] = []
    if not report["comparable"]:
        lines.append(
            f"WARNING: comparing a {report['old_mode']} run against a "
            f"{report['new_mode']} run — most metrics will not align"
        )
    if shown:
        def cell(v: Any) -> Any:
            return "-" if v is None else v

        table_rows = [
            [
                r["metric"],
                r["class"],
                cell(r["old"]),
                cell(r["new"]),
                cell(r.get("delta")),
                r["status"],
            ]
            for r in shown
        ]
        lines.append(
            format_table(
                ["metric", "class", "old", "new", "delta", "status"],
                table_rows,
                title="Run diff",
                digits=6,
            )
        )
    else:
        lines.append("Run diff: no notable deltas")
    n_reg = len(report["regressions"])
    lines.append(
        f"verdict: {report['verdict'].upper()}"
        + (f" ({n_reg} metric(s) regressed)" if n_reg else "")
    )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Diff two run manifests or BENCH_*.json reports and "
        "flag regressions beyond configurable thresholds.",
    )
    parser.add_argument("old", help="baseline manifest or bench JSON")
    parser.add_argument("new", help="candidate manifest or bench JSON")
    parser.add_argument(
        "--latency-tol", type=float, default=0.5, metavar="FRAC",
        help="allowed relative p99 latency growth (default 0.5 = +50%%)",
    )
    parser.add_argument(
        "--iter-tol", type=float, default=0.25, metavar="FRAC",
        help="allowed relative iteration growth (default 0.25)",
    )
    parser.add_argument(
        "--accuracy-tol", type=float, default=0.10, metavar="FRAC",
        help="allowed relative growth of accuracy metrics (any name "
        "with an error, ME, WAE, TE or miss token; default 0.10)",
    )
    parser.add_argument(
        "--json", default=None, metavar="OUT.json",
        help="also write the full JSON verdict to this path",
    )
    parser.add_argument(
        "--all", action="store_true",
        help="print every aligned metric, not just notable deltas",
    )
    args = parser.parse_args(argv)

    try:
        old = load_run(args.old)
        new = load_run(args.new)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    thresholds = Thresholds(
        latency=args.latency_tol,
        iterations=args.iter_tol,
        accuracy=args.accuracy_tol,
    )
    report = diff_runs(old, new, thresholds)
    report["old_path"] = args.old
    report["new_path"] = args.new
    print(render_ascii(report, all_rows=args.all))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"verdict written to {args.json}")
    return 1 if report["regressions"] else 0


if __name__ == "__main__":
    sys.exit(main())
