"""Compare two benchmark result files, metric by metric.

Usage::

    python benchmarks/e2e/compare.py A.json B.json [--force]

``A`` is the baseline (the parent commit) and ``B`` the candidate,
each written by ``run.py --out`` (``--repeat N`` gives N runs per
workload).  For every workload × end-to-end metric of
``BENCHMARK.json`` it prints both medians, the change, the run-to-run
spread (quartile distance over median) and a verdict:

``worse``
    B's median is worse than A's by more than the metric's bound, and
    the spread is within the bound or every run of B is worse than
    every run of A.
``unresolved``
    The spread is wider than the bound, so "no change" cannot be told
    from noise — unless every run of B is better than every run of A.
``better``
    B wins at least nine tenths of at least ten runs paired in order,
    and the medians differ by more than A's quartile distance.
``same``
    None of the above.

From the traced runs it names, per workload, the layer whose share of
traced time moved most.  Results whose provenance differs in any of
``provenance.MATCH_KEYS`` (library versions, BLAS, CPU count, compiled
kernel, profile, ``REPRO_*`` settings, run length, peak-RSS watermark
reset) are refused unless ``--force``.

Exit code: 0, or 1 when any verdict is ``worse``, or 2 when refused.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
from layers import SHARE_GROUPS  # noqa: E402
from provenance import MATCH_KEYS  # noqa: E402

#: Share of paired runs B must win, out of at least ``MIN_PAIRS``, to be
#: called better.
WIN_SHARE = 0.9
MIN_PAIRS = 10


def quartile_gap(values: Sequence[float]) -> float:
    """Distance between the first and third quartiles (0 below 2 values)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> Tuple[str, float, float]:
    """``(verdict, change, spread)`` of candidate runs ``b`` vs baseline ``a``.

    ``change`` is the relative median change, positive when worse;
    ``spread`` the larger of the two sides' quartile gap over median.
    """
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    if med_a == 0:
        return "unresolved", 0.0, 0.0
    change = sign * (med_b - med_a) / abs(med_a)
    spread = max(quartile_gap(a) / abs(med_a),
                 quartile_gap(b) / abs(med_b) if med_b else 0.0)
    all_better = all(sign * (x - y) < 0 for x in b for y in a)
    all_worse = all(sign * (x - y) > 0 for x in b for y in a)
    if change > bound and (spread <= bound or all_worse):
        return "worse", change, spread
    if spread > bound and not all_better:
        return "unresolved", change, spread
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if (change < 0 and len(pairs) >= MIN_PAIRS
            and wins >= WIN_SHARE * len(pairs)
            and abs(med_b - med_a) > quartile_gap(a)):
        return "better", change, spread
    return "same", change, spread


def load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != "repro.e2e/v1":
        raise SystemExit(f"{path}: not a run.py result file")
    return doc


def values(doc: Dict[str, Any], workload: str, trace: int,
           metric: str) -> List[float]:
    return [
        run["metrics"][metric]["value"] for run in doc["runs"]
        if run["workload"] == workload and run["trace"] == trace
        and metric in run["metrics"]
    ]


def provenance_mismatches(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    pa, pb = a["provenance"], b["provenance"]
    return [
        f"{k}: {pa.get(k)!r} != {pb.get(k)!r}"
        for k in MATCH_KEYS if pa.get(k) != pb.get(k)
    ]


def moved_layer(a: Dict[str, Any], b: Dict[str, Any],
                workload: str) -> Optional[Tuple[str, float, float]]:
    """The share metric whose traced median moved most, with both medians."""
    best = None
    for metric in SHARE_GROUPS:
        va, vb = values(a, workload, 1, metric), values(b, workload, 1, metric)
        if not va or not vb:
            continue
        ma, mb = statistics.median(va), statistics.median(vb)
        if best is None or abs(mb - ma) > abs(best[2] - best[1]):
            best = (metric, ma, mb)
    return best


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two run.py result files against the "
                    "bounds in BENCHMARK.json."
    )
    parser.add_argument("baseline", help="result file of the parent (A)")
    parser.add_argument("candidate", help="result file of the change (B)")
    parser.add_argument("--force", action="store_true",
                        help="compare even when provenance differs")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    a, b = load(args.baseline), load(args.candidate)

    mismatches = provenance_mismatches(a, b)
    if mismatches:
        print("provenance differs:")
        for line in mismatches:
            print(f"  {line}")
        if not args.force:
            print("refusing to compare (use --force to override)")
            return 2

    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'workload':<16} {'metric':<12} {'A median':>11} {'B median':>11} "
          f"{'change':>8} {'spread':>7} {'bound':>6}  verdict")
    any_worse = False
    for workload in workloads:
        for m in spec["end_to_end"]:
            va = values(a, workload, 0, m["name"])
            vb = values(b, workload, 0, m["name"])
            if not va or not vb:
                continue
            v, change, spread = verdict(va, vb, m["better"], m["bound"])
            any_worse |= v == "worse"
            print(f"{workload:<16} {m['name']:<12} "
                  f"{statistics.median(va):>11.4g} {statistics.median(vb):>11.4g} "
                  f"{change:>+8.1%} {spread:>7.1%} {m['bound']:>6.0%}  {v}"
                  f"  (n={len(va)}/{len(vb)})")
        moved = moved_layer(a, b, workload)
        if moved is not None:
            metric, ma, mb = moved
            print(f"{workload:<16} largest layer-share move: {metric} "
                  f"{ma:.3f} -> {mb:.3f} ({mb - ma:+.3f})")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
