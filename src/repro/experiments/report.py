"""Aggregate experiment-result JSONs into one markdown report.

The runner saves each experiment's numbers under ``--out``; this module
renders that directory into a single human-readable markdown summary —
the artifact you attach to a review or commit next to EXPERIMENTS.md.
"""

from __future__ import annotations

import glob
import os
from typing import Dict, List, Optional

from repro.utils.io import load_results

__all__ = ["build_report", "write_report"]

_SECTION_TITLES = {
    "fig1": "Fig. 1 — group-norm separation",
    "table1": "Table 1 — lambda sweep",
    "fig2": "Fig. 2 — trace prediction",
    "fig3": "Fig. 3 — placement maps",
    "table2": "Table 2 — detection error rates",
    "fig4": "Fig. 4 — error vs sensor count",
    "ablations": "Ablations",
}


def _fmt(value, digits: int = 4) -> str:
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def _section(name: str, payload: Dict) -> List[str]:
    """Render one experiment's payload into markdown lines."""
    lines = [f"## {_SECTION_TITLES.get(name, name)}", ""]
    result = payload.get("result", {})
    if name == "table1":
        lines.append("| lambda | sensors/core | rel err % (eval) |")
        lines.append("|---|---|---|")
        for budget, spc, err in zip(
            result.get("budgets", []),
            result.get("sensors_per_core", []),
            result.get("relative_errors_eval", []),
        ):
            lines.append(f"| {_fmt(budget, 2)} | {_fmt(spc, 2)} | {_fmt(100 * err, 3)} |")
    elif name == "table2":
        ee = result.get("eagle_eye", {})
        pr = result.get("proposed", {})
        lines.append("| benchmark | EE ME | EE TE | Prop ME | Prop TE |")
        lines.append("|---|---|---|---|---|")
        for bench in ee:
            e, p = ee[bench], pr.get(bench, {})
            lines.append(
                f"| {bench} | {_fmt(e.get('miss'))} | {_fmt(e.get('total'))} "
                f"| {_fmt(p.get('miss'))} | {_fmt(p.get('total'))} |"
            )
    elif name == "fig4":
        lines.append("| sensors/core | EE ME | Prop ME | EE TE | Prop TE |")
        lines.append("|---|---|---|---|---|")
        for i, q in enumerate(result.get("sensors_per_core", [])):
            e = result["eagle_eye"][i]
            p = result["proposed"][i]
            lines.append(
                f"| {q} | {_fmt(e.get('miss'))} | {_fmt(p.get('miss'))} "
                f"| {_fmt(e.get('total'))} | {_fmt(p.get('total'))} |"
            )
    elif name == "fig1":
        for budget in result.get("budgets", []):
            selected = result.get("selected", {}).get(str(budget), [])
            lines.append(f"* lambda = {budget}: {len(selected)} sensors selected")
    elif name == "fig2":
        errors = result.get("errors", {})
        for q, pair in sorted(errors.items(), key=lambda kv: int(kv[0])):
            rel, mabs = pair
            lines.append(
                f"* {q} sensors/core: rel err {_fmt(100 * rel, 3)}%, "
                f"max abs {_fmt(1000 * mabs, 1)} mV"
            )
    elif name == "fig3":
        lines.append(
            f"* noisiest unit: `{result.get('noisiest_unit')}`; "
            f"Eagle-Eye near it: "
            f"{result.get('eagle_eye_unit_counts', {})}; "
            f"proposed: {result.get('proposed_unit_counts', {})}"
        )
    else:
        # Generic fallback: top-level keys only.
        for key in sorted(result):
            lines.append(f"* `{key}`: see JSON for details")
    lines.append("")
    return lines


def build_report(results_dir: str, title: str = "Reproduction report") -> str:
    """Render every ``<experiment>.json`` in ``results_dir`` to markdown.

    Parameters
    ----------
    results_dir:
        Directory written by ``repro-experiments ... --out``.
    title:
        Report heading.

    Raises
    ------
    FileNotFoundError
        If the directory holds no experiment JSONs.
    """
    paths = sorted(glob.glob(os.path.join(results_dir, "*.json")))
    if not paths:
        raise FileNotFoundError(f"no experiment JSONs under {results_dir!r}")
    lines: List[str] = [f"# {title}", ""]
    # Stable paper order first, stragglers after.
    order = {name: i for i, name in enumerate(_SECTION_TITLES)}
    paths.sort(key=lambda p: order.get(os.path.splitext(os.path.basename(p))[0], 99))
    for path in paths:
        name = os.path.splitext(os.path.basename(path))[0]
        payload = load_results(path)
        lines.extend(_section(name, payload))
    return "\n".join(lines)


def write_report(
    results_dir: str, out_path: Optional[str] = None, title: str = "Reproduction report"
) -> str:
    """Build the report and write it next to the results.

    Returns the path written.
    """
    if out_path is None:
        out_path = os.path.join(results_dir, "REPORT.md")
    text = build_report(results_dir, title=title)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return out_path
