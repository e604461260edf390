"""Run manifests and end-of-run timing summaries.

A *manifest* is a JSON-ready description of one instrumented run: the
profile it used, per-experiment span timings, the dataset it ran on,
Group-Lasso convergence statistics (iterations and final residual per
lambda), the full span log, and a metrics snapshot.  Since schema v3 a
``shards`` section breaks serving runs down per shard, harvested from
the ``obs.worker`` events the :class:`~repro.serve.fleet.ShardedFleet`
emits after merging each worker's snapshot.  The experiment runner
writes it via ``--trace-out``; anything that holds an enabled registry
can build one.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.utils.tables import format_table

__all__ = [
    "build_manifest",
    "convergence_stats",
    "render_timing_summary",
    "shard_stats",
    "worker_stats",
]

#: Event name emitted by the constrained group-lasso solver.
GL_EVENT = "group_lasso.constrained"

#: Event name parents emit after merging a worker/shard snapshot.
WORKER_EVENT = "obs.worker"

#: Span-name prefix the runner uses for whole experiments.
EXPERIMENT_SPAN_PREFIX = "experiment."


def convergence_stats(registry: MetricsRegistry) -> List[Dict[str, Any]]:
    """Group-Lasso convergence records, one per constrained solve.

    Each entry carries the solve's ``budget`` (the paper's lambda), the
    dual ``penalty`` found, ``iterations`` of the returned solution,
    ``total_iterations`` across the warm-started path, the
    ``final_residual`` (relative coefficient change at the last
    iteration), ``converged``, and ``n_active`` groups.
    """
    stats = []
    for event in registry.events_named(GL_EVENT):
        stats.append({k: v for k, v in event.items()
                      if k not in ("event", "seq")})
    return stats


def worker_stats(registry: MetricsRegistry) -> List[Dict[str, Any]]:
    """Per-worker/per-shard telemetry harvested from ``obs.worker`` events.

    The sharded serving fleet (``ShardedFleet``) emits one
    ``obs.worker`` event per worker after merging its registry snapshot
    back into the parent; each entry keeps the ``source``, the
    worker/shard id, and the child's full metrics snapshot (so a
    manifest can show merged totals *and* the per-worker breakdown).
    """
    stats = []
    for event in registry.events_named(WORKER_EVENT):
        stats.append({k: v for k, v in event.items()
                      if k not in ("event", "seq")})
    return stats


def shard_stats(registry: MetricsRegistry) -> List[Dict[str, Any]]:
    """Per-shard serving telemetry for the manifest's ``shards`` section.

    Groups the ``obs.worker`` events that carry a ``shard`` label (the
    sharded serving fleet emits one per worker process at
    ``ShardedFleet.finish``) and keeps, per shard, the scalar roll-up
    fields (streams, cycles, frames, slots, events, failovers, model
    version) next to the shard's merged metrics snapshot.  Worker
    events without a ``shard`` label stay in :func:`worker_stats` only.
    """
    stats: List[Dict[str, Any]] = []
    for event in registry.events_named(WORKER_EVENT):
        shard = event.get("shard")
        if shard is None:
            continue
        entry: Dict[str, Any] = {"shard": shard}
        for field in (
            "source", "n_streams", "cycles", "frames", "slots",
            "events", "failovers", "model_version",
        ):
            if field in event:
                entry[field] = event[field]
        snapshot = event.get("snapshot")
        if isinstance(snapshot, dict):
            entry["snapshot"] = snapshot
        stats.append(entry)
    return stats


def _experiment_timings(registry: MetricsRegistry) -> List[Dict[str, Any]]:
    """Per-experiment wall/CPU timings from ``experiment.*`` spans."""
    timings = []
    for record in registry.spans:
        if record.name.startswith(EXPERIMENT_SPAN_PREFIX):
            timings.append(
                {
                    "experiment": record.name[len(EXPERIMENT_SPAN_PREFIX):],
                    "wall_s": record.wall_s,
                    "cpu_s": record.cpu_s,
                    "status": record.status,
                    "attributes": dict(record.attributes),
                }
            )
    return timings


def build_manifest(
    registry: MetricsRegistry,
    profile: Optional[str] = None,
    dataset: Optional[Dict[str, Any]] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the run manifest from an instrumented registry.

    Parameters
    ----------
    registry:
        The (enabled) registry the run recorded into.
    profile:
        Experiment profile name (e.g. ``"fast"``/``"paper"``).
    dataset:
        Dataset description (e.g. train/eval summaries and sizes).
    extra:
        Additional top-level entries merged into the manifest.

    Returns
    -------
    dict
        JSON-serializable after :func:`repro.utils.io.to_jsonable`.
    """
    event_counts: Dict[str, int] = {}
    for event in registry.events:
        name = event.get("event", "?")
        event_counts[name] = event_counts.get(name, 0) + 1
    manifest: Dict[str, Any] = {
        "schema": "repro.obs.manifest/v3",
        "profile": profile,
        "elapsed_s": registry.elapsed,
        "experiments": _experiment_timings(registry),
        "dataset": dataset,
        "group_lasso": convergence_stats(registry),
        "workers": worker_stats(registry),
        "shards": shard_stats(registry),
        "spans": [record.as_dict() for record in registry.spans],
        "metrics": registry.snapshot(),
        "event_counts": event_counts,
    }
    if extra:
        manifest.update(extra)
    return manifest


def render_timing_summary(
    registry: MetricsRegistry,
    title: str = "Timing summary",
    top: Optional[int] = None,
) -> str:
    """ASCII table of every timer, sorted by total time descending.

    Parameters
    ----------
    registry:
        Registry whose timers to render.
    title:
        Table title line.
    top:
        Keep only the ``top`` busiest rows (all when ``None``).
    """
    summaries = sorted(
        registry.timer_summaries().items(),
        key=lambda item: item[1].total,
        reverse=True,
    )
    if top is not None:
        summaries = summaries[:top]
    if not summaries:
        return f"{title}\n(no timings recorded)"
    rows = [
        [
            name,
            s.count,
            s.total,
            s.mean * 1e3,
            s.p50 * 1e3,
            s.p90 * 1e3,
            s.maximum * 1e3,
        ]
        for name, s in summaries
    ]
    return format_table(
        ["timer", "count", "total s", "mean ms", "p50 ms", "p90 ms", "max ms"],
        rows,
        title=title,
        digits=3,
    )
