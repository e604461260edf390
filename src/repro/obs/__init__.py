"""Observability: metrics, tracing spans, and structured events.

This package instruments the whole pipeline — the group-lasso solver,
the lambda sweep, the placement fit, transient data generation, and
the runtime monitor — without coupling any of it to a reporting
backend:

* :class:`MetricsRegistry` — named counters, gauges and
  timer-histograms (with percentile summaries), plus a span log and a
  structured event stream.
* :func:`span` — nested tracing spans capturing wall/CPU time and
  custom attributes (``with span("fit.group_lasso", budget=1.0):``).
* :class:`JsonlSink` — streams events as strict-JSON lines.
* :func:`build_manifest` / :func:`render_timing_summary` — run
  manifests and end-of-run ASCII timing tables.

A process-global default registry holds it together.  It starts as a
**null** (disabled) registry: instrumented code paths check
``registry.enabled`` and skip all work, so observability costs roughly
one attribute load when off.  Turn it on with::

    import repro.obs as obs

    registry = obs.enable()            # install a fresh enabled registry
    ... run things ...
    print(obs.render_timing_summary(registry))
    obs.disable()                      # back to the null registry

or scoped, e.g. in tests::

    with obs.use_registry(obs.MetricsRegistry()) as registry:
        ... run things ...
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.events import JsonlSink, ListSink
from repro.obs.manifest import (
    build_manifest,
    convergence_stats,
    render_timing_summary,
    shard_stats,
    worker_stats,
)
from repro.obs.metrics import (
    SNAPSHOT_SCHEMA,
    Counter,
    Gauge,
    MetricsRegistry,
    Timer,
    TimerSummary,
)
from repro.obs.tracing import Span, SpanRecord, current_span, span

__all__ = [
    "Counter",
    "Gauge",
    "Timer",
    "TimerSummary",
    "MetricsRegistry",
    "SNAPSHOT_SCHEMA",
    "Span",
    "SpanRecord",
    "span",
    "current_span",
    "JsonlSink",
    "ListSink",
    "build_manifest",
    "convergence_stats",
    "render_timing_summary",
    "shard_stats",
    "worker_stats",
    "get_registry",
    "set_registry",
    "enable",
    "disable",
    "use_registry",
]

#: The process-global registry; null (disabled) until enabled.
_default_registry = MetricsRegistry(enabled=False)


def get_registry() -> MetricsRegistry:
    """The process-global registry instrumented code records into."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the global one; returns the previous."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


def enable(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Install an enabled registry globally (a fresh one by default)."""
    registry = registry if registry is not None else MetricsRegistry()
    set_registry(registry)
    return registry


def disable() -> MetricsRegistry:
    """Install a fresh null registry globally; returns the previous."""
    return set_registry(MetricsRegistry(enabled=False))


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Temporarily install ``registry`` globally (restored on exit)."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
