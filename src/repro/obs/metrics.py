"""Metrics primitives: counters, gauges, and timer-histograms.

The registry is the aggregation point of the observability subsystem
(:mod:`repro.obs`): library code asks it for named instruments and
records into them; reporting code takes a :meth:`MetricsRegistry.snapshot`
or renders the timers as an ASCII table.

Every instrument is **mergeable**: ``snapshot()`` returns a JSON-ready
state dict and ``merge()`` folds such a snapshot back in *exactly* —
counter totals add as integers and timer histograms add bucket counts,
so N worker processes can each record into a private registry and the
parent's merged percentiles are bit-identical to a single registry
that pooled every sample.  This is what the sharded serving fleet's
workers and the fleet monitor's per-shard latency stats ride on.

Two registry modes exist:

* **enabled** — instruments record normally; spans and events are kept.
* **disabled** (the *null* mode) — every accessor returns a shared
  no-op instrument and every record is dropped, so instrumented hot
  paths cost a single attribute check when observability is off.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union

__all__ = [
    "Counter",
    "Gauge",
    "Timer",
    "TimerSummary",
    "MetricsRegistry",
    "SNAPSHOT_SCHEMA",
]

#: Schema tag stamped on every :meth:`MetricsRegistry.snapshot`.
SNAPSHOT_SCHEMA = "repro.obs.snapshot/v1"


class Counter:
    """A monotonically increasing counter.

    Thread-safe: increments from concurrent threads aggregate without
    losing updates.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (default 1) to the counter."""
        with self._lock:
            self.value += n

    def snapshot(self) -> int:
        """Serializable state: the integer total."""
        return self.value

    def merge(self, snapshot: int) -> None:
        """Fold another counter's snapshot in (exact integer addition)."""
        self.inc(int(snapshot))


class Gauge:
    """A point-in-time value (last write wins).

    A set is a single attribute store, so no lock is needed: concurrent
    writers race benignly and one of their values wins.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Record the current level of the tracked quantity."""
        self.value = float(value)

    def snapshot(self) -> float:
        """Serializable state: the current level."""
        return self.value

    def merge(self, snapshot: float) -> None:
        """Fold a snapshot in: last write wins, the snapshot's value."""
        self.set(snapshot)


@dataclass(frozen=True)
class TimerSummary:
    """Percentile summary of a timer's recorded durations (seconds)."""

    count: int
    total: float
    mean: float
    minimum: float
    maximum: float
    p50: float
    p90: float
    p99: float

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict form for JSON payloads."""
        return {
            "count": self.count,
            "total_s": self.total,
            "mean_s": self.mean,
            "min_s": self.minimum,
            "max_s": self.maximum,
            "p50_s": self.p50,
            "p90_s": self.p90,
            "p99_s": self.p99,
        }


_EMPTY_SUMMARY = TimerSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


#: Histogram sub-buckets per power of two.  Bucket boundaries are
#: ``2 ** (i / SUBBUCKETS)``, so the relative bucket width — and the
#: worst-case relative error of a reported percentile — is
#: ``2 ** (1 / 32) - 1`` ≈ 2.2 %.
SUBBUCKETS = 32


def _bucket_of(seconds: float) -> int:
    """Log-linear bucket index of a strictly positive duration."""
    return math.floor(math.log2(seconds) * SUBBUCKETS)


def _bucket_value(index: int) -> float:
    """Representative duration of one bucket (its geometric midpoint)."""
    return 2.0 ** ((index + 0.5) / SUBBUCKETS)


class Timer:
    """A mergeable duration histogram with exact count/total/min/max.

    Durations land in fixed log-linear buckets (:data:`SUBBUCKETS`
    sub-buckets per power of two, stored sparsely), so memory is
    bounded by the *dynamic range* of the recorded values, not their
    number — a multi-day monitoring session costs the same few hundred
    buckets as a short one.  Percentiles are read off the bucket
    counts with ≤ 2.2 % relative error and clamped to the exact
    ``[min, max]``.

    Because bucketing is a pure per-record function, histograms merge
    **exactly**: :meth:`merge`-ing N workers' :meth:`snapshot`\\ s yields
    the same bucket counts — and therefore bit-identical percentiles —
    as one timer that recorded every sample itself.
    """

    __slots__ = ("name", "count", "total", "minimum", "maximum",
                 "_zero", "_buckets", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = 0.0
        #: Records with non-positive duration (clock granularity).
        self._zero = 0
        #: Sparse log-linear histogram: bucket index -> count.
        self._buckets: Dict[int, int] = {}
        self._lock = threading.Lock()

    def record(self, seconds: float) -> None:
        """Record one duration (in seconds); thread-safe."""
        seconds = float(seconds)
        with self._lock:
            self.count += 1
            self.total += seconds
            if seconds < self.minimum:
                self.minimum = seconds
            if seconds > self.maximum:
                self.maximum = seconds
            if seconds <= 0.0:
                self._zero += 1
            else:
                idx = _bucket_of(seconds)
                self._buckets[idx] = self._buckets.get(idx, 0) + 1

    def time(self) -> "_TimerContext":
        """Context manager recording the wall time of its body."""
        return _TimerContext(self)

    def percentile(self, p: float) -> float:
        """Approximate p-th percentile (0..100) of recorded durations.

        Nearest-rank over the bucket counts; a deterministic function
        of the histogram state, so merged and pooled timers report
        identical percentiles.
        """
        with self._lock:
            count = self.count
            if count == 0:
                return 0.0
            if p <= 0:
                return self.minimum
            if p >= 100:
                return self.maximum
            rank = min(max(int(math.ceil(count * (p / 100.0))), 1), count)
            cum = self._zero
            value = 0.0
            if cum < rank:
                value = self.maximum
                for idx in sorted(self._buckets):
                    cum += self._buckets[idx]
                    if cum >= rank:
                        value = _bucket_value(idx)
                        break
            return min(max(value, self.minimum), self.maximum)

    def summary(self) -> TimerSummary:
        """Aggregate + percentile summary of everything recorded."""
        if self.count == 0:
            return _EMPTY_SUMMARY
        return TimerSummary(
            count=self.count,
            total=self.total,
            mean=self.total / self.count,
            minimum=self.minimum,
            maximum=self.maximum,
            p50=self.percentile(50),
            p90=self.percentile(90),
            p99=self.percentile(99),
        )

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready state: summary fields plus the histogram itself.

        The derived fields (``mean_s``, ``p50_s`` …) are included for
        human consumption; :meth:`merge` recomputes them from the
        merged state and ignores them on input.
        """
        snap = self.summary().as_dict()
        with self._lock:
            snap["zero"] = self._zero
            snap["buckets"] = {str(i): self._buckets[i]
                               for i in sorted(self._buckets)}
            snap["subbuckets"] = SUBBUCKETS
        return snap

    def merge(self, snapshot: Union["Timer", Dict[str, Any]]) -> None:
        """Fold another timer's snapshot (or the timer itself) in.

        Bucket counts add exactly; min/max take the extremum.  Raises
        ``ValueError`` when the snapshot used a different bucket scheme.
        """
        if isinstance(snapshot, Timer):
            snapshot = snapshot.snapshot()
        count = int(snapshot.get("count", 0))
        if count == 0:
            return
        subs = int(snapshot.get("subbuckets", SUBBUCKETS))
        if subs != SUBBUCKETS:
            raise ValueError(
                f"cannot merge a histogram with {subs} sub-buckets into "
                f"one with {SUBBUCKETS}"
            )
        with self._lock:
            self.count += count
            self.total += float(snapshot.get("total_s", 0.0))
            self.minimum = min(self.minimum, float(snapshot["min_s"]))
            self.maximum = max(self.maximum, float(snapshot["max_s"]))
            self._zero += int(snapshot.get("zero", 0))
            for key, n in snapshot.get("buckets", {}).items():
                idx = int(key)
                self._buckets[idx] = self._buckets.get(idx, 0) + int(n)


class _TimerContext:
    """Times a ``with`` body into a :class:`Timer`."""

    __slots__ = ("_timer", "_t0")

    def __init__(self, timer: Timer) -> None:
        self._timer = timer

    def __enter__(self) -> Timer:
        self._t0 = time.perf_counter()
        return self._timer

    def __exit__(self, *exc_info: Any) -> None:
        self._timer.record(time.perf_counter() - self._t0)


class _NullInstrument:
    """Shared no-op stand-in for every instrument of a null registry."""

    __slots__ = ()
    name = "null"
    value = 0
    count = 0
    total = 0.0

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def record(self, seconds: float) -> None:
        pass

    def time(self) -> "_NullInstrument":
        return self

    def percentile(self, p: float) -> float:
        return 0.0

    def summary(self) -> TimerSummary:
        return _EMPTY_SUMMARY

    def snapshot(self) -> Dict[str, Any]:
        return {}

    def merge(self, snapshot: Any) -> None:
        pass

    def __enter__(self) -> "_NullInstrument":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Named instruments + span log + structured event stream.

    Parameters
    ----------
    enabled:
        When ``False`` the registry is a *null* registry: every
        accessor returns a shared no-op instrument, events are dropped,
        and :func:`repro.obs.span` bodies run untimed.  Instrumented
        code should branch on :attr:`enabled` before doing any per-call
        work beyond the registry lookup.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._timers: Dict[str, Timer] = {}
        #: Completed span records, in finish order (see repro.obs.tracing).
        self.spans: List[Any] = []
        #: Structured events, in emit order.
        self.events: List[Dict[str, Any]] = []
        self._sinks: List[Any] = []
        self._epoch = time.perf_counter()
        self._event_seq = 0

    # -- instrument accessors -------------------------------------------

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        if not self.enabled:
            return _NULL_INSTRUMENT  # type: ignore[return-value]
        with self._lock:
            inst = self._counters.get(name)
            if inst is None:
                inst = self._counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        if not self.enabled:
            return _NULL_INSTRUMENT  # type: ignore[return-value]
        with self._lock:
            inst = self._gauges.get(name)
            if inst is None:
                inst = self._gauges[name] = Gauge(name)
        return inst

    def timer(self, name: str) -> Timer:
        """Get or create the timer ``name``."""
        if not self.enabled:
            return _NULL_INSTRUMENT  # type: ignore[return-value]
        with self._lock:
            inst = self._timers.get(name)
            if inst is None:
                inst = self._timers[name] = Timer(name)
        return inst

    def time(self, name: str):
        """Context manager timing its body into ``timer(name)``."""
        return self.timer(name).time()

    # -- events ----------------------------------------------------------

    def add_sink(self, sink: Any) -> None:
        """Attach an event sink (an object with ``emit(event_dict)``)."""
        self._sinks.append(sink)

    def remove_sink(self, sink: Any) -> None:
        """Detach a previously attached sink (no-op when absent)."""
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass

    def event(self, name: str, **fields: Any) -> None:
        """Record a structured event and forward it to all sinks.

        Each event is a flat dict with reserved keys ``event`` (the
        name), ``seq`` (emit order) and ``t_s`` (seconds since the
        registry was created), plus the caller's ``fields``.
        """
        if not self.enabled:
            return
        with self._lock:
            record = {
                "event": name,
                "seq": self._event_seq,
                "t_s": time.perf_counter() - self._epoch,
            }
            record.update(fields)
            self._event_seq += 1
            self.events.append(record)
            sinks = list(self._sinks)
        for sink in sinks:
            sink.emit(record)

    def events_named(self, name: str) -> List[Dict[str, Any]]:
        """All recorded events with ``event == name``, in emit order."""
        return [e for e in self.events if e.get("event") == name]

    # -- reporting -------------------------------------------------------

    @property
    def elapsed(self) -> float:
        """Seconds since the registry was created."""
        return time.perf_counter() - self._epoch

    def timer_summaries(self) -> Dict[str, TimerSummary]:
        """Name -> summary for every timer, in creation order."""
        return {name: t.summary() for name, t in self._timers.items()}

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready, mergeable dump of every instrument.

        Counters snapshot as integer totals, gauges as floats, timers
        as summary fields plus their full histogram state — so a
        snapshot round-trips through JSON and feeds
        :meth:`merge_snapshot` without loss.
        """
        return {
            "schema": SNAPSHOT_SCHEMA,
            "counters": {n: c.snapshot() for n, c in self._counters.items()},
            "gauges": {n: g.snapshot() for n, g in self._gauges.items()},
            "timers": {n: t.snapshot() for n, t in self._timers.items()},
        }

    def merge_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Fold a child registry's :meth:`snapshot` into this registry.

        Counter totals add exactly, timer histograms add bucket counts
        (percentiles of the merged timer are bit-identical to pooling
        the raw samples), gauges take the snapshot's value (last write
        wins).  No-op on a disabled registry.
        """
        if not self.enabled:
            return
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).merge(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).merge(value)
        for name, state in snapshot.get("timers", {}).items():
            self.timer(name).merge(state)

    def reset(self) -> None:
        """Drop all instruments, spans and events (sinks are kept)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._timers.clear()
            self.spans.clear()
            self.events.clear()
            self._event_seq = 0
            self._epoch = time.perf_counter()
