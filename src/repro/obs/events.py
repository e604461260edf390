"""Structured event sinks.

The registry keeps every emitted event in memory; sinks additionally
stream them somewhere durable.  The canonical sink is
:class:`JsonlSink`, which appends one JSON object per line — the JSONL
schema is simply the event dict itself (reserved keys ``event``,
``seq``, ``t_s`` plus the emitter's fields; see
:meth:`repro.obs.metrics.MetricsRegistry.event`).

Non-finite floats are serialized as ``null`` (via
:func:`repro.utils.io.to_jsonable`), so every emitted line is strict
JSON.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, IO, List, Optional

from repro.utils.io import to_jsonable

__all__ = ["JsonlSink", "ListSink"]


class ListSink:
    """Collects events in a plain list (handy for tests)."""

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []

    def emit(self, event: Dict[str, Any]) -> None:
        """Store one event."""
        self.events.append(event)

    def close(self) -> None:
        """No resources to release."""


class JsonlSink:
    """Streams events to a ``.jsonl`` file, one strict-JSON line each.

    Parameters
    ----------
    path:
        Target file; parent directories are created on first write.
        Opened lazily on the first event so constructing a sink is
        side-effect free.
    mode:
        ``"w"`` (default, truncate) or ``"a"`` (append).
    """

    def __init__(self, path: str, mode: str = "w") -> None:
        if mode not in ("w", "a"):
            raise ValueError(f"mode must be 'w' or 'a', got {mode!r}")
        self.path = path
        self._mode = mode
        self._fh: Optional[IO[str]] = None
        self.n_emitted = 0
        self._lock = threading.Lock()

    def emit(self, event: Dict[str, Any]) -> None:
        """Write one event as a JSON line (flushed immediately).

        The lock serializes emits, so threads that share the sink never
        interleave partial lines.
        """
        with self._lock:
            if self._fh is None:
                parent = os.path.dirname(self.path)
                if parent:
                    os.makedirs(parent, exist_ok=True)
                self._fh = open(self.path, self._mode, encoding="utf-8")
            json.dump(to_jsonable(event), self._fh, sort_keys=True,
                      allow_nan=False)
            self._fh.write("\n")
            self._fh.flush()
            self.n_emitted += 1

    def close(self) -> None:
        """Close the underlying file (safe to call twice)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
