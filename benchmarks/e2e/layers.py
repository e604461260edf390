"""Layer spans recorded from outside the program.

The benchmark attributes a repetition's wall time to the program's
layers (``powergrid``, ``workload``, ``voltage``, ``core``, ``monitor``,
``serve`` — the package names under ``src/repro``) without changing the
program: :class:`Tracer` records a span around every call into a layer.
Calls the benchmark makes itself are wrapped with :meth:`Tracer.span`;
calls the library makes internally (``generate_dataset`` reaching the
activity synthesiser or the transient solver, the λ-path engine
reaching the OLS refit) are wrapped by :meth:`Tracer.interpose`, which
temporarily replaces the layer entry points listed in
:data:`ENTRY_POINTS` with timing wrappers and restores them on exit.

A span's *self time* is its duration minus the part its child spans
cover, so nested layers (a fallback refit triggered inside the monitor)
are never double counted.  Whatever no span covers is the residual: if
a refactor moves work behind a name that is no longer interposed, the
residual grows and the benchmark's residual check fails instead of the
attribution silently going stale.

Untraced repetitions use :data:`NULL_TRACER`, whose spans are one
shared no-op context manager.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import Counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "ENTRY_POINTS",
    "SHARE_GROUPS",
    "LAYERS",
    "NULL_TRACER",
    "Tracer",
    "children_private_mb",
    "peak_rss_mb",
    "reset_peak_rss",
]

#: Top-level layers, named after the packages of ``src/repro``.
LAYERS = ("powergrid", "workload", "voltage", "core", "monitor", "serve")

#: Share-of-time metric -> span names whose self time it sums.
SHARE_GROUPS: Dict[str, Tuple[str, ...]] = {
    "powergrid.build_frac": ("powergrid.build",),
    "powergrid.transient_frac": ("powergrid.transient",),
    "workload.frac": ("workload.activity", "workload.power",
                      "workload.bound", "workload.batch"),
    "voltage.frac": ("voltage.sample", "voltage.critical",
                     "voltage.dataset", "voltage.split", "voltage.score"),
    "core.prepare_frac": ("core.prepare",),
    "core.path_frac": ("core.path",),
    "core.refit_frac": ("core.refit",),
    "core.fallback_frac": ("core.fallback",),
    "core.predict_frac": ("core.predict",),
    "monitor.frac": ("monitor.build", "monitor.batch", "monitor.finish"),
    "serve.spawn_frac": ("serve.spawn",),
    "serve.frac": ("serve.io", "serve.finish"),
}


def _count_block_steps(tracer: "Tracer", bound, out) -> None:
    tracer.counts["workload.block_steps"] += int(out.activity.size)


def _count_node_steps(tracer: "Tracer", bound, out) -> None:
    args = bound.arguments
    solver = args["self"]
    steps = int(args["n_steps"]) + int(args.get("warmup_steps", 0))
    tracer.counts["powergrid.node_steps"] += (
        len(args["loads"]) * steps * int(solver.grid.n_nodes)
    )
    tracer.counts["powergrid.uses_kernel"] = int(bool(solver.uses_kernel))


#: ``(module, attribute path, span name, count hook)`` for every layer
#: entry point the library calls internally.  Functions are patched in
#: the namespace of the module that *calls* them (``generate_dataset``
#: resolves ``generate_activity`` through its own module globals);
#: methods are patched on their class, which every caller shares.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.experiments.data_generation", "build_chip", "powergrid.build", None),
    ("repro.experiments.data_generation", "generate_activity",
     "workload.activity", _count_block_steps),
    ("repro.workload.power_model", "McPATLikePowerModel.block_power",
     "workload.power", None),
    ("repro.workload.current_map", "CurrentMapper.bound", "workload.bound", None),
    ("repro.experiments.data_generation", "TraceLoadBatch", "workload.batch", None),
    ("repro.powergrid.transient", "TransientSolver.simulate_many",
     "powergrid.transient", _count_node_steps),
    ("repro.experiments.data_generation", "sample_maps", "voltage.sample", None),
    ("repro.experiments.data_generation", "select_critical_nodes",
     "voltage.critical", None),
    ("repro.experiments.data_generation", "build_dataset", "voltage.dataset", None),
    ("repro.voltage.dataset", "VoltageDataset.train_test_split",
     "voltage.split", None),
    ("repro.core.path_engine", "LambdaPathEngine.__init__", "core.prepare", None),
    ("repro.core.path_engine", "LambdaPathEngine.fit", "core.path", None),
    ("repro.core.path_engine", "LambdaPathEngine.fit_path", "core.path", None),
    ("repro.core.predictor", "VoltagePredictor.fit", "core.refit", None),
    ("repro.core.pipeline", "PlacementModel.fallback_models",
     "core.fallback", None),
    ("repro.core.pipeline", "PlacementModel.predict", "core.predict", None),
)


def reset_peak_rss() -> bool:
    """Reset this process's peak-RSS watermark; False where unsupported."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def _proc_kb(path: str, fields: Tuple[str, ...]) -> Optional[int]:
    """Sum of the ``fields`` (kB lines) of a ``/proc`` file, or None."""
    try:
        with open(path, encoding="ascii") as fh:
            return sum(
                int(line.split()[1]) for line in fh
                if line.split(":", 1)[0] in fields
            )
    except OSError:
        return None


def peak_rss_mb() -> float:
    """Peak resident set size since the last reset (or process start), MB."""
    kb = _proc_kb("/proc/self/status", ("VmHWM",))
    if kb is not None:
        return kb / 1024.0
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_private_mb() -> Tuple[int, float]:
    """``(processes read, MB)``: the memory private to each live
    ``multiprocessing`` child of this process, summed.

    Private pages are the ones a child adds to the machine's total.  A
    forked child's peak RSS would also count every page it still shares
    with its parent, so summing peaks would count the parent's arrays
    once per child.
    """
    import multiprocessing

    read, total_kb = 0, 0
    for proc in multiprocessing.active_children():
        kb = _proc_kb(f"/proc/{proc.pid}/smaps_rollup",
                      ("Private_Clean", "Private_Dirty"))
        if kb is not None:
            read += 1
            total_kb += kb
    return read, total_kb / 1024.0


class _Span:
    """One open or finished span."""

    __slots__ = ("name", "start", "end", "parent", "child_s")

    def __init__(self, name: str, start: float, parent: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_s = 0.0


class Tracer:
    """Records layer spans, per-layer peak memory and work counts.

    Each top-level span's peak RSS is measured by resetting the process
    watermark at its start, which overwrites the watermark an untraced
    repetition reports: use a tracer on traced repetitions only.
    """

    def __init__(self) -> None:
        self.spans: List[_Span] = []
        self.counts: Counter = Counter()
        self.layer_peak_mb: Dict[str, float] = {}
        self._stack: List[int] = []
        self._track_memory = reset_peak_rss()
        self._epoch = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a span named ``<layer>.<part>`` around the body."""
        top = not self._stack
        if top and self._track_memory:
            reset_peak_rss()
        record = _Span(
            name,
            time.perf_counter() - self._epoch,
            self._stack[-1] if self._stack else -1,
        )
        index = len(self.spans)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record.end = time.perf_counter() - self._epoch
            if record.parent >= 0:
                self.spans[record.parent].child_s += record.end - record.start
            if top and self._track_memory:
                layer = name.split(".", 1)[0]
                self.layer_peak_mb[layer] = max(
                    self.layer_peak_mb.get(layer, 0.0), peak_rss_mb()
                )

    def wrap(self, name: str, fn: Callable,
             hook: Optional[Callable] = None) -> Callable:
        """``fn`` with a span (and optional count hook) around each call."""
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                out = fn(*args, **kwargs)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound, out)
            return out

        return traced

    @contextlib.contextmanager
    def interpose(self) -> Iterator[None]:
        """Wrap every :data:`ENTRY_POINTS` target for the body's duration."""
        saved = []
        try:
            for module_name, path, name, hook in ENTRY_POINTS:
                owner: Any = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr] if parents else getattr(owner, attr)
                if isinstance(raw, classmethod):
                    patched: Any = classmethod(self.wrap(name, raw.__func__, hook))
                else:
                    patched = self.wrap(name, raw, hook)
                saved.append((owner, attr, raw))
                setattr(owner, attr, patched)
            yield
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    # -- summaries --------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Span name -> summed self time (s)."""
        out: Dict[str, float] = {}
        for sp in self.spans:
            out[sp.name] = out.get(sp.name, 0.0) + (
                sp.end - sp.start - sp.child_s
            )
        return out

    def covered_s(self) -> float:
        """Wall time covered by top-level spans (s)."""
        return sum(sp.end - sp.start for sp in self.spans if sp.parent < 0)

    def span_records(self, limit: int) -> List[Dict[str, Any]]:
        """The first ``limit`` spans as ``{name, start_s, end_s, parent}``."""
        return [
            {"name": sp.name, "start_s": sp.start, "end_s": sp.end,
             "parent": sp.parent}
            for sp in self.spans[:limit]
        ]


class _NullTracer:
    """Tracer stand-in for untraced repetitions: records nothing."""

    _null = contextlib.nullcontext()

    def span(self, name: str) -> contextlib.nullcontext:
        return self._null


#: Shared no-op tracer.
NULL_TRACER = _NullTracer()
