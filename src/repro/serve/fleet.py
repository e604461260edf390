"""``ShardedFleet``: multi-process serving through shared slot blocks.

The coordinator partitions S streams into N contiguous shards and
starts one :func:`repro.serve.shard.run_worker` process per shard.
Each shard gets one ``multiprocessing.shared_memory`` block of
``ring_slots`` slots and one duplex pipe.  Submitting a chunk copies
each shard's stream slice into a free slot of its block and sends the
slot index down the pipe; the worker answers with the slot index once
the slot's result area holds ``(v_min, alarm flags)``, and the slot is
free again when the coordinator has copied the result out.  Frames and
results never cross the pipe.

A hot-swap travels in-band: :meth:`ShardedFleet.hot_swap` stores the
new ``(version, model)``, and the next submitted chunk sends the model
to each shard just before its slot index, once that shard has no slot
in flight.  Pipe order is the swap boundary.  The model is pickled,
which round-trips float64 coefficients exactly, so a swap to an
identical model is bit-invisible in the outputs.

The coordinator waits in :func:`multiprocessing.connection.wait` on
the pipes and the worker sentinels, so a worker that exits without its
report raises ``RuntimeError("serve worker shardN died")`` from the
next call that collects results or submits to it.

At :meth:`finish` each worker ships its final report (events,
failures, stats, metrics snapshot) once over its pipe; the coordinator
merges every shard snapshot into the parent registry
(:meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot`) and emits
one ``obs.worker`` event per shard, which run manifests collect into
their per-shard section (``repro.obs.manifest/v3``).
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field, replace
from multiprocessing import shared_memory
from multiprocessing.connection import wait
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.pipeline import PlacementModel
from repro.monitor.faults import FaultPolicy
from repro.monitor.fleet import (
    EmergencyEvent,
    FleetStats,
    SensorFailure,
    check_swap_layout,
)
from repro.obs import get_registry
from repro.serve.shard import block_bytes, run_worker, slot_views
from repro.utils.validation import check_integer

__all__ = ["ServeResult", "ShardedFleet"]


@dataclass
class ServeResult:
    """Merged outcome of one :meth:`ShardedFleet.finish`.

    ``events`` / ``failures`` are per *global* stream (failure records
    re-indexed from shard-local to fleet-global stream numbers);
    ``shard_stats`` keeps each worker's own :class:`FleetStats`.
    """

    n_streams: int
    n_shards: int
    cycles: int
    frames: int
    stats: FleetStats
    shard_stats: Dict[str, FleetStats]
    events: List[List[EmergencyEvent]]
    failures: List[List[SensorFailure]]
    model_version: int
    latencies_ns: List[int]


@dataclass
class _Shard:
    """Coordinator side of one worker: its streams, slot block and pipe."""

    name: str
    lo: int
    hi: int
    block: shared_memory.SharedMemory
    frames: np.ndarray  # (ring_slots, S_i, slot_ticks, Q) view of block
    results: np.ndarray  # (ring_slots, 2, S_i, slot_ticks) view of block
    conn: Any
    free: List[int]
    proc: Any = None
    slot_base: Dict[int, int] = field(default_factory=dict)
    version: int = 0  # last model version sent to the worker


class ShardedFleet:
    """Coordinator of N worker processes serving S streams.

    Parameters
    ----------
    model:
        The fitted placement every shard serves initially.
    threshold, debounce, policy:
        Forwarded to each shard's :class:`~repro.monitor.fleet.FleetMonitor`.
    n_streams:
        Total streams S, partitioned contiguously across shards.
    n_shards:
        Worker processes N (``1 <= N <= S``).
    slot_ticks:
        Cycles per slot (the batching grain of the hot path).
    ring_slots:
        Slots per shard, i.e. chunks in flight per shard; bounds
        in-flight frames per shard at ``ring_slots * slot_ticks``
        cycles (the backpressure depth).
    timeout:
        Seconds any single wait on the workers may take before the
        coordinator gives up with ``TimeoutError``.

    Workers start with ``fork`` where the platform has it, else
    ``spawn``.
    """

    def __init__(
        self,
        model: PlacementModel,
        threshold: float,
        *,
        n_streams: int,
        n_shards: int,
        debounce: int = 1,
        policy: Optional[FaultPolicy] = None,
        slot_ticks: int = 32,
        ring_slots: int = 8,
        timeout: float = 60.0,
    ) -> None:
        check_integer(n_streams, "n_streams", minimum=1)
        check_integer(n_shards, "n_shards", minimum=1)
        check_integer(slot_ticks, "slot_ticks", minimum=1)
        check_integer(ring_slots, "ring_slots", minimum=1)
        if n_shards > n_streams:
            raise ValueError(
                f"n_shards={n_shards} exceeds n_streams={n_streams}"
            )
        self.model = model
        self.threshold = float(threshold)
        self.debounce = int(debounce)
        self.policy = policy
        self.n_streams = int(n_streams)
        self.n_shards = int(n_shards)
        self.slot_ticks = int(slot_ticks)
        self.ring_slots = int(ring_slots)
        self.timeout = float(timeout)
        self.n_sensors = int(
            np.asarray(model.sensor_candidate_cols).size
        )
        self._version = 0

        ctx = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        bounds = np.linspace(0, self.n_streams, self.n_shards + 1).astype(int)
        self._shards: List[_Shard] = []
        self._procs: List[Any] = []
        try:
            for i in range(self.n_shards):
                lo, hi = int(bounds[i]), int(bounds[i + 1])
                layout = (self.ring_slots, hi - lo, self.slot_ticks,
                          self.n_sensors)
                block = shared_memory.SharedMemory(
                    create=True, size=block_bytes(layout)
                )
                frames, results = slot_views(block.buf, layout)
                conn, child_conn = ctx.Pipe()
                shard = _Shard(f"shard{i}", lo, hi, block, frames, results,
                               conn, list(range(self.ring_slots)))
                self._shards.append(shard)
                shard.proc = ctx.Process(
                    target=run_worker,
                    args=(shard.name, block, layout, model, self.threshold,
                          self.debounce, policy, child_conn, conn),
                    name=f"repro-serve-{shard.name}",
                    daemon=True,
                )
                shard.proc.start()
                child_conn.close()
                self._procs.append(shard.proc)
        except Exception:
            self.abort()
            raise

        self._next_cycle = 0  # base cycle of the next staged chunk
        self._inflight: Optional[Tuple[np.ndarray, int, List[bool]]] = None
        # base_cycle -> partly assembled result of one chunk
        self._pending: Dict[int, Dict[str, Any]] = {}
        self._completed: List[Tuple[int, int, np.ndarray, np.ndarray, int]] = []
        self._submitted_slots = 0
        self._collected_slots = 0
        self.latencies_ns: List[int] = []
        self._finished = False

    # -- submission ------------------------------------------------------

    def try_submit_chunk(self, chunk: Optional[np.ndarray] = None) -> bool:
        """Nonblocking, resumable submit of one ``(S, T<=slot_ticks, Q)`` chunk.

        Stages ``chunk`` on first call and hands it out shard by shard;
        when some shard has no free slot (or, with a model swap to send,
        a slot still in flight) the call returns ``False`` and must be
        retried (with ``chunk=None`` or the same staged array) until it
        returns ``True``.  Slots free up only as results are collected
        (:meth:`poll_results`).  The submit timestamp is
        taken at staging, so measured end-to-end latency includes
        backpressure stalls.
        """
        if self._inflight is None:
            if chunk is None:
                return True
            chunk = np.asarray(chunk, dtype=np.float64)
            if chunk.ndim != 3 or chunk.shape[0] != self.n_streams or (
                chunk.shape[1] > self.slot_ticks
                or chunk.shape[1] == 0
                or chunk.shape[2] != self.n_sensors
            ):
                raise ValueError(
                    f"chunk must be ({self.n_streams}, 1..{self.slot_ticks},"
                    f" {self.n_sensors}); got {chunk.shape}"
                )
            n_ticks = chunk.shape[1]
            self._inflight = (chunk, self._next_cycle, [False] * self.n_shards)
            # Register the pending entry at staging time: with the chunk
            # partially handed out, an already-fed shard may answer
            # before the remaining shards accept their slices.
            self._pending[self._next_cycle] = {
                "n_ticks": n_ticks,
                "submit_ns": time.perf_counter_ns(),
                "flags": np.empty((self.n_streams, n_ticks), dtype=bool),
                "v_min": np.empty((self.n_streams, n_ticks)),
                "waiting": self.n_shards,
            }
        data, base, pushed = self._inflight
        n_ticks = data.shape[1]
        for i, shard in enumerate(self._shards):
            if pushed[i] or not shard.free:
                continue
            swap = shard.version != self._version
            if swap and len(shard.free) < self.ring_slots:
                # A model goes only to an idle worker: one still sending
                # results of queued slots could block before reading a
                # model larger than the pipe buffers.
                continue
            slot = shard.free.pop()
            shard.frames[slot, :, :n_ticks] = data[shard.lo : shard.hi]
            shard.slot_base[slot] = base
            if swap:
                self._send(shard, ("swap", self._version, self.model))
                shard.version = self._version
            self._send(shard, ("frames", slot, n_ticks))
            pushed[i] = True
        if not all(pushed):
            registry = get_registry()
            if registry.enabled:
                registry.counter("serve.backpressure_stalls").inc()
            return False
        self._next_cycle += n_ticks
        self._submitted_slots += 1
        self._inflight = None
        return True

    def submit(self, frames: np.ndarray) -> None:
        """Submit a whole ``(S, T, Q)`` tensor, chunked to the slot grain.

        Blocks (collecting results meanwhile, which frees slots) until
        every chunk is accepted by every shard.
        """
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 3 or frames.shape[0] != self.n_streams or (
            frames.shape[2] != self.n_sensors
        ):
            raise ValueError(
                f"frames must be ({self.n_streams}, T, {self.n_sensors}); "
                f"got {frames.shape}"
            )
        for lo in range(0, frames.shape[1], self.slot_ticks):
            chunk = frames[:, lo : lo + self.slot_ticks, :]
            while not self.try_submit_chunk(chunk):
                self._collect(self.timeout, "submit")

    # -- result collection ----------------------------------------------

    def poll_results(self) -> int:
        """Collect every result already sent; returns slots completed now.

        Raises ``RuntimeError`` if a worker died or failed.
        """
        return self._collect(0.0, "poll")

    def _collect(self, timeout: float, caller: str) -> int:
        """Read every ready message, first waiting up to ``timeout``
        for one; a worker that exited raises ``RuntimeError``."""
        conns = [shard.conn for shard in self._shards]
        sentinels = [shard.proc.sentinel for shard in self._shards]
        ready = wait(conns + sentinels, timeout)
        if timeout > 0 and not ready:
            raise TimeoutError(
                f"serve {caller} stalled for {self.timeout:g} s at "
                f"{self._collected_slots}/{self._submitted_slots} slots"
            )
        completed = 0
        for shard in self._shards:
            if shard.conn in ready:
                completed += self._drain(shard)
            if shard.proc.sentinel in ready:
                raise RuntimeError(f"serve worker {shard.name} died")
        return completed

    def _drain(self, shard: _Shard) -> int:
        """Store every answer ``shard`` has sent; returns slots completed."""
        completed = 0
        while shard.conn.poll():
            completed += self._store(shard, *self._recv(shard))
        return completed

    def _store(self, shard: _Shard, slot: int, version: int) -> int:
        """Copy one shard's result out of ``slot`` and free the slot."""
        base = shard.slot_base.pop(slot)
        entry = self._pending[base]
        n_ticks = entry["n_ticks"]
        entry["v_min"][shard.lo : shard.hi] = shard.results[slot, 0, :, :n_ticks]
        entry["flags"][shard.lo : shard.hi] = shard.results[slot, 1, :, :n_ticks]
        entry["version"] = version
        shard.free.append(slot)
        entry["waiting"] -= 1
        if entry["waiting"]:
            return 0
        del self._pending[base]
        self.latencies_ns.append(time.perf_counter_ns() - entry["submit_ns"])
        self._completed.append(
            (base, n_ticks, entry["flags"], entry["v_min"], version)
        )
        self._collected_slots += 1
        registry = get_registry()
        if registry.enabled:
            registry.counter("serve.slots").inc()
            registry.counter("serve.frames").inc(self.n_streams * n_ticks)
            registry.timer("serve.e2e").record(self.latencies_ns[-1] / 1e9)
        return 1

    def _send(self, shard: _Shard, message: Tuple) -> None:
        """Send ``message`` after reading every answer already sent:
        with more messages in flight than the pipe buffers, both sides
        blocked in a send would deadlock."""
        try:
            self._drain(shard)
            shard.conn.send(message)
        except OSError:
            self._collect(0.0, "submit")  # raises the worker's own error
            raise RuntimeError(f"serve worker {shard.name} died") from None

    def _recv(self, shard: _Shard) -> Any:
        try:
            message = shard.conn.recv()
        except (EOFError, OSError):
            raise RuntimeError(f"serve worker {shard.name} died") from None
        if isinstance(message, tuple) and message[0] == "error":
            raise RuntimeError(
                f"serve worker {shard.name} failed:\n{message[1]}"
            )
        return message

    def take_completed(
        self,
    ) -> List[Tuple[int, int, np.ndarray, np.ndarray, int]]:
        """Completed slots so far, ordered by base cycle:
        ``(base_cycle, n_ticks, flags, v_min, model_version)``."""
        self.poll_results()
        out = sorted(self._completed, key=lambda item: item[0])
        self._completed = []
        return out

    def drain(self) -> None:
        """Block until every submitted slot's results are collected."""
        while self._collected_slots < self._submitted_slots:
            self._collect(self.timeout, "drain")

    def run_frames(
        self, frames: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Submit ``(S, T, Q)``, drain, and return ``(flags, v_min)``.

        The convenience path the benchmark and the bit-equivalence
        tests use; output ordering matches the in-process
        ``FleetMonitor.run_batch`` exactly.
        """
        frames = np.asarray(frames, dtype=np.float64)
        self.submit(frames)
        self.drain()
        slots = self.take_completed()
        n_cycles = sum(n for _, n, _, _, _ in slots)
        flags = np.zeros((self.n_streams, n_cycles), dtype=bool)
        v_min = np.empty((self.n_streams, n_cycles))
        first = slots[0][0] if slots else 0
        for base, n_ticks, flags_i, v_min_i, _ in slots:
            lo = base - first
            flags[:, lo : lo + n_ticks] = flags_i
            v_min[:, lo : lo + n_ticks] = v_min_i
        return flags, v_min

    # -- rolling model hot-swap ------------------------------------------

    @property
    def model_version(self) -> int:
        """Version of the most recently published model."""
        return self._version

    def hot_swap(self, model: PlacementModel) -> int:
        """Publish a new model version; returns the version number.

        The swap takes effect at the next submitted cycle: the next
        chunk carries the model to each shard ahead of its slot (and
        waits until the shard has no slot in flight), so slots already
        submitted are served by the old model and everything submitted
        afterwards by the new one — a deterministic boundary regardless
        of worker timing.  No frames are dropped.  Of several swaps
        between two chunks only the last is sent.

        The model must read the fleet's sensor layout and predict the
        same blocks (see :func:`~repro.monitor.fleet.check_swap_layout`);
        otherwise ``ValueError`` is raised here, before the version
        changes, rather than later in a worker.
        """
        if self._inflight is not None:
            raise RuntimeError(
                "hot_swap with a partially pushed chunk in flight; finish "
                "the try_submit_chunk retry loop first"
            )
        check_swap_layout(
            model, self.model.sensor_candidate_cols, self.model.n_blocks
        )
        self._version += 1
        self.model = model
        registry = get_registry()
        if registry.enabled:
            registry.counter("serve.hot_swaps").inc()
            registry.event(
                "serve.hot_swap",
                version=self._version,
                effective_from_cycle=self._next_cycle,
            )
        return self._version

    # -- shutdown ---------------------------------------------------------

    def finish(self) -> ServeResult:
        """Drain, stop every worker, merge telemetry, and clean up.

        Merges each shard's metrics snapshot into the parent registry
        and emits one ``obs.worker`` event per shard (source
        ``"serve"``), which ``repro.obs.manifest`` v3 collects into the
        per-shard manifest section.  On any failure the fleet is
        aborted before the error propagates.
        """
        if self._finished:
            raise RuntimeError("ShardedFleet.finish called twice")
        try:
            while not self.try_submit_chunk():
                self._collect(self.timeout, "submit")
            self.drain()
            for shard in self._shards:
                self._send(shard, ("stop",))
            reports: List[Dict[str, Any]] = []
            for shard in self._shards:
                if not shard.conn.poll(self.timeout):
                    raise TimeoutError(
                        f"serve worker {shard.name} sent no final report"
                    )
                reports.append(self._recv(shard))
            for proc in self._procs:
                proc.join(self.timeout)
        except BaseException:
            self.abort()
            raise

        registry = get_registry()
        events: List[List[EmergencyEvent]] = [[] for _ in range(self.n_streams)]
        failures: List[List[SensorFailure]] = [
            [] for _ in range(self.n_streams)
        ]
        shard_stats: Dict[str, FleetStats] = {}
        frames = 0
        version = 0
        for shard, report in zip(self._shards, reports):
            stats: FleetStats = report["stats"]
            shard_stats[shard.name] = stats
            frames += report["frames"]
            version = max(version, report["model_version"])
            for local, stream_events in enumerate(report["events"]):
                events[shard.lo + local] = stream_events
            for local, stream_failures in enumerate(report["failures"]):
                failures[shard.lo + local] = [
                    replace(f, stream=shard.lo + local)
                    for f in stream_failures
                ]
            if registry.enabled:
                registry.merge_snapshot(report["snapshot"])
                registry.event(
                    "obs.worker",
                    source="serve",
                    shard=shard.name,
                    n_streams=stats.n_streams,
                    cycles=stats.cycles,
                    events=stats.events,
                    failovers=stats.failovers,
                    frames=report["frames"],
                    slots=report["slots"],
                    model_version=report["model_version"],
                    snapshot=report["snapshot"],
                )

        all_stats = list(shard_stats.values())
        merged = FleetStats(
            n_streams=self.n_streams,
            cycles=max((s.cycles for s in all_stats), default=0),
            alarm_cycles=sum(s.alarm_cycles for s in all_stats),
            events=sum(s.events for s in all_stats),
            min_predicted=min(
                (s.min_predicted for s in all_stats), default=float("inf")
            ),
            failovers=sum(s.failovers for s in all_stats),
            degraded_streams=sum(s.degraded_streams for s in all_stats),
        )
        result = ServeResult(
            n_streams=self.n_streams,
            n_shards=self.n_shards,
            cycles=merged.cycles,
            frames=frames,
            stats=merged,
            shard_stats=shard_stats,
            events=events,
            failures=failures,
            model_version=version,
            latencies_ns=list(self.latencies_ns),
        )
        self._finished = True
        self._cleanup()
        return result

    def abort(self) -> None:
        """Hard stop: kill every worker and release the slot blocks."""
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(5.0)
        self._finished = True
        self._cleanup()

    def _cleanup(self) -> None:
        for shard in self._shards:
            shard.conn.close()
            shard.frames = shard.results = None  # type: ignore[assignment]
            shard.block.close()
            shard.block.unlink()
        self._shards = []
        self._procs = []

    def __enter__(self) -> "ShardedFleet":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._finished:
            if exc_type is None:
                self.finish()
            else:
                self.abort()
