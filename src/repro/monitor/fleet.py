"""Fault-tolerant batched serving core: the fleet monitor.

This module is the runtime half of the methodology at production
scale: one fitted :class:`~repro.core.pipeline.PlacementModel` serves
``S`` independent sensor streams (many chips, or many benchmark
replays) at once.  :meth:`FleetMonitor.run_batch` takes a whole
``(S, T, Q)`` tensor with no Python-per-cycle loop: chunked flat gemms
for prediction, per-stream debounce/episode state in flat arrays
replayed by run-length encoding the below-threshold mask, and — when
given a :class:`~repro.monitor.faults.FaultPolicy` — fault screens over
the full tensor with failover to leave-one-sensor-out fallback models,
so a dead sensor degrades accuracy instead of poisoning every block
prediction.

The scalar state machine :meth:`FleetMonitor._advance_single` is the
per-cycle reference of the run-length replay (and serves streams whose
predictions contain NaN).  Any split of a stream into ``run_batch``
calls, down to one cycle per call, gives the same bits because every
prediction goes through :func:`_stable_rows`; see its docstring for
the BLAS dispatch subtlety it neutralizes.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.obs import get_registry
from repro.core.pipeline import PlacementModel
from repro.monitor.faults import (
    SCREEN_FROZEN,
    SCREEN_NAN,
    SCREEN_RANGE,
    FaultPolicy,
)
from repro.utils.validation import check_integer, check_positive

__all__ = [
    "EmergencyEvent",
    "MonitorStats",
    "SensorFailure",
    "FleetStats",
    "CompiledPredictor",
    "FleetMonitor",
]

#: Rows per chunk of the flat ``run_batch`` matmul; bounds the live
#: prediction buffer without affecting results (see ``_stable_rows``).
_CHUNK_ROWS = 16384

_SCREEN_LABELS = (SCREEN_NAN, SCREEN_RANGE, SCREEN_FROZEN)


def _stable_rows(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """``X @ W`` with rows bitwise-independent of the batch size.

    BLAS gemm kernels produce row-wise bit-identical products for any
    ``N >= 2`` and ``K >= 2`` — row ``i`` of a 10000-row product equals
    the same row computed in a 2-row product — but ``N == 1`` and
    ``K == 1`` dispatch to gemv-style kernels with a different
    reduction order, which differ in the last ulp.  Padding those edges
    (duplicate the single row / append a zero column) keeps every
    caller on the gemm profile, so a one-row chunk, a fleet of 1 and
    a many-row ``run_batch`` chunk all agree bit-for-bit.
    """
    n = X.shape[0]
    k = W.shape[1]
    if n == 0:
        return np.zeros((0, k))
    pad_n = n == 1
    pad_k = k == 1
    if pad_n:
        X = np.concatenate([X, X], axis=0)
    if pad_k:
        W = np.concatenate([W, np.zeros_like(W)], axis=1)
    out = X @ W
    if pad_n or pad_k:
        out = out[:n, :k]
    return out


@dataclass(frozen=True)
class EmergencyEvent:
    """One contiguous alarm episode.

    Attributes
    ----------
    start_cycle, end_cycle:
        First and last cycle of the episode (inclusive).
    min_predicted:
        Deepest predicted voltage during the episode (V).
    worst_block:
        Index of the block with the deepest prediction.
    """

    start_cycle: int
    end_cycle: int
    min_predicted: float
    worst_block: int

    @property
    def duration(self) -> int:
        """Episode length in cycles."""
        return self.end_cycle - self.start_cycle + 1


@dataclass
class MonitorStats:
    """Aggregate statistics of one monitored stream.

    Attributes
    ----------
    cycles:
        Cycles processed.
    alarm_cycles:
        Cycles with an active (debounced) alarm.
    events:
        Completed alarm episodes.
    min_predicted:
        Deepest prediction seen overall (V).
    """

    cycles: int = 0
    alarm_cycles: int = 0
    events: int = 0
    min_predicted: float = float("inf")


@dataclass(frozen=True)
class SensorFailure:
    """One detected sensor failure on one stream.

    Attributes
    ----------
    stream:
        Fleet stream index.
    position:
        Sensor position within the fleet's ``sensor_cols`` layout.
    candidate_col:
        Dataset candidate column (X indexing) of the failed sensor.
    cycle:
        Absolute cycle of detection.
    screen:
        Which screen fired (``nan`` / ``range`` / ``frozen``).
    """

    stream: int
    position: int
    candidate_col: int
    cycle: int
    screen: str


@dataclass
class FleetStats:
    """Fleet-wide aggregate statistics.

    ``cycles`` is per stream (all streams advance together);
    ``alarm_cycles`` and ``events`` are totals across streams.
    """

    n_streams: int
    cycles: int
    alarm_cycles: int
    events: int
    min_predicted: float
    failovers: int
    degraded_streams: int


@dataclass
class CompiledPredictor:
    """A placement flattened into one global ``(Q, K)`` matmul.

    :meth:`~repro.core.pipeline.PlacementModel.predict` walks scopes
    and does one small matmul per core; compiling scatters every
    scope's OLS coefficients into a single coefficient matrix over the
    fleet's sensor layout, so S streams are served with a single gemm.
    Coefficients of layout columns a model does not read are zero —
    which is how leave-one-sensor-out fallbacks compile into the *same*
    layout (the dead column simply stops contributing).

    Attributes
    ----------
    sensor_cols:
        ``(Q,)`` sorted dataset candidate columns of the layout.
    coef_t:
        ``(Q, K)`` transposed coefficients in global block order.
    intercept:
        ``(K,)`` intercepts in global block order.
    """

    sensor_cols: np.ndarray
    coef_t: np.ndarray
    intercept: np.ndarray

    @property
    def n_sensors(self) -> int:
        """Q — layout width."""
        return self.sensor_cols.shape[0]

    @property
    def n_blocks(self) -> int:
        """K — predicted blocks."""
        return self.coef_t.shape[1]

    @classmethod
    def from_model(
        cls,
        model: PlacementModel,
        sensor_cols: Optional[np.ndarray] = None,
    ) -> "CompiledPredictor":
        """Compile ``model`` onto a sensor-column layout.

        Parameters
        ----------
        model:
            The placement to flatten.
        sensor_cols:
            Layout to compile onto (sorted dataset candidate columns).
            Defaults to the model's own sensors; pass the *base*
            model's layout when compiling a fallback so readings keep
            one shape across failovers.
        """
        cols = np.asarray(
            model.sensor_candidate_cols if sensor_cols is None else sensor_cols,
            dtype=np.int64,
        )
        if cols.size != np.unique(cols).size:
            raise ValueError("sensor layout has duplicate candidate columns")
        n_blocks = model.n_blocks
        coef_t = np.zeros((cols.size, n_blocks))
        intercept = np.zeros(n_blocks)
        filled = np.zeros(n_blocks, dtype=bool)
        for scope in model.scopes:
            sel = scope.selected_cols
            if sel.size:
                pos = np.searchsorted(cols, sel)
                if np.any(pos >= cols.size) or np.any(cols[pos] != sel):
                    raise ValueError(
                        "model selects candidate columns outside the "
                        "compiled sensor layout"
                    )
                coef_t[np.ix_(pos, scope.block_cols)] = (
                    scope.predictor.model.coef.T
                )
            intercept[scope.block_cols] = scope.predictor.model.intercept
            filled[scope.block_cols] = True
        if not filled.all():
            raise RuntimeError(
                f"{int((~filled).sum())} block columns are not covered by "
                "any scope"
            )
        return cls(sensor_cols=cols, coef_t=coef_t, intercept=intercept)

    def predict(self, readings: np.ndarray) -> np.ndarray:
        """Predict ``(N, K)`` block voltages from ``(N, Q)`` readings."""
        readings = np.asarray(readings, dtype=float)
        if readings.ndim != 2 or readings.shape[1] != self.n_sensors:
            raise ValueError(
                f"readings must be (N, {self.n_sensors}); got "
                f"{readings.shape}"
            )
        return _stable_rows(readings, self.coef_t) + self.intercept


def check_swap_layout(
    model: PlacementModel, sensor_cols: np.ndarray, n_blocks: int
) -> None:
    """Raise ``ValueError`` unless ``model`` may replace a served model.

    A swapped-in model must read exactly the served sensor layout
    ``sensor_cols`` and predict ``n_blocks`` blocks.  A model reading
    only part of the layout (say ``model.without_sensor(c)``) is
    rejected: failover looks a dead sensor's column up in the served
    model's fallbacks, and such a model has no fallback for ``c``.
    """
    if model.n_blocks != n_blocks:
        raise ValueError(
            f"swap model predicts {model.n_blocks} blocks; the fleet "
            f"serves {n_blocks}"
        )
    cols = model.sensor_candidate_cols
    if not np.array_equal(cols, sensor_cols):
        raise ValueError(
            f"swap model reads sensor columns {cols.tolist()}; the fleet "
            f"serves {np.asarray(sensor_cols).tolist()}"
        )


class FleetMonitor:
    """Batched emergency monitor over S independent sensor streams.

    Parameters
    ----------
    model:
        The fitted placement/prediction model.
    threshold:
        Emergency threshold in volts.
    debounce:
        Consecutive below-threshold cycles required before a stream's
        alarm asserts (1 = immediate, the paper's semantics).
    n_streams:
        Number of parallel streams S.
    policy:
        Optional :class:`~repro.monitor.faults.FaultPolicy`; when set,
        every reading is screened and detected-dead sensors trigger
        failover to the model's leave-one-out fallbacks (which requires
        the model to carry OLS refit statistics — fitted models do;
        hand-built ones may not).
    shard:
        Optional shard label for fleet-of-fleets deployments.  When the
        global registry is enabled, the per-fleet timer and counters are
        recorded under ``monitor.run_batch[<shard>]``,
        ``monitor.batch_cycles[<shard>]`` and
        ``monitor.model_swaps[<shard>]``, so many monitors can share one
        registry.

    Notes
    -----
    Streams advance in lockstep: one :meth:`run_batch` call consumes
    the same T cycles of every stream.  All state is per stream;
    events, failures and stats are queryable per stream or fleet-wide.
    """

    def __init__(
        self,
        model: PlacementModel,
        threshold: float,
        debounce: int = 1,
        n_streams: int = 1,
        policy: Optional[FaultPolicy] = None,
        shard: Optional[str] = None,
    ) -> None:
        check_positive(threshold, "threshold")
        check_integer(debounce, "debounce", minimum=1)
        check_integer(n_streams, "n_streams", minimum=1)
        if policy is not None and not isinstance(policy, FaultPolicy):
            raise TypeError("policy must be a FaultPolicy or None")
        self.model = model
        self.threshold = threshold
        self.debounce = debounce
        self.n_streams = n_streams
        self.policy = policy
        self.shard = shard

        self._base = CompiledPredictor.from_model(model)
        n_sensors = self._base.n_sensors
        s = n_streams
        #: Per-stream episode logs and failure logs.
        self.events: List[List[EmergencyEvent]] = [[] for _ in range(s)]
        self.failures: List[List[SensorFailure]] = [[] for _ in range(s)]

        self._cycle = 0
        self._alarm = np.zeros(s, dtype=bool)
        self._streak = np.zeros(s, dtype=np.int64)
        self._streak_min = np.full(s, np.inf)
        self._streak_block = np.full(s, -1, dtype=np.int64)
        self._ep_start = np.zeros(s, dtype=np.int64)
        self._ep_min = np.full(s, np.inf)
        self._ep_block = np.full(s, -1, dtype=np.int64)
        self._alarm_cycles = np.zeros(s, dtype=np.int64)
        self._min_pred = np.full(s, np.inf)

        # Fault-detection state.
        self._detected = np.zeros((s, n_sensors), dtype=bool)
        self._frozen_run = np.zeros((s, n_sensors), dtype=np.int64)
        self._last: Optional[np.ndarray] = None
        #: Per-stream failover chain: current model / compiled predictor
        #: (None while the stream is healthy and serves the base model).
        self._models: List[Optional[PlacementModel]] = [None] * s
        self._compiled: List[Optional[CompiledPredictor]] = [None] * s

    def _metric(self, name: str) -> str:
        """Registry instrument name, shard-qualified when sharded."""
        return name if self.shard is None else f"{name}[{self.shard}]"

    # -- introspection ---------------------------------------------------

    @property
    def sensor_cols(self) -> np.ndarray:
        """``(Q,)`` dataset candidate columns the fleet reads, sorted."""
        return self._base.sensor_cols

    @property
    def n_sensors(self) -> int:
        """Q — sensors read per stream per cycle."""
        return self._base.n_sensors

    @property
    def cycles(self) -> int:
        """Cycles processed per stream so far."""
        return self._cycle

    @property
    def alarm_active(self) -> np.ndarray:
        """``(S,)`` current (debounced) alarm state per stream."""
        return self._alarm.copy()

    @property
    def degraded(self) -> np.ndarray:
        """``(S,)`` mask of streams serving a fallback model."""
        return self._detected.any(axis=1)

    def predictor_for(self, stream: int) -> CompiledPredictor:
        """The compiled predictor currently serving ``stream``."""
        compiled = self._compiled[stream]
        return self._base if compiled is None else compiled

    def model_for(self, stream: int) -> PlacementModel:
        """The placement model currently serving ``stream``."""
        current = self._models[stream]
        return self.model if current is None else current

    def stream_stats(self, stream: int) -> MonitorStats:
        """Materialized :class:`MonitorStats` for one stream."""
        return MonitorStats(
            cycles=self._cycle,
            alarm_cycles=int(self._alarm_cycles[stream]),
            events=len(self.events[stream]),
            min_predicted=float(self._min_pred[stream]),
        )

    # -- serving ----------------------------------------------------------

    def run_batch(
        self,
        streams: np.ndarray,
        v_min_out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Process a whole ``(S, T, Q)`` tensor; returns ``(S, T)`` flags.

        No Python-per-cycle loop: fault screens are evaluated over the
        full tensor, predictions run as chunked flat gemms, and the
        debounce/episode machine is replayed per stream by run-length
        encoding the below-threshold mask, with the flags, episodes and
        counters of :meth:`_advance_single` driven cycle by cycle.
        Streams whose prediction minima contain NaN (possible only
        without a fault policy) go through that scalar machine itself.

        May be called repeatedly; debounce/episode/fault state carries
        across calls, so any split of a stream into calls (down to
        T = 1, which costs far more per cycle) gives the same bits as
        one call.

        Parameters
        ----------
        streams:
            ``(S, T, Q)`` sensor readings.
        v_min_out:
            Optional ``(S, T)`` float64 array filled with the per-cycle
            minimum predicted voltages (what the serving layer ships
            back over its result rings alongside the alarm flags).
        """
        t0 = _time.perf_counter()
        streams = np.asarray(streams, dtype=float)
        if streams.ndim != 3 or streams.shape[0] != self.n_streams or (
            streams.shape[2] != self.n_sensors
        ):
            raise ValueError(
                f"streams must be ({self.n_streams}, T, {self.n_sensors}); "
                f"got shape {streams.shape}"
            )
        n_cycles = streams.shape[1]
        if v_min_out is not None and v_min_out.shape != (
            self.n_streams, n_cycles
        ):
            raise ValueError(
                f"v_min_out must be ({self.n_streams}, {n_cycles}); got "
                f"{v_min_out.shape}"
            )
        if n_cycles == 0:
            return np.zeros((self.n_streams, 0), dtype=bool)
        t_base = self._cycle

        entry_compiled = list(self._compiled)
        carried = self._detected.copy()
        # Per-stream failover timeline: (local_cycle, compiled_after).
        changes: List[List[Tuple[int, CompiledPredictor]]] = [
            [] for _ in range(self.n_streams)
        ]
        # Local cycle each detected sensor stops being trusted
        # (0 for sensors already dead at entry).
        clean_from = np.zeros((self.n_streams, self.n_sensors), dtype=np.int64)
        if self.policy is not None:
            det_t, screen_codes = self._screen_batch(streams)
            det_t = np.where(carried, n_cycles, det_t)
            for s in range(self.n_streams):
                fresh = np.nonzero(det_t[s] < n_cycles)[0]
                if fresh.size == 0:
                    continue
                # Failover order: by cycle, then by sensor position
                # within a cycle.
                for q in fresh[np.argsort(det_t[s, fresh], kind="stable")]:
                    t_loc = int(det_t[s, q])
                    self._fail_sensor(
                        s,
                        int(q),
                        t_base + t_loc,
                        _SCREEN_LABELS[screen_codes[s, q]],
                    )
                    clean_from[s, q] = t_loc
                    changes[s].append((t_loc, self._compiled[s]))

        v_min, blocks = self._predict_batch(
            streams, entry_compiled, carried, changes, clean_from
        )
        if v_min_out is not None:
            np.copyto(v_min_out, v_min)
        flags = np.zeros((self.n_streams, n_cycles), dtype=bool)
        for s in range(self.n_streams):
            if np.isfinite(v_min[s]).all():
                flags[s] = self._advance_stream_rle(
                    s, v_min[s], blocks[s], t_base
                )
            else:
                for i in range(n_cycles):
                    self._advance_single(
                        s, float(v_min[s, i]), int(blocks[s, i]), t_base + i
                    )
                    flags[s, i] = self._alarm[s]
        self._cycle += n_cycles

        registry = get_registry()
        if registry.enabled:
            dt = _time.perf_counter() - t0
            registry.timer(self._metric("monitor.run_batch")).record(dt)
            registry.counter(self._metric("monitor.batch_cycles")).inc(
                self.n_streams * n_cycles
            )
        return flags

    def _predict_batch(
        self,
        streams: np.ndarray,
        entry_compiled: List[Optional[CompiledPredictor]],
        carried: np.ndarray,
        changes: List[List[Tuple[int, CompiledPredictor]]],
        clean_from: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-cycle prediction minima/argmins for the whole tensor."""
        n_streams, n_cycles, _ = streams.shape
        v_min = np.empty((n_streams, n_cycles))
        blocks = np.empty((n_streams, n_cycles), dtype=np.int64)
        healthy = [
            s
            for s in range(n_streams)
            if entry_compiled[s] is None and not changes[s]
        ]
        if healthy:
            idx = np.asarray(healthy)
            flat = streams[idx].reshape(idx.size * n_cycles, -1)
            v, b = self._minblock_rows(flat, self._base)
            v_min[idx] = v.reshape(idx.size, n_cycles)
            blocks[idx] = b.reshape(idx.size, n_cycles)
        for s in range(n_streams):
            if s in healthy:
                continue
            rows = streams[s].copy()
            for q in np.nonzero(self._detected[s])[0]:
                rows[clean_from[s, q]:, q] = 0.0
            comp = entry_compiled[s]
            comp = self._base if comp is None else comp
            t_prev = 0
            for t_loc, after in changes[s]:
                if t_loc > t_prev:
                    v, b = self._minblock_rows(rows[t_prev:t_loc], comp)
                    v_min[s, t_prev:t_loc] = v
                    blocks[s, t_prev:t_loc] = b
                    t_prev = t_loc
                comp = after
            v, b = self._minblock_rows(rows[t_prev:], comp)
            v_min[s, t_prev:] = v
            blocks[s, t_prev:] = b
        return v_min, blocks

    def _minblock_rows(
        self, rows: np.ndarray, compiled: CompiledPredictor
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Chunked per-row prediction min and argmin for ``(N, Q)`` rows."""
        n = rows.shape[0]
        v_min = np.empty(n)
        blocks = np.empty(n, dtype=np.int64)
        for lo in range(0, n, _CHUNK_ROWS):
            hi = min(lo + _CHUNK_ROWS, n)
            pred = (
                _stable_rows(rows[lo:hi], compiled.coef_t)
                + compiled.intercept
            )
            v_min[lo:hi] = pred.min(axis=1)
            blocks[lo:hi] = pred.argmin(axis=1)
        return v_min, blocks

    # -- episode state machine ---------------------------------------------

    def _advance_single(
        self, s: int, v: float, block: int, t: int
    ) -> None:
        """Advance stream ``s`` by one cycle of minimum prediction ``v``.

        The per-cycle reference of the episode state machine: a NaN
        ``v`` compares False, so it neither extends a streak nor closes
        an episode.  Backdated debounce-streak cycles count as alarm
        cycles, so ``sum(event durations) == alarm_cycles`` for any
        debounce.
        """
        if v < self.threshold:
            if self._streak[s] == 0 or v < self._streak_min[s]:
                self._streak_min[s] = v
                self._streak_block[s] = block
            self._streak[s] += 1
        else:
            self._streak[s] = 0
        if not self._alarm[s] and self._streak[s] >= self.debounce:
            self._alarm[s] = True
            self._ep_start[s] = t - (self.debounce - 1)
            self._ep_min[s] = self._streak_min[s]
            self._ep_block[s] = self._streak_block[s]
            self._alarm_cycles[s] += self.debounce - 1
        elif self._alarm[s]:
            if v < self._ep_min[s]:
                self._ep_min[s] = v
                self._ep_block[s] = block
            if v >= self.threshold:
                self._close_episode(s, t - 1)
        if self._alarm[s]:
            self._alarm_cycles[s] += 1
        if v < self._min_pred[s]:
            self._min_pred[s] = v

    def _advance_stream_rle(
        self, s: int, v: np.ndarray, blocks: np.ndarray, t_base: int
    ) -> np.ndarray:
        """Replay T cycles of one stream's state machine from RLE runs.

        ``v`` must be finite; NaN streams go through
        :meth:`_advance_single`.  Produces exactly the alarm flags,
        episodes and counters of :meth:`_advance_single` driven cycle
        by cycle.
        """
        n_cycles = v.size
        thr = self.threshold
        below = v < thr
        flags = np.zeros(n_cycles, dtype=bool)
        self._min_pred[s] = min(float(self._min_pred[s]), float(v.min()))

        padded = np.zeros(n_cycles + 2, dtype=bool)
        padded[1:-1] = below
        edges = np.diff(padded.astype(np.int8))
        starts = np.nonzero(edges == 1)[0]
        ends = np.nonzero(edges == -1)[0] - 1  # inclusive

        streak0 = int(self._streak[s])
        m0 = float(self._streak_min[s])
        b0 = int(self._streak_block[s])
        run_idx = 0

        if self._alarm[s]:
            if below[0]:
                # Leading run continues the open episode.
                g, c = int(starts[0]), int(ends[0])
                seg = v[g : c + 1]
                j = int(seg.argmin())
                if seg[j] < self._ep_min[s]:
                    self._ep_min[s] = seg[j]
                    self._ep_block[s] = int(blocks[g + j])
                flags[g : c + 1] = True
                self._alarm_cycles[s] += c - g + 1
                if c == n_cycles - 1:
                    # Still open at chunk end; the streak kept counting.
                    self._streak[s] = streak0 + (c - g + 1)
                    if not (streak0 > 0 and m0 <= seg[j]):
                        self._streak_min[s] = seg[j]
                        self._streak_block[s] = int(blocks[g + j])
                    return flags
                self._close_episode(s, t_base + c)
                run_idx = 1
            else:
                # Recovery on the first cycle closes the episode there.
                self._close_episode(s, t_base - 1)
            streak0 = 0

        for r in range(run_idx, starts.size):
            g, c = int(starts[r]), int(ends[r])
            run_len = c - g + 1
            carry = streak0 if g == 0 else 0
            assert_at = max(0, self.debounce - 1 - carry)  # local in run
            if assert_at < run_len:
                # Episode asserts at g + assert_at, backdated by the
                # debounce streak (which may reach into the carry).
                pre = v[g : g + assert_at + 1]
                j = int(pre.argmin())
                if carry > 0 and m0 <= pre[j]:
                    ep_min, ep_block = m0, b0
                else:
                    ep_min, ep_block = float(pre[j]), int(blocks[g + j])
                post = v[g + assert_at + 1 : c + 1]
                if post.size:
                    j = int(post.argmin())
                    if post[j] < ep_min:
                        ep_min = float(post[j])
                        ep_block = int(blocks[g + assert_at + 1 + j])
                ep_start = t_base + g + assert_at - (self.debounce - 1)
                flags[g + assert_at : c + 1] = True
                self._alarm_cycles[s] += (self.debounce - 1) + (
                    c - g - assert_at + 1
                )
                if c == n_cycles - 1:
                    self._alarm[s] = True
                    self._ep_start[s] = ep_start
                    self._ep_min[s] = ep_min
                    self._ep_block[s] = ep_block
                    self._streak[s] = carry + run_len
                    seg = v[g : c + 1]
                    j = int(seg.argmin())
                    if carry > 0 and m0 <= seg[j]:
                        self._streak_min[s] = m0
                        self._streak_block[s] = b0
                    else:
                        self._streak_min[s] = float(seg[j])
                        self._streak_block[s] = int(blocks[g + j])
                    return flags
                self._emit_episode(
                    s, int(ep_start), t_base + c, ep_min, ep_block
                )
            elif c == n_cycles - 1:
                # Streak survives the chunk boundary without asserting.
                self._streak[s] = carry + run_len
                seg = v[g : c + 1]
                j = int(seg.argmin())
                if carry > 0 and m0 <= seg[j]:
                    self._streak_min[s] = m0
                    self._streak_block[s] = b0
                else:
                    self._streak_min[s] = float(seg[j])
                    self._streak_block[s] = int(blocks[g + j])
                return flags
        if not (n_cycles and below[-1]):
            self._streak[s] = 0
        return flags

    def _emit_episode(
        self, s: int, start: int, end: int, v_min: float, block: int
    ) -> None:
        """Record one completed episode (log, obs)."""
        event = EmergencyEvent(
            start_cycle=start,
            end_cycle=end,
            min_predicted=v_min,
            worst_block=block,
        )
        self.events[s].append(event)
        registry = get_registry()
        if registry.enabled:
            registry.counter("monitor.emergencies").inc()
            registry.event(
                "monitor.emergency",
                stream=s,
                start_cycle=event.start_cycle,
                end_cycle=event.end_cycle,
                duration=event.duration,
                min_predicted=event.min_predicted,
                worst_block=event.worst_block,
                threshold=self.threshold,
            )

    def _close_episode(self, s: int, end_cycle: int) -> None:
        """Close stream ``s``'s open episode at ``end_cycle``."""
        self._emit_episode(
            s,
            int(self._ep_start[s]),
            int(end_cycle),
            float(self._ep_min[s]),
            int(self._ep_block[s]),
        )
        self._alarm[s] = False
        self._streak[s] = 0

    # -- fault screening and failover ------------------------------------

    def _screen_batch(
        self, streams: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """First-detection local cycle and screen code per (stream, sensor).

        Returns ``(S, Q)`` first-trigger cycles (``T`` = never) and the
        matching screen codes (index into ``_SCREEN_LABELS``, priority
        nan > range > frozen on ties).  Also rolls the frozen-run carry
        state forward to the end of the chunk, so the next call
        continues every frozen run where this one left it.
        """
        policy = self.policy
        n_cycles = streams.shape[1]
        finite = np.isfinite(streams)
        nan_m = ~finite
        range_m = finite & (
            (streams < policy.v_lo) | (streams > policy.v_hi)
        )
        if self._last is None:
            eq0 = np.zeros(
                (streams.shape[0], 1, streams.shape[2]), dtype=bool
            )
        else:
            eq0 = (
                np.abs(streams[:, :1, :] - self._last[:, np.newaxis, :])
                <= policy.frozen_eps
            )
        eq = np.concatenate(
            [eq0, np.abs(np.diff(streams, axis=1)) <= policy.frozen_eps],
            axis=1,
        )
        pos = np.arange(n_cycles)[np.newaxis, :, np.newaxis]
        reset = np.where(~eq, pos, -1)
        last_reset = np.maximum.accumulate(reset, axis=1)
        run = np.where(
            last_reset < 0,
            self._frozen_run[:, np.newaxis, :] + pos + 1,
            pos - last_reset + 1,
        )
        self._frozen_run = run[:, -1, :].copy()
        self._last = streams[:, -1, :].copy()
        frozen_m = run >= policy.frozen_window

        def first_true(mask: np.ndarray) -> np.ndarray:
            hit = mask.any(axis=1)
            return np.where(hit, mask.argmax(axis=1), n_cycles).astype(
                np.int64
            )

        t_nan = first_true(nan_m)
        t_range = first_true(range_m)
        t_frozen = first_true(frozen_m)
        det_t = np.minimum(np.minimum(t_nan, t_range), t_frozen)
        codes = np.where(
            t_nan == det_t, 0, np.where(t_range == det_t, 1, 2)
        ).astype(np.int8)
        return det_t, codes

    def _fail_sensor(self, s: int, q: int, cycle: int, screen: str) -> None:
        """Mark sensor ``q`` of stream ``s`` dead and fail over its model."""
        col = int(self.sensor_cols[q])
        self._detected[s, q] = True
        failure = SensorFailure(
            stream=s, position=q, candidate_col=col, cycle=cycle,
            screen=screen,
        )
        self.failures[s].append(failure)
        current = self._models[s]
        if current is None:
            # First failure on this stream: the precomputed LOO fallback.
            new_model = self.model.fallback_models()[col]
        else:
            # Chained failure: drop another sensor from the fallback.
            new_model = current.without_sensor(col)
        self._models[s] = new_model
        self._compiled[s] = CompiledPredictor.from_model(
            new_model, sensor_cols=self.sensor_cols
        )
        registry = get_registry()
        if registry.enabled:
            registry.counter("monitor.sensor_faults").inc()
            registry.counter("monitor.failovers").inc()
            registry.gauge("monitor.degraded_streams").set(
                int(self._detected.any(axis=1).sum())
            )
            registry.event(
                "monitor.sensor_fault",
                stream=s,
                position=q,
                sensor_col=col,
                cycle=cycle,
                screen=screen,
            )

    # -- rolling model swap -----------------------------------------------

    def swap_model(self, model: PlacementModel) -> None:
        """Atomically replace the served model between batches.

        The new model must read the same sensor layout and predict the
        same blocks (see :func:`check_swap_layout`); a rejected swap
        raises ``ValueError`` and changes nothing.  All episode,
        debounce and fault state carries over; degraded streams re-derive
        their failover chain from the *new* model's leave-one-out
        fallbacks in the original failure order, so a hot-swap behaves
        exactly as if the fleet had been constructed with the new model
        and replayed its failure history.

        Call between :meth:`run_batch` calls — the swap is
        instantaneous from the stream's point of view (no frames are
        dropped and no state machine resets).
        """
        check_swap_layout(model, self.sensor_cols, self._base.n_blocks)
        new_base = CompiledPredictor.from_model(
            model, sensor_cols=self.sensor_cols
        )
        new_models: List[Optional[PlacementModel]] = [None] * self.n_streams
        new_compiled: List[Optional[CompiledPredictor]] = (
            [None] * self.n_streams
        )
        for s in range(self.n_streams):
            if self._models[s] is None:
                continue
            chain: Optional[PlacementModel] = None
            for failure in self.failures[s]:
                col = failure.candidate_col
                chain = (
                    model.fallback_models()[col]
                    if chain is None
                    else chain.without_sensor(col)
                )
            new_models[s] = chain
            new_compiled[s] = CompiledPredictor.from_model(
                chain, sensor_cols=self.sensor_cols
            )
        self.model = model
        self._base = new_base
        self._models = new_models
        self._compiled = new_compiled
        registry = get_registry()
        if registry.enabled:
            registry.counter(self._metric("monitor.model_swaps")).inc()
            registry.event(
                "monitor.model_swap",
                shard=self.shard,
                cycle=self._cycle,
                degraded_streams=int(self._detected.any(axis=1).sum()),
            )

    # -- session end ------------------------------------------------------

    def finish(self) -> FleetStats:
        """Close all open episodes and return fleet-wide statistics."""
        for s in np.nonzero(self._alarm)[0]:
            self._close_episode(int(s), self._cycle - 1)
        return self.fleet_stats()

    def fleet_stats(self) -> FleetStats:
        """Materialized fleet-wide statistics (episodes as of now)."""
        finite_min = self._min_pred[np.isfinite(self._min_pred)]
        return FleetStats(
            n_streams=self.n_streams,
            cycles=self._cycle,
            alarm_cycles=int(self._alarm_cycles.sum()),
            events=sum(len(ev) for ev in self.events),
            min_predicted=float(
                finite_min.min() if finite_min.size else np.inf
            ),
            failovers=sum(len(f) for f in self.failures),
            degraded_streams=int(self._detected.any(axis=1).sum()),
        )
