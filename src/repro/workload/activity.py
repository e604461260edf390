"""Per-block activity-trace generation (the GEM5 stand-in).

Turns a :class:`~repro.workload.benchmarks.BenchmarkSpec` into per-block
activity and gate-state traces for a floorplan.  The generative model
layers, per (core, unit family):

1. **Program phases** — piecewise-constant activity levels with
   geometric durations around the benchmark's ``phase_length``.
2. **AR(1) fluctuation** — within-phase cycle-to-cycle noise.
3. **Core-wide bursts** — short all-unit activity spikes with
   probability ``burstiness`` per step (di/dt-rich behaviour).
4. **Power gating** — Markov wake/sleep schedule for gateable units
   (see :mod:`repro.workload.events`), which multiplies both dynamic
   and leakage power downstream.
5. **Thread imbalance** — a per-core static activity scale.

Blocks of the same (core, unit family) share the unit trace up to a
small per-block jitter, reflecting that e.g. all ALU blocks of a core
heat up together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.floorplan.blocks import UnitKind
from repro.floorplan.floorplan import Floorplan
from repro.workload.benchmarks import BenchmarkSpec
from repro.workload.events import GatingSchedule, generate_gating_schedule
from repro.utils.ckernel import get_lib
from repro.utils.rng import RngLike, make_rng
from repro.utils.validation import check_integer

__all__ = ["ActivityTraces", "generate_activity"]


@dataclass
class ActivityTraces:
    """Activity and gate state for every block of a floorplan.

    Attributes
    ----------
    activity:
        ``(n_steps, n_blocks)`` utilization in [0, 1]; block columns
        follow ``floorplan.blocks`` order.
    gate:
        ``(n_steps, n_blocks)`` power-gate state in [0, 1]
        (1 = powered); always 1 for non-gateable blocks.
    block_names:
        Column labels (block names in order).
    benchmark:
        Name of the generating benchmark.
    """

    activity: np.ndarray
    gate: np.ndarray
    block_names: List[str]
    benchmark: str

    @property
    def n_steps(self) -> int:
        """Number of generated steps."""
        return self.activity.shape[0]

    @property
    def n_blocks(self) -> int:
        """Number of block columns."""
        return self.activity.shape[1]

    def effective_activity(self) -> np.ndarray:
        """Gate-modulated activity, ``activity * gate``."""
        return self.activity * self.gate


def _phase_trace(
    n_steps: int,
    mean_level: float,
    phase_length: float,
    rng: np.random.Generator,
    concentration: float = 6.0,
) -> np.ndarray:
    """Piecewise-constant phase levels with geometric durations.

    Phase levels are Beta-distributed around ``mean_level``; larger
    ``concentration`` gives tighter phase-to-phase contrast.

    The per-phase scalar draws are kept deliberately: batching them
    reorders the generator stream and regenerates every downstream
    dataset, which is not worth the few hundred microseconds per trace.
    """
    trace = np.empty(n_steps)
    pos = 0
    a = max(mean_level * concentration, 0.05)
    b = max((1.0 - mean_level) * concentration, 0.05)
    while pos < n_steps:
        duration = 1 + int(rng.geometric(1.0 / max(phase_length, 1.0)))
        level = float(rng.beta(a, b))
        trace[pos : pos + duration] = level
        pos += duration
    return trace


def _ar1_inplace(x: np.ndarray, rho: float, kernel=None) -> None:
    """Run ``x[t] += rho * x[t - 1]`` down the rows of ``x``, in place.

    ``x`` is a C-ordered ``(n_steps, n_series)`` float64 array whose
    columns are independent series.  ``kernel`` is the compiled library
    of :func:`repro.utils.ckernel.get_lib`; given one, its
    ``ar1_inplace`` runs the recurrence bit-identical to the numpy row
    loop below, which stays the reference and the fallback.
    """
    if x.ndim != 2 or x.dtype != np.float64 or not x.flags.c_contiguous:
        raise ValueError("x must be a C-ordered 2-D float64 array")
    if kernel is not None and x.size:
        ffi, lib = kernel
        lib.ar1_inplace(
            x.shape[0], x.shape[1], rho, ffi.from_buffer("double[]", x)
        )
        return
    for t in range(1, x.shape[0]):
        x[t] += rho * x[t - 1]


def generate_activity(
    floorplan: Floorplan,
    spec: BenchmarkSpec,
    n_steps: int,
    rng: RngLike = None,
    ramp_steps: int = 2,
    block_jitter: float = 0.03,
    core_coupling: float = 0.6,
    gating_scope: str = "unit",
    phase_concentration: float = 6.0,
    burst_boost: float = 0.6,
) -> ActivityTraces:
    """Generate activity/gate traces for every block of ``floorplan``.

    Parameters
    ----------
    floorplan:
        The chip floorplan (defines blocks, cores, unit families).
    spec:
        The workload descriptor.
    n_steps:
        Number of steps to generate.
    rng:
        Seed or generator.
    ramp_steps:
        Gating wake/sleep ramp length in steps (sharper = deeper
        droops).
    block_jitter:
        Std-dev of the per-block deviation from its unit's shared
        trace.
    core_coupling:
        In [0, 1]: how strongly each unit's phase trace follows a
        shared per-core program trace.  Real programs drive all units
        of a core together (IPC phases), which is what makes a core's
        voltage field predictable from few sensors; 0 makes every unit
        family fluctuate independently.
    gating_scope:
        ``"unit"`` — each gateable unit family of a core gates
        independently; ``"core"`` — all gateable units of a core share
        one gating channel (cluster-level power gating, as used by
        cores whose idle-detection works at the pipeline level).
    phase_concentration:
        Beta concentration of program-phase activity levels; larger
        values give tighter phases (less droop-depth continuum).
    burst_boost:
        Activity increment applied core-wide during burst windows; the
        bursts are the deep-droop (emergency) events.

    Returns
    -------
    ActivityTraces
    """
    check_integer(n_steps, "n_steps", minimum=1)
    if not 0.0 <= core_coupling <= 1.0:
        raise ValueError(f"core_coupling must be in [0, 1], got {core_coupling}")
    if gating_scope not in ("unit", "core"):
        raise ValueError(f"gating_scope must be 'unit' or 'core', got {gating_scope!r}")
    rng = make_rng(rng)
    blocks = floorplan.blocks
    n_blocks = len(blocks)

    # Per-core static scale (thread imbalance), clipped to stay sane.
    core_ids = sorted({b.core_index for b in blocks})
    core_scale = {
        cid: float(np.clip(rng.normal(1.0, spec.core_imbalance), 0.4, 1.6))
        for cid in core_ids
    }

    # A shared per-core program trace (IPC phases) that all unit
    # families of the core follow to degree ``core_coupling``, and one
    # own trace per unit family.  Each trace is its phase levels plus
    # AR(1) fluctuation.  The phase levels and innovations are drawn
    # trace by trace, cores first, because that is the generator
    # stream every dataset was made from; the innovations land as the
    # columns of one array so that one recurrence pass filters them all.
    unit_keys: List[Tuple[int, UnitKind]] = sorted(
        {(b.core_index, b.unit) for b in blocks}, key=lambda ku: (ku[0], ku[1].value)
    )
    mean_affinity = float(
        np.mean([spec.affinity(u) for _, u in unit_keys])
    ) if unit_keys else 0.3
    trace_levels = [mean_affinity] * len(core_ids) + [
        spec.affinity(unit) for _, unit in unit_keys
    ]
    phases: List[np.ndarray] = []
    noise = np.empty((n_steps, len(trace_levels)))
    for i, level in enumerate(trace_levels):
        phases.append(
            _phase_trace(n_steps, level, spec.phase_length, rng, phase_concentration)
        )
        noise[:, i] = rng.normal(0.0, spec.activity_noise, size=n_steps)
    _ar1_inplace(noise, 0.7, kernel=get_lib())
    core_traces: Dict[int, np.ndarray] = {
        cid: phases[i] + noise[:, i] for i, cid in enumerate(core_ids)
    }

    unit_traces: Dict[Tuple[int, UnitKind], np.ndarray] = {}
    for k, (core, unit) in enumerate(unit_keys, start=len(core_ids)):
        own = phases[k] + noise[:, k]
        # Shift the shared core trace to the unit's own mean level so
        # coupling changes correlation, not the unit's duty cycle.
        shared = core_traces[core] - mean_affinity + spec.affinity(unit)
        mixed = core_coupling * shared + (1.0 - core_coupling) * own
        unit_traces[(core, unit)] = np.clip(mixed * core_scale[core], 0.0, 1.0)

    # Core-wide bursts: short windows where the whole core saturates.
    burst_boost_arr = np.zeros((n_steps, len(core_ids)))
    core_pos = {cid: i for i, cid in enumerate(core_ids)}
    for i, cid in enumerate(core_ids):
        starts = np.nonzero(rng.random(n_steps) < spec.burstiness)[0]
        for s in starts:
            width = 1 + int(rng.integers(1, 4))
            burst_boost_arr[s : s + width, i] = burst_boost

    # Gating schedule: one channel per gateable (core, unit), or one
    # shared channel per core under cluster-level gating.
    gateable_units = {(b.core_index, b.unit) for b in blocks if b.gateable}
    gateable_keys = [key for key in unit_keys if key in gateable_units]
    if gating_scope == "core":
        gateable_cores = sorted({core for core, _ in gateable_keys})
        channel_keys: List = list(gateable_cores)
        duty_of = {
            core: np.clip(
                0.35
                + 0.6
                * float(np.mean([spec.affinity(u) for c, u in gateable_keys if c == core])),
                0.05,
                1.0,
            )
            for core in gateable_cores
        }
        duty = np.array([duty_of[core] for core in channel_keys])
        gate_col = {key: channel_keys.index(key[0]) for key in gateable_keys}
    else:
        channel_keys = gateable_keys
        duty = np.array(
            [np.clip(0.35 + 0.6 * spec.affinity(u), 0.05, 1.0) for _, u in gateable_keys]
        )
        gate_col = {key: i for i, key in enumerate(gateable_keys)}
    if channel_keys:
        schedule = generate_gating_schedule(
            n_steps=n_steps,
            duty_cycles=duty,
            gating_rate=spec.gating_rate,
            ramp_steps=ramp_steps,
            rng=rng,
        )
    else:  # pragma: no cover - every template has gateable units
        schedule = GatingSchedule(gate=np.ones((n_steps, 0)), events=[])

    activity = np.empty((n_steps, n_blocks))
    gate = np.ones((n_steps, n_blocks))
    for j, blk in enumerate(blocks):
        shared = unit_traces[(blk.core_index, blk.unit)]
        jitter = rng.normal(0.0, block_jitter, size=n_steps)
        boost = burst_boost_arr[:, core_pos[blk.core_index]]
        activity[:, j] = np.clip(shared + jitter + boost, 0.0, 1.0)
        if blk.gateable:
            gate[:, j] = schedule.gate[:, gate_col[(blk.core_index, blk.unit)]]

    return ActivityTraces(
        activity=activity,
        gate=gate,
        block_names=[b.name for b in blocks],
        benchmark=spec.name,
    )
