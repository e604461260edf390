"""The shard worker: one ``FleetMonitor`` per process, fed through a pipe.

A worker owns one contiguous slice of the fleet's streams and one
shared slot block (:func:`slot_views`).  Slot ``k`` of the block holds
a frame area ``(S_shard, slot_ticks, Q)`` and a result area
``(2, S_shard, slot_ticks)``: row 0 the per-cycle minimum predictions,
row 1 the alarm flags.  The pipe carries only small messages, in
order:

* ``("frames", slot, n_ticks)`` — run :meth:`FleetMonitor.run_batch`
  on a view of the slot's frames, write its result area, and answer
  ``(slot, version)``;
* ``("swap", version, model)`` — hot-swap via
  :meth:`FleetMonitor.swap_model` before the next slot, so episodes,
  debounce and fault state carry over and no frame is dropped;
* ``("stop",)`` — answer with the final report (events, failures,
  stats, metrics snapshot) and exit.

A failure is answered with ``("error", traceback)`` instead.
"""

from __future__ import annotations

import traceback
from typing import Any, Optional, Tuple

import numpy as np

import repro.obs as obs
from repro.core.pipeline import PlacementModel
from repro.monitor.faults import FaultPolicy
from repro.monitor.fleet import FleetMonitor

__all__ = ["block_bytes", "run_worker", "slot_views"]

#: ``(slots, streams, slot_ticks, sensors)`` of one shard's block.
Layout = Tuple[int, int, int, int]


def block_bytes(layout: Layout) -> int:
    """Size of a slot block: float64 frame areas, then result areas."""
    n_slots, n_streams, slot_ticks, n_sensors = layout
    return 8 * n_slots * n_streams * slot_ticks * (n_sensors + 2)


def slot_views(buf: Any, layout: Layout) -> Tuple[np.ndarray, np.ndarray]:
    """``(frames, results)`` views of a slot block, indexed by slot."""
    n_slots, n_streams, slot_ticks, n_sensors = layout
    frames = np.ndarray(
        (n_slots, n_streams, slot_ticks, n_sensors), np.float64, buffer=buf
    )
    results = np.ndarray(
        (n_slots, 2, n_streams, slot_ticks), np.float64, buffer=buf,
        offset=frames.nbytes,
    )
    return frames, results


def run_worker(
    name: str,
    block: Any,
    layout: Layout,
    model: PlacementModel,
    threshold: float,
    debounce: int,
    policy: Optional[FaultPolicy],
    conn: Any,
    coordinator_end: Any,
) -> None:
    """Worker process entry point (must stay importable for spawn).

    ``block`` is the shard's ``SharedMemory`` slot block and ``conn``
    the worker end of its duplex pipe (message protocol in the module
    docstring).  ``coordinator_end``, the other end, is closed at once:
    a forked worker inherits it, and holding it would keep the pipe
    open, so a worker whose coordinator was killed would wait forever
    instead of reading end-of-file.
    """
    coordinator_end.close()
    registry = obs.MetricsRegistry()
    try:
        with obs.use_registry(registry):
            frames, results = slot_views(block.buf, layout)
            n_streams = layout[1]
            fleet = FleetMonitor(
                model, threshold, debounce=debounce, n_streams=n_streams,
                policy=policy, shard=name,
            )
            batch_timer = registry.timer(f"serve.batch[{name}]")
            frame_counter = registry.counter(f"serve.frames[{name}]")
            version = served = slots = 0
            while True:
                message = conn.recv()
                if message[0] == "frames":
                    _, slot, n_ticks = message
                    with batch_timer.time():
                        flags = fleet.run_batch(
                            frames[slot, :, :n_ticks],
                            v_min_out=results[slot, 0, :, :n_ticks],
                        )
                    results[slot, 1, :, :n_ticks] = flags
                    conn.send((slot, version))
                    served += n_streams * n_ticks
                    slots += 1
                    frame_counter.inc(n_streams * n_ticks)
                elif message[0] == "swap":
                    _, version, model = message
                    fleet.swap_model(model)
                else:
                    break
            stats = fleet.finish()
        conn.send({
            "frames": served,
            "slots": slots,
            "model_version": version,
            "stats": stats,
            "events": fleet.events,
            "failures": fleet.failures,
            "snapshot": registry.snapshot(),
        })
    except Exception:  # noqa: BLE001 - report any failure to the parent
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:  # the coordinator is gone
            pass
    finally:
        conn.close()
