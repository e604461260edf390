"""Sharded multi-process serving through shared slot blocks.

The serving layer turns the in-process
:class:`~repro.monitor.fleet.FleetMonitor` into a service shape:

* :mod:`repro.serve.shard` — the worker process: one ``FleetMonitor``
  shard serving frame slots of a shared-memory block, writing
  v_min/alarm results back into the same slots, and applying model
  hot-swaps that arrive in-band on its pipe.
* :mod:`repro.serve.fleet` — :class:`ShardedFleet`, the coordinator
  that partitions S streams across N workers, hands them slot indices
  over one pipe per shard, merges shard snapshots back into the parent
  registry, and reassembles per-stream events/failures.
* :mod:`repro.serve.frontend` — :class:`IngestionFrontend`, an asyncio
  front-end with bounded-queue backpressure (block / drop-oldest).

Results are bit-identical to a single in-process
``FleetMonitor.run_batch`` over the same frames; ``tests/test_serve.py``
and the ``fleet-serve`` workload of ``benchmarks/e2e`` assert it (see
``docs/runtime_serving.md``).
"""

from repro.serve.fleet import ServeResult, ShardedFleet
from repro.serve.frontend import IngestionFrontend

__all__ = [
    "IngestionFrontend",
    "ServeResult",
    "ShardedFleet",
]
