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
  registry, and reassembles per-stream events/failures.  A caller
  that must not block drives it through ``try_submit_chunk`` and
  ``poll_results``; a refused submit counts one
  ``serve.backpressure_stalls``.

Results are bit-identical to a single in-process
``FleetMonitor.run_batch`` over the same frames; ``tests/test_serve.py``
and the ``fleet-serve`` workload of ``benchmarks/e2e`` assert it (see
``docs/runtime_serving.md``).
"""

from repro.serve.fleet import ServeResult, ShardedFleet

__all__ = [
    "ServeResult",
    "ShardedFleet",
]
