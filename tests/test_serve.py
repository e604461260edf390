"""Tests for the sharded serving fleet (repro.serve).

The serving contract is *bit-equivalence*: ``ShardedFleet.run_frames``
must return exactly the bytes the in-process
``FleetMonitor.run_batch`` produces — across shard counts, under ring
backpressure, with fault screening active, and straight through a
rolling model hot-swap (the swap pickles the model over the pipe,
which round-trips float64 exactly, so a swap to a copy of the serving
model is bit-invisible).
"""

import copy
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import time
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

import repro.obs as obs
import repro.serve.fleet as serve_fleet
from repro.core import PipelineConfig, fit_placement
from repro.core.pipeline import placement_model_from_cols
from repro.monitor import DropoutFault, FaultPolicy, FleetMonitor, StuckAtFault
from repro.obs.manifest import build_manifest, shard_stats
from repro.serve import ShardedFleet
from tests.conftest import make_synthetic_dataset


@pytest.fixture(scope="module")
def fitted():
    ds = make_synthetic_dataset(seed=3)
    model = fit_placement(ds, PipelineConfig(budget=1.0))
    return ds, model


def _streams(model, ds, n_streams, n_cycles, seed=0, noise=2e-4):
    """(S, T, Q) sensor readings replaying the dataset with noise."""
    rng = np.random.default_rng(seed)
    cols = model.sensor_candidate_cols
    reps = int(np.ceil(n_cycles / ds.X.shape[0]))
    base = np.tile(ds.X, (reps, 1))[:n_cycles][:, cols]
    return base[np.newaxis] + rng.normal(0, noise, (n_streams,) + base.shape)


def _alarm_threshold(model, ds, quantile=0.2):
    """A threshold that real episodes actually cross."""
    return float(np.quantile(model.predict(ds.X), quantile))


def _reference(model, threshold, frames, debounce=1, policy=None):
    """In-process FleetMonitor pass -> (flags, v_min, monitor)."""
    monitor = FleetMonitor(
        model,
        threshold,
        debounce=debounce,
        n_streams=frames.shape[0],
        policy=policy,
    )
    v_min = np.empty(frames.shape[:2])
    flags = monitor.run_batch(frames, v_min_out=v_min)
    return flags, v_min, monitor


class TestBitEquivalence:
    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_matches_run_batch(self, fitted, n_shards):
        ds, model = fitted
        threshold = _alarm_threshold(model, ds)
        frames = _streams(model, ds, n_streams=6, n_cycles=96)
        ref_flags, ref_v_min, monitor = _reference(
            model, threshold, frames, debounce=2
        )
        fleet = ShardedFleet(
            model,
            threshold,
            n_streams=6,
            n_shards=n_shards,
            debounce=2,
            slot_ticks=16,
            ring_slots=4,
        )
        try:
            flags, v_min = fleet.run_frames(frames)
            result = fleet.finish()
        except BaseException:
            fleet.abort()
            raise
        assert np.array_equal(flags, ref_flags)
        assert np.array_equal(v_min, ref_v_min)
        # Merged telemetry matches the in-process monitor too.
        assert result.frames == frames.shape[0] * frames.shape[1]
        assert result.cycles == frames.shape[1]
        assert result.n_shards == n_shards
        assert result.stats.events == sum(len(ev) for ev in monitor.events)
        assert result.events == monitor.events

    def test_matches_run_batch_with_fault_screening(self, fitted):
        ds, model = fitted
        threshold = _alarm_threshold(model, ds)
        frames = _streams(model, ds, n_streams=4, n_cycles=64)
        # Kill one channel on one stream so a failover actually happens.
        frames[1] = DropoutFault(channel=0, start=10, duration=20).apply(
            frames[1]
        )
        policy = FaultPolicy(v_lo=0.5, v_hi=1.5, frozen_window=8)
        ref_flags, ref_v_min, monitor = _reference(
            model, threshold, frames, policy=policy
        )
        fleet = ShardedFleet(
            model,
            threshold,
            n_streams=4,
            n_shards=2,
            policy=policy,
            slot_ticks=16,
            ring_slots=4,
        )
        try:
            flags, v_min = fleet.run_frames(frames)
            result = fleet.finish()
        except BaseException:
            fleet.abort()
            raise
        assert np.array_equal(flags, ref_flags)
        assert np.array_equal(v_min, ref_v_min)
        # Failure records come back re-indexed to global stream ids.
        ref_failures = [len(f) for f in monitor.failures]
        assert [len(f) for f in result.failures] == ref_failures
        for stream, failures in enumerate(result.failures):
            assert all(f.stream == stream for f in failures)
        assert result.stats.failovers == sum(ref_failures)

    def test_identical_under_ring_backpressure(self, fitted):
        """Tiny rings force the submit loop through its stall path."""
        ds, model = fitted
        threshold = _alarm_threshold(model, ds)
        frames = _streams(model, ds, n_streams=4, n_cycles=80, seed=7)
        ref_flags, ref_v_min, _ = _reference(model, threshold, frames)
        with obs.use_registry(obs.MetricsRegistry()) as registry:
            fleet = ShardedFleet(
                model,
                threshold,
                n_streams=4,
                n_shards=2,
                slot_ticks=8,
                ring_slots=2,
            )
            try:
                flags, v_min = fleet.run_frames(frames)
                fleet.finish()
            except BaseException:
                fleet.abort()
                raise
            assert registry.counter("serve.slots").snapshot() == 80 // 8
            assert registry.counter("serve.frames").snapshot() == 4 * 80
        assert np.array_equal(flags, ref_flags)
        assert np.array_equal(v_min, ref_v_min)

    def test_identical_with_more_shards_than_cores_and_one_slot(
        self, fitted
    ):
        """Every hand-off of a slot block, with the workers outnumbering
        the cores and a partial last chunk; a lost or torn slot would
        break bit-identity."""
        ds, model = fitted
        threshold = _alarm_threshold(model, ds)
        n_shards = (os.cpu_count() or 1) + 2
        frames = _streams(
            model, ds, n_streams=2 * n_shards, n_cycles=200, seed=5
        )
        ref_flags, ref_v_min, _ = _reference(model, threshold, frames)
        fleet = ShardedFleet(
            model,
            threshold,
            n_streams=2 * n_shards,
            n_shards=n_shards,
            slot_ticks=3,
            ring_slots=1,
            timeout=30.0,
        )
        try:
            flags, v_min = fleet.run_frames(frames)
            result = fleet.finish()
        except BaseException:
            fleet.abort()
            raise
        assert np.array_equal(flags, ref_flags)
        assert np.array_equal(v_min, ref_v_min)
        assert result.frames == frames.shape[0] * frames.shape[1]


class TestHotSwap:
    @pytest.mark.parametrize("ring_slots", [1, 4])
    def test_swap_boundary_is_deterministic_and_lossless(
        self, fitted, ring_slots
    ):
        ds, model = fitted
        threshold = _alarm_threshold(model, ds)
        frames = _streams(model, ds, n_streams=4, n_cycles=96, seed=11)
        swap_at = 48  # slot boundary (multiple of slot_ticks)

        # The swap pickles the model, which is bit-exact, so swapping in
        # a copy must be invisible in the outputs.
        model_v1 = copy.deepcopy(model)

        ref_flags, ref_v_min, _ = _reference(model, threshold, frames)

        fleet = ShardedFleet(
            model,
            threshold,
            n_streams=4,
            n_shards=2,
            slot_ticks=16,
            ring_slots=ring_slots,
        )
        try:
            fleet.submit(frames[:, :swap_at])
            assert fleet.hot_swap(model_v1) == 1
            fleet.submit(frames[:, swap_at:])
            fleet.drain()
            slots = fleet.take_completed()
            result = fleet.finish()
        except BaseException:
            fleet.abort()
            raise

        flags = np.concatenate([s[2] for s in slots], axis=1)
        v_min = np.concatenate([s[3] for s in slots], axis=1)
        assert np.array_equal(flags, ref_flags)
        assert np.array_equal(v_min, ref_v_min)

        # No dropped frames, and the version flips exactly at swap_at.
        assert result.frames == 4 * 96
        assert result.model_version == 1
        versions = {base: ver for base, _, _, _, ver in slots}
        assert all(
            ver == (0 if base < swap_at else 1)
            for base, ver in versions.items()
        )

    def test_swap_to_another_layout_rejected_before_version_bump(
        self, fitted
    ):
        """A model that reads a subset of the layout (or predicts other
        blocks) is refused at the call, not by a worker later on."""
        ds, model = fitted
        cols = model.sensor_candidate_cols
        threshold = _alarm_threshold(model, ds)
        frames = _streams(model, ds, n_streams=2, n_cycles=32, seed=14)
        # The sensor the bad swap drops sticks afterwards.
        frames = StuckAtFault(
            channel=cols.size - 1, start=8, value=0.93
        ).apply(frames)
        policy = FaultPolicy(v_lo=0.5, v_hi=1.5, frozen_window=8)
        fewer_blocks = placement_model_from_cols(
            make_synthetic_dataset(seed=3, n_blocks=4), cols
        )
        ref_flags, ref_v_min, ref = _reference(
            model, threshold, frames, policy=policy
        )

        fleet = ShardedFleet(
            model,
            threshold,
            n_streams=2,
            n_shards=1,
            policy=policy,
            slot_ticks=8,
            ring_slots=2,
        )
        try:
            with pytest.raises(ValueError, match="sensor columns"):
                fleet.hot_swap(model.without_sensor(int(cols[-1])))
            with pytest.raises(ValueError, match="blocks"):
                fleet.hot_swap(fewer_blocks)
            assert fleet.model is model
            assert fleet.model_version == 0
            flags, v_min = fleet.run_frames(frames)
            result = fleet.finish()
        except BaseException:
            fleet.abort()
            raise

        assert np.array_equal(flags, ref_flags)
        assert np.array_equal(v_min, ref_v_min)
        assert result.model_version == 0
        assert all(ref.failures)
        assert result.failures == ref.failures

    def test_swap_rejected_mid_chunk(self, fitted):
        ds, model = fitted
        threshold = _alarm_threshold(model, ds)
        fleet = ShardedFleet(
            model,
            threshold,
            n_streams=2,
            n_shards=2,
            slot_ticks=4,
            ring_slots=2,
        )
        try:
            # Stage a chunk without completing the push by filling the
            # inflight slot directly through the resumable path: fill
            # both rings first so the push cannot complete.
            filler = _streams(model, ds, n_streams=2, n_cycles=4)[:, :4]
            for _ in range(2):
                assert fleet.try_submit_chunk(filler)
            assert not fleet.try_submit_chunk(filler)  # rings full
            with pytest.raises(RuntimeError, match="partially pushed"):
                fleet.hot_swap(model)
        finally:
            fleet.abort()

    def test_swap_waits_for_an_idle_worker(self, fitted):
        """A model is sent only to a worker with no slot in flight, so
        the worker never has answers to send before it reads the model."""
        ds, model = fitted
        frames = _streams(model, ds, n_streams=2, n_cycles=8)
        fleet = ShardedFleet(
            model,
            _alarm_threshold(model, ds),
            n_streams=2,
            n_shards=1,
            slot_ticks=4,
            ring_slots=4,
        )
        try:
            assert fleet.try_submit_chunk(frames[:, :4])
            fleet.hot_swap(model)
            assert not fleet.try_submit_chunk(frames[:, 4:])
            fleet.drain()
            assert fleet.try_submit_chunk()
            fleet.drain()
            versions = [ver for _, _, _, _, ver in fleet.take_completed()]
            fleet.finish()
        except BaseException:
            fleet.abort()
            raise
        assert versions == [0, 1]

    def test_no_deadlock_with_many_slots_and_a_large_swap(self):
        """More messages in flight than a pipe buffers, and a model swap
        larger than the buffer, must not block both sides in a send."""
        done = _run_script(_MANY_SLOTS_LARGE_SWAP)
        assert done.returncode == 0, done.stderr

    def test_last_of_two_swaps_between_chunks_wins(self, fitted):
        ds, model = fitted
        threshold = _alarm_threshold(model, ds)
        frames = _streams(model, ds, n_streams=4, n_cycles=96, seed=13)
        swap_at = 48
        model_v1, model_v2 = copy.deepcopy(model), copy.deepcopy(model)

        ref_flags, ref_v_min, _ = _reference(model, threshold, frames)
        fleet = ShardedFleet(
            model,
            threshold,
            n_streams=4,
            n_shards=2,
            slot_ticks=16,
            ring_slots=4,
        )
        try:
            fleet.submit(frames[:, :swap_at])
            assert fleet.hot_swap(model_v1) == 1
            assert fleet.hot_swap(model_v2) == 2
            fleet.submit(frames[:, swap_at:])
            fleet.drain()
            slots = fleet.take_completed()
            result = fleet.finish()
        except BaseException:
            fleet.abort()
            raise

        flags = np.concatenate([s[2] for s in slots], axis=1)
        v_min = np.concatenate([s[3] for s in slots], axis=1)
        assert np.array_equal(flags, ref_flags)
        assert np.array_equal(v_min, ref_v_min)
        assert result.frames == 4 * 96
        assert result.model_version == 2
        assert [ver for _, _, _, _, ver in slots] == [
            0 if base < swap_at else 2 for base, _, _, _, _ in slots
        ]


class TestWorkerSupervision:
    def test_dead_worker_is_reported(self, fitted):
        ds, model = fitted
        threshold = _alarm_threshold(model, ds)
        frames = _streams(model, ds, n_streams=2, n_cycles=16)
        fleet = ShardedFleet(
            model,
            threshold,
            n_streams=2,
            n_shards=2,
            slot_ticks=8,
            ring_slots=2,
            timeout=30.0,
        )
        try:
            fleet._procs[0].terminate()
            fleet._procs[0].join(10.0)
            with pytest.raises(RuntimeError, match="died"):
                fleet.submit(frames)
                fleet.drain()
        finally:
            fleet.abort()

    def test_constructor_validates_topology(self, fitted):
        _, model = fitted
        with pytest.raises(ValueError, match="exceeds n_streams"):
            ShardedFleet(model, 0.9, n_streams=2, n_shards=3)

    @pytest.mark.parametrize("in_flight", [0, 2])
    def test_submit_loop_raises_when_a_worker_dies(self, fitted, in_flight):
        """A dead shard must surface through ``poll_results`` instead of
        leaving a nonblocking submit loop waiting for slots that never
        free up."""
        ds, model = fitted
        threshold = _alarm_threshold(model, ds)
        frames = _streams(model, ds, n_streams=2, n_cycles=40)
        fleet = ShardedFleet(
            model,
            threshold,
            n_streams=2,
            n_shards=2,
            slot_ticks=4,
            ring_slots=2,
            timeout=5.0,
        )
        try:
            for _ in range(in_flight):
                assert fleet.try_submit_chunk(frames[:, :4])
            fleet._procs[0].terminate()
            fleet._procs[0].join(10.0)
            assert not fleet._procs[0].is_alive()
            deadline = time.monotonic() + 30.0
            with pytest.raises(RuntimeError, match="shard0 died"):
                for lo in range(0, frames.shape[1], fleet.slot_ticks):
                    chunk = frames[:, lo : lo + fleet.slot_ticks]
                    while not fleet.try_submit_chunk(chunk):
                        if time.monotonic() > deadline:
                            pytest.fail("dead shard not reported in 30 s")
                        fleet.poll_results()
                        time.sleep(200e-6)
        finally:
            fleet.abort()


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="four shards cannot outrun one on fewer than four CPUs",
)
class TestScaling:
    def test_four_shards_serve_2_5x_one_shard(self, fitted):
        """With a CPU per shard, 4 shards serve at least 2.5x the frames
        of 1 shard per second.  Workers start at construction, outside
        the timed window."""
        ds, model = fitted
        threshold = _alarm_threshold(model, ds, quantile=0.1)
        frames = _streams(model, ds, n_streams=16, n_cycles=384, seed=23)
        wall_s = {}
        for n_shards in (1, 4):
            fleet = ShardedFleet(
                model,
                threshold,
                n_streams=16,
                n_shards=n_shards,
                debounce=3,
                slot_ticks=32,
                ring_slots=8,
            )
            try:
                t0 = time.perf_counter()
                fleet.run_frames(frames)
                wall_s[n_shards] = time.perf_counter() - t0
                fleet.finish()
            except BaseException:
                fleet.abort()
                raise
        assert wall_s[1] / wall_s[4] >= 2.5

def _fleet_handles(fleet):
    """Worker pids and slot-block names of a live fleet."""
    return (
        {proc.pid for proc in fleet._procs},
        [shard.block.name for shard in fleet._shards],
    )


def _assert_released(pids, blocks):
    alive = {proc.pid for proc in multiprocessing.active_children()}
    assert not alive & pids
    for name in blocks:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


#: Start of every script run by ``_run_script``: a fitted model.
_SCRIPT_PREAMBLE = """
import numpy as np
from repro.core import PipelineConfig, fit_placement
from repro.serve import ShardedFleet
from tests.conftest import make_synthetic_dataset

ds = make_synthetic_dataset(seed=3)
model = fit_placement(ds, PipelineConfig(budget=1.0))
cols = model.sensor_candidate_cols
"""


_ABORT_AFTER_KILL = """
chunk = np.repeat(ds.X[np.newaxis, :4][:, :, cols], 2, axis=0)
fleet = ShardedFleet(model, 0.9, n_streams=2, n_shards=2, slot_ticks=4,
                     ring_slots=2)
assert fleet.try_submit_chunk(chunk)
assert fleet.try_submit_chunk(chunk)
fleet._procs[0].kill()
fleet.abort()
"""


_KILL_COORDINATOR = """
import os
import signal

chunk = np.repeat(ds.X[np.newaxis, :4][:, :, cols], 2, axis=0)
fleet = ShardedFleet(model, 0.9, n_streams=2, n_shards=2, slot_ticks=4,
                     ring_slots=2)
assert fleet.try_submit_chunk(chunk)
print(" ".join(str(proc.pid) for proc in fleet._procs), flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


_MANY_SLOTS_LARGE_SWAP = """
import copy

frames = np.repeat(np.tile(ds.X, (3, 1))[np.newaxis][:, :, cols], 2, axis=0)
n = frames.shape[1]
large = copy.copy(model)
large.ballast = np.zeros(1 << 18)  # 2 MB: more than a pipe buffers
fleet = ShardedFleet(model, 0.9, n_streams=2, n_shards=1, slot_ticks=1,
                     ring_slots=n, timeout=30.0)
for t in range(n - 100):  # more slots in flight than a pipe buffers
    assert fleet.try_submit_chunk(frames[:, t : t + 1])
fleet.hot_swap(large)
fleet.submit(frames[:, n - 100 :])
fleet.drain()
result = fleet.finish()
assert result.frames == 2 * n and result.model_version == 1
"""


def _run_script(script):
    """Run ``script`` after the preamble in a fresh interpreter, for at
    most 60 s.

    Output goes through files, not pipes, so a worker that outlives the
    script cannot hold the call open.
    """
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile(
        "w+"
    ) as err:
        done = subprocess.run(
            [sys.executable, "-c", _SCRIPT_PREAMBLE + script],
            cwd=root,
            env=env,
            stdout=out,
            stderr=err,
            timeout=60,
        )
        out.seek(0)
        err.seek(0)
        done.stdout, done.stderr = out.read(), err.read()
    return done


def _running(pid):
    """Whether ``pid`` is a live process (an unreaped zombie is not)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestLifecycle:
    """No worker process or shared-memory block outlives the fleet."""

    def _fleet(self, fitted):
        ds, model = fitted
        frames = _streams(model, ds, n_streams=2, n_cycles=16)
        fleet = ShardedFleet(
            model,
            _alarm_threshold(model, ds),
            n_streams=2,
            n_shards=2,
            slot_ticks=4,
            ring_slots=2,
            timeout=30.0,
        )
        return fleet, frames

    def test_finish_releases_workers_and_blocks(self, fitted):
        fleet, frames = self._fleet(fitted)
        handles = _fleet_handles(fleet)
        try:
            fleet.run_frames(frames)
            fleet.finish()
        except BaseException:
            fleet.abort()
            raise
        _assert_released(*handles)

    def test_abort_releases_workers_and_blocks(self, fitted):
        fleet, frames = self._fleet(fitted)
        handles = _fleet_handles(fleet)
        assert fleet.try_submit_chunk(frames[:, :4])
        fleet.abort()
        _assert_released(*handles)

    def test_abort_after_worker_killed_in_flight(self, fitted):
        fleet, frames = self._fleet(fitted)
        handles = _fleet_handles(fleet)
        for lo in (0, 4):
            assert fleet.try_submit_chunk(frames[:, lo : lo + 4])
        fleet._procs[0].terminate()
        fleet.abort()
        _assert_released(*handles)

    def test_raising_with_body_releases_workers_and_blocks(self, fitted):
        fleet, frames = self._fleet(fitted)
        with pytest.raises(ValueError, match="body failed"):
            with fleet:
                handles = _fleet_handles(fleet)
                assert fleet.try_submit_chunk(frames[:, :4])
                raise ValueError("body failed")
        _assert_released(*handles)

    def test_failed_construction_releases_workers_and_blocks(
        self, fitted, monkeypatch
    ):
        real = serve_fleet.shared_memory.SharedMemory
        created = []

        def second_block_fails(*args, **kwargs):
            if created:
                raise OSError("no room for another block")
            created.append(real(*args, **kwargs))
            return created[-1]

        monkeypatch.setattr(
            serve_fleet.shared_memory, "SharedMemory", second_block_fails
        )
        before = {proc.pid for proc in multiprocessing.active_children()}
        with pytest.raises(OSError, match="no room"):
            self._fleet(fitted)
        monkeypatch.undo()
        spawned = {p.pid for p in multiprocessing.active_children()} - before
        _assert_released(spawned, [block.name for block in created])

    def test_interpreter_exits_after_abort_with_dead_worker(self):
        done = _run_script(_ABORT_AFTER_KILL)
        assert done.returncode == 0, done.stderr

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_workers_exit_when_the_coordinator_is_killed(self):
        done = _run_script(_KILL_COORDINATOR)
        pids = [int(pid) for pid in done.stdout.split()]
        assert len(pids) == 2, done.stderr
        deadline = time.monotonic() + 30.0
        try:
            while any(map(_running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_running, pids))
        finally:
            for pid in filter(_running, pids):
                os.kill(pid, signal.SIGKILL)


class TestServeObservability:
    def test_backpressure_stalls_count_refused_submits(self, fitted):
        """Each ``try_submit_chunk`` refused for want of a free slot
        counts one ``serve.backpressure_stalls``; nothing else does."""
        ds, model = fitted
        frames = _streams(model, ds, n_streams=2, n_cycles=8)
        with obs.use_registry(obs.MetricsRegistry()) as registry:
            stalls = registry.counter("serve.backpressure_stalls")
            fleet = ShardedFleet(
                model,
                _alarm_threshold(model, ds),
                n_streams=2,
                n_shards=1,
                slot_ticks=4,
                ring_slots=1,
            )
            try:
                assert fleet.try_submit_chunk(frames[:, :4])
                assert not fleet.try_submit_chunk(frames[:, 4:])
                assert not fleet.try_submit_chunk()
                assert stalls.snapshot() == 2
                fleet.drain()
                assert fleet.try_submit_chunk()
                result = fleet.finish()
            except BaseException:
                fleet.abort()
                raise
            assert result.frames == 2 * 8
            assert stalls.snapshot() == 2

    def test_manifest_v3_carries_per_shard_section(self, fitted):
        ds, model = fitted
        threshold = _alarm_threshold(model, ds)
        frames = _streams(model, ds, n_streams=4, n_cycles=32)
        with obs.use_registry(obs.MetricsRegistry()) as registry:
            fleet = ShardedFleet(
                model,
                threshold,
                n_streams=4,
                n_shards=2,
                slot_ticks=16,
                ring_slots=4,
            )
            try:
                fleet.run_frames(frames)
                fleet.finish()
            except BaseException:
                fleet.abort()
                raise
            manifest = build_manifest(registry, profile="test")
        assert manifest["schema"] == "repro.obs.manifest/v3"
        shards = manifest["shards"]
        assert [s["shard"] for s in shards] == ["shard0", "shard1"]
        for entry in shards:
            assert entry["source"] == "serve"
            assert entry["n_streams"] == 2
            assert entry["cycles"] == 32
            assert entry["frames"] == 2 * 32
            assert entry["slots"] == 2
            assert entry["model_version"] == 0
            assert "snapshot" in entry
        # shard_stats only collects shard-labelled worker events.
        assert shard_stats(registry) == shards
