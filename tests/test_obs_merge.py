"""Mergeable-snapshot semantics: exactness and worker processes."""

import multiprocessing

import numpy as np
import pytest

import repro.obs as obs
from repro.obs import MetricsRegistry, Timer
from repro.obs.metrics import SUBBUCKETS


def _pooled_timer(samples):
    t = Timer("t")
    for v in samples:
        t.record(float(v))
    return t


class TestTimerMerge:
    def test_merge_matches_pooled_percentiles_bitwise(self):
        rng = np.random.default_rng(0)
        samples = rng.lognormal(mean=-6.0, sigma=1.5, size=4000)
        pooled = _pooled_timer(samples)
        shards = [_pooled_timer(s) for s in np.array_split(samples, 7)]
        merged = Timer("t")
        for shard in shards:
            merged.merge(shard.snapshot())
        assert merged.count == pooled.count
        assert merged.minimum == pooled.minimum
        assert merged.maximum == pooled.maximum
        for p in (0, 1, 25, 50, 75, 90, 99, 99.9, 100):
            assert merged.percentile(p) == pooled.percentile(p)

    def test_merge_accepts_timer_instance(self):
        a = _pooled_timer([0.1, 0.2])
        b = _pooled_timer([0.3])
        a.merge(b)
        assert a.count == 3
        assert a.maximum == pytest.approx(0.3)

    def test_merge_empty_is_identity(self):
        t = _pooled_timer([0.5])
        before = t.snapshot()
        t.merge(Timer("empty").snapshot())
        assert t.snapshot() == before

    def test_merge_into_empty(self):
        src = _pooled_timer([0.5, 0.25])
        dst = Timer("t")
        dst.merge(src.snapshot())
        assert dst.snapshot() == src.snapshot()

    def test_merge_order_invariant_percentiles(self):
        rng = np.random.default_rng(3)
        parts = [rng.uniform(1e-5, 1e-2, size=50) for _ in range(4)]
        forward = Timer("t")
        backward = Timer("t")
        for part in parts:
            forward.merge(_pooled_timer(part).snapshot())
        for part in reversed(parts):
            backward.merge(_pooled_timer(part).snapshot())
        for p in (50, 90, 99):
            assert forward.percentile(p) == backward.percentile(p)

    def test_merge_rejects_subbucket_mismatch(self):
        t = Timer("t")
        bad = _pooled_timer([0.1]).snapshot()
        bad["subbuckets"] = SUBBUCKETS * 2
        with pytest.raises(ValueError):
            t.merge(bad)

    def test_zero_and_negative_samples_merge(self):
        a = Timer("t")
        a.record(0.0)
        a.record(-1e-9)
        b = Timer("t")
        b.record(0.5)
        b.merge(a.snapshot())
        assert b.count == 3
        assert b.percentile(0) == a.minimum
        assert b.percentile(100) == 0.5

    def test_percentile_relative_error_bound(self):
        # The sketch guarantees relative error <= 2^(1/SUBBUCKETS) - 1
        # (values clamped to exact min/max at the extremes).
        bound = 2.0 ** (1.0 / SUBBUCKETS) - 1.0
        rng = np.random.default_rng(5)
        samples = np.sort(rng.uniform(1e-6, 1.0, size=2001))
        t = _pooled_timer(samples)
        for p in (10, 50, 90):
            exact = samples[int(np.ceil(2001 * p / 100.0)) - 1]
            assert abs(t.percentile(p) - exact) <= bound * exact + 1e-15


class TestRegistrySnapshotMerge:
    def _worked_registry(self, scale=1):
        reg = MetricsRegistry()
        reg.counter("solves").inc(3 * scale)
        reg.gauge("load").set(0.5 * scale)
        for i in range(10 * scale):
            reg.timer("lat").record((i + 1) * 1e-4)
        return reg

    def test_counter_totals_exact(self):
        parent = MetricsRegistry()
        for scale in (1, 2, 5):
            parent.merge_snapshot(self._worked_registry(scale).snapshot())
        assert parent.counter("solves").value == 3 * (1 + 2 + 5)

    def test_schema_stamp(self):
        snap = MetricsRegistry().snapshot()
        assert snap["schema"] == obs.SNAPSHOT_SCHEMA

    def test_merged_equals_pooled_run(self):
        rng = np.random.default_rng(1)
        samples = rng.uniform(1e-5, 1e-2, size=900)
        pooled = MetricsRegistry()
        for v in samples:
            pooled.timer("t").record(float(v))
            pooled.counter("n").inc()
        merged = MetricsRegistry()
        for part in np.array_split(samples, 4):
            child = MetricsRegistry()
            for v in part:
                child.timer("t").record(float(v))
                child.counter("n").inc()
            merged.merge_snapshot(child.snapshot())
        assert merged.counter("n").value == pooled.counter("n").value
        for p in (50, 90, 99):
            assert merged.timer("t").percentile(p) == pooled.timer(
                "t"
            ).percentile(p)

    def test_null_registry_merge_is_noop(self):
        null = MetricsRegistry(enabled=False)
        null.merge_snapshot(self._worked_registry().snapshot())
        assert null.snapshot()["counters"] == {}


def _mp_worker(args):
    """Record a deterministic share of samples; return the snapshot."""
    worker_id, samples = args
    registry = MetricsRegistry()
    registry.counter("work.items").inc(len(samples))
    for v in samples:
        registry.timer("work.lat").record(float(v))
    registry.event("work.done", worker=worker_id)
    return registry.snapshot()


class TestMultiprocessingMerge:
    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_merge_across_processes(self, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {method!r} unavailable")
        rng = np.random.default_rng(7)
        samples = rng.uniform(1e-5, 1e-2, size=400)
        shares = [
            (i, part.tolist())
            for i, part in enumerate(np.array_split(samples, 4))
        ]
        ctx = multiprocessing.get_context(method)
        with ctx.Pool(2) as pool:
            snapshots = pool.map(_mp_worker, shares)

        parent = MetricsRegistry()
        for snap in snapshots:
            parent.merge_snapshot(snap)

        pooled = MetricsRegistry()
        pooled.counter("work.items").inc(len(samples))
        for v in samples:
            pooled.timer("work.lat").record(float(v))

        assert parent.counter("work.items").value == len(samples)
        assert parent.timer("work.lat").count == len(samples)
        assert parent.timer("work.lat").minimum == pooled.timer(
            "work.lat"
        ).minimum
        for p in (50, 90, 99):
            assert parent.timer("work.lat").percentile(p) == pooled.timer(
                "work.lat"
            ).percentile(p)
