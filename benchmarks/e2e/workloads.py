"""The four workloads of the end-to-end benchmark.

Each workload is a class with five steps, called by ``measure.py``,
and a ``single_cpu`` flag (whether it may be pinned to one CPU):

``setup(seed)``
    Builds what every repetition reuses; timed (median of several) as
    the ``setup_s`` metric.
``inputs(state, seed, rep)``
    Derives one repetition's inputs from the seed; untimed.
``run(state, inputs, tracer)``
    The timed region: calls into the program's public API only, with
    :class:`~layers.Tracer` spans around the calls it makes itself.
``check(state, inputs, out)``
    Verifies the outputs against independent references; untimed.
``digest(state, out)``
    A JSON summary of the outputs (sensor sets, rates, array hashes)
    compared against ``expected.json`` and between traced and untraced
    runs of the same inputs.

The seed reaches the program only through generated inputs: the
``DataConfig`` seeds, the fit/holdout splits, the synthetic selection
problems, stream offsets, noise and fault positions.  What set-up builds
for ``lambda-path`` (the training set) and ``fleet-serve`` (the served
model) is the same for every seed.  Seed 0 is the configuration
recorded in ``expected.json``.

Each timed repetition is a few seconds, so a run of ``--seconds``
takes the median of several repetitions.  Fitting uses one budget λ
(the paper's Table 1 knob) rather than a bisection on the sensor
count: the bisection's probe count varies about threefold with the
input seed, which no affordable number of repetitions averages out.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.lambda_sweep import sweep_lambda
from repro.core.path_engine import LambdaPathEngine
from repro.core.pipeline import PipelineConfig, PlacementModel
from repro.core.selection import prepare_stats
from repro.experiments.config import ChipConfig, DataConfig, ExperimentSetup
from repro.experiments.data_generation import generate_dataset
from repro.monitor.faults import FaultPolicy, StuckAtFault
from repro.monitor.fleet import FleetMonitor
from repro.serve import ShardedFleet
from repro.voltage.dataset import VoltageDataset
from repro.voltage.emergencies import any_emergency
from repro.voltage.metrics import detection_error_rates, mean_relative_error

from layers import children_private_mb

__all__ = ["WORKLOADS", "derived_seed"]

#: Repetitions per seed before derived seeds of neighbouring seeds meet.
REP_STRIDE = 10_000

#: Chip and workload parameters shared by the full-size profiles: the
#: paper's 8-core, 240-block chip and all 19 benchmarks, with shorter
#: traces than the paper's 1,100 steps so a repetition takes seconds.
_PAPER_CHIP = ChipConfig()
_FAST_CHIP = ChipConfig(
    core_cols=2, core_rows=1, template="small", grid_pitch=0.2, pad_pitch=1.5
)
_FAST_BENCHMARKS = ("x264", "canneal", "swaptions", "dedup")


def derived_seed(seed: int, rep: int) -> int:
    """Seed of repetition ``rep`` of run seed ``seed`` (0 for ``(0, 0)``)."""
    return seed * REP_STRIDE + rep


def _with_seed(setup: ExperimentSetup, k: int) -> ExperimentSetup:
    """``setup`` with both data seeds shifted by derived seed ``k``."""
    return replace(
        setup,
        train=replace(setup.train, seed=setup.train.seed + 7919 * k),
        eval=replace(setup.eval, seed=setup.eval.seed + 7919 * k),
    )


def _data(steps: int, n_samples: int, seed: int,
          benchmarks: Optional[Sequence[str]] = None, record_every: int = 2,
          warmup: int = 40) -> DataConfig:
    kwargs: Dict[str, Any] = {}
    if benchmarks is not None:
        kwargs["benchmarks"] = tuple(benchmarks)
    return DataConfig(
        steps_per_benchmark=steps, warmup_steps=warmup,
        record_every=record_every, n_samples=n_samples, seed=seed, **kwargs,
    )


def _sha(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def _check(name: str, ok: bool, detail: Any = None) -> Dict[str, Any]:
    return {"name": name, "ok": bool(ok), "detail": detail}


def _solver_checks(models: Sequence[PlacementModel]) -> List[Dict[str, Any]]:
    """Every scope solve converged and respects its budget."""
    unconverged, over_budget = [], []
    for model in models:
        for scope in model.scopes:
            gl = scope.selection.gl_result
            where = [model.config.budget, scope.core_index]
            if not gl.converged:
                unconverged.append(where)
            if gl.norm_sum() > gl.budget * (1.0 + model.config.rtol) + 1e-12:
                over_budget.append(where)
    return [
        _check("gl_converged", not unconverged, unconverged),
        _check("gl_within_budget", not over_budget, over_budget),
    ]


def _lstsq_predict(X: np.ndarray, F: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Reference OLS-with-intercept predictions of ``F`` from ``X[:, cols]``."""
    A = np.column_stack([X[:, cols], np.ones(X.shape[0])])
    sol, *_ = np.linalg.lstsq(A, F, rcond=None)
    return A @ sol


def _refit_checks(data: VoltageDataset, model: PlacementModel,
                  fallbacks: Dict[int, PlacementModel]) -> List[Dict[str, Any]]:
    """OLS refits and leave-one-out fallbacks against ``np.linalg.lstsq``."""
    worst_fit = 0.0
    worst_fallback = 0.0
    for scope in model.scopes:
        X = data.X[:, scope.candidate_cols]
        F = data.F[:, scope.block_cols]
        ref = _lstsq_predict(X, F, scope.selection.selected)
        got = scope.predictor.predict_from_candidates(X)
        worst_fit = max(worst_fit, float(np.max(np.abs(got - ref))))
        for position, col in enumerate(scope.selected_cols):
            keep = np.delete(scope.selection.selected, position)
            fb = fallbacks[int(col)]
            got = fb.predict(data.X)[:, scope.block_cols]
            if keep.size:
                ref = _lstsq_predict(X, F, keep)
            else:
                ref = np.broadcast_to(F.mean(axis=0), F.shape)
            worst_fallback = max(worst_fallback, float(np.max(np.abs(got - ref))))
    return [
        _check("ols_refit_matches_lstsq", worst_fit <= 1e-6, worst_fit),
        _check("fallbacks_match_lstsq",
               len(fallbacks) == model.n_sensors and worst_fallback <= 1e-6,
               worst_fallback),
    ]


def _scope_vmin(model: PlacementModel, readings: np.ndarray) -> np.ndarray:
    """Reference minimum block prediction from ``(N, Q)`` sensor readings.

    Evaluates each scope's own OLS predictor on its sensors' columns —
    the per-scope path, independent of the fleet's compiled gemm.
    """
    cols = model.sensor_candidate_cols
    out = np.full(readings.shape[0], np.inf)
    for scope in model.scopes:
        pos = np.searchsorted(cols, scope.selected_cols)
        pred = scope.predictor.predict(readings[:, pos])
        out = np.minimum(out, pred.min(axis=1))
    return out


# ----------------------------------------------------------------------
# paper-e2e
# ----------------------------------------------------------------------

@dataclass
class _PaperInputs:
    setup: ExperimentSetup
    offsets: np.ndarray


class PaperE2E:
    """The paper's pipeline, generation to runtime monitoring."""

    name = "paper-e2e"
    single_cpu = True

    def __init__(self, quick: bool) -> None:
        if quick:
            self.setup_cfg = ExperimentSetup(
                chip=_FAST_CHIP,
                train=_data(80, 300, 2015, _FAST_BENCHMARKS, record_every=1, warmup=20),
                eval=_data(80, 300, 7151, _FAST_BENCHMARKS, record_every=1, warmup=20),
                name="e2e-paper-quick",
            )
            self.n_streams = 16
        else:
            self.setup_cfg = ExperimentSetup(
                chip=_PAPER_CHIP,
                train=_data(160, 1200, 2015),
                eval=_data(160, 1200, 7151),
                name="e2e-paper",
            )
            self.n_streams = 64
        self.budget = 1.0

    def setup(self, seed: int) -> None:
        return None

    def inputs(self, state: None, seed: int, rep: int) -> _PaperInputs:
        k = derived_seed(seed, rep)
        rng = np.random.default_rng([seed, rep, 1])
        return _PaperInputs(
            setup=_with_seed(self.setup_cfg, k),
            offsets=rng.integers(0, 1 << 30, size=self.n_streams),
        )

    def run(self, state: None, inp: _PaperInputs, tracer) -> Dict[str, Any]:
        data = generate_dataset(inp.setup)
        config = PipelineConfig(budget=self.budget)
        model = LambdaPathEngine(data.train, config).fit(self.budget)
        fallbacks = model.fallback_models()
        threshold = data.chip.config.emergency_threshold

        rates = []
        for name in data.eval.benchmark_names:
            with tracer.span("voltage.score"):
                sub = data.eval.subset_benchmark(name)
                truth = any_emergency(sub.F, threshold)
            alarm = model.alarm(sub.X, threshold)
            with tracer.span("voltage.score"):
                rates.append(detection_error_rates(truth, alarm))

        readings = data.eval.X[:, model.sensor_candidate_cols]
        n = readings.shape[0]
        rows = (inp.offsets[:, None] + np.arange(n)[None, :]) % n
        streams = readings[rows]
        v_min = np.empty(rows.shape)
        with tracer.span("monitor.build"):
            fleet = FleetMonitor(model, threshold, n_streams=self.n_streams)
        with tracer.span("monitor.batch"):
            flags = fleet.run_batch(streams, v_min_out=v_min)
        with tracer.span("monitor.finish"):
            stats = fleet.finish()
        return {
            "data": data, "model": model, "fallbacks": fallbacks,
            "rates": rates, "threshold": threshold, "rows": rows,
            "flags": flags, "v_min": v_min, "stats": stats,
        }

    def check(self, state: None, inp: _PaperInputs,
              out: Dict[str, Any]) -> List[Dict[str, Any]]:
        data, model = out["data"], out["model"]
        checks = _solver_checks([model])
        checks += _refit_checks(data.train, model, out["fallbacks"])
        rates_ok = all(
            0.0 <= r.total <= 1.0 and (np.isnan(r.miss) or 0.0 <= r.miss <= 1.0)
            for r in out["rates"]
        )
        checks.append(_check("table2_rates_valid", rates_ok))
        readings = data.eval.X[:, model.sensor_candidate_cols]
        ref = _scope_vmin(model, readings)[out["rows"]]
        err = float(np.max(np.abs(out["v_min"] - ref)))
        checks.append(_check("monitor_vmin_matches_reference", err <= 1e-9, err))
        checks.append(_check(
            "monitor_flags_match_vmin",
            bool(np.array_equal(out["flags"], out["v_min"] < out["threshold"])),
        ))
        return checks

    def digest(self, state: None, out: Dict[str, Any]) -> Dict[str, Any]:
        data, model = out["data"], out["model"]
        me = [r.miss for r in out["rates"] if not np.isnan(r.miss)]
        te = [r.total for r in out["rates"]]
        return {
            "x_sha": _sha(data.train.X, data.eval.X),
            "f_sha": _sha(data.train.F, data.eval.F),
            "sensors": model.sensor_candidate_cols.tolist(),
            "eval_me": float(np.mean(me)) if me else None,
            "eval_te": float(np.mean(te)),
            "rel_err": float(mean_relative_error(model.predict(data.eval.X),
                                                 data.eval.F)),
            "alarm_cycles": int(out["stats"].alarm_cycles),
            "flags_sha": _sha(out["flags"], out["v_min"]),
        }


# ----------------------------------------------------------------------
# lambda-path
# ----------------------------------------------------------------------

class LambdaPath:
    """The Table 1 λ sweep over the six paper budgets.

    The training set is generated in set-up and is the same for every
    seed; each repetition's input is the seed of the fit/holdout split.
    Over eight inputs, the sweep's iteration count varied by 6 % between
    splits of one training set and by 12 % between training sets.
    """

    name = "lambda-path"
    single_cpu = True

    def __init__(self, quick: bool) -> None:
        if quick:
            self.setup_cfg = ExperimentSetup(
                chip=_FAST_CHIP,
                train=_data(80, 300, 2015, _FAST_BENCHMARKS, record_every=1, warmup=20),
                eval=_data(80, 40, 7151, ("x264",), record_every=1, warmup=20),
                name="e2e-lambda-quick",
            )
            self.budgets: Tuple[float, ...] = (1.0, 2.0)
        else:
            # Two cores of the paper's chip on a 0.3 mm grid (about 80
            # candidates and 30 blocks per core) keep one sweep near 1.5 s.
            self.setup_cfg = ExperimentSetup(
                chip=replace(_PAPER_CHIP, core_cols=2, core_rows=1, grid_pitch=0.3),
                train=_data(160, 1000, 2015),
                eval=_data(160, 80, 7151, ("x264",)),
                name="e2e-lambda",
            )
            self.budgets = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0)

    def setup(self, seed: int) -> VoltageDataset:
        return generate_dataset(self.setup_cfg).train

    def inputs(self, train: VoltageDataset, seed: int, rep: int) -> int:
        return derived_seed(seed, rep)

    def run(self, train: VoltageDataset, split_seed: int, tracer) -> List[Any]:
        return sweep_lambda(train, self.budgets, rng=split_seed)

    def check(self, train: VoltageDataset, split_seed: int,
              points: List[Any]) -> List[Dict[str, Any]]:
        checks = _solver_checks([p.model for p in points])
        errors = [p.relative_error for p in points]
        checks.append(_check(
            "holdout_error_finite",
            all(np.isfinite(e) and e < 0.1 for e in errors), errors,
        ))
        return checks

    def digest(self, train: VoltageDataset, points: List[Any]) -> Dict[str, Any]:
        return {
            "sets": [p.model.sensor_candidate_cols.tolist() for p in points],
            "rel_err": [float(p.relative_error) for p in points],
            "mean_rel_err": float(np.mean([p.relative_error for p in points])),
        }


# ----------------------------------------------------------------------
# screen-large-m
# ----------------------------------------------------------------------

class ScreenLargeM:
    """Strong-rule screened λ-path where the dense Gram cannot fit.

    Each repetition solves a fresh synthetic problem, drawn untimed as
    its input.  With one problem per seed, the seed-to-seed difference
    in solver work made up most of the run-to-run spread.
    """

    name = "screen-large-m"
    single_cpu = True

    def __init__(self, quick: bool) -> None:
        # 50,000 candidates: the dense Gram would need 18.6 GiB, more
        # than the bench host's memory, so only the screened path runs.
        # At 100,000 one repetition took about 7 s and 1.35 GB, too long
        # for five repetitions in a run.
        self.n_candidates = 20_000 if quick else 50_000
        self.n_samples = 320
        self.n_blocks = 4
        self.n_active = 8
        self.budgets = (0.5, 1.0, 2.0, 3.0)

    def setup(self, seed: int) -> None:
        return None

    def inputs(self, state: None, seed: int, rep: int) -> VoltageDataset:
        rng = np.random.default_rng([seed, rep, 2])
        n, m, k = self.n_samples, self.n_candidates, self.n_blocks
        Z = rng.standard_normal((n, m))
        active = rng.choice(m, size=self.n_active, replace=False)
        coef = np.zeros((k, m))
        coef[:, active] = rng.standard_normal((k, self.n_active))
        G = Z @ coef.T + 0.01 * rng.standard_normal((n, k))
        return VoltageDataset(
            X=Z, F=G,
            candidate_nodes=np.arange(m), candidate_cores=np.zeros(m, dtype=int),
            critical_nodes=np.arange(k), block_names=[f"b{i}" for i in range(k)],
            block_cores=np.zeros(k, dtype=int),
            benchmark_of_sample=np.zeros(n, dtype=int),
            benchmark_names=["synthetic"],
        )

    def run(self, state: None, dataset: VoltageDataset,
            tracer) -> List[PlacementModel]:
        config = PipelineConfig(
            budget=self.budgets[0], per_core=False, screen=True
        )
        return LambdaPathEngine(dataset, config).fit_path(self.budgets)

    def check(self, state: None, dataset: VoltageDataset,
              models: List[PlacementModel]) -> List[Dict[str, Any]]:
        checks = _solver_checks(models)
        # Exact KKT audit against lazy statistics of the same
        # standardization the engine uses: an inactive group whose dual
        # residual norm exceeds the penalty is one the screen dropped and
        # the safeguard failed to re-admit.
        _, _, stats = prepare_stats(dataset.X, dataset.F, lazy=True)
        uncaught = 0
        for model in models:
            res = model.scopes[0].selection.gl_result
            if res.penalty <= 0:
                continue
            active = res.active_groups()
            norms = np.linalg.norm(stats.dual_residual(res.coef, active), axis=1)
            inactive = np.ones(norms.shape[0], dtype=bool)
            inactive[active] = False
            uncaught += int(np.sum(norms[inactive] > res.penalty * (1.0 + 1e-6)))
        checks.append(_check("kkt_audit_clean", uncaught == 0, uncaught))
        return checks

    def digest(self, state: None,
               models: List[PlacementModel]) -> Dict[str, Any]:
        return {"sets": [m.sensor_candidate_cols.tolist() for m in models]}


# ----------------------------------------------------------------------
# fleet-serve
# ----------------------------------------------------------------------

@dataclass
class _FleetState:
    model: PlacementModel
    base: np.ndarray
    threshold: float
    policy: FaultPolicy


@dataclass
class _FleetInputs:
    frames: np.ndarray
    faults: Dict[int, StuckAtFault]


class FleetServe:
    """Replay of recorded streams as fast as they are served, in process
    and sharded.

    In process, ``run_batch`` takes one 32-tick slot per call, the grain
    every shard worker serves.  Sharded, the replay is pipelined as in
    ``benchmarks/serve_bench.py``: every slot is submitted (with ring
    backpressure) before the remaining results are drained.
    """

    name = "fleet-serve"
    #: The shard processes inherit the CPU mask, so no pinning here.
    single_cpu = False
    #: Every ``FAULT_EVERY``-th stream gets one stuck-at sensor.
    FAULT_EVERY = 16
    CHUNK = 32

    def __init__(self, quick: bool) -> None:
        # 4,096 cycles are 128 slots, enough for a p90 slot latency with
        # ten samples beyond it.  At 128 streams x 32,768 cycles one
        # repetition's input alone is 0.5 GB and a repetition takes about
        # 30 s; 64 streams keep four repetitions inside one run.
        if quick:
            self.setup_cfg = ExperimentSetup(
                chip=_FAST_CHIP,
                train=_data(80, 300, 2015, _FAST_BENCHMARKS, record_every=1, warmup=20),
                eval=_data(80, 300, 7151, _FAST_BENCHMARKS, record_every=1, warmup=20),
                name="e2e-fleet-quick",
            )
            self.n_streams, self.n_cycles = 32, 4096
        else:
            self.setup_cfg = ExperimentSetup(
                chip=_PAPER_CHIP,
                train=_data(80, 300, 2015),
                eval=_data(80, 300, 7151),
                name="e2e-fleet",
            )
            self.n_streams, self.n_cycles = 64, 4096
        self.budget = 1.0
        self.n_shards = min(2, os.cpu_count() or 1)

    def setup(self, seed: int) -> _FleetState:
        # The served model is the same for every seed; the seed varies
        # the traffic.  A model fitted per seed placed 14 to 17 sensors,
        # which moved time and memory by about a tenth between seeds.
        data = generate_dataset(self.setup_cfg)
        model = LambdaPathEngine(data.train, PipelineConfig(budget=self.budget)).fit(
            self.budget
        )
        base = np.ascontiguousarray(data.eval.X[:, model.sensor_candidate_cols])
        return _FleetState(
            model=model,
            base=base,
            threshold=data.chip.config.emergency_threshold,
            policy=FaultPolicy(
                v_lo=float(base.min()) - 0.05, v_hi=float(base.max()) + 0.05,
                frozen_window=8, frozen_eps=0.0,
            ),
        )

    def inputs(self, state: _FleetState, seed: int, rep: int) -> _FleetInputs:
        rng = np.random.default_rng([seed, rep, 3])
        n, q = state.base.shape
        s, t = self.n_streams, self.n_cycles
        offsets = rng.integers(0, n, size=s)
        rows = (offsets[:, None] + np.arange(t)[None, :]) % n
        frames = state.base[rows] + rng.normal(0.0, 2e-4, size=(s, t, q))
        faults = {}
        for stream in range(0, s, self.FAULT_EVERY):
            start = int(rng.integers(t // 8, t // 2))
            channel = int(rng.integers(q))
            fault = StuckAtFault(
                channel=channel, start=start, value=float(frames[stream, start, channel])
            )
            frames[stream] = fault.apply(frames[stream])
            faults[stream] = fault
        return _FleetInputs(frames=np.ascontiguousarray(frames), faults=faults)

    def run(self, state: _FleetState, inp: _FleetInputs, tracer) -> Dict[str, Any]:
        frames = inp.frames
        s, t, _ = frames.shape
        chunk = self.CHUNK

        with tracer.span("monitor.build"):
            fleet = FleetMonitor(
                state.model, state.threshold, n_streams=s, policy=state.policy
            )
        with tracer.span("monitor.batch"):
            v_min = np.empty((s, t))
            flags = np.empty((s, t), dtype=bool)
            chunk_ns = []
            for lo in range(0, t, chunk):
                t0 = time.perf_counter_ns()
                flags[:, lo:lo + chunk] = fleet.run_batch(
                    frames[:, lo:lo + chunk], v_min_out=v_min[:, lo:lo + chunk]
                )
                chunk_ns.append(time.perf_counter_ns() - t0)
        with tracer.span("monitor.finish"):
            stats = fleet.finish()

        with tracer.span("serve.spawn"):
            sharded = ShardedFleet(
                state.model, state.threshold, n_streams=s, n_shards=self.n_shards,
                policy=state.policy, slot_ticks=chunk,
            )
        with sharded:
            with tracer.span("serve.io"):
                sharded.submit(frames)
                sharded.drain()
            with tracer.span("serve.finish"):
                # Read while the workers are alive: finish() joins them.
                shards_read, shard_mb = children_private_mb()
                slots = sharded.take_completed()
                result = sharded.finish()
                s_flags = np.zeros((s, t), dtype=bool)
                s_v_min = np.full((s, t), np.nan)
                for base, n_ticks, flags_i, v_min_i, _ in slots:
                    s_flags[:, base:base + n_ticks] = flags_i
                    s_v_min[:, base:base + n_ticks] = v_min_i
        return {
            "flags": flags, "v_min": v_min, "stats": stats,
            "failures": [list(f) for f in fleet.failures],
            "chunk_ns": chunk_ns, "slot_ns": result.latencies_ns,
            "s_flags": s_flags, "s_v_min": s_v_min, "result": result,
            "child_mb": shard_mb, "children_read": shards_read,
        }

    def check(self, state: _FleetState, inp: _FleetInputs,
              out: Dict[str, Any]) -> List[Dict[str, Any]]:
        s, t, _ = inp.frames.shape
        result = out["result"]
        healthy = np.array([i for i in range(s) if i not in inp.faults])
        readings = inp.frames[healthy].reshape(-1, inp.frames.shape[2])
        ref = _scope_vmin(state.model, readings).reshape(healthy.size, t)
        err = float(np.max(np.abs(out["v_min"][healthy] - ref)))
        failed_over = {i for i, f in enumerate(out["failures"]) if f}
        s_failed_over = {i for i, f in enumerate(result.failures) if f}
        return [
            _check("monitor_vmin_matches_reference", err <= 1e-9, err),
            _check("sharded_bit_identical", bool(
                np.array_equal(out["flags"], out["s_flags"])
                and np.array_equal(out["v_min"], out["s_v_min"])
            )),
            _check("no_dropped_frames", result.frames == s * t,
                   [result.frames, s * t]),
            _check("failovers_equal_faulted_streams",
                   failed_over == set(inp.faults)
                   and s_failed_over == set(inp.faults)
                   and out["stats"].failovers == len(inp.faults),
                   [sorted(failed_over), sorted(s_failed_over), sorted(inp.faults)]),
            _check("shard_memory_read", out["children_read"] == self.n_shards,
                   [out["children_read"], self.n_shards]),
        ]

    def digest(self, state: _FleetState, out: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "flags_sha": _sha(out["flags"], out["v_min"]),
            "failures": [
                [f.stream, f.cycle, f.candidate_col]
                for stream in out["failures"] for f in stream
            ],
            "alarm_cycles": int(out["stats"].alarm_cycles),
            "events": int(out["stats"].events),
        }


#: Workload name -> class, in the order the benchmark runs them.
WORKLOADS = {cls.name: cls for cls in (PaperE2E, LambdaPath, ScreenLargeM, FleetServe)}
