"""Scenario-sweep harness: surrogate screening + exact top-k verification.

The loop the ROADMAP's "massive scenario coverage" item asks for:

1. **Train** — sample a modest scenario set, evaluate it *exactly*
   (grouped lockstep batches per grid variant), fit the surrogate on
   one split and split-conformal-calibrate it on another
   (:mod:`repro.surrogate.calibrate`).
2. **Screen** — sample a large scenario pool and rank every scenario
   by the surrogate's predicted worst-case droop.  No transient solve
   happens here, so the pool can be orders of magnitude larger than
   anything the exact engine could sweep.
3. **Verify** — re-evaluate the predicted top-k with the exact engine,
   check every exact droop against the reported bounds (guard-bound
   violations are the hard failure), and report surrogate-vs-exact
   rank agreement.

``exact_pool=True`` additionally exact-evaluates the *entire* pool, so
tests and benchmarks can measure true top-k recall and whether the
true worst case was screened in — affordable on the fast profile,
exactly what the surrogate exists to avoid at scale.

Instrumentation: ``surrogate.train`` / ``surrogate.predict`` timers,
``sweep.verified_topk`` / ``sweep.bound_violations`` /
``sweep.guard_violations`` counters, ``surrogate.exact_scenarios``
from the exact batches.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.experiments.config import DataConfig
from repro.experiments.data_generation import ChipModel
from repro.obs import get_registry, span
from repro.surrogate.calibrate import (
    ConformalCalibration,
    conformal_calibrate,
    empirical_coverage,
)
from repro.surrogate.features import FeatureExtractor
from repro.surrogate.model import PatchConvRegressor
from repro.surrogate.scenarios import (
    Scenario,
    ScenarioSpace,
    exact_worst_droop,
    scenario_power,
)
from repro.utils.rng import seed_for

__all__ = ["SweepConfig", "ScenarioVerdict", "SweepResult", "run_sweep"]


@dataclass(frozen=True)
class SweepConfig:
    """Knobs of one surrogate sweep.

    Attributes
    ----------
    n_train:
        Exact-simulated scenarios used for fitting + calibration.
    calibration_fraction:
        Share of the training scenarios held out for conformal
        calibration (split by scenario, preserving exchangeability).
    n_pool:
        Scenarios screened by the surrogate.
    top_k:
        Screened scenarios re-verified by the exact engine.
    alpha:
        Nominal miscoverage of the per-block conformal bounds.
    guard_margin:
        Safety factor of the guard bound (see
        :mod:`repro.surrogate.calibrate`).
    seed:
        Master seed; train/pool samples derive from it.
    exact_pool:
        Exact-evaluate the whole pool as well (recall measurement).
    screen_chunk:
        Scenarios featurized+predicted per batch during screening
        (bounds transient memory; no effect on results).
    dc_features:
        Include the per-variant DC droop-map features (cost scales
        with grid nodes; disable on dense grids to keep screening
        O(blocks) per scenario).
    """

    n_train: int = 120
    calibration_fraction: float = 0.35
    n_pool: int = 600
    top_k: int = 10
    alpha: float = 0.1
    guard_margin: float = 1.25
    seed: int = 0
    exact_pool: bool = False
    screen_chunk: int = 64
    dc_features: bool = True

    def __post_init__(self) -> None:
        if self.n_train < 8:
            raise ValueError("n_train must be >= 8 (fit + calibration splits)")
        if not 0.1 <= self.calibration_fraction <= 0.9:
            raise ValueError("calibration_fraction must be in [0.1, 0.9]")
        if self.n_pool < 1:
            raise ValueError("n_pool must be >= 1")
        if not 1 <= self.top_k <= self.n_pool:
            raise ValueError("top_k must be in [1, n_pool]")
        if self.screen_chunk < 1:
            raise ValueError("screen_chunk must be >= 1")


@dataclass
class ScenarioVerdict:
    """One exact-verified scenario of the predicted top-k."""

    rank: int
    scenario: Scenario
    predicted_worst: float
    bound_worst: float
    exact_worst: float
    nominal_violations: int
    guard_violations: int


@dataclass
class SweepResult:
    """Everything one sweep produced (see :func:`run_sweep`)."""

    config: SweepConfig
    n_blocks: int
    calibration: ConformalCalibration
    coverage: Dict[str, float]
    fit_error_rms: float
    #: Screening phase.
    pool_scores: np.ndarray
    pool_bounds: np.ndarray
    screen_s: float
    train_s: float
    #: Verification phase.
    verdicts: List[ScenarioVerdict]
    verify_s: float
    rank_agreement: float
    #: Whole-pool exact evaluation (``exact_pool=True`` only).
    exact_scores: Optional[np.ndarray] = None
    exact_pool_s: float = 0.0
    extras: Dict[str, float] = field(default_factory=dict)

    # -- derived ------------------------------------------------------
    @property
    def topk_indices(self) -> np.ndarray:
        """Pool indices of the predicted top-k, worst first."""
        k = self.config.top_k
        order = np.argsort(-self.pool_scores, kind="stable")
        return order[:k]

    @property
    def guard_violations(self) -> int:
        """Exact droops outside the guard band among verified top-k."""
        return sum(v.guard_violations for v in self.verdicts)

    @property
    def nominal_violations(self) -> int:
        """Exact droops outside the nominal band among verified top-k."""
        return sum(v.nominal_violations for v in self.verdicts)

    def recall_at_k(self) -> Optional[float]:
        """|predicted top-k ∩ true top-k| / k (needs ``exact_pool``)."""
        if self.exact_scores is None:
            return None
        k = self.config.top_k
        true_top = set(np.argsort(-self.exact_scores, kind="stable")[:k].tolist())
        pred_top = set(self.topk_indices.tolist())
        return len(true_top & pred_top) / k

    def worst_case_hit(self) -> Optional[bool]:
        """True worst scenario inside the predicted top-k?"""
        if self.exact_scores is None:
            return None
        return int(np.argmax(self.exact_scores)) in set(
            self.topk_indices.tolist()
        )

    def screen_rate(self) -> float:
        """Surrogate screening throughput in scenarios/minute."""
        return self.config.n_pool / max(self.screen_s, 1e-12) * 60.0

    def exact_rate(self) -> float:
        """Exact-engine throughput in scenarios/minute.

        Measured on the whole-pool evaluation when available (largest
        sample), else on the verification batch.
        """
        if self.exact_scores is not None and self.exact_pool_s > 0:
            return len(self.exact_scores) / self.exact_pool_s * 60.0
        return len(self.verdicts) / max(self.verify_s, 1e-12) * 60.0

    def speedup(self) -> float:
        """Screening rate over exact rate (scenarios/minute ratio)."""
        return self.screen_rate() / max(self.exact_rate(), 1e-12)

    def report(self) -> Dict:
        """JSON-ready summary (feeds the ``surrogate`` bench mode)."""
        doc: Dict = {
            "model": PatchConvRegressor.kind,
            "seed": self.config.seed,
            "n_blocks": self.n_blocks,
            "train": {
                "n_train": self.config.n_train,
                "train_s": self.train_s,
                "fit_error_rms": self.fit_error_rms,
                "calibration": self.calibration.to_dict(),
                "coverage": self.coverage,
            },
            "screen": {
                "n_pool": self.config.n_pool,
                "screen_s": self.screen_s,
                "scenarios_per_min": self.screen_rate(),
                "topk_indices": [int(i) for i in self.topk_indices],
            },
            "verify": {
                "top_k": self.config.top_k,
                "verify_s": self.verify_s,
                "rank_agreement": self.rank_agreement,
                "nominal_violations": self.nominal_violations,
                "guard_violations": self.guard_violations,
                "verdicts": [
                    {
                        "rank": v.rank,
                        "scenario": v.scenario.key(),
                        "predicted_worst": v.predicted_worst,
                        "bound_worst": v.bound_worst,
                        "exact_worst": v.exact_worst,
                        "nominal_violations": v.nominal_violations,
                        "guard_violations": v.guard_violations,
                    }
                    for v in self.verdicts
                ],
            },
        }
        if self.exact_scores is not None:
            doc["exact_pool"] = {
                "n_scenarios": int(len(self.exact_scores)),
                "exact_pool_s": self.exact_pool_s,
                "scenarios_per_min": self.exact_rate(),
                "recall_at_k": self.recall_at_k(),
                "worst_case_hit": bool(self.worst_case_hit()),
            }
        doc.update(self.extras)
        return doc


def _spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman rank correlation (ties broken by order; small n)."""
    if len(a) < 2:
        return 1.0
    ra = np.argsort(np.argsort(a, kind="stable"), kind="stable")
    rb = np.argsort(np.argsort(b, kind="stable"), kind="stable")
    ra = ra - ra.mean()
    rb = rb - rb.mean()
    denom = np.sqrt((ra * ra).sum() * (rb * rb).sum())
    return float((ra * rb).sum() / denom) if denom > 0 else 1.0


def run_sweep(
    chip: ChipModel,
    space: ScenarioSpace,
    data: DataConfig,
    config: SweepConfig = SweepConfig(),
) -> SweepResult:
    """Run one full train → screen → verify sweep on ``chip``.

    Parameters
    ----------
    chip:
        The nominal chip model (variants derive from its grid).
    space:
        Scenario distribution (workloads × variants).
    data:
        Step geometry every scenario is simulated/featurized with.
    config:
        Sweep knobs.
    """
    registry = get_registry()
    extractor = FeatureExtractor(
        chip, space.variants, data, use_dc=config.dc_features
    )
    n_blocks = extractor.n_blocks
    solvers: Dict[int, "object"] = {}

    # ------------------------------------------------------------- train
    with span("surrogate.train_phase", n_train=config.n_train):
        t0 = time.perf_counter()
        with registry.timer("surrogate.train").time():
            train_scenarios = space.sample(
                config.n_train, seed_for(f"sweep-train-{config.seed}")
            )
            powers = [scenario_power(chip, sc, data) for sc in train_scenarios]
            droops = exact_worst_droop(
                chip, train_scenarios, space.variants, data,
                powers=powers, solvers=solvers,
            )
            X = extractor.extract_batch(train_scenarios, powers=powers)
            y = droops.reshape(-1)
            ids = extractor.block_ids(len(train_scenarios))

            n_cal = max(4, int(round(config.n_train * config.calibration_fraction)))
            n_fit = config.n_train - n_cal
            if n_fit < 4:
                raise ValueError(
                    f"n_train={config.n_train} leaves only {n_fit} fit "
                    "scenarios; lower calibration_fraction or raise n_train"
                )
            fit_rows = slice(0, n_fit * n_blocks)
            cal_rows = slice(n_fit * n_blocks, None)

            model = PatchConvRegressor()
            model.fit(X[fit_rows], y[fit_rows])
            fit_pred = model.predict(X[fit_rows])
            fit_error_rms = float(
                np.sqrt(np.mean((fit_pred - y[fit_rows]) ** 2))
            )
            cal_pred = model.predict(X[cal_rows])
            calibration = conformal_calibrate(
                cal_pred, y[cal_rows], ids[cal_rows], n_blocks,
                alpha=config.alpha, guard_margin=config.guard_margin,
            )
            coverage = empirical_coverage(
                calibration, cal_pred, y[cal_rows], ids[cal_rows]
            )
        train_s = time.perf_counter() - t0
        del powers, X, y

    # ------------------------------------------------------------ screen
    pool = space.sample(config.n_pool, seed_for(f"sweep-pool-{config.seed}"))
    pool_scores = np.empty(config.n_pool)
    pool_bounds = np.empty(config.n_pool)
    block_ids_one = np.arange(n_blocks)
    with span("surrogate.screen_phase", n_pool=config.n_pool):
        t0 = time.perf_counter()
        with registry.timer("surrogate.predict").time():
            for lo in range(0, config.n_pool, config.screen_chunk):
                chunk = pool[lo : lo + config.screen_chunk]
                feats = extractor.extract_batch(chunk)
                preds = model.predict(feats).reshape(len(chunk), n_blocks)
                uppers = calibration.upper(
                    preds.reshape(-1), np.tile(block_ids_one, len(chunk))
                ).reshape(len(chunk), n_blocks)
                pool_scores[lo : lo + len(chunk)] = preds.max(axis=1)
                pool_bounds[lo : lo + len(chunk)] = uppers.max(axis=1)
        screen_s = time.perf_counter() - t0
    registry.counter("sweep.screened").inc(config.n_pool)

    # ------------------------------------------------------------ verify
    order = np.argsort(-pool_scores, kind="stable")
    topk = order[: config.top_k]
    with span("surrogate.verify_phase", top_k=config.top_k):
        t0 = time.perf_counter()
        topk_scenarios = [pool[i] for i in topk]
        exact_topk = exact_worst_droop(
            chip, topk_scenarios, space.variants, data, solvers=solvers
        )
        verify_s = time.perf_counter() - t0

    verdicts: List[ScenarioVerdict] = []
    for rank, (pool_idx, exact_row) in enumerate(zip(topk, exact_topk)):
        sc = pool[pool_idx]
        feats = extractor.extract(sc)
        pred_row = model.predict(feats)
        lo_b = calibration.lower(pred_row, block_ids_one)
        hi_b = calibration.upper(pred_row, block_ids_one)
        nominal_viol = int(np.sum((exact_row < lo_b) | (exact_row > hi_b)))
        guard_viol = int(
            np.sum(
                (exact_row < calibration.guard_lower(pred_row))
                | (exact_row > calibration.guard_upper(pred_row))
            )
        )
        verdicts.append(
            ScenarioVerdict(
                rank=rank,
                scenario=sc,
                predicted_worst=float(pred_row.max()),
                bound_worst=float(calibration.guard_upper(pred_row).max()),
                exact_worst=float(exact_row.max()),
                nominal_violations=nominal_viol,
                guard_violations=guard_viol,
            )
        )
    registry.counter("sweep.verified_topk").inc(len(verdicts))
    registry.counter("sweep.bound_violations").inc(
        sum(v.nominal_violations for v in verdicts)
    )
    registry.counter("sweep.guard_violations").inc(
        sum(v.guard_violations for v in verdicts)
    )
    rank_agreement = _spearman(
        np.array([v.predicted_worst for v in verdicts]),
        np.array([v.exact_worst for v in verdicts]),
    )

    # -------------------------------------------------- whole-pool exact
    exact_scores: Optional[np.ndarray] = None
    exact_pool_s = 0.0
    if config.exact_pool:
        with span("surrogate.exact_pool", n_scenarios=config.n_pool):
            t0 = time.perf_counter()
            exact_all = exact_worst_droop(
                chip, pool, space.variants, data, solvers=solvers
            )
            exact_pool_s = time.perf_counter() - t0
        exact_scores = exact_all.max(axis=1)

    return SweepResult(
        config=config,
        n_blocks=n_blocks,
        calibration=calibration,
        coverage=coverage,
        fit_error_rms=fit_error_rms,
        pool_scores=pool_scores,
        pool_bounds=pool_bounds,
        screen_s=screen_s,
        train_s=train_s,
        verdicts=verdicts,
        verify_s=verify_s,
        rank_agreement=rank_agreement,
        exact_scores=exact_scores,
        exact_pool_s=exact_pool_s,
    )
