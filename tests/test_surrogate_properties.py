"""Hypothesis property suite: the surrogate's statistical contract.

Three families of properties:

* **Coverage** — split-conformal bounds built on one exchangeable split
  achieve at least their nominal coverage on a *held-out* split, across
  seeds, miscoverage levels and heteroscedastic noise profiles (the
  distribution-free guarantee the screening pipeline rests on), and the
  guard band contains every calibration point by construction.
* **Order invariance** — feature extraction is per-scenario: permuting
  a scenario batch permutes the feature rows and nothing else.
* **Determinism** — scenario sampling, feature extraction and model
  predictions are bit-identical under a fixed seed.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.config import ChipConfig, DataConfig
from repro.experiments.data_generation import build_chip
from repro.surrogate import (
    FeatureExtractor,
    PatchConvRegressor,
    ScenarioSpace,
    conformal_calibrate,
    empirical_coverage,
    scenario_power,
)

#: Synthetic droop scale (volts) for the coverage properties.
DROOP_LO, DROOP_HI = 0.05, 0.5


def _held_out_split(seed, n_scenarios, n_blocks, noise, hetero):
    """Exchangeable (pred, actual) rows split into calibration/test.

    ``actual`` is the prediction perturbed by noise whose scale is
    ``noise`` (relative) — plus an extra component growing with the
    droop when ``hetero`` is set, the regime that broke additive
    conformal bands and motivated the scaled score.
    """
    rng = np.random.default_rng(seed)
    n = n_scenarios * n_blocks
    pred = rng.uniform(DROOP_LO, DROOP_HI, size=n)
    rel = noise * (1.0 + (2.0 * (pred - DROOP_LO) if hetero else 0.0))
    actual = pred * (1.0 + rng.normal(0, 1, size=n) * rel)
    ids = np.tile(np.arange(n_blocks), n_scenarios)
    half = n // 2
    return (
        (pred[:half], actual[:half], ids[:half]),
        (pred[half:], actual[half:], ids[half:]),
    )


class TestCoverageProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        alpha=st.sampled_from([0.05, 0.1, 0.2, 0.3]),
        noise=st.floats(0.01, 0.1),
        hetero=st.booleans(),
    )
    # Coverage 0.6233 against a test-split-only bound of 0.6252.
    @example(seed=53, alpha=0.3, noise=0.0625, hetero=True)
    def test_nominal_coverage_on_held_out_split(
        self, seed, alpha, noise, hetero
    ):
        n_blocks = 4
        cal_rows, test_rows = _held_out_split(
            seed, n_scenarios=300, n_blocks=n_blocks,
            noise=noise, hetero=hetero,
        )
        calibration = conformal_calibrate(*cal_rows, n_blocks, alpha=alpha)
        cov = empirical_coverage(calibration, *test_rows)
        # Marginal guarantee is >= 1 - alpha in expectation; allow a
        # 4-sigma fluctuation from both random draws: the held-out
        # sample's binomial noise and the per-block calibration
        # quantiles' own randomness (each block's empirical quantile
        # of n_cal scores has coverage variance ~ a(1-a)/(n_cal+2),
        # averaged over the blocks).
        n_test = cov["n_rows"]
        n_cal_per_block = cal_rows[0].size // n_blocks
        slack = 4.0 * np.sqrt(
            alpha * (1.0 - alpha)
            * (1.0 / n_test + 1.0 / (n_blocks * (n_cal_per_block + 2)))
        )
        assert cov["nominal_coverage"] >= 1.0 - alpha - slack

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        noise=st.floats(0.01, 0.15),
        hetero=st.booleans(),
    )
    def test_guard_band_contains_calibration_split(self, seed, noise, hetero):
        cal_rows, _ = _held_out_split(
            seed, n_scenarios=100, n_blocks=3, noise=noise, hetero=hetero
        )
        pred, actual, ids = cal_rows
        calibration = conformal_calibrate(pred, actual, ids, 3)
        assert np.all(actual <= calibration.guard_upper(pred))
        assert np.all(actual >= calibration.guard_lower(pred))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_band_width_shrinks_as_alpha_grows(self, seed):
        cal_rows, _ = _held_out_split(
            seed, n_scenarios=200, n_blocks=2, noise=0.05, hetero=True
        )
        pred, actual, ids = cal_rows
        tight = conformal_calibrate(pred, actual, ids, 2, alpha=0.3)
        loose = conformal_calibrate(pred, actual, ids, 2, alpha=0.05)
        probe = np.linspace(DROOP_LO, DROOP_HI, 7)
        probe_ids = np.zeros(7, dtype=int)
        assert np.all(
            tight.upper(probe, probe_ids) <= loose.upper(probe, probe_ids)
        )


# ---------------------------------------------------------------- features
#: Tiny chip/data geometry shared by the extraction properties.
_CHIP_CONFIG = ChipConfig(
    core_cols=2, core_rows=1, template="small",
    grid_pitch=0.2, pad_pitch=1.5,
)
_DATA_CONFIG = DataConfig(
    benchmarks=("x264", "canneal"),
    steps_per_benchmark=60, warmup_steps=12, record_every=2, seed=0,
)


@lru_cache(maxsize=1)
def _extractor():
    chip = build_chip(_CHIP_CONFIG)
    space = ScenarioSpace(benchmarks=_DATA_CONFIG.benchmarks)
    return chip, space, FeatureExtractor(
        chip, space.variants, _DATA_CONFIG, use_dc=True
    )


class TestFeatureProperties:
    @settings(max_examples=8, deadline=None)
    @given(
        sample_seed=st.integers(0, 10**6),
        perm_seed=st.integers(0, 10**6),
    )
    def test_extraction_invariant_to_scenario_ordering(
        self, sample_seed, perm_seed
    ):
        chip, space, extractor = _extractor()
        scenarios = space.sample(5, sample_seed)
        perm = np.random.default_rng(perm_seed).permutation(len(scenarios))

        X = extractor.extract_batch(scenarios)
        X_perm = extractor.extract_batch([scenarios[i] for i in perm])

        n_blocks = extractor.n_blocks
        rows = lambda M, i: M[i * n_blocks : (i + 1) * n_blocks]
        for out_pos, src in enumerate(perm):
            np.testing.assert_array_equal(
                rows(X_perm, out_pos), rows(X, int(src))
            )

    @settings(max_examples=8, deadline=None)
    @given(sample_seed=st.integers(0, 10**6))
    def test_extraction_deterministic(self, sample_seed):
        chip, space, extractor = _extractor()
        (scenario,) = space.sample(1, sample_seed)
        np.testing.assert_array_equal(
            extractor.extract(scenario), extractor.extract(scenario)
        )

    @settings(max_examples=6, deadline=None)
    @given(sample_seed=st.integers(0, 10**6))
    def test_precomputed_power_matches_internal_path(self, sample_seed):
        chip, space, extractor = _extractor()
        (scenario,) = space.sample(1, sample_seed)
        power = scenario_power(chip, scenario, _DATA_CONFIG)
        np.testing.assert_array_equal(
            extractor.extract(scenario, power=power),
            extractor.extract(scenario),
        )


class TestPredictionDeterminism:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_predictions_deterministic_given_seed(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(40, 6))
        y = rng.normal(size=40)
        probe = rng.normal(size=(10, 6))
        p1 = PatchConvRegressor().fit(X, y).predict(probe)
        p2 = PatchConvRegressor().fit(X.copy(), y.copy()).predict(probe.copy())
        np.testing.assert_array_equal(p1, p2)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_sampling_deterministic_given_seed(self, seed):
        space = ScenarioSpace(benchmarks=("x264",))
        assert space.sample(30, seed) == space.sample(30, seed)
