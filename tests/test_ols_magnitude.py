"""Tests for the OLS-magnitude selection baseline (Section 2.2 pitfall)."""

import numpy as np
import pytest

from repro.baselines import PlacementConstraints, get_placer
from repro.baselines.ols_magnitude import ols_magnitude_ranking
from tests.conftest import make_synthetic_dataset


def place_ols_magnitude(ds, n_sensors):
    return get_placer("ols_magnitude").place(
        ds, n_sensors, PlacementConstraints()
    ).selected_cols


class TestOLSMagnitudeSelection:
    def test_identifies_clear_driver(self):
        # With independent candidates the heuristic works fine.
        rng = np.random.default_rng(0)
        X = 0.9 + 0.01 * rng.standard_normal((300, 6))
        driver = 0.9 + 0.02 * rng.standard_normal(300)
        X[:, 3] = driver
        F = np.column_stack([driver * 1.1 - 0.09])
        sel = ols_magnitude_ranking(X, F)[:1]
        assert sel.tolist() == [3]

    def test_collinearity_splits_weight(self):
        # Two near-identical drivers: OLS splits the coefficient
        # between them, so each looks half as important as a weaker but
        # independent candidate — the paper's Section 2.2 failure mode.
        rng = np.random.default_rng(1)
        n = 500
        driver = rng.standard_normal(n)
        weak = rng.standard_normal(n)
        X = 0.9 + 0.01 * np.column_stack(
            [driver, driver + 1e-4 * rng.standard_normal(n), weak]
        )
        F = 0.9 + 0.01 * np.column_stack([driver + 0.8 * weak])
        sel = ols_magnitude_ranking(X, F)[:1]
        # The heuristic's pick is unstable here; assert only the API
        # contract (one valid column), documenting the instability.
        assert sel.shape == (1,)
        assert 0 <= sel[0] < 3

    def test_count_and_sorting(self):
        ds = make_synthetic_dataset()
        sel = place_ols_magnitude(ds, 5)
        assert sel.shape == (5 * len(ds.core_ids),)
        assert np.array_equal(sel, np.unique(sel))

    def test_rejects_too_many(self):
        ds = make_synthetic_dataset()
        with pytest.raises(ValueError, match="cannot select"):
            place_ols_magnitude(ds, ds.n_candidates + 1)


class TestFitOLSMagnitude:
    def test_per_core(self):
        ds = make_synthetic_dataset()
        cols = place_ols_magnitude(ds, 2)
        assert cols.shape[0] == 2 * len(ds.core_ids)
        for core in ds.core_ids:
            assert (ds.candidate_cores[cols] == core).sum() == 2

    def test_global(self):
        # Chip-wide, the kernel ranks every candidate exactly once.
        ds = make_synthetic_dataset()
        order = ols_magnitude_ranking(ds.X, ds.F)
        assert sorted(order.tolist()) == list(range(ds.n_candidates))
