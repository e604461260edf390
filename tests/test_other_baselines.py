"""Tests for worst-noise, random, greedy-correlation and plain-lasso
baselines."""

import numpy as np
import pytest

from repro.baselines import PlacementConstraints, get_placer
from repro.baselines.correlation_greedy import greedy_correlation_order
from repro.baselines.plain_lasso import lasso_penalized
from repro.baselines.random_placement import random_selection
from repro.baselines.worst_noise import worst_noise_ranking
from tests.conftest import make_synthetic_dataset


def place(name, ds, n_sensors, seed=0):
    constraints = PlacementConstraints(seed=seed)
    return get_placer(name).place(ds, n_sensors, constraints).selected_cols


class TestWorstNoise:
    def test_picks_lowest_min(self):
        X = np.full((5, 4), 0.95)
        X[0, 2] = 0.7
        X[1, 0] = 0.8
        sel = worst_noise_ranking(X)[:2]
        assert set(sel.tolist()) == {0, 2}

    def test_per_core_fit(self):
        ds = make_synthetic_dataset()
        cols = place("worst_noise", ds, 2)
        assert cols.shape[0] == 2 * len(ds.core_ids)
        # Two sensors from each core's pool.
        assert (ds.candidate_cores[cols] == 0).sum() == 2

    def test_global_fit(self):
        # Chip-wide, the kernel's top three are the three deepest droops.
        ds = make_synthetic_dataset()
        top = worst_noise_ranking(ds.X)[:3]
        minima = ds.X.min(axis=0)
        assert set(top.tolist()) == set(np.argsort(minima)[:3].tolist())

    def test_rejects_too_many(self):
        ds = make_synthetic_dataset()
        with pytest.raises(ValueError, match="cannot select"):
            place("worst_noise", ds, ds.n_candidates + 1)


class TestRandomPlacement:
    def test_deterministic_given_seed(self):
        a = random_selection(20, 5, rng=3)
        b = random_selection(20, 5, rng=3)
        assert np.array_equal(a, b)

    def test_distinct_indices(self):
        sel = random_selection(10, 10, rng=0)
        assert sorted(sel.tolist()) == list(range(10))

    def test_per_core_fit(self):
        ds = make_synthetic_dataset()
        cols = place("random", ds, 2, seed=1)
        assert cols.shape[0] == 2 * len(ds.core_ids)

    def test_rejects_too_many(self):
        with pytest.raises(ValueError):
            random_selection(3, 4)


class TestCorrelationGreedy:
    def test_finds_driver_first(self):
        # One candidate drives all responses: it must be picked first.
        rng = np.random.default_rng(0)
        X = 0.9 + 0.01 * rng.standard_normal((200, 6))
        driver = 0.9 + 0.02 * rng.standard_normal(200)
        X[:, 4] = driver
        F = np.column_stack([driver * 0.9, driver * 1.1])
        sel = greedy_correlation_order(X, F, 1)
        assert sel.tolist() == [4]

    def test_residual_orthogonalization_avoids_duplicates(self):
        # Two identical candidates: the second adds nothing, so the
        # other informative column is chosen next.
        rng = np.random.default_rng(1)
        a = rng.standard_normal(300)
        b = rng.standard_normal(300)
        X = np.column_stack([a, a, b])
        F = np.column_stack([a + b])
        sel = greedy_correlation_order(X, F, 2)
        assert 2 in sel.tolist()

    def test_per_core_fit(self):
        ds = make_synthetic_dataset()
        cols = place("correlation", ds, 2)
        assert cols.shape[0] == 2 * len(ds.core_ids)

    def test_rejects_too_many(self):
        with pytest.raises(ValueError):
            greedy_correlation_order(np.ones((5, 2)), np.ones((5, 1)), 3)


class TestPlainLasso:
    def sparse_problem(self, seed=0):
        rng = np.random.default_rng(seed)
        Z = rng.standard_normal((300, 15))
        B = np.zeros((3, 15))
        B[0, 2] = 2.0
        B[1, 9] = -1.5
        B[2, 9] = 1.0
        G = Z @ B.T + 0.01 * rng.standard_normal((300, 3))
        return Z, G

    def test_recovers_elementwise_support(self):
        Z, G = self.sparse_problem()
        result = lasso_penalized(Z, G, mu=30.0)
        used = result.sensors_used(1e-3)
        assert set(used.tolist()) == {2, 9}

    def test_mu_zero_is_ols(self):
        Z, G = self.sparse_problem()
        result = lasso_penalized(Z, G, mu=0.0)
        ols = np.linalg.lstsq(Z, G, rcond=None)[0].T
        assert np.allclose(result.coef, ols, atol=1e-5)

    def test_elementwise_sparsity_differs_from_group(self):
        # Plain lasso can zero single entries inside a used column.
        Z, G = self.sparse_problem()
        result = lasso_penalized(Z, G, mu=30.0)
        col9 = result.coef[:, 9]
        assert np.any(col9 == 0.0) and np.any(col9 != 0.0)

    def test_rejects_bad_args(self):
        Z, G = self.sparse_problem()
        with pytest.raises(ValueError):
            lasso_penalized(Z, G, mu=-1.0)
        with pytest.raises(ValueError):
            lasso_penalized(Z, G, mu=1.0, warm_start=np.ones((1, 1)))
