"""Strong-rule screening: lazy stats, solver fidelity, path fidelity.

Screening is a heuristic backed by an exact KKT safeguard, so the
contract under test is simple: with or without it, the solver selects
the same groups and reaches the same objective (to solver tolerance),
while never materializing the dense Gram in lazy mode.
"""

import dataclasses
import time
import tracemalloc

import numpy as np
import pytest

from repro.core.group_lasso import (
    StrongRuleScreener,
    SufficientStats,
    WarmState,
    group_lasso_constrained,
    group_lasso_penalized,
)
from repro.core.lambda_sweep import sweep_lambda
from repro.core.path_engine import LambdaPathEngine
from repro.core.pipeline import PipelineConfig, fit_placement
from repro.core.selection import prepare_stats, select_sensors
from repro.obs import MetricsRegistry, use_registry

from tests.conftest import make_synthetic_dataset


def _problem(seed=0, n=300, m=60, k=4, active=(3, 17, 42), noise=0.01):
    """Standardized sparse problem; ``active`` lists the true groups or,
    as an int, how many to draw at random."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, m))
    Z -= Z.mean(axis=0)
    Z /= np.linalg.norm(Z, axis=0)
    if isinstance(active, int):
        active = rng.choice(m, size=active, replace=False)
    coef = np.zeros((k, m))
    coef[:, list(active)] = rng.standard_normal((k, len(active)))
    G = Z @ coef.T + noise * rng.standard_normal((n, k))
    return Z, G


def _uncaught_kkt(Z, G, result):
    """Inactive groups whose exact dual residual norm exceeds the penalty
    beyond solver noise: groups the screener dropped and its KKT
    safeguard should have re-admitted."""
    stats = SufficientStats.from_arrays(Z, G, lazy=True)
    active = result.active_groups()
    c_norms = np.linalg.norm(stats.dual_residual(result.coef, active), axis=1)
    inactive = np.ones(c_norms.shape[0], dtype=bool)
    inactive[active] = False
    return int(np.sum(c_norms[inactive] > result.penalty * (1.0 + 1e-6)))


def _warm_sweep(Z, G, screen):
    """Warm-started constrained sweep that builds its own statistics
    (lazy when screening), so a measurement around it sees the whole
    path, Gram included."""
    stats = SufficientStats.from_arrays(Z, G, lazy=screen)
    screener = StrongRuleScreener(stats) if screen else None
    warm = None
    for budget in (0.5, 1.0, 2.0, 3.0):
        res = group_lasso_constrained(
            Z, G, budget, stats=stats, warm=warm, screen=screener
        )
        warm = WarmState(coef=res.coef.copy(), penalty=res.penalty)


class TestLazyStats:
    def test_lazy_matches_dense_fields(self):
        Z, G = _problem()
        dense = SufficientStats.from_arrays(Z, G)
        lazy = SufficientStats.from_arrays(Z, G, lazy=True)
        assert lazy.is_lazy and not dense.is_lazy
        assert lazy.S is None and lazy.Z is Z
        assert lazy.n_features == dense.n_features
        assert lazy.n_responses == dense.n_responses
        assert lazy.mu_max == dense.mu_max
        np.testing.assert_array_equal(lazy.A, dense.A)
        np.testing.assert_allclose(lazy.diag_S, dense.diag_S, rtol=1e-12)

    def test_slice_matches_dense_subblock(self):
        Z, G = _problem()
        dense = SufficientStats.from_arrays(Z, G)
        lazy = SufficientStats.from_arrays(Z, G, lazy=True)
        cols = np.array([2, 3, 17, 40, 42])
        sub_l = lazy.slice(cols)
        sub_d = dense.slice(cols)
        np.testing.assert_allclose(sub_l.S, sub_d.S, atol=1e-12)
        np.testing.assert_array_equal(sub_l.A, sub_d.A)
        assert not sub_l.is_lazy

    def test_dual_residual_lazy_equals_dense(self):
        Z, G = _problem()
        dense = SufficientStats.from_arrays(Z, G)
        lazy = SufficientStats.from_arrays(Z, G, lazy=True)
        rng = np.random.default_rng(1)
        coef = np.zeros((dense.n_responses, dense.n_features))
        active = np.array([3, 17, 42])
        coef[:, active] = rng.standard_normal((dense.n_responses, 3))
        np.testing.assert_allclose(
            lazy.dual_residual(coef, active),
            dense.dual_residual(coef, active),
            atol=1e-10,
        )
        np.testing.assert_array_equal(
            lazy.dual_residual(coef, np.array([], dtype=int)), lazy.A
        )

    def test_lazy_lipschitz_raises(self):
        Z, G = _problem()
        lazy = SufficientStats.from_arrays(Z, G, lazy=True)
        with pytest.raises(ValueError, match="lazy"):
            _ = lazy.lipschitz

    def test_lazy_without_screen_rejected(self):
        Z, G = _problem()
        lazy = SufficientStats.from_arrays(Z, G, lazy=True)
        with pytest.raises(ValueError, match="screen"):
            group_lasso_penalized(None, None, 0.1, stats=lazy)


class TestScreenedPenalized:
    @pytest.mark.parametrize("frac", [0.5, 0.2, 0.05])
    def test_same_active_set_and_objective(self, frac):
        Z, G = _problem()
        stats = SufficientStats.from_arrays(Z, G, lazy=True)
        mu = stats.mu_max * frac
        plain = group_lasso_penalized(Z, G, mu, tol=1e-9)
        screened = group_lasso_penalized(
            None, None, mu, tol=1e-9, screen=StrongRuleScreener(stats)
        )
        np.testing.assert_array_equal(
            plain.active_groups(), screened.active_groups()
        )
        assert screened.objective == pytest.approx(plain.objective, rel=1e-9)

    def test_screener_drops_groups(self):
        Z, G = _problem()
        scr = StrongRuleScreener(SufficientStats.from_arrays(Z, G, lazy=True))
        mu = scr.stats.mu_max * 0.5
        group_lasso_penalized(None, None, mu, screen=scr)
        assert scr.n_dropped > 0

    def test_mismatched_stats_rejected(self):
        Z, G = _problem()
        stats = SufficientStats.from_arrays(Z, G)
        scr = StrongRuleScreener(SufficientStats.from_arrays(Z, G, lazy=True))
        with pytest.raises(ValueError, match="same object"):
            group_lasso_penalized(
                None, None, 0.1, stats=stats, screen=scr
            )

    def test_screened_solve_requires_positive_mu(self):
        Z, G = _problem()
        scr = StrongRuleScreener(SufficientStats.from_arrays(Z, G, lazy=True))
        with pytest.raises(ValueError):
            group_lasso_penalized(None, None, 0.0, screen=scr)

    def test_counters_emitted(self):
        import repro.obs as obs

        Z, G = _problem()
        with obs.use_registry(obs.MetricsRegistry()) as registry:
            scr = StrongRuleScreener(
                SufficientStats.from_arrays(Z, G, lazy=True)
            )
            group_lasso_penalized(
                None, None, scr.stats.mu_max * 0.3, screen=scr
            )
            assert registry.counter("path.screen_dropped").value > 0


class TestScreenedConstrained:
    @pytest.mark.parametrize("budget", [0.5, 1.5, 3.0])
    def test_same_selection(self, budget):
        Z, G = _problem()
        plain = group_lasso_constrained(Z, G, budget, solver_tol=1e-9)
        screened = group_lasso_constrained(
            Z, G, budget, solver_tol=1e-9, screen=True
        )
        np.testing.assert_array_equal(
            plain.active_groups(), screened.active_groups()
        )
        assert screened.penalty == pytest.approx(plain.penalty, rel=1e-9)
        assert screened.objective == pytest.approx(plain.objective, rel=1e-9)

    def test_sequential_screener_across_budgets(self):
        # The path-engine usage: one screener object rides the whole
        # budget path together with the warm state.  The second input
        # has 600 candidates and 8 true groups.
        for Z, G in (_problem(), _problem(n=240, m=600, active=8)):
            scr = StrongRuleScreener(
                SufficientStats.from_arrays(Z, G, lazy=True)
            )
            warm = None
            for budget in (0.5, 1.0, 2.0, 3.0):
                plain = group_lasso_constrained(Z, G, budget, solver_tol=1e-9)
                screened = group_lasso_constrained(
                    Z, G, budget, solver_tol=1e-9, screen=scr, warm=warm
                )
                warm = WarmState(
                    coef=screened.coef.copy(), penalty=screened.penalty
                )
                np.testing.assert_array_equal(
                    plain.active_groups(), screened.active_groups()
                )
                assert _uncaught_kkt(Z, G, screened) == 0
            assert scr.n_dropped > 0

    def test_slack_budget_returns_ols_with_lazy_stats(self):
        # A budget above the OLS norm sum short-circuits; the lazy
        # branch must still produce the exact unpenalized objective.
        Z, G = _problem(m=10, active=(1, 4), noise=0.001)
        plain = group_lasso_constrained(Z, G, 1e6)
        screened = group_lasso_constrained(Z, G, 1e6, screen=True)
        assert screened.penalty == 0.0
        np.testing.assert_allclose(screened.coef, plain.coef, atol=1e-10)
        assert screened.objective == pytest.approx(plain.objective, rel=1e-9)

    def test_wrong_screener_dimension_rejected(self):
        Z, G = _problem()
        Z2, G2 = _problem(m=20, active=(1, 7, 13))
        scr = StrongRuleScreener(SufficientStats.from_arrays(Z2, G2, lazy=True))
        with pytest.raises(ValueError, match="different problem"):
            group_lasso_constrained(Z, G, 1.0, screen=scr)


class TestScreenedFootprint:
    """What screening is for: the screened sweep never pays for the
    dense M x M Gram, in memory or in time."""

    def test_peak_memory_at_most_a_fifth_of_the_dense_gram(self):
        Z, G = _problem(seed=1, n=240, m=20_000, active=8)
        tracemalloc.start()
        try:
            _warm_sweep(Z, G, screen=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        dense_gram = Z.shape[1] ** 2 * Z.itemsize  # 3,052 MB
        assert peak <= dense_gram / 5

    def test_floor_decides_every_slack_check(self):
        # On this 240 x 20,000 scope the certified floor on the OLS norm
        # sum proves that every budget binds, so no lstsq slack solve
        # runs.
        Z, G = _problem(seed=1, n=240, m=20_000, active=8)
        with use_registry(MetricsRegistry()) as registry:
            _warm_sweep(Z, G, screen=True)
            counters = registry.snapshot()["counters"]
        assert counters["group_lasso.solves"] > 0
        assert counters.get("group_lasso.ols_slack_solves", 0) == 0

    def test_faster_than_the_dense_sweep(self):
        Z, G = _problem(n=240, m=600, active=8)
        t0 = time.perf_counter()
        _warm_sweep(Z, G, screen=False)
        dense_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        _warm_sweep(Z, G, screen=True)
        assert time.perf_counter() - t0 < dense_s


class TestScreenedSelection:
    def test_select_sensors_same_set(self):
        ds = make_synthetic_dataset()
        X, F = ds.X, ds.F
        plain = select_sensors(X, F, budget=1.0)
        screened = select_sensors(X, F, budget=1.0, screen=True)
        np.testing.assert_array_equal(plain.selected, screened.selected)

    def test_prepare_stats_lazy(self):
        ds = make_synthetic_dataset()
        z, g, stats = prepare_stats(ds.X, ds.F, lazy=True)
        assert stats.is_lazy
        sel = select_sensors(
            ds.X, ds.F, budget=1.0, stats=stats, screen=True
        )
        plain = select_sensors(ds.X, ds.F, budget=1.0)
        np.testing.assert_array_equal(plain.selected, sel.selected)


class TestScreenedEngine:
    def test_fit_path_identical_sets(self):
        ds = make_synthetic_dataset()
        cfg = PipelineConfig(budget=1.0)
        budgets = [0.5, 1.0, 2.0, 3.0]
        plain = LambdaPathEngine(ds, cfg).fit_path(budgets)
        screened = LambdaPathEngine(
            ds, dataclasses.replace(cfg, screen=True)
        ).fit_path(budgets)
        for a, b in zip(plain, screened):
            for sa, sb in zip(a.scopes, b.scopes):
                np.testing.assert_array_equal(
                    sa.selection.selected, sb.selection.selected
                )

    def test_engine_scopes_are_lazy_when_screening(self):
        ds = make_synthetic_dataset()
        engine = LambdaPathEngine(
            ds, PipelineConfig(budget=1.0, screen=True)
        )
        assert all(state.stats.is_lazy for state in engine._scopes)
        assert all(state.screener is not None for state in engine._scopes)

    def test_sweep_lambda_identical_results(self):
        ds = make_synthetic_dataset()
        budgets = [0.5, 1.0, 2.0]
        cfg = PipelineConfig(budget=1.0)
        plain = sweep_lambda(ds, budgets, base_config=cfg, rng=0)
        screened = sweep_lambda(
            ds, budgets,
            base_config=dataclasses.replace(cfg, screen=True), rng=0,
        )
        for p, s in zip(plain, screened):
            assert p.n_sensors_total == s.n_sensors_total
            assert p.relative_error == pytest.approx(
                s.relative_error, rel=1e-9
            )
            for sp, ss in zip(p.model.scopes, s.model.scopes):
                np.testing.assert_array_equal(
                    sp.selection.selected, ss.selection.selected
                )

    def test_fit_placement_config_screen(self):
        ds = make_synthetic_dataset()
        plain = fit_placement(ds, PipelineConfig(budget=1.0))
        screened = fit_placement(ds, PipelineConfig(budget=1.0, screen=True))
        np.testing.assert_array_equal(
            plain.sensor_candidate_cols, screened.sensor_candidate_cols
        )
