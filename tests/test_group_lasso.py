"""Tests for repro.core.group_lasso — the paper's Eq. (12) solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.group_lasso import (
    GroupLassoResult,
    StrongRuleScreener,
    SufficientStats,
    WarmState,
    group_lasso_constrained,
    group_lasso_penalized,
)


def sparse_problem(seed=0, n=400, m=30, k=5, active=(3, 11, 27), noise=0.05):
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, m))
    B_true = np.zeros((k, m))
    B_true[:, list(active)] = 2.0 * rng.standard_normal((k, len(active)))
    G = Z @ B_true.T + noise * rng.standard_normal((n, k))
    return Z, G, B_true


def correlated_problem(seed=0, n=300, m=20, k=4, rank=5, noise=0.02):
    """Highly correlated candidate columns (low-rank latent drivers) —
    the regime where loose solves understate norm sums and bisection
    once returned budget-violating solutions."""
    rng = np.random.default_rng(seed)
    latent = rng.standard_normal((n, rank))
    mix = rng.standard_normal((rank, m))
    Z = latent @ mix + 0.05 * rng.standard_normal((n, m))
    W = rng.standard_normal((k, rank))
    G = latent @ W.T + noise * rng.standard_normal((n, k))
    return Z, G


class TestPenalized:
    def test_recovers_support(self):
        Z, G, _ = sparse_problem()
        result = group_lasso_penalized(Z, G, mu=50.0)
        assert result.active_groups().tolist() == [3, 11, 27]

    def test_mu_zero_equals_ols(self):
        Z, G, _ = sparse_problem(n=200, m=10, active=(3, 7))
        result = group_lasso_penalized(Z, G, mu=0.0)
        ols = np.linalg.lstsq(Z, G, rcond=None)[0].T
        assert np.allclose(result.coef, ols, atol=1e-5)

    def test_huge_mu_gives_all_zero(self):
        Z, G, _ = sparse_problem()
        A = Z.T @ G
        mu = 2.0 * float(np.max(np.linalg.norm(A, axis=1)))
        result = group_lasso_penalized(Z, G, mu=mu)
        assert np.all(result.coef == 0.0)

    def test_objective_decreases_with_looser_penalty(self):
        # Fit term at smaller mu must be at least as good.
        Z, G, _ = sparse_problem()
        tight = group_lasso_penalized(Z, G, mu=100.0)
        loose = group_lasso_penalized(Z, G, mu=10.0)
        def fit_term(result):
            return float(np.linalg.norm(G - Z @ result.coef.T) ** 2)
        assert fit_term(loose) <= fit_term(tight) + 1e-9

    def test_warm_start_converges_same(self):
        Z, G, _ = sparse_problem(seed=2)
        cold = group_lasso_penalized(Z, G, mu=30.0)
        warm = group_lasso_penalized(
            Z, G, mu=30.0, warm_start=np.ones_like(cold.coef)
        )
        assert np.allclose(cold.coef, warm.coef, atol=1e-4)

    def test_warm_start_shape_check(self):
        Z, G, _ = sparse_problem()
        with pytest.raises(ValueError):
            group_lasso_penalized(Z, G, mu=1.0, warm_start=np.ones((2, 2)))

    def test_rejects_bad_args(self):
        Z, G, _ = sparse_problem()
        with pytest.raises(ValueError):
            group_lasso_penalized(Z, G, mu=-1.0)
        with pytest.raises(ValueError):
            group_lasso_penalized(Z, G, mu=1.0, max_iter=0)
        with pytest.raises(ValueError):
            group_lasso_penalized(Z, G, mu=1.0, tol=0.0)

    def test_constant_feature_never_selected(self):
        Z, G, _ = sparse_problem(n=100, m=8, active=(1,))
        Z[:, 5] = 0.0  # dead feature
        result = group_lasso_penalized(Z, G, mu=5.0)
        assert 5 not in result.active_groups().tolist()

    def test_kkt_optimality_of_solution(self):
        # At the optimum: active groups satisfy grad_m = -mu*B_m/||B_m||,
        # inactive groups satisfy ||grad_m|| <= mu.
        Z, G, _ = sparse_problem(seed=3)
        mu = 40.0
        result = group_lasso_penalized(Z, G, mu=mu, tol=1e-10)
        B = result.coef
        grad = B @ (Z.T @ Z) - (Z.T @ G).T  # (K, M)
        norms = np.linalg.norm(B, axis=0)
        for m in range(B.shape[1]):
            g_norm = np.linalg.norm(grad[:, m])
            if norms[m] > 1e-8:
                direction = -mu * B[:, m] / norms[m]
                assert np.allclose(grad[:, m], direction, atol=1e-3)
            else:
                assert g_norm <= mu * (1 + 1e-6)


class TestConstrained:
    def test_budget_binding(self):
        Z, G, _ = sparse_problem()
        result = group_lasso_constrained(Z, G, budget=5.0)
        assert result.norm_sum() == pytest.approx(5.0, rel=0.05)
        assert result.budget == 5.0

    def test_slack_budget_returns_ols(self):
        Z, G, _ = sparse_problem(n=200, m=10, active=(2,))
        result = group_lasso_constrained(Z, G, budget=1e9)
        ols = np.linalg.lstsq(Z, G, rcond=None)[0].T
        assert np.allclose(result.coef, ols, atol=1e-6)
        assert result.penalty == 0.0

    def test_monotone_selection_in_budget(self):
        Z, G, _ = sparse_problem(seed=4)
        small = group_lasso_constrained(Z, G, budget=1.0)
        large = group_lasso_constrained(Z, G, budget=8.0)
        assert small.active_groups(1e-3).size <= large.active_groups(1e-3).size

    def test_correct_support_at_moderate_budget(self):
        Z, G, _ = sparse_problem(seed=5)
        result = group_lasso_constrained(Z, G, budget=4.0)
        assert set(result.active_groups(1e-3).tolist()) <= {3, 11, 27}
        assert result.active_groups(1e-3).size >= 1

    def test_rejects_bad_budget(self):
        Z, G, _ = sparse_problem()
        with pytest.raises(ValueError):
            group_lasso_constrained(Z, G, budget=0.0)

    def test_zero_response_all_zero(self):
        rng = np.random.default_rng(0)
        Z = rng.standard_normal((50, 5))
        G = np.zeros((50, 2))
        result = group_lasso_constrained(Z, G, budget=1.0)
        assert np.allclose(result.coef, 0.0, atol=1e-9)


class TestConstrainedFeasibility:
    """Regression tests: a constrained solve must return a feasible
    solution.  The bisection once initialized its running best to the
    *infeasible* lo endpoint, so budgets whose band no iterate hit came
    back violating the constraint."""

    RTOL = 1e-2

    @pytest.mark.parametrize("budget", [0.2, 0.5, 1.0, 2.0, 4.0, 8.0])
    def test_feasible_on_correlated_problem(self, budget):
        Z, G = correlated_problem()
        result = group_lasso_constrained(Z, G, budget=budget, rtol=self.RTOL)
        assert result.norm_sum() <= budget * (1.0 + self.RTOL) + 1e-12
        assert result.budget == budget

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_feasible_across_problems(self, seed):
        Z, G = correlated_problem(seed=seed)
        for budget in (0.3, 1.5, 6.0):
            result = group_lasso_constrained(
                Z, G, budget=budget, rtol=self.RTOL
            )
            assert result.norm_sum() <= budget * (1.0 + self.RTOL) + 1e-12

    def test_feasible_with_loose_probes(self):
        # Loose bracket probes understate the norm sum on correlated
        # data; the returned solution must still be feasible.
        Z, G = correlated_problem(seed=5)
        for budget in (0.5, 2.0, 5.0):
            result = group_lasso_constrained(
                Z, G, budget=budget, rtol=self.RTOL, probe_tol=1e-5
            )
            assert result.norm_sum() <= budget * (1.0 + self.RTOL) + 1e-12


class TestConstrainedPathFidelity:
    """The λ-path accelerations (cached Gram, loose probes, warm
    starts) must not change what a constrained solve returns."""

    def test_cached_stats_bit_identical(self):
        Z, G = correlated_problem(seed=1)
        stats = SufficientStats.from_arrays(Z, G)
        plain = group_lasso_constrained(Z, G, budget=1.0)
        cached = group_lasso_constrained(Z, G, budget=1.0, stats=stats)
        assert np.array_equal(plain.coef, cached.coef)
        assert plain.penalty == cached.penalty

    def test_loose_probes_match_strict_selection(self):
        Z, G = correlated_problem(seed=2)
        for budget in (0.5, 1.0, 2.0):
            strict = group_lasso_constrained(Z, G, budget=budget, probe_tol=None)
            loose = group_lasso_constrained(Z, G, budget=budget, probe_tol=1e-5)
            assert (
                strict.active_groups(1e-3).tolist()
                == loose.active_groups(1e-3).tolist()
            )

    def test_warm_start_matches_cold_selection(self):
        Z, G = correlated_problem(seed=3)
        stats = SufficientStats.from_arrays(Z, G)
        prev = group_lasso_constrained(
            Z, G, budget=0.5, stats=stats, probe_tol=1e-5
        )
        warm = group_lasso_constrained(
            Z, G, budget=1.5, stats=stats, probe_tol=1e-5,
            warm=WarmState(coef=prev.coef, penalty=prev.penalty),
        )
        cold = group_lasso_constrained(
            Z, G, budget=1.5, stats=stats, probe_tol=1e-5
        )
        assert (
            warm.active_groups(1e-3).tolist()
            == cold.active_groups(1e-3).tolist()
        )
        assert warm.norm_sum() == pytest.approx(cold.norm_sum(), rel=1e-4)


class TestConstrainedKKT:
    """A constrained solution is optimal for the penalized problem at
    the dual penalty it reports: with ``grad = B S - A^T``, active
    groups satisfy ``grad_m = -mu * B_m / ||B_m||`` and inactive groups
    ``||grad_m|| <= mu``.  Checked on correlated data, dense and
    screened, with strict and loose bracket probes."""

    @pytest.mark.parametrize("probe_tol", [None, 1e-5], ids=["strict", "loose"])
    @pytest.mark.parametrize("screen", [False, True], ids=["dense", "screened"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_kkt_at_returned_penalty(self, seed, screen, probe_tol):
        Z, G = correlated_problem(seed=seed)
        S, A = Z.T @ Z, Z.T @ G
        for budget in (0.3, 0.8, 2.0):
            result = group_lasso_constrained(
                Z, G, budget=budget, screen=screen, probe_tol=probe_tol
            )
            mu = result.penalty
            assert mu > 0.0
            B = result.coef
            grad = B @ S - A.T
            norms = np.linalg.norm(B, axis=0)
            active = norms > 0.0
            assert active.any()
            np.testing.assert_allclose(
                grad[:, active],
                -mu * B[:, active] / norms[active],
                rtol=0.0,
                atol=1e-4 * mu,
            )
            inactive_norms = np.linalg.norm(grad[:, ~active], axis=0)
            assert np.all(inactive_norms <= mu * (1.0 + 1e-6))


class TestResultObject:
    def test_group_norms_and_sum(self):
        coef = np.array([[3.0, 0.0], [4.0, 0.0]])
        result = GroupLassoResult(coef=coef, penalty=1.0)
        assert np.allclose(result.group_norms(), [5.0, 0.0])
        assert result.norm_sum() == pytest.approx(5.0)

    def test_active_groups_threshold(self):
        coef = np.array([[1e-4, 1.0]])
        result = GroupLassoResult(coef=coef, penalty=1.0)
        assert result.active_groups(1e-3).tolist() == [1]
        with pytest.raises(ValueError):
            result.active_groups(-1.0)


class TestPathStart:
    """``mu_max`` must be the exact path head: ``B(mu_max) == 0``.

    The λ-path walk, the constrained solver's zero fallback, and step 0
    of the sequential strong rule all anchor on
    :attr:`SufficientStats.mu_max` being the max per-group activation
    threshold ``||A_g||`` — a too-small value would make the first grid
    penalty select phantom groups and the strong rule unsound at the
    path start.
    """

    def test_all_zero_at_mu_max(self):
        Z, G, _ = sparse_problem()
        stats = SufficientStats.from_arrays(Z, G)
        result = group_lasso_penalized(Z, G, mu=stats.mu_max)
        assert np.all(result.coef == 0.0)

    def test_all_zero_at_mu_max_degenerate_columns(self):
        # Constant (zero after centering) and duplicated columns: the
        # per-group thresholds tie, the worst case for the max.
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((100, 8))
        Z[:, 2] = 0.0          # dead candidate
        Z[:, 5] = Z[:, 1]      # exact duplicate: tied ||A_g||
        G = rng.standard_normal((100, 3))
        stats = SufficientStats.from_arrays(Z, G)
        result = group_lasso_penalized(Z, G, mu=stats.mu_max)
        assert np.all(result.coef == 0.0)

    def test_mu_max_is_max_group_threshold(self):
        # mu_max must dominate every group's activation threshold
        # however it is measured — the per-row 1-D norm's summation
        # order can land an ulp above the axis-reduced value.
        Z, G, _ = sparse_problem()
        stats = SufficientStats.from_arrays(Z, G)
        A = Z.T @ G
        row_norms = [float(np.linalg.norm(A[m])) for m in range(A.shape[0])]
        assert stats.mu_max == max(row_norms)
        assert stats.mu_max >= float(np.max(np.linalg.norm(A, axis=1)))
        # Lazy statistics share the exact same anchor.
        lazy = SufficientStats.from_arrays(Z, G, lazy=True)
        assert lazy.mu_max == stats.mu_max

    def test_just_below_mu_max_activates(self):
        # mu_max is tight, not merely an upper bound: nudging the
        # penalty below it activates the argmax group.
        Z, G, _ = sparse_problem()
        stats = SufficientStats.from_arrays(Z, G)
        result = group_lasso_penalized(Z, G, mu=stats.mu_max * (1 - 1e-3))
        assert result.active_groups().size >= 1

    def test_step_zero_screening_discards_no_active_group(self):
        # A fresh screener's reference state IS the exact solution at
        # mu_max (B == 0, residuals = rows of A), so the first screened
        # solve of a descending path must keep every group that the
        # unscreened solve activates — with zero KKT re-admissions.
        Z, G, _ = sparse_problem()
        stats = SufficientStats.from_arrays(Z, G, lazy=True)
        scr = StrongRuleScreener(stats)
        assert scr.mu_ref == stats.mu_max
        mu0 = stats.mu_max * 0.65  # the path engine's first grid point
        screened = group_lasso_penalized(None, None, mu0, screen=scr)
        plain = group_lasso_penalized(Z, G, mu0)
        np.testing.assert_array_equal(
            plain.active_groups(), screened.active_groups()
        )
        assert scr.n_violations == 0


class TestSolverProperties:
    @given(
        seed=st.integers(0, 30),
        mu_frac=st.floats(0.05, 0.9),
    )
    @settings(max_examples=15, deadline=None)
    def test_shrinkage_property(self, seed, mu_frac):
        # Group norms at larger mu are dominated by the norm sum at
        # smaller mu (total shrinkage monotonicity).
        Z, G, _ = sparse_problem(seed=seed, n=150, m=12, k=3, active=(1, 7))
        A = Z.T @ G
        mu_max = float(np.max(np.linalg.norm(A, axis=1)))
        lo = group_lasso_penalized(Z, G, mu=mu_frac * mu_max * 0.5)
        hi = group_lasso_penalized(Z, G, mu=mu_frac * mu_max)
        assert hi.norm_sum() <= lo.norm_sum() + 1e-6
