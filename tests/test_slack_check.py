"""The certified slack check of the constrained group-lasso solver.

Before any solve, the constrained solver asks whether the least-squares
solution already fits the budget.  :meth:`SufficientStats.ols_norm_floor`
bounds that solution's norm sum from below in at most two passes over
``Z``; lstsq runs only when the floor cannot prove that the budget binds.
These tests pin that the floor is a lower bound, that trusting it never
changes a result, that lstsq still runs (and still validates its inputs)
where it must, and that the lazy dual residual's ``(Yᵀ Z)ᵀ`` orientation
gives the bits of ``Zᵀ Y``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.group_lasso import (
    StrongRuleScreener,
    SufficientStats,
    group_lasso_constrained,
)
from repro.core.path_engine import LambdaPathEngine
from repro.core.pipeline import PipelineConfig
from repro.obs import MetricsRegistry, use_registry

from tests.conftest import make_synthetic_dataset

KINDS = ("plain", "duplicated", "constant", "scaled", "collinear", "rounding")


def _adversarial(seed, n, m, k, kind):
    """A least-squares problem whose columns are hard on the floor."""
    rng = np.random.default_rng(seed)
    if kind == "collinear":
        # A rank-3 field plus 1e-6 noise.
        Z = rng.standard_normal((n, 3)) @ rng.standard_normal((3, m))
        Z += 1e-6 * rng.standard_normal((n, m))
    else:
        Z = rng.standard_normal((n, m))
    cols = rng.choice(m, size=max(1, m // 3), replace=False)
    if kind == "duplicated":
        Z[:, cols] = Z[:, [int(rng.integers(m))]]
    elif kind == "constant":
        Z[:, cols] = rng.choice([0.0, 1.0, -2.5])
    elif kind == "scaled":
        Z *= 10.0 ** rng.uniform(-8.0, 8.0, size=m)
    if kind == "rounding" and m >= 2:
        # Two columns equal up to rounding, and responses along their
        # difference: lstsq truncates the direction the exact solution
        # needs, so only the floor's allowances keep it below lstsq.
        e = rng.standard_normal(n)
        e -= (e @ Z[:, 0]) / (Z[:, 0] @ Z[:, 0]) * Z[:, 0]
        e /= np.linalg.norm(e)
        Z[:, 1] = Z[:, 0] + 1e-15 * np.linalg.norm(Z[:, 0]) * e
        G = -np.outer(e, rng.standard_normal(k))
        return Z, G
    mode = int(rng.integers(3))
    if mode == 0:
        G = rng.standard_normal((n, k))
    elif mode == 1:
        coef = np.zeros((k, m))
        active = rng.choice(m, size=min(m, 3), replace=False)
        coef[:, active] = rng.standard_normal((k, active.size))
        G = Z @ coef.T + 0.01 * rng.standard_normal((n, k))
    else:
        G = Z @ rng.standard_normal((m, k))
    return Z, G


def _sparse(seed=0, n=200, m=10, k=4):
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, m))
    coef = np.zeros((k, m))
    coef[:, [2, 5]] = rng.standard_normal((k, 2))
    return Z, Z @ coef.T + 0.05 * rng.standard_normal((n, k))


def _counters(fn):
    with use_registry(MetricsRegistry()) as registry:
        out = fn()
        return out, registry.snapshot()["counters"]


def _bits(array):
    return np.ascontiguousarray(array).view(np.int64)


class TestFloor:
    @pytest.mark.parametrize("lazy", [False, True])
    @pytest.mark.parametrize("kind", KINDS)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(2, 60),
        m=st.integers(1, 90),
        k=st.integers(1, 8),
    )
    @settings(max_examples=25, deadline=None)
    def test_floor_is_below_the_lstsq_norm_sum(self, lazy, kind, seed, n, m, k):
        Z, G = _adversarial(seed, n, m, k, kind)
        stats = SufficientStats.from_arrays(Z, G, lazy=lazy)
        _, norm_sum = stats.ols(Z, G)
        assert 0.0 <= stats.ols_norm_floor() <= norm_sum * (1.0 + 1e-12)

    def test_rounding_level_pair_needs_the_allowance(self):
        # Without its allowances the floor reads 0.17 here, while lstsq
        # truncates the pair's difference and returns a norm sum of
        # about 5e-18: trusting that floor would turn a slack budget
        # into a walk.
        Z, G = _adversarial(0, 50, 2, 1, "rounding")
        stats = SufficientStats.from_arrays(Z, G)
        _, norm_sum = stats.ols(Z, G)
        assert norm_sum < 1e-10
        assert stats.ols_norm_floor() <= norm_sum

    def test_exact_for_a_single_group(self):
        Z, G = _adversarial(3, 40, 1, 5, "plain")
        stats = SufficientStats.from_arrays(Z, G)
        _, norm_sum = stats.ols(Z, G)
        assert stats.ols_norm_floor() == pytest.approx(norm_sum, rel=1e-12)

    def test_zero_response_gives_zero(self):
        Z = np.random.default_rng(0).standard_normal((30, 8))
        stats = SufficientStats.from_arrays(Z, np.zeros((30, 2)))
        assert stats.ols_norm_floor() == 0.0

    def test_cached(self):
        Z, G = _sparse()
        stats = SufficientStats.from_arrays(Z, G)
        first = stats.ols_norm_floor()
        stats.S = None  # a recomputation would now take the lazy branch
        assert stats.ols_norm_floor() == first


class TestDecision:
    """Trusting the floor returns exactly what the lstsq branch returns."""

    RTOL = 1e-2

    def _budgets(self, Z, G):
        stats = SufficientStats.from_arrays(Z, G)
        floor = stats.ols_norm_floor()
        _, norm_sum = stats.ols(Z, G)
        assert 0.0 < floor < norm_sum
        return [
            0.5 * floor,                                  # floor decides
            0.5 * (floor + norm_sum) / (1.0 + self.RTOL),  # lstsq decides
            norm_sum / (1.0 + 0.5 * self.RTOL),  # OLS sum in (λ, λ(1+rtol)]
            norm_sum,                                     # at
            2.0 * norm_sum,                               # above
        ]

    @pytest.mark.parametrize("screen", [False, True])
    def test_same_bits_as_the_lstsq_branch(self, screen, monkeypatch):
        Z, G = _sparse()

        def run(budget):
            stats = SufficientStats.from_arrays(Z, G, lazy=screen)
            return group_lasso_constrained(
                Z, G, budget, rtol=self.RTOL, stats=stats,
                screen=StrongRuleScreener(stats) if screen else None,
            )

        budgets = self._budgets(Z, G)
        got = [_counters(lambda: run(b)) for b in budgets]
        monkeypatch.setattr(SufficientStats, "ols_norm_floor", lambda self: 0.0)
        ref = [_counters(lambda: run(b)) for b in budgets]
        for (res, _), (want, _) in zip(got, ref):
            assert np.array_equal(_bits(res.coef), _bits(want.coef))
            assert res.penalty.hex() == want.penalty.hex()
            assert res.n_iterations == want.n_iterations
            assert float(res.objective).hex() == float(want.objective).hex()
        slack_solves = [c.get("group_lasso.ols_slack_solves", 0) for _, c in got]
        assert slack_solves == [0, 1, 1, 1, 1]
        assert [r.penalty == 0.0 for r, _ in got] == [False, False, True, True, True]


class TestSlackSolveCounter:
    def test_counts_lstsq_runs_not_cache_hits(self):
        Z, G = _sparse()
        stats = SufficientStats.from_arrays(Z, G)

        def two_solves():
            for _ in range(2):
                group_lasso_constrained(Z, G, 1e9, stats=stats)

        _, counters = _counters(two_solves)
        assert counters["group_lasso.ols_slack_solves"] == 1

    def test_dense_engine_fit_never_solves(self):
        dataset = make_synthetic_dataset()
        engine = LambdaPathEngine(dataset, PipelineConfig(budget=1.0))
        _, counters = _counters(lambda: engine.fit(1.0))
        assert counters["group_lasso.solves"] > 0
        assert counters.get("group_lasso.ols_slack_solves", 0) == 0


class TestValidation:
    @pytest.mark.parametrize("lazy", [False, True])
    def test_nan_in_z_still_raises_on_a_slack_budget(self, lazy):
        Z, G = _sparse()
        stats = SufficientStats.from_arrays(Z, G, lazy=lazy)
        bad = Z.copy()
        bad[3, 4] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            group_lasso_constrained(bad, G, 1e9, stats=stats, screen=lazy)


class TestDualResidualOrientation:
    """``(Yᵀ Z)ᵀ`` gives the bits of ``Zᵀ Y``; if a BLAS ever breaks
    this, the lazy KKT checks (and so the screened sensor sets) could
    move, and this test names the cause first."""

    @pytest.mark.parametrize(
        "n, m, k", [(320, 20_000, 4), (240, 600, 4), (37, 73, 1), (1200, 128, 30)]
    )
    def test_bitwise_equal_to_the_old_product(self, n, m, k):
        rng = np.random.default_rng(n + m + k)
        Z = rng.standard_normal((n, m))
        G = rng.standard_normal((n, k))
        stats = SufficientStats.from_arrays(Z, G, lazy=True)
        active = np.sort(rng.choice(m, size=min(m, 8), replace=False))
        coef = np.zeros((k, m))
        coef[:, active] = rng.standard_normal((k, active.size))
        old = stats.A - Z.T @ (Z[:, active] @ coef[:, active].T)
        assert np.array_equal(_bits(stats.dual_residual(coef, active)), _bits(old))
