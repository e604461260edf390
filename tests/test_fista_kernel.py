"""The compiled FISTA step against the numpy reference loop.

``repro.core.group_lasso._fista`` runs its iterations either in numpy
(the reference and the fallback) or as one BLAS product plus one call
of the C function ``gl_fista_step`` (:mod:`repro.utils.ckernel`).  The
two must return the same bits — coefficients, iteration count,
convergence flag and final residual — or sensor sets could move with
the platform.
"""

import numpy as np
import pytest

import repro.utils.ckernel as ckernel
from repro.core.group_lasso import (
    SufficientStats,
    _fista,
    group_lasso_constrained,
    group_lasso_penalized,
)
from repro.core.path_engine import LambdaPathEngine
from repro.core.pipeline import PipelineConfig
from repro.obs import MetricsRegistry, use_registry
from tests.conftest import disable_kernel, make_synthetic_dataset

#: (K responses, M candidates): a paper core, the two scope sizes of the
#: lambda-path workload, small and degenerate sizes, a single column
#: (whose norm numpy sums pairwise) and K*M above 8,192.
SHAPES = [(30, 128), (30, 84), (30, 73), (4, 9), (1, 1), (30, 1), (70, 130)]


@pytest.fixture(scope="module")
def kernel():
    handle = ckernel.get_lib()
    # The suite requires a C compiler (as test_batched_engine's
    # test_kernel_compiles_here does); a silent fallback would let
    # every comparison below pass vacuously.
    assert handle is not None
    return handle


def voltage_like(seed, n_responses, n_features, n_samples=240):
    """Standardized, strongly correlated candidates, as grid voltages are."""
    rng = np.random.default_rng(seed)
    rank = max(1, min(6, n_features))
    latent = rng.standard_normal((n_samples, rank))
    Z = latent @ rng.standard_normal((rank, n_features))
    Z += 0.1 * rng.standard_normal((n_samples, n_features))
    G = latent @ rng.standard_normal((rank, n_responses))
    G += 0.05 * rng.standard_normal((n_samples, n_responses))
    Z = (Z - Z.mean(axis=0)) / Z.std(axis=0)
    G = (G - G.mean(axis=0)) / G.std(axis=0)
    return SufficientStats.from_arrays(Z, G)


def bits(array):
    return np.ascontiguousarray(array).view(np.int64)


def both_loops(kernel, stats, mu, warm=None, max_iter=20000, tol=1e-7, L=None):
    shape = (stats.n_responses, stats.n_features)
    start = np.zeros(shape) if warm is None else warm
    L = stats.lipschitz if L is None else L
    AT = stats.A.T.copy()
    ref = _fista(start.copy(order="K"), stats.S, AT, mu, max_iter, tol, L=L)
    got = _fista(
        start.copy(order="K"), stats.S, AT, mu, max_iter, tol, L=L,
        kernel=kernel,
    )
    return ref, got


def assert_same_solve(ref, got):
    coef_ref, *rest_ref = ref
    coef_got, *rest_got = got
    assert np.array_equal(bits(coef_ref), bits(coef_got))
    assert rest_ref == rest_got  # n_iterations, converged, final_residual


class TestBitIdentity:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("mu_frac", [0.0, 0.05, 0.4, 1.0, 1.5])
    def test_cold_start(self, kernel, shape, mu_frac):
        stats = voltage_like(sum(shape), *shape)
        ref, got = both_loops(kernel, stats, mu_frac * stats.mu_max, max_iter=3000)
        assert_same_solve(ref, got)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_warm_start(self, kernel, shape, order):
        stats = voltage_like(7 + sum(shape), *shape)
        warm = 0.1 * np.random.default_rng(1).standard_normal(
            (stats.n_responses, stats.n_features)
        )
        warm = np.asarray(warm, order=order)
        ref, got = both_loops(kernel, stats, 0.2 * stats.mu_max, warm=warm)
        assert ref[2]  # converged
        assert_same_solve(ref, got)

    def test_fancy_indexed_warm_start_is_f_ordered(self, kernel):
        # The screened path slices warm starts as warm[:, surv].
        stats = voltage_like(3, 30, 73)
        full = 0.1 * np.random.default_rng(2).standard_normal((30, 100))
        warm = full[:, np.sort(np.random.default_rng(3).choice(100, 73, replace=False))]
        assert warm.flags.f_contiguous and not warm.flags.c_contiguous
        ref, got = both_loops(kernel, stats, 0.3 * stats.mu_max, warm=warm)
        assert_same_solve(ref, got)

    def test_iteration_cap_stops_before_convergence(self, kernel):
        stats = voltage_like(5, 30, 128)
        ref, got = both_loops(kernel, stats, 0.05 * stats.mu_max, max_iter=7)
        assert ref[1] == 7 and not ref[2]
        assert_same_solve(ref, got)

    def test_restart_heavy_problem(self, kernel):
        # Uncorrelated candidates are well conditioned, so the momentum
        # overshoots and the gradient restart test fires every few dozen
        # iterations; a vanishing tol keeps both loops running through
        # all of them.
        rng = np.random.default_rng(0)
        stats = SufficientStats.from_arrays(
            rng.standard_normal((100, 84)), rng.standard_normal((100, 30))
        )
        mu = 0.05 * stats.mu_max
        assert count_restarts(kernel, stats, mu, stats.lipschitz, 400) >= 8
        ref, got = both_loops(kernel, stats, mu, max_iter=400, tol=1e-300)
        assert ref[1] == 400
        assert_same_solve(ref, got)

    def test_public_solvers_match_numpy_loop(self, kernel, monkeypatch):
        stats = voltage_like(13, 30, 128)
        mu = 0.3 * stats.mu_max
        fast = group_lasso_penalized(None, None, mu, stats=stats)
        rng = np.random.default_rng(4)
        Z = rng.standard_normal((200, 40))
        G = Z[:, :3] @ rng.standard_normal((3, 6)) + 0.1 * rng.standard_normal((200, 6))
        fast_c = group_lasso_constrained(Z, G, budget=2.0)
        disable_kernel(monkeypatch)
        slow = group_lasso_penalized(None, None, mu, stats=stats)
        slow_c = group_lasso_constrained(Z, G, budget=2.0)
        for a, b in ((fast, slow), (fast_c, slow_c)):
            assert np.array_equal(bits(a.coef), bits(b.coef))
            assert (a.n_iterations, a.converged, a.final_residual, a.penalty) == (
                b.n_iterations, b.converged, b.final_residual, b.penalty
            )
            assert a.objective == b.objective


def count_restarts(kernel, stats, mu, L, n_iter):
    """Drive ``gl_fista_step`` directly; count the iterations it restarted."""
    ffi, lib = kernel
    K, M = stats.n_responses, stats.n_features
    step = 1.0 / L
    AT = stats.A.T.copy()
    B, Y = np.zeros((K, M)), np.zeros((K, M))
    B_new, G = np.empty((K, M)), np.empty((K, M))
    work, state = np.empty(M), np.array([1.0, 0.0])
    buf = [ffi.from_buffer("double[]", a) for a in (AT, G, Y, B, B_new, work, state)]
    p_at, p_g, p_y, p_b, p_bn, p_work, p_state = buf
    restarts = 0
    for _ in range(n_iter):
        np.matmul(Y, stats.S, out=G)
        lib.gl_fista_step(
            K, M, p_at, p_g, p_y, p_b, p_bn, p_work, step, mu * step, p_state
        )
        restarts += state[0] == 1.0
        p_b, p_bn = p_bn, p_b
    return restarts


class TestPairwiseSum:
    """``gl_pairwise_sum`` must add in np.sum's order, bit for bit.

    If a numpy release changes its summation, this fails here rather
    than as a moved sensor set.
    """

    @pytest.mark.parametrize(
        "lengths",
        [range(1, 601), [8191, 8192, 8193, 10000, 16385, 50000]],
        ids=["1-600", "above-8192"],
    )
    def test_matches_np_sum(self, kernel, lengths):
        ffi, lib = kernel
        rng = np.random.default_rng(0)
        for n in lengths:
            # Magnitudes spread over many decades, so any change of
            # order changes the rounded sum.
            a = rng.standard_normal(n) * np.exp(3.0 * rng.standard_normal(n))
            got = lib.gl_pairwise_sum(ffi.from_buffer("double[]", a), n)
            assert got == float(np.sum(a)), n


class TestFallbackAndTelemetry:
    def test_disabled_kernel_gives_same_bits(self, kernel, monkeypatch):
        stats = voltage_like(17, 30, 84)
        mu = 0.25 * stats.mu_max
        with use_registry(MetricsRegistry()) as registry:
            fast = group_lasso_penalized(None, None, mu, stats=stats)
            counters = registry.snapshot()["counters"]
        assert counters["group_lasso.kernel_solves"] == counters["group_lasso.solves"] == 1

        disable_kernel(monkeypatch)
        with use_registry(MetricsRegistry()) as registry:
            slow = group_lasso_penalized(None, None, mu, stats=stats)
            counters = registry.snapshot()["counters"]
        assert counters["group_lasso.solves"] == 1
        assert counters.get("group_lasso.kernel_solves", 0) == 0
        assert np.array_equal(bits(fast.coef), bits(slow.coef))
        assert (fast.n_iterations, fast.final_residual) == (
            slow.n_iterations, slow.final_residual
        )

    def test_kernel_solves_count_every_solve(self, kernel):
        dataset = make_synthetic_dataset(seed=5)
        with use_registry(MetricsRegistry()) as registry:
            LambdaPathEngine(dataset, PipelineConfig(budget=1.0)).fit(1.0)
            counters = registry.snapshot()["counters"]
        assert counters["group_lasso.solves"] > 0
        assert counters["group_lasso.kernel_solves"] == counters["group_lasso.solves"]
