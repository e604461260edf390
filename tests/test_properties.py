"""Cross-module property-based tests (hypothesis).

These check physical and mathematical invariants that unit tests with
fixed numbers cannot: linearity of the grid, normalization identities,
metric identities, and pipeline consistency under data transforms.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.normalization import Standardizer
from repro.core.ols import fit_ols
from repro.powergrid.grid import PowerGrid
from repro.powergrid.transient import TransientSolver
from repro.voltage.metrics import detection_error_rates


@pytest.fixture(scope="module")
def small_grid():
    return PowerGrid.regular_mesh(2.0, 1.5, pitch=0.5, pad_pitch=1.0)


class TestTransientLinearity:
    @given(scale=st.floats(0.1, 3.0), seed=st.integers(0, 20))
    @settings(max_examples=10, deadline=None)
    def test_droop_scales_linearly_with_load(self, scale, seed):
        # The grid is LTI: droop(k*I) = k * droop(I) from matched ICs.
        grid = PowerGrid.regular_mesh(2.0, 1.5, pitch=0.5, pad_pitch=1.0)
        solver = TransientSolver(grid, 1e-10)
        rng = np.random.default_rng(seed)
        base = rng.uniform(0, 0.02, grid.n_nodes)

        def run(load):
            res = solver.simulate(
                lambda s: load,
                n_steps=30,
                v0=np.full(grid.n_nodes, grid.vdd),
                pad_current0=np.zeros(len(grid.pads)),
            )
            return grid.vdd - res.voltages  # droop

        droop_1 = run(base)
        droop_k = run(scale * base)
        assert np.allclose(droop_k, scale * droop_1, atol=1e-9)

    @given(seed=st.integers(0, 20))
    @settings(max_examples=8, deadline=None)
    def test_superposition_of_loads(self, seed):
        grid = PowerGrid.regular_mesh(2.0, 1.5, pitch=0.5, pad_pitch=1.0)
        solver = TransientSolver(grid, 1e-10)
        rng = np.random.default_rng(seed)
        a = rng.uniform(0, 0.02, grid.n_nodes)
        b = rng.uniform(0, 0.02, grid.n_nodes)

        def droop(load):
            res = solver.simulate(
                lambda s: load,
                n_steps=25,
                v0=np.full(grid.n_nodes, grid.vdd),
                pad_current0=np.zeros(len(grid.pads)),
            )
            return grid.vdd - res.voltages

        assert np.allclose(droop(a + b), droop(a) + droop(b), atol=1e-9)


class TestOLSInvariances:
    @given(
        shift=st.floats(-2.0, 2.0),
        scale=st.floats(0.1, 5.0),
        seed=st.integers(0, 30),
    )
    @settings(max_examples=20, deadline=None)
    def test_prediction_invariant_to_feature_affine_transform(
        self, shift, scale, seed
    ):
        # OLS with intercept is equivariant under affine feature maps:
        # predictions are unchanged when X -> a*X + b.
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((60, 3))
        F = rng.standard_normal((60, 2))
        pred_orig = fit_ols(X, F).predict(X)
        X2 = scale * X + shift
        pred_tran = fit_ols(X2, F).predict(X2)
        assert np.allclose(pred_orig, pred_tran, atol=1e-7)

    @given(seed=st.integers(0, 30))
    @settings(max_examples=15, deadline=None)
    def test_standardize_then_ols_same_prediction(self, seed):
        rng = np.random.default_rng(seed)
        X = 0.9 + 0.05 * rng.standard_normal((80, 4))
        F = 0.9 + 0.05 * rng.standard_normal((80, 2))
        raw_pred = fit_ols(X, F).predict(X)
        z = Standardizer().fit_transform(X)
        norm_pred = fit_ols(z, F).predict(z)
        assert np.allclose(raw_pred, norm_pred, atol=1e-8)


class TestMetricIdentities:
    @given(
        n=st.integers(2, 300),
        p_e=st.floats(0.05, 0.95),
        p_a=st.floats(0.05, 0.95),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_te_decomposition(self, n, p_e, p_a, seed):
        rng = np.random.default_rng(seed)
        truth = rng.random(n) < p_e
        alarm = rng.random(n) < p_a
        rates = detection_error_rates(truth, alarm)
        prev = truth.mean()
        miss_part = 0.0 if np.isnan(rates.miss) else rates.miss * prev
        wrong_part = (
            0.0 if np.isnan(rates.wrong_alarm) else rates.wrong_alarm * (1 - prev)
        )
        assert rates.total == pytest.approx(miss_part + wrong_part, abs=1e-12)

    @given(n=st.integers(1, 100), seed=st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_perfect_detector_zero_error(self, n, seed):
        rng = np.random.default_rng(seed)
        truth = rng.random(n) < 0.4
        rates = detection_error_rates(truth, truth.copy())
        assert rates.total == 0.0


class TestNormalizationRoundTrip:
    @given(
        n=st.integers(5, 60),
        m=st.integers(1, 8),
        scale=st.floats(1e-3, 10.0),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=25, deadline=None)
    def test_inverse_transform_recovers_data(self, n, m, scale, seed):
        rng = np.random.default_rng(seed)
        X = 0.9 + scale * 0.05 * rng.standard_normal((n, m))
        std = Standardizer()
        z = std.fit_transform(X)
        assert np.allclose(std.inverse_transform(z), X, atol=1e-10)

    @given(seed=st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_transform_is_zero_mean_unit_variance(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0.8, 1.0, (40, 5))
        z = Standardizer().fit_transform(X)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-8)


class TestGroupLassoFeasibility:
    @given(
        budget=st.floats(0.05, 3.0),
        seed=st.integers(0, 30),
    )
    @settings(max_examples=10, deadline=None)
    def test_constrained_solve_respects_budget(self, budget, seed):
        # Eq. (12): the returned coefficients must satisfy the group-norm
        # budget (within the solver's relative tolerance) at any budget.
        from repro.core.group_lasso import group_lasso_constrained

        rng = np.random.default_rng(seed)
        Z = Standardizer().fit_transform(rng.standard_normal((50, 8)))
        G = Standardizer().fit_transform(
            Z[:, :3] @ rng.standard_normal((3, 2))
            + 0.05 * rng.standard_normal((50, 2))
        )
        rtol = 1e-2
        result = group_lasso_constrained(Z, G, budget=budget, rtol=rtol)
        assert result.norm_sum() <= budget * (1 + rtol) + 1e-9


class TestFaultInjectorProperties:
    _FAULT_KINDS = st.sampled_from(["dropout", "stuck", "drift", "glitch"])

    @staticmethod
    def _make_fault(kind, channel, start, duration, rng):
        from repro.monitor import (
            DriftFault,
            DropoutFault,
            GlitchFault,
            StuckAtFault,
        )

        if kind == "dropout":
            return DropoutFault(channel=channel, start=start, duration=duration)
        if kind == "stuck":
            return StuckAtFault(
                channel=channel, start=start, duration=duration,
                value=float(rng.uniform(0.5, 1.2)),
            )
        if kind == "drift":
            return DriftFault(
                channel=channel, start=start, duration=duration,
                anchor=float(rng.uniform(0.8, 1.2)),
                rate=float(rng.uniform(-0.01, 0.01)),
            )
        # Power-of-two lsb keeps quantization exactly idempotent in
        # floating point.
        return GlitchFault(
            channel=channel, start=start, duration=duration,
            lsb=float(2.0 ** -rng.integers(2, 8)),
        )

    @given(
        kind=_FAULT_KINDS,
        channel=st.integers(0, 3),
        start=st.integers(0, 30),
        duration=st.one_of(st.none(), st.integers(1, 20)),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, kind, channel, start, duration, seed):
        rng = np.random.default_rng(seed)
        fault = self._make_fault(kind, channel, start, duration, rng)
        stream = rng.uniform(0.7, 1.1, (40, 4))
        once = fault.apply(stream)
        assert np.array_equal(once, fault.apply(once), equal_nan=True)

    @given(
        kind=_FAULT_KINDS,
        channel=st.integers(0, 3),
        start=st.integers(0, 30),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_clean_channels_bit_identical(self, kind, channel, start, seed):
        rng = np.random.default_rng(seed)
        fault = self._make_fault(kind, channel, start, None, rng)
        stream = rng.uniform(0.7, 1.1, (40, 4))
        out = fault.apply(stream)
        others = [c for c in range(4) if c != channel]
        assert np.array_equal(out[:, others], stream[:, others])

    @given(
        kind_a=_FAULT_KINDS,
        kind_b=_FAULT_KINDS,
        seed=st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_disjoint_faults_commute_and_compose(self, kind_a, kind_b, seed):
        rng = np.random.default_rng(seed)
        a = self._make_fault(kind_a, 0, int(rng.integers(0, 20)), None, rng)
        b = self._make_fault(kind_b, 2, int(rng.integers(0, 20)), None, rng)
        stream = rng.uniform(0.7, 1.1, (40, 4))
        ab = b.apply(a.apply(stream))
        ba = a.apply(b.apply(stream))
        assert np.array_equal(ab, ba, equal_nan=True)
        # Composed, each fault owns its channel exactly as it would alone.
        assert np.array_equal(ab[:, 0], a.apply(stream)[:, 0], equal_nan=True)
        assert np.array_equal(ab[:, 2], b.apply(stream)[:, 2], equal_nan=True)
        assert np.array_equal(ab[:, [1, 3]], stream[:, [1, 3]])


class TestMonitorEquivalence:
    """``run_batch`` against the per-cycle reference, bit for bit."""

    @pytest.fixture(scope="class")
    def fitted(self):
        from repro.core import PipelineConfig, fit_placement
        from tests.conftest import make_synthetic_dataset

        ds = make_synthetic_dataset(seed=3)
        model = fit_placement(ds, PipelineConfig(budget=1.0))
        thr = float(np.quantile(model.predict(ds.X), 0.25))
        return ds, model, thr

    def _stream(self, ds, model, n_cycles, seed, nan_frac=0.0):
        rng = np.random.default_rng(seed)
        cols = model.sensor_candidate_cols
        reps = -(-n_cycles // ds.X.shape[0])
        s = np.tile(ds.X, (reps, 1))[:n_cycles][:, cols]
        s = s + rng.normal(0, 3e-4, s.shape)
        if nan_frac > 0:
            mask = rng.random(s.shape) < nan_frac
            s[mask] = np.nan
        return s

    @given(
        debounce=st.integers(1, 4),
        seed=st.integers(0, 50),
        split=st.integers(1, 89),
        nan_frac=st.sampled_from([0.0, 0.0, 0.02]),
    )
    @settings(max_examples=15, deadline=None)
    def test_run_batch_equals_cycle_oracle(
        self, fitted, debounce, seed, split, nan_frac
    ):
        from repro.monitor import FleetMonitor
        from tests.conftest import assert_same_outcome, replay_cycle_by_cycle

        ds, model, thr = fitted
        streams = np.stack(
            [
                self._stream(ds, model, 90, seed, nan_frac),
                self._stream(ds, model, 90, seed + 1000, nan_frac),
            ]
        )

        oracle = FleetMonitor(model, thr, debounce=debounce, n_streams=2)
        oracle_flags = replay_cycle_by_cycle(oracle, streams)
        oracle.finish()

        batcher = FleetMonitor(model, thr, debounce=debounce, n_streams=2)
        batch_flags = np.concatenate(
            [
                batcher.run_batch(streams[:, :split]),
                batcher.run_batch(streams[:, split:]),
            ],
            axis=1,
        )
        batcher.finish()

        assert np.array_equal(oracle_flags, batch_flags)
        assert_same_outcome(oracle, batcher)


class TestPipelineConsistency:
    @given(seed=st.integers(0, 20))
    @settings(max_examples=8, deadline=None)
    def test_prediction_unchanged_by_unmeasured_columns(self, seed):
        # Only sensor columns are read at runtime: garbage elsewhere in
        # X must not change predictions.
        from repro.core import PipelineConfig, fit_placement
        from tests.conftest import make_synthetic_dataset

        ds = make_synthetic_dataset(seed=seed)
        model = fit_placement(ds, PipelineConfig(budget=1.0))
        rng = np.random.default_rng(seed)
        X = ds.X[:5].copy()
        pred_a = model.predict(X)
        garbage = X.copy()
        mask = np.ones(ds.n_candidates, dtype=bool)
        mask[model.sensor_candidate_cols] = False
        garbage[:, mask] = rng.uniform(-100, 100, size=(5, mask.sum()))
        pred_b = model.predict(garbage)
        assert np.allclose(pred_a, pred_b)
